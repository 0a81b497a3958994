"""Write one point of the perf trajectory (``BENCH_<n>.json``) from dmibench.

Usage, from anywhere in a checkout::

    python3 benchmarks/trajectory_point.py BENCH_30.json

Runs ``dmibench/run.py --trace 0`` once for each workload that
``BENCHMARK.json`` names, at the workload's seed in :data:`SEEDS` and for
the file's ``run_seconds``, then writes the output path.  Every point has
the same keys (see :func:`point`), so any two points compare key by key.

When a run exits nonzero, when its last line of output is not a JSON
result, or when it reports ``correct: false``, the script exits nonzero and
writes no file.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

KIND = "repro-perf-trajectory"
FORMAT_VERSION = 1

#: The fixed seed each workload runs at, the same in every point.
SEEDS = {"cold-model": 1, "warm-grid": 1, "broker-drain": 1}

#: ``(command) -> (exit status, standard output)``.
Runner = Callable[[List[str]], Tuple[int, str]]


class PointError(RuntimeError):
    """A workload run failed, so the point would not be a measurement."""


def run_command(command: List[str]) -> Tuple[int, str]:
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout


def measure(name: str, seed: int, seconds: float, command: Sequence[str],
            run: Runner) -> Dict[str, object]:
    """One workload's entry in the point, from one dmibench run."""
    status, stdout = run([*command, "--workload", name, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"])
    if status != 0:
        raise PointError(f"{name}: dmibench exited with status {status}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        entry = {
            "seed": seed,
            "pass_ms": float(metrics["pass_ms"]["value"]),
            "setup_s": float(metrics["setup_s"]["value"]),
            "correct": result["correct"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
        }
    except (IndexError, ValueError, TypeError, KeyError):
        raise PointError(f"{name}: the last line of dmibench's output is not "
                         f"a result: {lines[-1:]!r}") from None
    if entry["correct"] is not True:
        raise PointError(f"{name}: dmibench reported correct: "
                         f"{entry['correct']!r} ({entry['failed']} of "
                         f"{entry['attempted']} failed)")
    return entry


def point(run: Runner = run_command) -> Dict[str, object]:
    """Measure every workload in ``BENCHMARK.json``; the point to write."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in SEEDS:
            raise PointError(f"{name}: no seed is fixed for this workload; "
                             "add it to SEEDS")
        workloads[name] = measure(name, SEEDS[name], seconds,
                                  bench["command"], run)
    return {
        "kind": KIND,
        "format_version": FORMAT_VERSION,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": workloads,
    }


def main(argv: List[str], run: Runner = run_command) -> int:
    if len(argv) != 1:
        print("usage: trajectory_point.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    try:
        payload = point(run)
    except PointError as error:
        print(f"trajectory_point: {error}; no point written", file=sys.stderr)
        return 1
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
