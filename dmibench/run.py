"""Benchmark of the DMI reproduction: one workload per run, one JSON result.

Usage, from the root of a checkout::

    python3 dmibench/run.py --workload warm-grid --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``cold-model``, ``warm-grid``,
``broker-drain``.  A run prepares the workload's inputs from ``--seed``
(untimed), times its set-up in fresh interpreters, then repeats the
workload's pass on those same inputs until ``--seconds`` have elapsed (at
least three passes), checking every pass's output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, both timed in units of a reference kernel run next
to the program and scaled back to milliseconds and seconds at a fixed
reference speed (see ``reference.py``: the shared host's speed swings by
20-60% for seconds to minutes, which moved raw times by a quarter between
runs):

* ``pass_ms`` — median over the run's passes of the time of one pass.
* ``setup_s`` — median time for a fresh interpreter to import the program
  and get ready for the workload's first pass.

With ``--trace 1`` no reference kernel runs; the program's layers are timed
from outside (see ``layers.py``) and the metrics are per-pass means of each
layer's self time (raw wall time) and call counts, the untraced remainder
(``other_ms``) and the traced pass itself (``traced_pass_ms``).

Everything the run writes goes to a scratch directory inside the checkout
that is removed on exit.  Without the program's source next to this
directory the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from layers import LAYERS, LayerTracer
from reference import StepClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".dmibench-work"

#: Fresh-interpreter set-ups timed per run; the median is reported.
SETUP_REPEATS = 7
#: Reference kernel runs before and after each timed set-up.
SETUP_REFERENCE_SAMPLES = 9
#: Passes every run makes, however long they take.
MIN_PASSES = 3

#: Count metrics: (metric, tracer layer whose calls it counts).
COUNTS = (
    ("app_builds", "app_build"),
    ("rip_clicks", "rip_click"),
    ("token_estimates", "token_estimate"),
    ("serializations", "serialize"),
    ("broker_leases", "broker_lease"),
    ("store_lists", "store_list"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(args: argparse.Namespace, state: Path) -> float:
    """Seconds, at the reference speed, for one fresh interpreter to run the
    workload's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--state", str(state)]
    # One step of half a second: each reference point is the median of
    # several kernel runs.
    clock = StepClock(samples=SETUP_REFERENCE_SAMPLES)
    clock.start()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.PIPE, timeout=120)
    clock.finish()
    return clock.normalized_ms() / 1000


def layer_metrics(self_s: Dict[str, float], calls: Dict[str, int],
                  covered_s: float, walls: List[float]) -> Dict[str, object]:
    passes = len(walls) or 1
    metrics: Dict[str, object] = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (self_s.get(layer, 0.0) * 1000 / passes, "ms")
    for name, layer in COUNTS:
        metrics[name] = (calls.get(layer, 0) / passes, "count")
    hits = calls.get("model_load_hit", 0)
    metrics["cache_hits"] = (hits / passes, "count")
    metrics["cache_misses"] = ((calls.get("model_load", 0) - hits) / passes,
                               "count")
    metrics["other_ms"] = ((sum(walls) - covered_s) * 1000 / passes, "ms")
    metrics["traced_pass_ms"] = (sum(walls) * 1000 / passes, "ms")
    return metrics


def measure(args: argparse.Namespace, work: Path,
            workload_type: type) -> Dict[str, object]:
    tracer = None
    # Traced runs time the program alone, without the reference kernel.
    clock = StepClock(None if args.trace else workload_type.kernel(work))
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    workload = workload_type(args.seed, work, clock)
    errors: List[str] = []
    workload.prepare()
    setups = []
    for _ in range(SETUP_REPEATS):
        try:
            setups.append(time_setup(args, workload.state))
        except subprocess.SubprocessError as error:
            stderr = getattr(error, "stderr", b"") or b""
            errors.append(f"set-up failed: {error}\n{stderr.decode()}")
            break

    walls: List[float] = []
    passes_ms: List[float] = []
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    covered_s = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while not errors and (index < MIN_PASSES or time.perf_counter() < deadline):
        before = tracer.snapshot() if tracer else None
        attempted += workload.items
        clock.start()
        try:
            output = workload.run_pass(index)
        except Exception:
            failed += workload.items
            errors.append(f"pass {index} raised:\n{traceback.format_exc()}")
            break
        clock.finish()
        walls.append(clock.wall_s())
        if not args.trace:
            passes_ms.append(clock.normalized_ms())
        if tracer is not None:
            after = tracer.snapshot()
            for layer, seconds in after[0].items():
                self_s[layer] += seconds - before[0].get(layer, 0.0)
            for layer, count in after[1].items():
                calls[layer] += count - before[1].get(layer, 0)
            covered_s += after[2] - before[2]
        problems = workload.check_pass(index, output)
        if problems:
            failed += workload.items
            errors.extend(f"pass {index}: {problem}" for problem in problems)
        index += 1

    for error in errors:
        print(f"dmibench: {error}", file=sys.stderr)
    if tracer is not None:
        metrics = layer_metrics(self_s, calls, covered_s, walls)
    else:
        metrics = {
            "pass_ms": (statistics.median(passes_ms) if passes_ms else 0.0,
                        "ms"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        }
    if not attempted:  # set-up failed before the first pass
        attempted = failed = 1
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"dmibench: the program's source ({SRC / 'repro'}) is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload_type = workloads.WORKLOADS.get(args.workload)
    if workload_type is None:
        print(f"dmibench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload_type.setup_probe(args.seed, Path(args.state))
        return 0

    work = SCRATCH / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Keep the program's own temporary files inside the checkout too.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    try:
        result = measure(args, work, workload_type)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
