"""Compare two checkouts on one dmibench workload in alternating pairs.

Usage, from anywhere::

    python3 benchmarks/ab_pairs.py PARENT HEAD WORKLOAD PAIRS

Runs ``dmibench/run.py --trace 0`` in each checkout for ``BENCHMARK.json``'s
``run_seconds``, ``PAIRS`` times each, in ABBA order (parent first in even
pairs, head first in odd ones) so a drift of the host's speed falls on both
sides alike.  Both runs of a pair use the same seed; no seed is one that
``trajectory_point.py`` measures at.  Each run is parsed by
:func:`trajectory_point.measure`, so dmibench output has one parser.

Both checkouts' ``.dmibench-work`` (where dmibench puts its scratch files,
the broker's object store among them) are links to one shared temporary
directory while the pairs run, so the two sides do not differ by where
their files land on disk.  The links and the directory are removed on exit.

For each end-to-end metric the script prints each side's median and
interquartile range, how many pairs the head won, and the ratio of the
medians (head / parent).  A run that fails, or that reports ``correct:
false``, ends the script with a nonzero status.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "trajectory_point", Path(__file__).resolve().parent / "trajectory_point.py")
trajectory_point = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory_point)

#: Pair ``i`` runs at seed ``FIRST_SEED + i``.
FIRST_SEED = 101
#: The metrics compared, all lower-is-better.
METRICS = ("pass_ms", "setup_s")
WORK = ".dmibench-work"

#: ``(checkout, command) -> (exit status, standard output)``.
Runner = Callable[[Path, List[str]], Tuple[int, str]]


def run_in(checkout: Path, command: List[str]) -> Tuple[int, str]:
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout


def seeds(pairs: int) -> List[int]:
    chosen = [FIRST_SEED + index for index in range(pairs)]
    assert not set(chosen) & set(trajectory_point.SEEDS.values())
    return chosen


def link_work(checkouts: Sequence[Path], shared: Path) -> List[Path]:
    """Point each checkout's ``.dmibench-work`` at ``shared``; return the
    links made.  A checkout that already has one is refused, since a run
    would write into it."""
    made = []
    try:
        for checkout in checkouts:
            link = checkout / WORK
            if link.exists() or link.is_symlink():
                raise trajectory_point.PointError(
                    f"{link} exists; remove it before comparing")
            link.symlink_to(shared, target_is_directory=True)
            made.append(link)
    except BaseException:
        unlink_all(made)
        raise
    return made


def unlink_all(links: Sequence[Path]) -> None:
    for link in links:
        if link.is_symlink():
            link.unlink()


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def compare(parent: Path, head: Path, workload: str, pairs: int,
            run: Runner = run_in) -> Dict[str, Dict[str, List[float]]]:
    """Each side's runs of ``workload``, metric by metric, in pair order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    sides = {"parent": parent, "head": head}
    found = {side: {metric: [] for metric in METRICS} for side in sides}
    for index, seed in enumerate(seeds(pairs)):
        order = ("parent", "head") if index % 2 == 0 else ("head", "parent")
        for side in order:
            entry = trajectory_point.measure(
                workload, seed, seconds, bench["command"],
                partial(run, sides[side]))
            for metric in METRICS:
                found[side][metric].append(entry[metric])
    return found


def report(found: Dict[str, Dict[str, List[float]]]) -> List[str]:
    lines = [f"{'metric':<8} {'parent median [IQR]':>28} "
             f"{'head median [IQR]':>28} {'head won':>9} {'head/parent':>12}"]
    for metric in METRICS:
        parent, head = found["parent"][metric], found["head"][metric]
        cells = []
        for values in (parent, head):
            low, high = quartiles(values)
            cells.append(f"{statistics.median(values):.4g} "
                         f"[{low:.4g}-{high:.4g}]")
        won = sum(h < p for p, h in zip(parent, head))
        ratio = statistics.median(head) / statistics.median(parent)
        lines.append(f"{metric:<8} {cells[0]:>28} {cells[1]:>28} "
                     f"{f'{won}/{len(head)}':>9} {ratio:>12.3f}")
    return lines


def main(argv: List[str], run: Runner = run_in) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        print("usage: ab_pairs.py PARENT HEAD WORKLOAD PAIRS", file=sys.stderr)
        return 2
    parent, head = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, pairs = argv[2], int(argv[3])
    shared = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    try:
        links = link_work((parent, head), shared)
        try:
            found = compare(parent, head, workload, pairs, run)
        finally:
            unlink_all(links)
    except trajectory_point.PointError as error:
        print(f"ab_pairs: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(shared, ignore_errors=True)
    print(f"{workload}: {pairs} ABBA pairs, seeds {FIRST_SEED}-"
          f"{FIRST_SEED + pairs - 1}; parent {parent}, head {head}")
    print("\n".join(report(found)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
