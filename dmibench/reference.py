"""Step timing in units of a fixed reference kernel.

The host this benchmark runs on is shared: its CPU throughput swings by
20-60% in bursts lasting from a fraction of a second to minutes, and a
process's CPU time swings with it, so neither wall nor CPU time of a pass
stays put from run to run.  What does stay put is the ratio between the
program's time and the time of a fixed piece of work run right next to it.
``StepClock`` runs that reference kernel before a pass and after every step
of it (the steps are the model builds, GUI clicks, trials or shards a
workload marks), and expresses each step's wall time as a multiple of the
mean of the two kernel runs around it.  The sum over the steps, times
``REFERENCE_MS``, is the pass time on a host where the kernel takes
``REFERENCE_MS``: a pass that does less work reads lower, a busier host
does not.

There are two kernels: ``cpu_kernel`` (pure interpreter work) for the
workloads that compute, and ``FilesystemKernel`` (half that, plus directory
scans and stats of a small fixed tree) for the one that drives a filesystem
object store, whose time goes mostly to such system calls.  Neither uses
anything from the program, so no change to the program can speed it up.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, List

#: The scale that turns reference units back into milliseconds: about the
#: wall time of one kernel run on a calm 2-vCPU cloud host.
REFERENCE_MS = 1.25
#: Iterations of the interpreter-bound kernel body in one ``cpu_kernel`` run.
CPU_ROUNDS = 100
#: Key directories in the ``FilesystemKernel`` tree, and scans per run.
FS_KEYS = 16
FS_SCANS = 8
#: Shortest step ``StepClock.tick`` ends; kernel runs at most every 50 ms
#: add about 3% of work that is not timed.
TICK_S = 0.05


class _Point:
    __slots__ = ("index", "label")

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label


def cpu_kernel(rounds: int = CPU_ROUNDS) -> int:
    """Interpreter-bound work of the kind the program does: small objects,
    dict and list building, sorting with a key, attribute access, JSON."""
    total = 0
    for _ in range(rounds):
        points = {f"k{i}": _Point(i, str(i)) for i in range(12)}
        ordered = sorted(points.values(), key=lambda p: (p.label, p.index))
        total += len(json.dumps([p.label for p in ordered]))
        total += sum(p.index for p in ordered if p.index % 3)
    return total


class FilesystemKernel:
    """Half a ``cpu_kernel`` plus scans of a tree shaped like an object
    store's: one directory per key, one small file in each."""

    def __init__(self, root: Path) -> None:
        self.root = root
        for index in range(FS_KEYS):
            key_dir = root / f"k{index:02d}"
            key_dir.mkdir(parents=True, exist_ok=True)
            (key_dir / "g0000000000").write_bytes(b"x" * 100)

    def __call__(self) -> int:
        total = cpu_kernel(CPU_ROUNDS // 4)
        for _ in range(FS_SCANS):
            for child in self.root.iterdir():
                if child.is_dir():
                    with os.scandir(child) as entries:
                        total += sum(entry.stat().st_size for entry in entries)
        return total


def time_kernel(kernel: Callable[[], object], samples: int = 1) -> float:
    """Median wall time of ``samples`` kernel runs."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class StepClock:
    """Times the steps of one pass; ``mark`` ends a step.

    With ``kernel=None`` no reference runs (traced runs time the program
    alone) and only raw wall times are kept.
    """

    def __init__(self, kernel: Callable[[], object] | None = cpu_kernel,
                 samples: int = 1) -> None:
        self.kernel = kernel
        #: Kernel runs per reference point; a point is their median.
        self.samples = samples
        self.steps: List[float] = []
        self.refs: List[float] = []
        self._started = 0.0

    def _reference(self) -> None:
        if self.kernel is not None:
            self.refs.append(time_kernel(self.kernel, self.samples))

    def start(self) -> None:
        self.steps = []
        self.refs = []
        self._reference()
        self._started = time.perf_counter()

    def mark(self, *_event) -> None:
        self.steps.append(time.perf_counter() - self._started)
        self._reference()
        self._started = time.perf_counter()

    def tick(self, *_event) -> None:
        """End the current step if it has run for ``TICK_S``: for passes
        whose marked steps are too long to track the host's bursts."""
        if time.perf_counter() - self._started >= TICK_S:
            self.mark()

    def finish(self) -> None:
        """End the pass's last step."""
        self.mark()

    def wall_s(self) -> float:
        """The pass's own wall time, kernel runs excluded."""
        return sum(self.steps)

    def normalized_ms(self) -> float:
        """The pass time in milliseconds at the reference speed."""
        units = sum(step * 2 / (before + after) for step, before, after
                    in zip(self.steps, self.refs[:-1], self.refs[1:],
                           strict=True))
        return units * REFERENCE_MS
