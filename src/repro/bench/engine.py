"""The benchmark execution engine: work-unit scheduling and executors.

The paper's evaluation protocol is a grid — interface×model settings × tasks
× trials (Table 3 alone is 8 × 27 × 3 = 648 sessions).  Every cell is a
:class:`TrialSpec`, deterministically seeded from the benchmark seed via
:func:`trial_seed`, which makes the grid embarrassingly parallel: a trial's
outcome depends only on its spec and the (version-specific, machine-
independent) offline navigation model.

Two executors realise the schedule:

* :class:`SerialExecutor` — runs specs in order in-process; the reference
  implementation every other executor must match bit-for-bit.
* :class:`ParallelExecutor` — fans specs out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker process gets
  its own application instances (trials never share mutable app state), loads
  the offline model from the on-disk :class:`~repro.dmi.cache.ArtifactCache`
  instead of re-ripping, ships results back as plain dicts
  (:meth:`~repro.agent.session.SessionResult.as_dict`), and the parent
  reassembles them **in spec order**, so aggregate output is identical to the
  serial executor's for the same seed.

Both stream :class:`ProgressEvent`\\ s to an optional callback as trials
complete (in completion order, which for the parallel executor may differ
from spec order).
"""

from __future__ import annotations

import tempfile
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING
import zlib

from repro.agent.session import SessionResult
from repro.bench import telemetry
from repro.bench.observe import trace as tracectx
from repro.bench.telemetry import TrialFinished, TrialStarted, phases_from_result

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.bench.runner import BenchmarkRunner


def trial_seed(base_seed: int, task_id: str, setting_key: str, trial: int) -> int:
    """Deterministic per-trial seed; independent of execution order/process."""
    key = f"{base_seed}|{task_id}|{setting_key}|{trial}"
    return zlib.crc32(key.encode("utf-8"))


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable work unit: task × evaluation setting × trial index.

    Pure plain data (strings and ints) so specs cross process boundaries and
    can be exported/replayed; the fully derived ``seed`` travels with the
    spec so any executor reproduces the exact trial.
    """

    task_id: str
    setting_key: str
    trial: int
    seed: int

    def as_dict(self) -> Dict[str, object]:
        return {"task_id": self.task_id, "setting_key": self.setting_key,
                "trial": self.trial, "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrialSpec":
        return cls(task_id=payload["task_id"], setting_key=payload["setting_key"],
                   trial=int(payload["trial"]), seed=int(payload["seed"]))

    @property
    def trace_id(self) -> str:
        """Deterministic trace id for this trial's telemetry.

        Derived (never stored) from the same identity fields as ``seed``
        itself, so the id is byte-identical across the serial, process-
        pool, shard-file and both broker execution paths — and the spec's
        wire format is unchanged.
        """
        return tracectx.trial_trace_id(self)


def expand_trial_specs(base_seed: int, trials: int, setting_keys: Sequence[str],
                       task_ids: Sequence[str]) -> List[TrialSpec]:
    """The canonical schedule: settings × tasks × trials, in that nesting."""
    return [
        TrialSpec(task_id=task_id, setting_key=setting_key, trial=trial,
                  seed=trial_seed(base_seed, task_id, setting_key, trial))
        for setting_key in setting_keys
        for task_id in task_ids
        for trial in range(trials)
    ]


@dataclass(frozen=True)
class ProgressEvent:
    """Streamed to the progress callback after each completed trial."""

    completed: int
    total: int
    spec: TrialSpec
    result: SessionResult


ProgressCallback = Callable[[ProgressEvent], None]


class Executor(ABC):
    """Turns a list of :class:`TrialSpec` into a list of results.

    Contract: the returned list is **in spec order** regardless of the
    completion order, so aggregation downstream is executor-independent.
    """

    @abstractmethod
    def run(self, runner: "BenchmarkRunner", specs: Sequence[TrialSpec],
            progress: Optional[ProgressCallback] = None) -> List[SessionResult]:
        """Execute every spec and return results aligned with ``specs``."""


class SerialExecutor(Executor):
    """In-process, in-order execution (the reference semantics)."""

    def run(self, runner: "BenchmarkRunner", specs: Sequence[TrialSpec],
            progress: Optional[ProgressCallback] = None) -> List[SessionResult]:
        specs = list(specs)
        results: List[SessionResult] = []
        for index, spec in enumerate(specs):
            result = runner.run_spec(spec)
            results.append(result)
            if progress is not None:
                progress(ProgressEvent(completed=index + 1, total=len(specs),
                                       spec=spec, result=result))
        return results


# ----------------------------------------------------------------------
# process-pool execution
# ----------------------------------------------------------------------
#: Per-process benchmark runner, created once by the pool initializer so all
#: specs handled by one worker share offline artefacts (loaded from cache).
_WORKER_RUNNER: Optional["BenchmarkRunner"] = None


def _worker_init(dmi_config, cache_dir: str,
                 cache_max_entries: Optional[int] = None) -> None:
    global _WORKER_RUNNER
    from repro.bench.runner import BenchmarkConfig, BenchmarkRunner

    # On fork-start platforms the child inherits the parent's process-default
    # sink (including any open JsonlSink file descriptor); the parent already
    # emits every trial's events itself, so a worker emitting too would
    # double-count each trial.  Telemetry is parent-side only in pool runs.
    telemetry.set_default_sink(None)
    # run_spec reads each spec's own seed, so the config's trials and seed
    # are never read here.
    _WORKER_RUNNER = BenchmarkRunner(BenchmarkConfig(
        dmi=dmi_config, cache_dir=cache_dir,
        cache_max_entries=cache_max_entries))


def _worker_run(payload: Dict[str, object]) -> Tuple[Dict[str, object], float]:
    """Run one spec in a pool worker: its result and its measured seconds."""
    assert _WORKER_RUNNER is not None, "worker pool used before initialization"
    started = time.perf_counter()
    result = _WORKER_RUNNER.run_spec(TrialSpec.from_dict(payload))
    return result.as_dict(), time.perf_counter() - started


class ParallelExecutor(Executor):
    """Fans trials out over worker processes; output matches serial exactly.

    Requirements beyond :class:`SerialExecutor`: every spec must reference a
    registry task (:func:`repro.bench.tasks.task_by_id`) and a Table 3
    setting key, because workers re-resolve both by name in a fresh process.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, runner: "BenchmarkRunner", specs: Sequence[TrialSpec],
            progress: Optional[ProgressCallback] = None) -> List[SessionResult]:
        from repro.bench.runner import setting_by_key
        from repro.bench.tasks import task_by_id
        from repro.dmi.cache import ArtifactCache

        specs = list(specs)
        if not specs:
            return []
        apps = set()
        for task_id, setting_key in {(s.task_id, s.setting_key) for s in specs}:
            try:
                registry_task = task_by_id(task_id)
                registry_setting = setting_by_key(setting_key)
            except KeyError as error:
                raise ValueError(
                    "ParallelExecutor workers resolve tasks and settings by "
                    f"name in fresh processes; {error} is not in the registry. "
                    "Use SerialExecutor for ad-hoc tasks/settings.") from error
            parent_task = runner._resolve_task(task_id)
            if parent_task != registry_task:
                raise ValueError(
                    f"task {task_id!r} was customized away from its registry "
                    "definition; workers would run the registry version, "
                    "breaking serial/parallel equivalence. Use SerialExecutor "
                    "for customized tasks.")
            parent_setting = runner._resolve_setting(setting_key)
            if parent_setting != registry_setting:
                raise ValueError(
                    f"setting {setting_key!r} was customized away from its "
                    "registry definition; workers would run the registry "
                    "version, breaking serial/parallel equivalence. Use "
                    "SerialExecutor for customized settings.")
            apps.add(registry_task.app)

        # A scratch directory is only needed when no persistent cache is
        # configured; with a cache_dir, workers share the runner's own cache
        # (and its hit/miss counters stay authoritative).
        scratch: Optional[tempfile.TemporaryDirectory] = None
        try:
            if runner.config.cache_dir is not None and runner.cache is not None:
                cache_dir = runner.config.cache_dir
                cache = runner.cache
            else:
                scratch = tempfile.TemporaryDirectory(prefix="repro-cache-")
                cache_dir = scratch.name
                cache = ArtifactCache(
                    cache_dir, runner.config.dmi,
                    max_entries=runner.config.cache_max_entries)
            # Pre-warm the on-disk cache from the parent so the rip phase
            # runs (at most) once per app instead of once per worker.  The
            # pre-warm goes through the cache's own load_or_build so warm
            # entries count as hits and fresh rips as misses.
            for app_name in sorted(apps):
                in_memory = runner._artifacts.get(app_name)
                if in_memory is not None:
                    # Already ripped in this process; persist for the
                    # workers without re-building.
                    if not cache.path_for(app_name).exists():
                        cache.store(app_name, in_memory)
                else:
                    runner._artifacts[app_name] = cache.load_or_build(app_name)
            results: List[Optional[SessionResult]] = [None] * len(specs)
            # Trials execute in worker processes whose default sinks are
            # reset to null by _worker_init, so the parent emits the trial
            # events: started at submit, finished per completion.  A
            # trial's real seconds are the worker's own measurement of its
            # run, sent back with the result; the simulated wall clock and
            # plan/act phases come from the result and match what a serial
            # run would have emitted.
            sink = telemetry.default_sink()
            # Trace contexts are parent-side too: each trial gets its
            # deterministic trace (parented to the ambient span, e.g. a
            # shard lease, when one is active) and the finished event
            # carries submit-to-completion elapsed as the span duration.
            spans: Dict[int, Tuple[tracectx.SpanContext, float]] = {}
            with ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_worker_init,
                    initargs=(runner.config.dmi, str(cache_dir),
                              runner.config.cache_max_entries)) as pool:
                futures = {}
                for index, spec in enumerate(specs):
                    if sink:
                        ctx = tracectx.trial_context(spec, tracectx.current())
                        spans[index] = (ctx, time.perf_counter())
                        sink.emit(ctx.attach(TrialStarted(
                            task_id=spec.task_id,
                            setting_key=spec.setting_key,
                            trial=spec.trial)))
                    futures[pool.submit(_worker_run, spec.as_dict())] = index
                completed = 0
                for future in as_completed(futures):
                    index = futures[future]
                    payload, seconds = future.result()
                    result = SessionResult.from_dict(payload)
                    results[index] = result
                    completed += 1
                    if sink:
                        spec = specs[index]
                        ctx, submitted = spans[index]
                        sink.emit(ctx.attach(TrialFinished(
                            task_id=spec.task_id, setting_key=spec.setting_key,
                            trial=spec.trial, success=result.success,
                            seconds=seconds, wall_s=result.wall_time_s,
                            phases=phases_from_result(result)),
                            duration_s=time.perf_counter() - submitted))
                    if progress is not None:
                        progress(ProgressEvent(completed=completed, total=len(specs),
                                               spec=specs[index], result=result))
        finally:
            if scratch is not None:
                scratch.cleanup()
        return results  # type: ignore[return-value]
