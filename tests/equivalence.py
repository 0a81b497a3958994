"""Reusable equivalence harness: every execution path must be bit-identical.

The strongest guarantee this codebase sells is that the *same* (seed, grid)
produces the *same bytes* no matter how the work is executed.  This helper
runs one grid through every execution path and returns each path's canonical
JSON export so tests can compare them byte-for-byte:

``serial``
    :class:`~repro.bench.engine.SerialExecutor` in-process — the reference
    semantics everything else must match.
``parallel``
    :class:`~repro.bench.engine.ParallelExecutor` over a 2-process pool.
``file-shards``
    PR 2's file pipeline: ``plan_shards`` → manifests written to and
    re-loaded from disk → one :class:`~repro.bench.shard.ManifestExecutor`
    per manifest → results files → ``merge_shard_results``.
``broker``
    The queue: :class:`~repro.bench.transport.ObjectStoreBroker` over a
    :class:`~repro.bench.store.FileSystemObjectStore` ``submit`` → two
    sequential :class:`~repro.bench.transport.ShardWorker` pull loops (CAS
    leases, heartbeats at their defaults) → ``collect`` →
    ``merge_shard_results``.  :func:`run_chaos_store_broker` and
    :func:`run_multi_plan_broker` drive the same queue under a hostile
    fault schedule and with several plans sharing one broker.

Use :func:`assert_paths_bit_identical` from a test, parametrized over seeds
and shard counts; it returns the reference bytes for extra assertions.

Since PR 5 every path also runs under its own
:class:`~repro.bench.telemetry.AggregatingSink`, and
:func:`assert_paths_bit_identical` extends the guarantee from "same bytes"
to "same bytes, and the telemetry agrees": every path must report the same
number of started/finished trials and the same total simulated wall clock
(the *events* differ — cache/lease/backoff traffic is path-specific — but
the trial aggregates must not).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    RunOutcome,
    setting_by_key,
)
from repro.bench.shard import (
    ManifestExecutor,
    ShardManifest,
    ShardResults,
    merge_shard_results,
    plan_shards,
)
from repro.bench.faults import FaultSchedule, FaultSpec, FaultyObjectStore
from repro.bench.tasks import task_by_id
from repro.bench.store import FileSystemObjectStore, RetryPolicy
from repro.bench.telemetry import SIMULATED_TIMERS, AggregatingSink, use_sink
from repro.bench.transport import ObjectStoreBroker, ShardWorker
from repro.cli import export_settings_payload

#: A small two-app grid that still exercises both interface stacks.
DEFAULT_TASKS = ("ppt-01-blue-background", "word-02-landscape")
DEFAULT_SETTINGS = ("gui-gpt5-medium", "dmi-gpt5-medium")

#: A small generated scenario (2 visible tabs, dialog chain with a UI
#: cycle, one contextual tab, 4 tasks) used to prove the four-path
#: guarantee holds for synthetic apps too.  The token alone is the
#: fixture: every worker process regenerates the app and tasks from the
#: ``syn:`` ids.
SYNTHETIC_SPEC = "s3-t2-g1-c2-y3-m2-d2-cy1-x1-n4"


def synthetic_task_ids(spec: str = SYNTHETIC_SPEC) -> Tuple[str, ...]:
    from repro.apps.synthetic import SyntheticSpec, synthetic_suite

    return tuple(task.task_id
                 for task in synthetic_suite(SyntheticSpec.parse(spec)))


def outcomes_bytes(outcomes: Dict[str, RunOutcome]) -> bytes:
    """One canonical byte serialization of a run's outcomes.

    Uses the CLI's own ``--export`` settings payload (label + aggregate
    summary + every per-trial result) — not a test-local mirror of it — and
    excludes execution-specific config, so two paths agree exactly when
    their *results* agree exactly.
    """
    return json.dumps(export_settings_payload(outcomes), indent=1,
                      ensure_ascii=False).encode("utf-8")


def _runner(seed: int, trials: int, task_ids: Sequence[str],
            jobs: int = 1, cache_dir=None) -> BenchmarkRunner:
    return BenchmarkRunner(BenchmarkConfig(
        trials=trials, seed=seed, jobs=jobs, cache_dir=cache_dir,
        tasks=[task_by_id(task_id) for task_id in task_ids]))


def run_serial(seed: int, trials: int, setting_keys: Sequence[str],
               task_ids: Sequence[str]) -> bytes:
    runner = _runner(seed, trials, task_ids)
    return outcomes_bytes(runner.run_settings(
        [setting_by_key(key) for key in setting_keys]))


def run_parallel(seed: int, trials: int, setting_keys: Sequence[str],
                 task_ids: Sequence[str], work_dir: Path) -> bytes:
    runner = _runner(seed, trials, task_ids, jobs=2,
                     cache_dir=work_dir / "parallel-cache")
    return outcomes_bytes(runner.run_settings(
        [setting_by_key(key) for key in setting_keys]))


def run_file_shards(seed: int, trials: int, setting_keys: Sequence[str],
                    task_ids: Sequence[str], shard_count: int,
                    work_dir: Path) -> bytes:
    plan = plan_shards(shard_count, seed=seed, trials=trials,
                       setting_keys=setting_keys, task_ids=task_ids)
    manifest_paths = plan.write(work_dir / "manifests")
    executor = ManifestExecutor(cache_dir=work_dir / "shard-cache")
    result_paths = []
    for path in manifest_paths:
        shard = executor.run(ShardManifest.load(path))
        result_paths.append(shard.save(
            work_dir / "results" / f"results-{shard.manifest.shard_index}.json"))
    merged = merge_shard_results([ShardResults.load(path)
                                  for path in result_paths])
    return outcomes_bytes(merged)


def run_broker(seed: int, trials: int, setting_keys: Sequence[str],
               task_ids: Sequence[str], shard_count: int,
               work_dir: Path) -> bytes:
    plan = plan_shards(shard_count, seed=seed, trials=trials,
                       setting_keys=setting_keys, task_ids=task_ids)
    broker = ObjectStoreBroker(FileSystemObjectStore(work_dir / "store"))
    broker.submit(plan)
    cache_dir = work_dir / "broker-cache"
    # Two workers sharing one cache dir, like two machines on shared storage:
    # the first takes exactly one manifest, the second drains the rest.
    # Heartbeats stay at their default (lease_ttl / 3) so the background
    # renewal thread rides along.
    ShardWorker(broker, ManifestExecutor(cache_dir=cache_dir),
                worker_id="equivalence-w0", poll=0, max_manifests=1).run()
    ShardWorker(broker, ManifestExecutor(cache_dir=cache_dir),
                worker_id="equivalence-w1", poll=0).run()
    merged = merge_shard_results(broker.collect())
    return outcomes_bytes(merged)


def hostile_fault_schedule(seed: int = 8) -> FaultSchedule:
    """The canonical chaos-smoke adversary: transient error bursts on every
    store operation.  Latency/CAS-loss/truncation injection are covered by
    dedicated conformance clauses; this schedule is the one the equivalence
    guarantee is proven under.  It faults one call in four (in bursts of
    two): a two-shard drain makes only a few calls per op, which a sparser
    storm can miss entirely."""
    spec = FaultSpec(error_rate=0.25, error_burst=2)
    return FaultSchedule(seed=seed, ops={
        op: spec for op in ("put_if_absent", "put_if_match", "get",
                            "list_prefix", "delete")})


def run_chaos_store_broker(seed: int, trials: int,
                           setting_keys: Sequence[str],
                           task_ids: Sequence[str], shard_count: int,
                           work_dir: Path,
                           schedule: FaultSchedule = None) -> bytes:
    """The ``broker`` path with a hostile :class:`FaultSchedule`
    raining on the object store: the broker's bounded retries must absorb
    every injected transient, so the merged export stays byte-identical to
    serial — the chaos-conformance form of the equivalence guarantee."""
    if schedule is None:
        schedule = hostile_fault_schedule()
    plan = plan_shards(shard_count, seed=seed, trials=trials,
                       setting_keys=setting_keys, task_ids=task_ids)
    store = FaultyObjectStore(FileSystemObjectStore(work_dir / "store"),
                              schedule, sleep=lambda _delay: None)
    broker = ObjectStoreBroker(store, retry=RetryPolicy(
        attempts=32, backoff_base_s=0.0, sleep=lambda _delay: None))
    broker.submit(plan)
    submitted = store.injected.snapshot()["errors"]
    cache_dir = work_dir / "chaos-cache"
    ShardWorker(broker, ManifestExecutor(cache_dir=cache_dir),
                worker_id="equivalence-c0", poll=0, max_manifests=1).run()
    ShardWorker(broker, ManifestExecutor(cache_dir=cache_dir),
                worker_id="equivalence-c1", poll=0).run()
    assert store.injected.snapshot()["errors"] > submitted, (
        "the hostile schedule injected nothing into the drain — the chaos "
        "run proved nothing beyond the plain broker path")
    merged = merge_shard_results(broker.collect())
    return outcomes_bytes(merged)


def run_multi_plan_broker(seeds: Sequence[int], trials: int,
                          setting_keys: Sequence[str],
                          task_ids: Sequence[str], shard_count: int,
                          work_dir: Path) -> Dict[str, bytes]:
    """PR 7's multi-tenant path: one broker, one worker, several plans.

    Every seed becomes its own named plan (``seed-<n>``) on a single
    :class:`~repro.bench.transport.ObjectStoreBroker`; one non-daemon worker
    drains the whole broker across plan namespaces in fair-share order,
    then each plan is collected by name.  Returns ``{plan_name: bytes}``
    so tests can compare each export against the serial run of the same
    seed — proving plans sharing a broker (and a worker, and a cache)
    stay bit-identical to plans run alone.
    """
    work_dir = Path(work_dir)
    broker = ObjectStoreBroker(FileSystemObjectStore(work_dir / "store"))
    for seed in seeds:
        broker.submit(plan_shards(shard_count, seed=seed, trials=trials,
                                  setting_keys=setting_keys,
                                  task_ids=task_ids),
                      name=f"seed-{seed}")
    worker = ShardWorker(broker, ManifestExecutor(
        cache_dir=work_dir / "multi-cache"),
        worker_id="equivalence-multi", poll=0)
    worker.run()
    assert set(worker.results_by_plan) == {f"seed-{seed}" for seed in seeds}
    return {name: outcomes_bytes(merge_shard_results(broker.collect(name)))
            for name in (f"seed-{seed}" for seed in seeds)}


def run_all_paths_with_telemetry(
        seed: int, trials: int, setting_keys: Sequence[str],
        task_ids: Sequence[str], shard_count: int,
        work_dir: Path) -> Dict[str, Tuple[bytes, AggregatingSink]]:
    """Execute the grid through all four paths, each under a fresh
    :class:`AggregatingSink` installed as the process default; returns
    ``(export bytes, sink)`` per path."""
    work_dir = Path(work_dir)
    paths: Dict[str, Callable[[], bytes]] = {
        "serial": lambda: run_serial(seed, trials, setting_keys, task_ids),
        "parallel": lambda: run_parallel(seed, trials, setting_keys,
                                         task_ids, work_dir / "parallel"),
        "file-shards": lambda: run_file_shards(
            seed, trials, setting_keys, task_ids, shard_count,
            work_dir / "file-shards"),
        "broker": lambda: run_broker(seed, trials, setting_keys, task_ids,
                                     shard_count, work_dir / "broker"),
    }
    out: Dict[str, Tuple[bytes, AggregatingSink]] = {}
    for name, thunk in paths.items():
        with use_sink(AggregatingSink()) as sink:
            out[name] = (thunk(), sink)
    return out


def run_all_paths(seed: int, trials: int, setting_keys: Sequence[str],
                  task_ids: Sequence[str], shard_count: int,
                  work_dir: Path) -> Dict[str, bytes]:
    """Execute the grid through all four paths; one bytes blob per path."""
    return {name: blob for name, (blob, _) in
            run_all_paths_with_telemetry(seed, trials, setting_keys,
                                         task_ids, shard_count,
                                         work_dir).items()}


def assert_telemetry_parity(sinks: Dict[str, AggregatingSink],
                            expected_trials: int) -> None:
    """Every path reported the same trial counts and simulated totals.

    Real timings (``trial_seconds``, rip/build phases) are path-specific
    and not compared; the deterministic aggregates — how many trials ran,
    and their total simulated wall clock / plan / act — must agree
    (tolerance: float summation order differs between completion orders).
    """
    reference = sinks["serial"]
    expected_wall = reference.timer("trial_wall_s").total
    for name, sink in sinks.items():
        for counter in ("trial_started", "trial_finished"):
            assert sink.count(counter) == expected_trials, (
                f"path {name!r} reported {sink.count(counter)} "
                f"{counter} events; expected {expected_trials}")
        for timer_name in sorted(SIMULATED_TIMERS):
            timer = sink.timer(timer_name)
            assert timer is not None and timer.count == expected_trials, (
                f"path {name!r} is missing {timer_name} observations")
        total = sink.timer("trial_wall_s").total
        assert math.isclose(total, expected_wall, rel_tol=1e-9), (
            f"path {name!r} total simulated wall clock {total} diverged "
            f"from serial's {expected_wall}")


def assert_paths_bit_identical(seed: int, trials: int,
                               setting_keys: Sequence[str],
                               task_ids: Sequence[str], shard_count: int,
                               work_dir: Path) -> bytes:
    """Assert all four exports are byte-identical (and their telemetry
    trial aggregates agree); returns the reference bytes."""
    exports = run_all_paths_with_telemetry(seed, trials, setting_keys,
                                           task_ids, shard_count, work_dir)
    reference = exports["serial"][0]
    for name, (blob, _) in exports.items():
        assert blob == reference, (
            f"execution path {name!r} diverged from serial for seed={seed}, "
            f"shards={shard_count} ({len(blob)} vs {len(reference)} bytes)")
    assert_telemetry_parity(
        {name: sink for name, (_, sink) in exports.items()},
        expected_trials=trials * len(setting_keys) * len(task_ids))
    return reference
