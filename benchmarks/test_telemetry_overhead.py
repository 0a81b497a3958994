"""Telemetry overhead guard: the default NullSink must cost ~nothing.

PR 5 threads instrumentation points through every hot path (trial
execution, cache loads, broker leases).  The contract that makes that
acceptable is the NullSink guard pattern — ``sink = default_sink();
if sink: sink.emit(Event(...))`` — which, with telemetry off, pays one
module-global read and one (constant-false) truthiness check and never
constructs an event.  This bench pins that contract two ways:

* a micro-benchmark of the guard pattern itself, asserting the per-site
  cost stays in the nanosecond regime (a generous microsecond-scale bound,
  so the assertion is hardware noise-proof);
* the same warm-cache grid executed with telemetry off (default NullSink)
  and with a live AggregatingSink, both recorded in ``extra_info`` — the
  off path must not be meaningfully slower than the on path (it does
  strictly less work), and both must produce identical results.
"""

from __future__ import annotations

import time

from repro.bench.metrics import aggregate
from repro.bench.runner import BenchmarkConfig, BenchmarkRunner, setting_by_key
from repro.bench.tasks import tasks_for_app
from repro.bench.telemetry import AggregatingSink, default_sink, use_sink

TRIALS = 2
SETTING_KEYS = ("gui-gpt5-medium", "dmi-gpt5-medium")

#: Guard iterations for the micro-bench; enough to average out timer noise.
GUARD_ITERATIONS = 200_000

#: Upper bound on one NullSink guard check.  The real cost is tens of
#: nanoseconds; 5 µs keeps the assertion meaningful (a mistakenly
#: constructed event or dict allocation per check would blow it) without
#: ever tripping on slow CI hardware.
MAX_SECONDS_PER_CHECK = 5e-6


def test_null_sink_guard_is_nanoscale(benchmark):
    """The emit-site pattern with telemetry off: default_sink + truthiness."""

    def guard_loop():
        checked = 0
        for _ in range(GUARD_ITERATIONS):
            sink = default_sink()
            if sink:  # pragma: no cover - never true under the NullSink
                checked += 1
        return checked

    assert benchmark.pedantic(guard_loop, rounds=3, iterations=1) == 0
    per_check = benchmark.stats.stats.min / GUARD_ITERATIONS
    benchmark.extra_info.update({
        "iterations": GUARD_ITERATIONS,
        "seconds_per_check": per_check,
    })
    assert per_check < MAX_SECONDS_PER_CHECK, (
        f"NullSink guard costs {per_check * 1e9:.0f}ns per instrumented "
        f"site; the zero-overhead contract allows "
        f"{MAX_SECONDS_PER_CHECK * 1e9:.0f}ns")


def test_instrumented_grid_pays_nothing_under_the_null_sink(
        benchmark, tmp_path_factory):
    """Same warm-cache grid, telemetry off vs on: off must not lose."""
    tasks = tasks_for_app("powerpoint")
    settings = [setting_by_key(key) for key in SETTING_KEYS]
    cache_dir = tmp_path_factory.mktemp("telemetry-cache")

    def fresh_runner() -> BenchmarkRunner:
        return BenchmarkRunner(BenchmarkConfig(trials=TRIALS, tasks=tasks,
                                               cache_dir=cache_dir))

    # Untimed warm-up: both timed runs load models from the same warm cache.
    fresh_runner().all_offline_artifacts()

    def run_with_null_sink():
        return fresh_runner().run_settings(settings)

    off_outcomes = benchmark.pedantic(run_with_null_sink, rounds=1,
                                      iterations=1)
    off_seconds = benchmark.stats.stats.mean

    started = time.perf_counter()
    with use_sink(AggregatingSink()) as sink:
        on_outcomes = fresh_runner().run_settings(settings)
    on_seconds = time.perf_counter() - started

    trial_count = len(tasks) * len(settings) * TRIALS
    assert sink.count("trial_finished") == trial_count
    benchmark.extra_info.update({
        "trials_in_grid": trial_count,
        "null_sink_seconds": round(off_seconds, 4),
        "aggregating_sink_seconds": round(on_seconds, 4),
        "overhead_ratio": round(off_seconds / on_seconds, 3),
    })
    # Identical outputs (telemetry must never perturb results)...
    for key in off_outcomes:
        assert [r.as_dict() for r in off_outcomes[key].results] \
            == [r.as_dict() for r in on_outcomes[key].results]
        assert aggregate(off_outcomes[key].results) \
            == aggregate(on_outcomes[key].results)
    # ...and the off path does strictly less work than the on path, so
    # aside from scheduler noise it cannot be meaningfully slower.  The
    # 2x + 250ms envelope only catches gross inversions (e.g. an emit
    # that stopped being guarded), not jitter.
    assert off_seconds <= on_seconds * 2.0 + 0.25, (
        f"telemetry-off run took {off_seconds:.3f}s vs {on_seconds:.3f}s "
        "with a live sink; the NullSink path has stopped being free")
