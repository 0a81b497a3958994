"""Unit tests for the telemetry subsystem (events, sinks, cache events).

Covers the PR 5 tentpole pieces that don't need a full benchmark run: sink
semantics (NullSink truthiness, default-sink scoping, TeeSink fan-out),
AggregatingSink counters/timers under threads, JsonlSink crash-tolerant
round trips, the trial phase breakdown, and the ArtifactCache hit / miss /
LRU-eviction instrumentation (the bounded-cache satellite).
"""

import json
import re
import threading

import pytest

from repro.agent.session import InterfaceSetting, LLMCallRecord, SessionResult
from repro.bench import telemetry
from repro.bench.observe import FleetAggregator
from repro.bench.telemetry import (
    NULL_SINK,
    AggregatingSink,
    CacheHit,
    CacheMiss,
    JsonlSink,
    MetricsSnapshotSink,
    NullSink,
    TeeSink,
    TelemetryError,
    PlanDrained,
    PlanSubmitted,
    QueueDepth,
    TimerStats,
    TrialFinished,
    TrialStarted,
    WorkerIdle,
    phases_from_result,
    read_jsonl_events,
    resolve,
    set_default_sink,
    use_sink,
)
from repro.cli import main
from repro.dmi.cache import ArtifactCache


# ----------------------------------------------------------------------
# sink plumbing
# ----------------------------------------------------------------------
def test_null_sink_is_falsy_and_discards():
    sink = NullSink()
    assert not sink
    sink.emit(CacheHit(app="word"))  # no-op, no error


def test_default_sink_is_null_and_use_sink_scopes_and_restores():
    assert telemetry.default_sink() is NULL_SINK
    outer = AggregatingSink()
    inner = AggregatingSink()
    with use_sink(outer):
        assert telemetry.default_sink() is outer
        assert resolve(None) is outer
        with use_sink(inner):
            assert resolve(None) is inner
        assert resolve(None) is outer
    assert telemetry.default_sink() is NULL_SINK
    # use_sink(None) explicitly turns telemetry off inside an active scope.
    with use_sink(outer):
        with use_sink(None):
            assert resolve(None) is NULL_SINK


def test_use_sink_restores_after_exceptions():
    with pytest.raises(RuntimeError):
        with use_sink(AggregatingSink()):
            raise RuntimeError("boom")
    assert telemetry.default_sink() is NULL_SINK


def test_resolve_prefers_an_explicit_component_sink():
    component_sink = AggregatingSink()
    with use_sink(AggregatingSink()):
        assert resolve(component_sink) is component_sink


def test_set_default_sink_returns_previous_and_none_means_off():
    first = AggregatingSink()
    previous = set_default_sink(first)
    try:
        assert previous is NULL_SINK
        assert set_default_sink(None) is first
        assert telemetry.default_sink() is NULL_SINK
    finally:
        set_default_sink(None)


def test_tee_sink_fans_out_and_drops_null_members():
    a, b = AggregatingSink(), AggregatingSink()
    tee = TeeSink([a, NullSink(), b])
    assert tee and len(tee.sinks) == 2
    tee.emit(CacheMiss(app="excel"))
    assert a.count("cache_miss") == 1 and b.count("cache_miss") == 1
    assert not TeeSink([NullSink()])  # all-null tee is "off"


# ----------------------------------------------------------------------
# AggregatingSink
# ----------------------------------------------------------------------
def test_aggregating_sink_counts_and_times():
    sink = AggregatingSink()
    sink.emit(TrialStarted(task_id="t", setting_key="s", trial=0))
    sink.emit(TrialFinished(task_id="t", setting_key="s", trial=0,
                            success=True, seconds=0.25, wall_s=100.0,
                            phases={"rip": 0.2, "act": 60.0}))
    sink.emit(WorkerIdle(worker_id="w", slept_s=0.5, streak=3))
    assert sink.count("trial_started") == 1
    assert sink.count("trial_finished") == 1
    assert sink.count("worker_idle") == 1
    assert sink.count("never_seen") == 0
    assert sink.timer("trial_wall_s").total == 100.0
    assert sink.timer("phase_rip").total == pytest.approx(0.2)
    assert sink.timer("idle_sleep_s").max == 0.5
    snapshot = sink.snapshot()
    assert snapshot["counters"]["trial_finished"] == 1
    assert snapshot["timers"]["trial_seconds"]["count"] == 1
    assert snapshot["timers"]["trial_seconds"]["mean_s"] == pytest.approx(0.25)


def test_aggregating_sink_is_thread_safe():
    sink = AggregatingSink()
    per_thread, thread_count = 500, 8

    def hammer():
        for _ in range(per_thread):
            sink.emit(WorkerIdle(worker_id="w", slept_s=0.001, streak=0))

    threads = [threading.Thread(target=hammer) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sink.count("worker_idle") == per_thread * thread_count
    assert sink.timer("idle_sleep_s").count == per_thread * thread_count


def test_timer_stats_decade_buckets():
    stats = TimerStats()
    for value in (0.0005, 0.005, 0.05, 0.05, 5.0):
        stats.observe(value)
    assert stats.count == 5
    assert stats.min == 0.0005 and stats.max == 5.0
    assert stats.buckets[TimerStats.bucket_for(0.05)] == 2
    assert TimerStats.bucket_for(0.0) == "zero"
    assert TimerStats.bucket_for(-1.0) == "zero"


# ----------------------------------------------------------------------
# JsonlSink + crash-tolerant reads
# ----------------------------------------------------------------------
def test_jsonl_sink_round_trips_events(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        assert sink  # truthy: events are constructed and written
        sink.emit(TrialStarted(task_id="t1", setting_key="s", trial=0))
        sink.emit(CacheHit(app="word"))
    events = read_jsonl_events(path)
    assert [event["event"] for event in events] == ["trial_started",
                                                    "cache_hit"]
    assert events[0]["task_id"] == "t1"
    assert events[1]["app"] == "word"
    # Appending across a reopen extends, never truncates.
    with JsonlSink(path) as sink:
        sink.emit(CacheMiss(app="excel"))
    assert len(read_jsonl_events(path)) == 3


def test_jsonl_reader_tolerates_a_torn_last_line(tmp_path):
    """Satellite acceptance: a crash mid-write loses at most the partial
    trailing line; everything before it is still readable."""
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(CacheHit(app="word"))
        sink.emit(CacheMiss(app="excel"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event":"trial_fin')  # the crash: no newline, torn
    events = read_jsonl_events(path)
    assert [event["event"] for event in events] == ["cache_hit", "cache_miss"]


def test_jsonl_reader_rejects_corruption_before_the_last_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"event":"ok"}\nnot json\n{"event":"ok"}\n',
                    encoding="utf-8")
    with pytest.raises(TelemetryError, match=r"line 2"):
        read_jsonl_events(path)
    path.write_text('[1, 2]\n', encoding="utf-8")
    with pytest.raises(TelemetryError, match="not a JSON object"):
        read_jsonl_events(path)
    with pytest.raises(TelemetryError, match="cannot read"):
        read_jsonl_events(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# the trial phase breakdown
# ----------------------------------------------------------------------
def _result_with_calls() -> SessionResult:
    result = SessionResult(task_id="t", app="word",
                           interface=InterfaceSetting.GUI_PLUS_DMI,
                           model="gpt-5", reasoning="medium")
    result.record_call(LLMCallRecord(role="host", purpose="decompose",
                                     latency_s=2.0))
    result.record_call(LLMCallRecord(role="app", purpose="execute",
                                     latency_s=5.0))
    result.record_call(LLMCallRecord(role="app", purpose="verify",
                                     latency_s=1.0))
    result.record_actions(10, seconds_per_action=0.4)  # +4.0s simulated
    return result


def test_phases_from_result_splits_plan_from_act():
    result = _result_with_calls()
    phases = phases_from_result(result, rip_s=0.5, build_s=0.25)
    assert phases["rip"] == 0.5 and phases["build"] == 0.25
    assert phases["plan"] == pytest.approx(3.0)   # decompose + verify
    assert phases["act"] == pytest.approx(9.0)    # execute + actions
    assert phases["plan"] + phases["act"] == pytest.approx(result.wall_time_s)


def test_phases_from_result_omits_unmeasured_rip_and_build():
    """A caller that didn't measure rip/build (a parent observing worker
    completions) must not inject sentinel 0.0 observations into the phase
    timers."""
    phases = phases_from_result(_result_with_calls())
    assert "rip" not in phases and "build" not in phases
    assert set(phases) == {"plan", "act"}


def test_trial_finished_serializes_phases_for_jsonl(tmp_path):
    event = TrialFinished(task_id="t", setting_key="s", trial=1,
                          success=False, seconds=0.1, wall_s=12.0,
                          phases={"rip": 0.1, "plan": 2.0})
    payload = event.as_dict()
    assert payload["event"] == "trial_finished"
    assert payload["phases"] == {"rip": 0.1, "plan": 2.0}
    json.dumps(payload)  # JSONL-serializable as-is


# ----------------------------------------------------------------------
# ArtifactCache instrumentation + the max_entries LRU bound
# ----------------------------------------------------------------------
def test_cache_emits_hits_and_misses(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    with use_sink(AggregatingSink()) as sink:
        cache.load_or_build("powerpoint")
        cache.load_or_build("powerpoint")
    assert sink.count("cache_miss") == 1
    assert sink.count("cache_hit") == 1
    assert cache.hits == 1 and cache.misses == 1
    stats = cache.stats()
    assert stats["evictions"] == 0 and stats["max_entries"] is None


def test_cache_max_entries_evicts_least_recently_loaded(tmp_path):
    """Satellite acceptance: --cache-max-entries keeps the N most recently
    *loaded* entries; insertion evicts the stalest, and a hit refreshes
    recency.  Recency is the sidecar index's ns-resolution last-load stamp,
    so sequential loads are strictly ordered even on filesystems with
    coarse mtimes — no utime pinning needed."""
    cache = ArtifactCache(tmp_path / "cache", max_entries=2)
    cache.load_or_build("word")        # stalest entry after the next load
    cache.load_or_build("powerpoint")
    with use_sink(AggregatingSink()) as sink:
        cache.load_or_build("excel")  # third entry: one eviction due
    assert not cache.path_for("word").exists()
    assert cache.path_for("powerpoint").exists()
    assert cache.path_for("excel").exists()
    assert cache.evictions == 1
    assert sink.count("cache_evicted") == 1
    assert sink.count("cache_miss") == 1

    # A hit refreshes recency (LRU is by last *load*, not last build):
    # after loading powerpoint, the stalest entry is excel.
    cache.load_or_build("powerpoint")  # hit -> touch -> newest
    cache.load_or_build("word")        # rebuild word: evicts excel
    assert cache.path_for("powerpoint").exists()
    assert not cache.path_for("excel").exists()
    assert cache.evictions == 2
    # The evicted entry is rebuilt transparently on next use.
    assert cache.load_or_build("excel") is not None
    assert cache.misses == 5  # word, ppt, excel, word again, excel again
    assert cache.hits == 1


def test_cache_max_entries_validation(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        ArtifactCache(tmp_path, max_entries=0)
    with pytest.raises(ValueError, match="max_entries"):
        ArtifactCache(tmp_path, max_entries=-2)


# ----------------------------------------------------------------------
# the live fleet-metrics snapshot sink
# ----------------------------------------------------------------------
def test_metrics_snapshot_tracks_gauges_and_drain(tmp_path):
    sink = MetricsSnapshotSink()
    sink.emit(PlanSubmitted(plan="nightly", shards=3, priority=1))
    snap = sink.snapshot()
    assert snap["plans"]["nightly"] == {"queued": 3, "leased": 0,
                                        "done": 0, "drained": False}
    # queue_depth is authoritative: it overwrites the seeded gauge.
    sink.emit(QueueDepth(plan="nightly", queued=1, leased=1, done=1))
    sink.emit(QueueDepth(plan="nightly", queued=0, leased=0, done=3))
    sink.emit(PlanDrained(plan="nightly", shards=3))
    sink.emit(WorkerIdle(worker_id="w", slept_s=0.25, streak=1))
    sink.emit(WorkerIdle(worker_id="w", slept_s=0.75, streak=2))
    snap = sink.snapshot()
    assert snap["plans"]["nightly"] == {"queued": 0, "leased": 0,
                                        "done": 3, "drained": True}
    assert snap["worker_idle"]["count"] == 2
    assert snap["worker_idle"]["slept_s"] == pytest.approx(1.0)
    assert snap["events"] == 6
    # Resubmitting a plan name clears its drained marker (a new tenant).
    sink.emit(PlanSubmitted(plan="nightly", shards=2, priority=0))
    assert sink.snapshot()["plans"]["nightly"]["drained"] is False


def test_metrics_snapshot_writes_atomically_at_interval(tmp_path):
    clock_now = [0.0]
    path = tmp_path / "fleet.json"
    with MetricsSnapshotSink(path, interval_s=10.0,
                             clock=lambda: clock_now[0]) as sink:
        sink.emit(PlanSubmitted(plan="a", shards=1, priority=0))
        first = json.loads(path.read_text())  # first event writes eagerly
        assert first["plans"]["a"]["queued"] == 1
        sink.emit(QueueDepth(plan="a", queued=0, leased=1, done=0))
        # Within the interval: the file still holds the first snapshot.
        assert json.loads(path.read_text()) == first
        clock_now[0] = 11.0
        sink.emit(QueueDepth(plan="a", queued=0, leased=0, done=1))
        assert json.loads(path.read_text())["plans"]["a"]["done"] == 1
        clock_now[0] = 12.0
        sink.emit(PlanDrained(plan="a", shards=1))
    # close() flushed the drain marker even though the interval hadn't
    # elapsed, and left no temp files behind.
    final = json.loads(path.read_text())
    assert final["plans"]["a"]["drained"] is True
    assert [p.name for p in tmp_path.iterdir()] == ["fleet.json"]
    with pytest.raises(TelemetryError, match="interval_s"):
        MetricsSnapshotSink(path, interval_s=float("nan"))


def test_tee_sink_concurrent_emit_keeps_counters_exact(tmp_path):
    """Satellite acceptance: ≥8 threads hammering one TeeSink lose no
    events — both fan-out members and the snapshot file agree on the
    exact total."""
    aggregating = AggregatingSink()
    metrics = MetricsSnapshotSink(tmp_path / "fleet.json", interval_s=0.0)
    tee = TeeSink([aggregating, metrics])
    per_thread, thread_count = 250, 8

    def hammer(worker: int) -> None:
        for index in range(per_thread):
            tee.emit(WorkerIdle(worker_id=f"w{worker}", slept_s=0.001,
                                streak=index))

    threads = [threading.Thread(target=hammer, args=(worker,))
               for worker in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    metrics.close()
    total = per_thread * thread_count
    assert aggregating.count("worker_idle") == total
    assert aggregating.timer("idle_sleep_s").count == total
    snap = json.loads((tmp_path / "fleet.json").read_text())
    assert snap["events"] == total
    assert snap["counters"]["worker_idle"] == total
    assert snap["worker_idle"]["count"] == total


def test_metrics_snapshot_carries_schema_version_and_written_at(tmp_path):
    """Satellite acceptance: every snapshot states its schema version, a
    wall-clock write stamp, and the emitting worker's identity."""
    wall = [1000.0]
    path = tmp_path / "fleet.json"
    with MetricsSnapshotSink(path, interval_s=0.0, worker_id="w7",
                             wall_clock=lambda: wall[0]) as sink:
        sink.emit(PlanSubmitted(plan="a", shards=1, priority=0))
        first = json.loads(path.read_text())
        assert first["schema_version"] == telemetry.METRICS_SCHEMA_VERSION
        assert first["written_at"] == 1000.0
        assert first["worker_id"] == "w7"
        assert first["counters"] == {"plan_submitted": 1}
        wall[0] = 1042.0
        sink.emit(QueueDepth(plan="a", queued=0, leased=0, done=1))
    final = json.loads(path.read_text())
    assert final["written_at"] == 1042.0
    # The loader accepts the current version...
    loaded = telemetry.load_metrics_snapshot(path)
    assert loaded["schema_version"] == telemetry.METRICS_SCHEMA_VERSION
    # ...and rejects a version-1 (versionless) snapshot as unknown.
    versionless = dict(final)
    del versionless["schema_version"]
    legacy = tmp_path / "v1.json"
    legacy.write_text(json.dumps(versionless), encoding="utf-8")
    with pytest.raises(TelemetryError,
                       match=r"v1\.json has schema_version None"):
        telemetry.load_metrics_snapshot(legacy)


def test_metrics_snapshot_reader_rejects_unknown_versions(tmp_path):
    """Satellite acceptance: an unknown schema_version fails loudly with
    an error naming the offending file, never silently rendering gauges
    whose meaning changed."""
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"schema_version": 99, "plans": {}}),
                    encoding="utf-8")
    with pytest.raises(TelemetryError, match=r"future\.json.*schema_version 99"):
        telemetry.load_metrics_snapshot(path)
    with pytest.raises(TelemetryError, match="cannot read"):
        telemetry.load_metrics_snapshot(tmp_path / "missing.json")
    bad = tmp_path / "torn.json"
    bad.write_text("{torn", encoding="utf-8")
    with pytest.raises(TelemetryError, match=r"torn\.json is not valid JSON"):
        telemetry.load_metrics_snapshot(bad)
    # Non-numeric fields the fleet aggregator folds are labeled with the
    # file and the field, on both the loader and `repro fleet status`.
    valid = {"schema_version": telemetry.METRICS_SCHEMA_VERSION,
             "written_at": 1000.0, "counters": {"lease_acquired": 3}}
    for label, patch in (
            ("counters.lease_acquired", {"counters": {"lease_acquired":
                                                      "many"}}),
            ("written_at", {"written_at": "yesterday"}),
            ("written_at", {"written_at": None}),
            ("worker_idle.slept_s", {"worker_idle": {"slept_s": [1]}}),
            ("events", {"events": "3"})):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(dict(valid, **patch)), encoding="utf-8")
        pattern = rf"odd\.json: field '{re.escape(label)}' must be a number"
        with pytest.raises(TelemetryError, match=pattern):
            telemetry.load_metrics_snapshot(odd)
        with pytest.raises(TelemetryError, match=pattern):
            FleetAggregator().add_snapshot(odd)
        with pytest.raises(SystemExit, match=pattern):
            main(["fleet", "status", "--broker", str(tmp_path / "queue"),
                  "--metrics", str(odd)])
