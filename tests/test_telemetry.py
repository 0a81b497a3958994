"""Unit tests for the telemetry subsystem (events, sinks, cache events).

Covers the PR 5 tentpole pieces that don't need a full benchmark run: sink
semantics (NullSink truthiness, default-sink scoping, TeeSink fan-out),
AggregatingSink counters/timers under threads, JsonlSink crash-tolerant
round trips, the trial phase breakdown, and the ArtifactCache hit / miss /
LRU-eviction instrumentation (the bounded-cache satellite).
"""

import json
import threading

import pytest

from repro.agent.session import InterfaceSetting, LLMCallRecord, SessionResult
from repro.bench import telemetry
from repro.bench.telemetry import (
    NULL_SINK,
    AggregatingSink,
    CacheHit,
    CacheMiss,
    JsonlSink,
    NullSink,
    TeeSink,
    TelemetryError,
    TimerStats,
    TrialFinished,
    TrialStarted,
    WorkerIdle,
    phases_from_result,
    read_jsonl_events,
    set_default_sink,
    use_sink,
)
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
        with use_sink(inner):
            assert telemetry.default_sink() is inner
        assert telemetry.default_sink() is outer
    assert telemetry.default_sink() is NULL_SINK
    # use_sink(None) explicitly turns telemetry off inside an active scope.
    with use_sink(outer):
        with use_sink(None):
            assert telemetry.default_sink() is NULL_SINK


def test_use_sink_restores_after_exceptions():
    with pytest.raises(RuntimeError):
        with use_sink(AggregatingSink()):
            raise RuntimeError("boom")
    assert telemetry.default_sink() is NULL_SINK


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
# TeeSink under concurrent emitters
# ----------------------------------------------------------------------
def test_tee_sink_concurrent_emit_keeps_counters_exact(tmp_path):
    """≥8 threads hammering one TeeSink lose no events — both fan-out
    members (counters and the JSONL file) agree on the exact total."""
    aggregating = AggregatingSink()
    jsonl = JsonlSink(tmp_path / "events.jsonl")
    tee = TeeSink([aggregating, jsonl])
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
    jsonl.close()
    total = per_thread * thread_count
    assert aggregating.count("worker_idle") == total
    assert aggregating.timer("idle_sleep_s").count == total
    events = read_jsonl_events(tmp_path / "events.jsonl")
    assert len(events) == total
    assert {event["event"] for event in events} == {"worker_idle"}
