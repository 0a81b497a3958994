"""Tests for the observability plane: trace correlation, fleet
aggregation and OpenMetrics export.

The PR 10 acceptance criteria live here: trial trace ids are
byte-identical across execution paths, a chaos run yields one complete
reconstructable trace per trial (retry spans included), the fleet
aggregator merges multiple worker snapshots with staleness flags, and
the OpenMetrics textfile round-trips through a parser check.
"""

import json
import time

import pytest

from broker_contract import (
    DEFAULT_SEED,
    SETTINGS,
    TASKS,
    make_chaos_broker,
    small_plan,
)
from repro.bench.engine import TrialSpec, trial_seed
from repro.bench.observe import (
    FleetAggregator,
    ObserveError,
    build_trace,
    manifest_trace_id,
    parse_openmetrics,
    plan_trace_id,
    render_openmetrics,
    render_trace,
    span_id_for,
    trial_trace_id,
    write_promfile,
)
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    setting_by_key,
)
from repro.bench.shard import ManifestExecutor, plan_shards
from repro.bench.tasks import task_by_id
from repro.bench.telemetry import (
    JsonlSink,
    METRICS_SCHEMA_VERSION,
    TelemetryError,
    read_jsonl_events,
    use_sink,
)
from repro.bench.store import FileSystemObjectStore
from repro.bench.transport import ObjectStoreBroker, ShardWorker
from repro.cli import main

#: A deliberately small grid: trace identity is about *which* trial, not
#: how many, so two tasks under one setting keep these runs quick.
GRID_TASKS = TASKS[:2]
GRID_SETTINGS = SETTINGS[:1]


def grid_specs(seed=DEFAULT_SEED, trials=1):
    return [TrialSpec(task_id=task_id, setting_key=setting_key, trial=trial,
                      seed=trial_seed(seed, task_id, setting_key, trial))
            for task_id in GRID_TASKS
            for setting_key in GRID_SETTINGS
            for trial in range(trials)]


def grid_plan(shards=2, seed=DEFAULT_SEED, trials=1):
    return plan_shards(shards, seed=seed, trials=trials,
                       setting_keys=GRID_SETTINGS, task_ids=GRID_TASKS)


def run_serial(path, seed=DEFAULT_SEED):
    runner = BenchmarkRunner(BenchmarkConfig(
        trials=1, seed=seed,
        tasks=[task_by_id(task_id) for task_id in GRID_TASKS]))
    sink = JsonlSink(path)
    try:
        with use_sink(sink):
            runner.run_settings([setting_by_key(key)
                                 for key in GRID_SETTINGS])
    finally:
        sink.close()
    return read_jsonl_events(path)


def trial_events(events, name="trial_finished"):
    return [event for event in events if event.get("event") == name]


# ----------------------------------------------------------------------
# trace id derivation
# ----------------------------------------------------------------------
def test_trace_ids_are_deterministic_and_derived_from_identity():
    spec = grid_specs()[0]
    tid = trial_trace_id(spec)
    assert len(tid) == 16 and int(tid, 16) >= 0
    assert trial_trace_id(spec) == tid
    other = TrialSpec(task_id=spec.task_id, setting_key=spec.setting_key,
                      trial=spec.trial + 1,
                      seed=trial_seed(DEFAULT_SEED, spec.task_id,
                                      spec.setting_key, spec.trial + 1))
    assert trial_trace_id(other) != tid
    assert spec.trace_id == tid  # TrialSpec exposes it as a property

    plan = grid_plan(shards=2)
    first, second = plan.manifests[0], plan.manifests[1]
    assert manifest_trace_id(first) != manifest_trace_id(second)
    assert first.trace_id == manifest_trace_id(first)
    # Plan ids fold the broker-side *name* in, so two tenants submitting
    # the same grid under different names stay distinguishable.
    assert plan_trace_id("nightly", first) != plan_trace_id("canary", first)
    # ...but every manifest of one plan derives the same plan id.
    assert plan_trace_id("nightly", first) == plan_trace_id("nightly",
                                                            second)
    assert span_id_for(tid, "trial") == span_id_for(tid, "trial")
    assert span_id_for(tid, "trial") != span_id_for(tid, "lease")


def test_serial_and_broker_paths_agree_on_trial_trace_ids(tmp_path):
    """Tentpole acceptance: the same trial carries the same trace id
    whether it ran serially in-process or off a broker in a worker."""
    serial = trial_events(run_serial(tmp_path / "serial.jsonl"))
    broker = ObjectStoreBroker(FileSystemObjectStore(tmp_path / "queue"))
    worker_log = tmp_path / "worker.jsonl"
    sink = JsonlSink(worker_log)
    try:
        with use_sink(sink):
            broker.submit(grid_plan(shards=2))
            ShardWorker(broker, ManifestExecutor(),
                        worker_id="trace-parity", poll=0,
                        heartbeat=0).run()
            broker.collect()
    finally:
        sink.close()
    distributed = trial_events(read_jsonl_events(worker_log))

    expected = {spec.trace_id for spec in grid_specs()}
    assert {event["trace_id"] for event in serial} == expected
    assert {event["trace_id"] for event in distributed} == expected
    # Span ids agree too: the trial root span is derived, not random.
    by_trace = {event["trace_id"]: event["span_id"] for event in serial}
    for event in distributed:
        assert event["span_id"] == by_trace[event["trace_id"]]
    # The broker-path trial is parented to its worker's lease span; the
    # serial trial has no ambient parent.  Same trace, different journey.
    assert all(event["parent_span_id"] for event in distributed)
    assert not any(event.get("parent_span_id") for event in serial)


# ----------------------------------------------------------------------
# chaos completeness: one full trace per trial, retries included
# ----------------------------------------------------------------------
def test_chaos_run_yields_one_complete_trace_per_trial(tmp_path):
    """Acceptance: under a seeded hostile fault schedule, every trial's
    journey — submit, lease, execute, post, collect, retries — comes back
    out of the merged JSONL as one linked trace."""
    log = tmp_path / "chaos.jsonl"
    sink = JsonlSink(log)
    try:
        with use_sink(sink):
            broker = make_chaos_broker("store-fs", tmp_path)
            broker.submit(grid_plan(shards=2))
            ShardWorker(broker, ManifestExecutor(), worker_id="chaos-w",
                        poll=0, heartbeat=0).run()
            broker.collect()
    finally:
        sink.close()
    events = read_jsonl_events(log)
    # The storm actually rained: bounded retries fired and were traced.
    retries = [event for event in events
               if event.get("event") == "store_retry"]
    assert retries, "hostile schedule produced no store retries"
    assert any(event.get("trace_id") for event in retries)

    specs = grid_specs()
    for spec in specs:
        trace = build_trace(events, spec.trace_id)
        names = trace.event_names()
        assert {"plan_submitted", "lease_acquired", "trial_started",
                "trial_finished", "shard_posted",
                "shard_collected"} <= names, \
            f"incomplete trace for {spec.task_id}: {sorted(names)}"
        # The closure spans three traces: trial, its shard, its plan.
        assert len(trace.trace_ids) == 3
        # Sibling trials link *into* shared shard/plan traces but are not
        # linked *from* them: the other trial stays out of this timeline.
        finished = trial_events(trace.events)
        assert {event["task_id"] for event in finished} == {spec.task_id}
        rendered = render_trace(trace)
        assert f"trace {spec.trace_id}" in rendered
        assert "trial_finished" in rendered


# ----------------------------------------------------------------------
# fleet aggregation
# ----------------------------------------------------------------------
def snapshot_payload(worker_id, written_at, queued=0, leased=0, done=0,
                     drained=False, counters=None, idle=(0, 0.0),
                     events=0, plan="nightly"):
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "written_at": written_at,
        "worker_id": worker_id,
        "plans": {plan: {"queued": queued, "leased": leased, "done": done,
                         "drained": drained}},
        "worker_idle": {"count": idle[0], "slept_s": idle[1]},
        "counters": counters or {},
        "events": events,
    }


def write_snapshot(path, **kwargs):
    path.write_text(json.dumps(snapshot_payload(**kwargs)),
                    encoding="utf-8")
    return path


def test_fleet_aggregator_merges_snapshots_and_flags_stale(tmp_path):
    """Satellite + tentpole acceptance: ≥2 snapshots merge into one
    gauges view — queue gauges freshest-observer-wins, worker counters
    summed, snapshots past max_age_s flagged stale."""
    now = 10_000.0
    fresh = write_snapshot(
        tmp_path / "w1.json", worker_id="w1", written_at=now - 10,
        queued=3, leased=1, done=2,
        counters={"lease_acquired": 2, "cache_hit": 3, "cache_miss": 1},
        idle=(4, 2.0), events=11)
    stale = write_snapshot(
        tmp_path / "w2.json", worker_id="w2", written_at=now - 120,
        queued=5, leased=0, done=0,
        counters={"lease_acquired": 1, "store_retry": 7},
        idle=(1, 0.5), events=9)

    aggregator = FleetAggregator(max_age_s=60.0, clock=lambda: now)
    first = aggregator.add_snapshot(fresh)
    second = aggregator.add_snapshot(stale)
    assert not first.stale and first.age_s == pytest.approx(10.0)
    assert second.stale and second.age_s == pytest.approx(120.0)

    gauges = aggregator.aggregate()
    assert gauges.live_workers == 1
    assert [worker.worker_id for worker in gauges.stale_workers] == ["w2"]
    # Queue gauges: w1's observation wins (younger), never a sum.
    assert gauges.plans["nightly"]["queued"] == 3
    assert gauges.plans["nightly"]["observed_by"] == "w1"
    # Worker counters: per-worker facts, summed across the fleet.
    assert gauges.counters["lease_acquired"] == 3
    assert gauges.counters["store_retry"] == 7
    assert gauges.counters["lease_lost"] == 0  # seeded, never missing
    assert gauges.idle_count == 5
    assert gauges.idle_slept_s == pytest.approx(2.5)
    assert gauges.cache_hit_ratio == pytest.approx(0.75)

    rendered = gauges.render()
    assert "w2" in rendered and "STALE" in rendered
    assert "lease churn: 3 acquired" in rendered
    assert "retries: 7 store" in rendered


def test_fleet_aggregator_drain_rate_and_broker_authority(tmp_path):
    """Drain rate needs history: timestamped queue_depth samples from an
    events tail yield shards/second; a live BrokerStatus overrides the
    snapshot-derived queue gauges entirely."""
    events = tmp_path / "events.jsonl"
    with open(events, "w", encoding="utf-8") as handle:
        for ts, done in ((100.0, 0), (110.0, 2), (120.0, 10)):
            handle.write(json.dumps({
                "event": "queue_depth", "plan": "nightly", "queued": 0,
                "leased": 0, "done": done, "ts": ts}) + "\n")
    aggregator = FleetAggregator(clock=lambda: 10_000.0)
    aggregator.add_snapshot(write_snapshot(
        tmp_path / "w1.json", worker_id="w1", written_at=9_990.0,
        queued=3, leased=1, done=2))
    assert aggregator.add_events(events) == 3
    gauges = aggregator.aggregate()
    assert gauges.drain_rate["nightly"] == pytest.approx(0.5)  # 10 in 20s

    class FakePlanStatus:
        def __init__(self):
            self.name, self.priority = "nightly", 0
            self.queued, self.leased, self.done = 9, 0, 1
            self.drained = False

    class FakeBrokerStatus:
        plans = (FakePlanStatus(),)

    aggregator.add_broker_status(FakeBrokerStatus())
    authoritative = aggregator.aggregate()
    assert authoritative.plans["nightly"]["queued"] == 9
    assert authoritative.plans["nightly"]["observed_by"] == "broker"


def test_fleet_aggregator_rejects_version1_snapshots(tmp_path):
    """PR 7 snapshots predate schema_version and written_at; they get the
    same labeled "unknown schema" error as any other foreign version."""
    legacy = tmp_path / "old.json"
    legacy.write_text(json.dumps({
        "plans": {"nightly": {"queued": 1, "leased": 0, "done": 0,
                              "drained": False}},
        "worker_idle": {"count": 0, "slept_s": 0.0}, "events": 1}),
        encoding="utf-8")
    with pytest.raises(TelemetryError,
                       match=r"old\.json has schema_version None"):
        FleetAggregator(max_age_s=60.0).add_snapshot(legacy)


def test_fleet_aggregator_validates_max_age():
    with pytest.raises(ObserveError, match="max_age_s"):
        FleetAggregator(max_age_s=-1.0)


# ----------------------------------------------------------------------
# OpenMetrics exposition: render, parse, atomic promfile
# ----------------------------------------------------------------------
def aggregated_gauges(tmp_path):
    now = 10_000.0
    aggregator = FleetAggregator(max_age_s=60.0, clock=lambda: now)
    aggregator.add_snapshot(write_snapshot(
        tmp_path / "w1.json", worker_id="w1", written_at=now - 10,
        queued=3, leased=1, done=2,
        counters={"cache_hit": 3, "cache_miss": 1}, idle=(4, 2.0)))
    aggregator.add_snapshot(write_snapshot(
        tmp_path / "w2.json", worker_id="w2", written_at=now - 120))
    return aggregator.aggregate()


def test_openmetrics_round_trips_through_the_parser(tmp_path):
    """Satellite acceptance: the promfile parses back to the exact gauge
    values — a textfile a collector would silently drop never ships."""
    gauges = aggregated_gauges(tmp_path)
    text = render_openmetrics(gauges)
    assert text.endswith("# EOF\n")
    samples = parse_openmetrics(text)
    by_key = {(sample.name, tuple(sorted(sample.labels.items()))):
              sample.value for sample in samples}
    assert by_key[("repro_queue_depth",
                   (("plan", "nightly"), ("state", "queued")))] == 3
    assert by_key[("repro_workers", (("state", "live"),))] == 1
    assert by_key[("repro_workers", (("state", "stale"),))] == 1
    assert by_key[("repro_events_total", (("kind", "cache_hit"),))] == 3
    assert by_key[("repro_cache_hit_ratio", ())] == pytest.approx(0.75)
    assert by_key[("repro_idle_seconds_total", ())] == pytest.approx(2.0)

    promfile = write_promfile(gauges, tmp_path / "prom")
    assert promfile.name == "repro_fleet.prom"
    assert parse_openmetrics(promfile.read_text(encoding="utf-8"))
    # Atomic: the rename left no temp files next to the target.
    assert [entry.name for entry in promfile.parent.iterdir()] \
        == ["repro_fleet.prom"]


def test_openmetrics_parser_rejects_malformed_expositions():
    with pytest.raises(ObserveError, match="missing # EOF"):
        parse_openmetrics("repro_workers 1\n")
    with pytest.raises(ObserveError, match="line 1"):
        parse_openmetrics("!!garbage!!\n# EOF\n")
    with pytest.raises(ObserveError, match="after # EOF"):
        parse_openmetrics("# EOF\nrepro_workers 1\n")
    with pytest.raises(ObserveError, match="non-numeric"):
        parse_openmetrics("repro_workers one\n# EOF\n")
    with pytest.raises(ObserveError, match="label block"):
        parse_openmetrics('repro_workers{state=live} 1\n# EOF\n')
    # Label values round-trip through escaping.
    samples = parse_openmetrics(
        'repro_queue_depth{plan="a\\"b\\\\c"} 1\n# EOF\n')
    assert samples[0].labels == {"plan": 'a"b\\c'}


# ----------------------------------------------------------------------
# CLI: fleet status --strict / --prom-dir, trace
# ----------------------------------------------------------------------
def seeded_queue(tmp_path, shards=2, drain=False):
    broker = ObjectStoreBroker(FileSystemObjectStore(tmp_path / "queue"))
    broker.submit(grid_plan(shards=shards))
    if drain:
        ShardWorker(broker, ManifestExecutor(), worker_id="seed-w",
                    poll=0, heartbeat=0).run()
    return str(tmp_path / "queue")


def test_fleet_status_cli_merges_snapshots_and_strict_gates(tmp_path,
                                                            capsys):
    """Satellite acceptance: status merges ≥2 snapshots, warns about the
    stale one on stderr, and --strict turns the warning into exit 2."""
    queue = seeded_queue(tmp_path)
    now = time.time()
    fresh = write_snapshot(tmp_path / "w1.json", worker_id="w1",
                           written_at=now)
    stale = write_snapshot(tmp_path / "w2.json", worker_id="w2",
                           written_at=now - 4000)
    base = ["fleet", "status", "--broker", queue,
            "--metrics", str(fresh), "--metrics", str(stale),
            "--max-age-s", "60"]
    assert main(base) == 0
    captured = capsys.readouterr()
    assert "STALE" in captured.out
    assert "w2" in captured.err and "may be dead" in captured.err
    assert "--max-age-s 60" in captured.err

    assert main(base + ["--strict"]) == 2
    capsys.readouterr()

    prom_dir = tmp_path / "prom"
    assert main(base + ["--prom-dir", str(prom_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fleet"]["live_workers"] == 1
    assert len(payload["fleet"]["workers"]) == 2
    assert [worker["stale"] for worker in payload["fleet"]["workers"]] \
        == [False, True]
    samples = parse_openmetrics(
        (prom_dir / "repro_fleet.prom").read_text(encoding="utf-8"))
    assert any(sample.name == "repro_queue_depth" for sample in samples)


def test_trace_cli_id_show_and_export(tmp_path, capsys):
    spec = grid_specs()[0]
    assert main(["trace", "id", "--task", spec.task_id,
                 "--setting", spec.setting_key]) == 0
    assert capsys.readouterr().out.strip() == spec.trace_id

    log = tmp_path / "serial.jsonl"
    run_serial(log)
    assert main(["trace", "show", spec.trace_id,
                 "--events", str(log)]) == 0
    shown = capsys.readouterr().out
    assert f"trace {spec.trace_id}" in shown
    assert "trial_started" in shown and "trial_finished" in shown

    out = tmp_path / "trace.json"
    assert main(["trace", "export", spec.trace_id, "--events", str(log),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    exported = json.loads(out.read_text(encoding="utf-8"))
    assert exported["trace_id"] == spec.trace_id
    assert {event["event"] for event in exported["events"]} \
        == {"trial_started", "trial_finished"}

    # An id nothing emitted: rendered as empty, exit code 1.
    assert main(["trace", "show", "f" * 16, "--events", str(log)]) == 1
    assert "no events found" in capsys.readouterr().out
