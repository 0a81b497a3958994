"""Tests for the run registry, the runs diff/trajectory, and `repro runs`.

The acceptance-criteria tests for PR 5 live here: a sharded broker run
through the CLI with ``--registry`` produces a RunRecord whose trial count,
cache hit/miss and lease-lifecycle counters are asserted; ``repro runs
diff`` exits nonzero exactly when a ``--fail-if`` threshold trips; and
``repro runs export --bench`` writes a valid ``BENCH_5.json`` trajectory.
"""

import json

import pytest

from repro.bench.registry import (
    EXECUTOR_PATHS,
    RegistryError,
    RunRecord,
    RunRegistry,
    build_run_record,
    config_key,
)
from repro.bench.telemetry import AggregatingSink, CacheMiss, WorkerIdle
from repro.bench.trajectory import (
    DiffRow,
    FailIf,
    bench_datapoint,
    check_fail_ifs,
    diff_runs,
    export_bench,
    flatten_metrics,
    infer_pr_number,
    render_diff,
)
from repro.cli import main


GRID = dict(seed=11, trials=1, setting_keys=("dmi-gpt5-medium",),
            task_ids=("ppt-01-blue-background",), fingerprint="f" * 16)


def make_record(run_id="20260101-000000-aaaaaa", executor="serial",
                wall=10.0, counters=None, metrics=None,
                timers=None) -> RunRecord:
    return RunRecord(
        run_id=run_id, created_at="2026-01-01T00:00:00Z", executor=executor,
        seed=GRID["seed"], trials=GRID["trials"],
        jobs=1, setting_keys=GRID["setting_keys"],
        task_ids=GRID["task_ids"], fingerprint=GRID["fingerprint"],
        config_key=config_key(**GRID), trial_count=1, wall_clock_s=wall,
        counters=dict(counters or {}), timers=dict(timers or {}),
        metrics=dict(metrics if metrics is not None
                     else {"dmi-gpt5-medium": {"SR": 100.0, "steps": 4.0}}))


# ----------------------------------------------------------------------
# RunRecord round trips + validation
# ----------------------------------------------------------------------
def test_run_record_round_trips_through_dict():
    record = make_record(counters={"cache_miss": 2},
                         timers={"trial_wall_s": {"count": 1,
                                                  "total_s": 5.0}})
    rebuilt = RunRecord.from_dict(record.as_dict())
    assert rebuilt == record


def test_run_record_validation_names_field_and_source():
    payload = make_record().as_dict()
    with pytest.raises(RegistryError, match="'kind'"):
        RunRecord.from_dict(dict(payload, kind="nope"), source="X")
    with pytest.raises(RegistryError, match="format_version"):
        RunRecord.from_dict(dict(payload, format_version=99), source="X")
    with pytest.raises(RegistryError, match="X: .*'executor'"):
        RunRecord.from_dict(dict(payload, executor="warp-drive"), source="X")
    missing = dict(payload)
    del missing["trial_count"]
    with pytest.raises(RegistryError, match="X: missing required field "
                                            "'trial_count'"):
        RunRecord.from_dict(missing, source="X")
    with pytest.raises(RegistryError, match="'counters.cache_miss'"):
        RunRecord.from_dict(dict(payload, counters={"cache_miss": "two"}),
                            source="X")
    with pytest.raises(RegistryError, match="'seed' must be an integer"):
        RunRecord.from_dict(dict(payload, seed="eleven"), source="X")


def test_config_key_ignores_executor_but_not_the_grid():
    assert make_record(executor="serial").config_key \
        == make_record(executor="store-broker").config_key
    other = dict(GRID, seed=12)
    assert config_key(**other) != config_key(**GRID)


def test_config_key_subset_marks_partial_runs():
    """A record covering one shard of a plan must never read as comparable
    to a full run of the same grid — only to the identical slice."""
    full = config_key(**GRID)
    slice_a = config_key(**GRID, subset="shards-0-of-2")
    slice_b = config_key(**GRID, subset="shards-1-of-2")
    assert full != slice_a and slice_a != slice_b
    assert config_key(**GRID, subset="shards-0-of-2") == slice_a
    assert config_key(**GRID, subset=None) == full
    record = build_run_record(
        "20260101-000000-dddddd", executor="file-shard",
        subset="shards-0-of-2", results_by_setting={}, wall_clock_s=0.1,
        **dict(jobs=1, seed=GRID["seed"], trials=GRID["trials"],
               setting_keys=GRID["setting_keys"], task_ids=GRID["task_ids"],
               fingerprint=GRID["fingerprint"]))
    assert record.config_key == slice_a
    assert record.context["subset"] == "shards-0-of-2"


def test_build_run_record_aggregates_sink_and_metrics():
    sink = AggregatingSink()
    sink.emit(CacheMiss(app="word"))
    sink.emit(WorkerIdle(worker_id="w", slept_s=0.5, streak=0))
    record = build_run_record(
        "20260101-000000-bbbbbb", executor="dir-broker", seed=11, trials=1,
        jobs=2, setting_keys=GRID["setting_keys"], task_ids=GRID["task_ids"],
        fingerprint=GRID["fingerprint"], results_by_setting={},
        wall_clock_s=1.5, sink=sink, context={"broker": "/tmp/q"})
    assert record.counters == {"cache_miss": 1, "worker_idle": 1}
    assert record.timers["idle_sleep_s"]["total_s"] == 0.5
    assert record.trial_count == 0 and record.metrics == {}
    assert record.context["broker"] == "/tmp/q"
    with pytest.raises(RegistryError, match="executor"):
        build_run_record("x", executor="bogus", seed=1, trials=1, jobs=1,
                         setting_keys=(), task_ids=(), fingerprint="f",
                         results_by_setting={}, wall_clock_s=0.0)


# ----------------------------------------------------------------------
# RunRegistry
# ----------------------------------------------------------------------
def test_registry_records_lists_and_loads(tmp_path):
    registry = RunRegistry(tmp_path / "registry")
    assert registry.run_ids() == [] and registry.latest() is None
    first = make_record("20260101-000000-aaaaaa")
    second = make_record("20260102-000000-bbbbbb", executor="parallel")
    registry.record(first)
    registry.record(second)
    assert registry.run_ids() == [first.run_id, second.run_id]
    assert registry.load(first.run_id) == first
    assert registry.latest() == second
    assert registry.load_all() == [first, second]
    with pytest.raises(RegistryError, match="already recorded"):
        registry.record(first)


def test_registry_resolves_unique_prefixes(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_record("20260101-000000-aaaaaa"))
    registry.record(make_record("20260102-000000-bbbbbb"))
    assert registry.resolve("20260102").run_id == "20260102-000000-bbbbbb"
    with pytest.raises(RegistryError, match="ambiguous"):
        registry.resolve("2026")
    with pytest.raises(RegistryError, match="no run 'zzz'"):
        registry.resolve("zzz")


def test_load_all_tolerant_skips_bad_files_and_reports_them(tmp_path):
    registry = RunRegistry(tmp_path)
    good = make_record("20260101-000000-aaaaaa")
    registry.record(good)
    (tmp_path / "stray-notes.json").write_text("{not json", encoding="utf-8")
    records, problems = registry.load_all_tolerant()
    assert records == [good]
    assert len(problems) == 1 and "stray-notes.json" in problems[0]


def test_registry_rejects_corrupt_records_naming_the_path(tmp_path):
    registry = RunRegistry(tmp_path)
    (tmp_path / "bad-record.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(RegistryError, match="bad-record.json"):
        registry.load("bad-record")
    mismatched = make_record("20260101-000000-cccccc")
    registry.path_for("wrong-name").write_text(
        json.dumps(mismatched.as_dict()), encoding="utf-8")
    with pytest.raises(RegistryError, match="does not match the file name"):
        registry.load("wrong-name")


def test_registry_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    assert RunRegistry.from_env(None) is None
    assert RunRegistry.from_env(tmp_path).root == tmp_path
    monkeypatch.setenv("REPRO_REGISTRY", str(tmp_path / "from-env"))
    assert RunRegistry.from_env(None).root == tmp_path / "from-env"
    # An explicit flag wins over the environment.
    assert RunRegistry.from_env(tmp_path).root == tmp_path


def test_new_run_ids_are_unique_and_sortable(tmp_path):
    registry = RunRegistry(tmp_path)
    ids = {registry.new_run_id() for _ in range(32)}
    assert len(ids) == 32


def test_same_second_run_ids_stay_unique_and_in_creation_order(tmp_path,
                                                               monkeypatch):
    """PR 9 satellite: a stalled clock (same second — or same microsecond)
    must not collide ids or scramble ``runs list`` newest-first ordering.
    The monotonic bump guarantees creation order == lexicographic order
    within a process even when ``time.time`` is frozen."""
    import repro.bench.registry as registry_module

    registry = RunRegistry(tmp_path)
    frozen = 1754650000.123456
    monkeypatch.setattr(registry_module.time, "time", lambda: frozen)
    ids = [registry.new_run_id() for _ in range(50)]
    assert len(set(ids)) == 50
    assert ids == sorted(ids), "same-second ids lost creation order"
    assert all(len(run_id) == 29 for run_id in ids)  # `runs list` width

    # A clock stepping *backwards* (NTP) can't reorder either: the floor
    # only moves forward.
    monkeypatch.setattr(registry_module.time, "time", lambda: frozen - 120.0)
    later = registry.new_run_id()
    assert later > ids[-1], "backwards clock produced an earlier-sorting id"


# ----------------------------------------------------------------------
# diff + fail-if
# ----------------------------------------------------------------------
def test_flatten_metrics_namespace():
    record = make_record(
        wall=2.0, counters={"cache_miss": 3},
        timers={"trial_wall_s": {"count": 1, "total_s": 131.0}})
    flat = flatten_metrics(record)
    assert flat["wall_clock"] == 2.0
    assert flat["trial_count"] == 1.0
    assert flat["cache_miss"] == 3.0
    assert flat["trial_wall_s_total_s"] == 131.0
    assert flat["dmi-gpt5-medium.SR"] == 100.0
    # Known event counters with no recorded events read as explicit zeros
    # (a run with no cache misses gates as cache_miss == 0, not "missing").
    assert flat["cache_evicted"] == 0.0
    assert flat["lease_lost"] == 0.0
    assert "unknown_metric" not in flat


def test_diff_runs_rows_and_percent():
    before = make_record(wall=10.0, counters={"cache_miss": 2})
    after = make_record("20260102-000000-bbbbbb", wall=11.0,
                        counters={"cache_hit": 2})
    rows = {row.metric: row for row in diff_runs(before, after)}
    assert rows["wall_clock"].delta == pytest.approx(1.0)
    assert rows["wall_clock"].percent == pytest.approx(10.0)
    # Counters absent from one record are zeros, so deltas stay numeric.
    assert rows["cache_miss"].after == 0.0
    assert rows["cache_miss"].delta == pytest.approx(-2.0)
    assert rows["cache_hit"].before == 0.0
    text = render_diff(before, after, list(rows.values()))
    assert "wall_clock" in text and "+10.0%" in text


def test_gating_on_a_zero_event_counter_passes(tmp_path, capsys):
    """A --fail-if gate on an event that never fired (counter absent from
    both records) must treat the counter as 0, not 'missing' — the
    healthiest run must not trip the gate."""
    registry = RunRegistry(tmp_path)
    registry.record(make_record("20260101-000000-aaaaaa", counters={}))
    registry.record(make_record("20260102-000000-bbbbbb", counters={}))
    assert main(["runs", "diff", "20260101", "20260102",
                 "--registry", str(tmp_path),
                 "--fail-if", "cache_miss>+0",
                 "--fail-if", "lease_lost>+0"]) == 0
    capsys.readouterr()


def test_diff_warns_on_unlike_config_keys():
    before = make_record()
    after = RunRecord(**dict(
        make_record("20260102-000000-bbbbbb").__dict__, seed=99,
        config_key=config_key(**dict(GRID, seed=99))))
    text = render_diff(before, after, diff_runs(before, after))
    assert "different grids" in text


def test_fail_if_parsing():
    spec = FailIf.parse("wall_clock>+10%")
    assert spec == FailIf(metric="wall_clock", op=">", value=10.0,
                          percent=True)
    assert FailIf.parse("cache_hit<-2").percent is False
    assert FailIf.parse(" trial_wall_s_total_s > 0.5 ").value == 0.5
    for bad in ("wall_clock", "wall_clock=>5", ">5%", "wall_clock>ten"):
        with pytest.raises(RegistryError, match="invalid --fail-if"):
            FailIf.parse(bad)


def test_fail_if_percent_and_absolute_semantics():
    spec = FailIf.parse("wall_clock>+10%")
    ok = DiffRow("wall_clock", before=10.0, after=10.9)       # +9%
    slow = DiffRow("wall_clock", before=10.0, after=11.5)     # +15%
    assert spec.check(ok) is None
    assert "exceeds" in spec.check(slow)
    absolute = FailIf.parse("cache_hit<-2")
    assert absolute.check(DiffRow("cache_hit", 10.0, 8.0)) is None   # -2: ok
    assert absolute.check(DiffRow("cache_hit", 10.0, 7.0)) is not None
    # A zero baseline: any move in the failing direction trips a % spec.
    assert spec.check(DiffRow("wall_clock", 0.0, 0.1)) is not None
    assert spec.check(DiffRow("wall_clock", 0.0, 0.0)) is None
    # Missing metrics cannot be gated on.
    assert "missing" in spec.check(DiffRow("wall_clock", None, 5.0))
    violations = check_fail_ifs([], [spec])
    assert violations and "missing from both" in violations[0]


# ----------------------------------------------------------------------
# the BENCH_*.json trajectory
# ----------------------------------------------------------------------
def test_export_bench_writes_the_trajectory(tmp_path):
    records = [make_record("20260102-000000-bbbbbb", wall=2.0),
               make_record("20260101-000000-aaaaaa", wall=1.0)]
    target = tmp_path / "BENCH_5.json"
    payload = export_bench(records, target)
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    assert on_disk == payload
    assert payload["kind"] == "repro-bench-trajectory"
    assert payload["format_version"] == 1
    assert payload["pr"] == 5  # inferred from the file name
    points = payload["datapoints"]
    assert [p["run_id"] for p in points] == ["20260101-000000-aaaaaa",
                                             "20260102-000000-bbbbbb"]
    assert points[0]["metrics"]["wall_clock"] == 1.0
    assert points[0]["executor"] in EXECUTOR_PATHS


def test_export_bench_pr_inference_and_override(tmp_path):
    assert infer_pr_number("BENCH_12.json") == 12
    assert infer_pr_number("bench.json") is None
    payload = export_bench([make_record()], tmp_path / "custom.json", pr=7)
    assert payload["pr"] == 7
    payload = export_bench([make_record()], tmp_path / "custom.json")
    assert payload["pr"] is None
    with pytest.raises(RegistryError, match="no run records"):
        export_bench([], tmp_path / "BENCH_0.json")
    assert bench_datapoint(make_record())["settings"] == 1


# ----------------------------------------------------------------------
# the `repro runs` CLI
# ----------------------------------------------------------------------
def _seed_registry(tmp_path) -> RunRegistry:
    registry = RunRegistry(tmp_path / "registry")
    registry.record(make_record("20260101-000000-aaaaaa", wall=10.0,
                                counters={"cache_miss": 2, "cache_hit": 0}))
    registry.record(make_record("20260102-000000-bbbbbb", wall=13.0,
                                counters={"cache_miss": 2, "cache_hit": 0}))
    return registry


def test_runs_list_and_show(tmp_path, capsys):
    registry = _seed_registry(tmp_path)
    assert main(["runs", "list", "--registry", str(registry.root)]) == 0
    output = capsys.readouterr().out
    assert "20260101-000000-aaaaaa" in output and "serial" in output
    assert main(["runs", "list", "--registry", str(registry.root),
                 "--ids"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "20260102-000000-bbbbbb", "20260101-000000-aaaaaa"]  # newest first
    assert main(["runs", "show", "20260101", "--registry",
                 str(registry.root)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["run_id"] == "20260101-000000-aaaaaa"


def test_runs_list_and_export_skip_unreadable_records(tmp_path, capsys):
    """One torn or stray file must not make the whole registry
    unlistable/unexportable; it is skipped with a stderr warning."""
    registry = _seed_registry(tmp_path)
    (registry.root / "stray.json").write_text("{torn", encoding="utf-8")
    assert main(["runs", "list", "--registry", str(registry.root),
                 "--ids"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2      # the two good records
    assert "skipping unreadable run record" in captured.err
    target = tmp_path / "BENCH_9.json"
    assert main(["runs", "export", "--registry", str(registry.root),
                 "--bench", str(target)]) == 0
    capsys.readouterr()
    assert len(json.loads(target.read_text())["datapoints"]) == 2


def test_runs_requires_a_registry(monkeypatch):
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    with pytest.raises(SystemExit, match="no run registry"):
        main(["runs", "list"])


def test_runs_registry_env_var(tmp_path, capsys, monkeypatch):
    registry = _seed_registry(tmp_path)
    monkeypatch.setenv("REPRO_REGISTRY", str(registry.root))
    assert main(["runs", "list", "--ids"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_runs_diff_exits_nonzero_on_regression(tmp_path, capsys):
    """Acceptance: a synthetic +30% wall-clock regression past --fail-if
    wall_clock>+10% exits 1 and names the offending metric on stderr."""
    registry = _seed_registry(tmp_path)
    root = str(registry.root)
    assert main(["runs", "diff", "20260101", "20260102",
                 "--registry", root]) == 0
    capsys.readouterr()
    code = main(["runs", "diff", "20260101", "20260102", "--registry", root,
                 "--fail-if", "wall_clock>+10%"])
    captured = capsys.readouterr()
    assert code == 1
    assert "regression: wall_clock" in captured.err
    assert "+30.0%" in captured.err
    # The same threshold passes when the delta is inside it.
    assert main(["runs", "diff", "20260101", "20260102", "--registry", root,
                 "--fail-if", "wall_clock>+50%",
                 "--fail-if", "cache_miss>+0",
                 "--fail-if", "trial_count>+0"]) == 0
    # Gating on a metric neither run carries is itself a failure.
    capsys.readouterr()
    assert main(["runs", "diff", "20260101", "20260102", "--registry", root,
                 "--fail-if", "no_such_metric>+1"]) == 1
    with pytest.raises(SystemExit, match="invalid --fail-if"):
        main(["runs", "diff", "20260101", "20260102", "--registry", root,
              "--fail-if", "walrus"])
    with pytest.raises(SystemExit, match="no run 'zzz'"):
        main(["runs", "diff", "zzz", "20260102", "--registry", root])


def test_runs_export_cli(tmp_path, capsys):
    registry = _seed_registry(tmp_path)
    target = tmp_path / "BENCH_5.json"
    assert main(["runs", "export", "--registry", str(registry.root),
                 "--bench", str(target)]) == 0
    assert "2 datapoint(s)" in capsys.readouterr().out
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["pr"] == 5 and len(payload["datapoints"]) == 2
    with pytest.raises(SystemExit, match="no run registry"):
        main(["runs", "export", "--bench", str(target)])


# ----------------------------------------------------------------------
# end-to-end: CLI runs populate the registry (the acceptance test)
# ----------------------------------------------------------------------
def test_cli_run_records_a_run_and_events(tmp_path, capsys):
    registry_dir = tmp_path / "registry"
    events = tmp_path / "events.jsonl"
    assert main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
                 "--tasks", "ppt-01-blue-background",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir),
                 "--events", str(events)]) == 0
    assert "recorded run" in capsys.readouterr().out
    registry = RunRegistry(registry_dir)
    record = registry.latest()
    assert record is not None
    assert record.executor == "serial"
    assert record.trial_count == 1
    assert record.counters["trial_started"] == 1
    assert record.counters["trial_finished"] == 1
    assert record.counters["cache_miss"] == 1
    assert record.metrics["dmi-gpt5-medium"]["runs"] == 1
    assert record.config_key  # grid identity present
    from repro.bench.telemetry import read_jsonl_events

    names = [event["event"] for event in read_jsonl_events(events)]
    assert names.count("trial_finished") == 1
    assert "cache_miss" in names


def test_parallel_run_does_not_double_emit_trial_events(tmp_path, capsys):
    """Fork-started pool workers inherit the parent's default sink (and
    its open JSONL fd); _worker_init must reset it, or every trial is
    emitted twice — once by the worker, once by the parent."""
    events = tmp_path / "events.jsonl"
    assert main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
                 "--tasks", "ppt-01-blue-background", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(tmp_path / "registry"),
                 "--events", str(events)]) == 0
    capsys.readouterr()
    from repro.bench.telemetry import read_jsonl_events

    names = [event["event"] for event in read_jsonl_events(events)]
    assert names.count("trial_started") == 1
    assert names.count("trial_finished") == 1
    record = RunRegistry(tmp_path / "registry").latest()
    assert record.executor == "parallel"
    assert record.counters["trial_finished"] == 1
    # The worker measured the trial's seconds and sent them back; the
    # phase timers carry no fake observations (only the pre-warm rip/build
    # on the parent side of the pool would be real, and those aren't
    # per-trial).
    assert record.timers["trial_seconds"]["count"] == 1
    assert "phase_rip" not in record.timers
    assert "phase_build" not in record.timers
    assert record.timers["trial_wall_s"]["count"] == 1


def test_cli_broker_run_records_lease_and_cache_counters(tmp_path, capsys):
    """Acceptance: a sharded broker run with --registry produces a
    RunRecord whose trial count, cache hit/miss and lease-lifecycle
    counters all check out."""
    queue = str(tmp_path / "queue")
    registry_dir = tmp_path / "registry"
    assert main(["shard", "submit", "--broker", queue, "--shards", "2",
                 "--settings", "dmi-gpt5-medium", "gui-gpt5-medium",
                 "--tasks", "ppt-01-blue-background", "word-02-landscape",
                 "--trials", "1"]) == 0
    assert main(["shard", "work", "--broker", queue, "--worker-id", "w1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir)]) == 0
    capsys.readouterr()
    registry = RunRegistry(registry_dir)
    work = registry.latest()
    assert work.executor == "store-broker"
    assert work.trial_count == 4            # 2 settings x 2 tasks x 1 trial
    assert work.counters["lease_acquired"] == 2
    assert work.counters["shard_posted"] == 2
    assert work.counters["trial_finished"] == 4
    # Two apps, one worker, cold cache: one miss each, no hits.
    assert work.counters["cache_miss"] == 2
    assert work.counters.get("cache_hit", 0) == 0
    assert work.counters.get("lease_lost", 0) == 0
    assert work.counters.get("manifest_abandoned", 0) == 0
    assert work.context["manifests"] == 2
    # This worker drained the whole plan, so its record covers the full
    # grid and carries no subset marker.
    assert "subset" not in work.context

    assert main(["shard", "collect", "--broker", queue,
                 "--registry", str(registry_dir)]) == 0
    capsys.readouterr()
    # Both records can land within one second, so pick by role rather
    # than relying on run-id ordering.
    collect = next(record for record in registry.load_all()
                   if record.context.get("role") == "collect")
    assert collect.executor == "store-broker"
    assert collect.context["role"] == "collect"
    assert collect.counters["shard_collected"] == 2
    assert collect.trial_count == 4
    # A collect record's wall clock measured only the coordinator's
    # poll/merge, so it must never read as comparable to a record that
    # actually executed the grid — the "collect" marker splits the keys.
    assert collect.context["subset"] == "collect"
    assert collect.config_key != work.config_key
    # `runs diff` between them still works, but flags the unlike work.
    assert main(["runs", "diff", work.run_id, collect.run_id,
                 "--registry", str(registry_dir),
                 "--fail-if", "trial_count>+0"]) == 0
    assert "different grids" in capsys.readouterr().out


def test_cli_shard_run_record_never_compares_as_a_full_run(tmp_path, capsys):
    """A one-shard `shard run` record is a marked grid subset: its
    config_key must differ from a full run of the same grid, so `runs
    diff` warns instead of silently comparing half the work."""
    shards_dir = tmp_path / "shards"
    registry_dir = tmp_path / "registry"
    grid = ["--settings", "dmi-gpt5-medium", "--tasks",
            "ppt-01-blue-background", "word-02-landscape", "--trials", "1"]
    assert main(["shard", "plan", "--shards", "2",
                 "--out", str(shards_dir)] + grid) == 0
    assert main(["shard", "run", str(shards_dir / "shard-000-of-002.json"),
                 "--results", str(tmp_path / "r0.json"),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir)]) == 0
    assert main(["run", "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir)] + grid) == 0
    capsys.readouterr()
    records = RunRegistry(registry_dir).load_all()
    shard_record = next(r for r in records if r.executor == "file-shard")
    full_record = next(r for r in records if r.executor == "serial")
    assert shard_record.context["subset"] == "shards-0-of-2"
    assert shard_record.trial_count == 1
    assert full_record.trial_count == 2
    assert shard_record.config_key != full_record.config_key
    text_code = main(["runs", "diff", shard_record.run_id,
                      full_record.run_id, "--registry", str(registry_dir)])
    assert text_code == 0
    assert "different grids" in capsys.readouterr().out
