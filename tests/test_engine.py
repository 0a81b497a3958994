"""Tests for the execution engine: scheduling, executors, artifact cache."""

import json

import pytest

from repro.agent.session import InterfaceSetting, LLMCallRecord, SessionResult
from repro.bench.engine import (
    ParallelExecutor,
    SerialExecutor,
    TrialSpec,
    expand_trial_specs,
    trial_seed,
)
from repro.bench.metrics import aggregate
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    DEFAULT_SEED,
    setting_by_key,
)
from repro.bench.tasks import task_by_id
from repro.bench.telemetry import AggregatingSink, use_sink
from repro.dmi.cache import ArtifactCache, config_fingerprint
from repro.dmi.interface import DMIConfig
from repro.ripping.ripper import GuiRipper, RipperConfig
from repro.spec import FailureCause
from repro.topology.serialize import serialize_forest

SUBSET = ("ppt-01-blue-background", "word-02-landscape", "excel-03-bold-header")
SETTING_KEYS = ("gui-gpt5-medium", "dmi-gpt5-medium")


def subset_tasks():
    return [task_by_id(task_id) for task_id in SUBSET]


def subset_settings():
    return [setting_by_key(key) for key in SETTING_KEYS]


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
def test_trial_specs_enumerate_grid_in_canonical_order():
    runner = BenchmarkRunner(BenchmarkConfig(trials=2, seed=3, tasks=subset_tasks()))
    specs = runner.trial_specs(subset_settings())
    assert len(specs) == 2 * 3 * 2
    # Nesting order: settings, then tasks, then trials.
    assert specs[0] == TrialSpec("ppt-01-blue-background", "gui-gpt5-medium", 0,
                                 trial_seed(3, "ppt-01-blue-background",
                                            "gui-gpt5-medium", 0))
    assert specs[1].trial == 1
    assert specs[-1].setting_key == "dmi-gpt5-medium"


def test_trial_seed_is_order_and_process_independent():
    assert trial_seed(3, "t", "s", 0) == trial_seed(3, "t", "s", 0)
    assert trial_seed(3, "t", "s", 0) != trial_seed(3, "t", "s", 1)
    assert trial_seed(3, "t", "s", 0) != trial_seed(4, "t", "s", 0)


def test_trial_spec_round_trips_through_dict():
    spec = TrialSpec("t", "s", 2, 12345)
    assert TrialSpec.from_dict(spec.as_dict()) == spec


def test_expand_trial_specs_matches_runner_scheduling():
    specs = expand_trial_specs(DEFAULT_SEED, 3, ["a"], ["t1", "t2"])
    assert [s.task_id for s in specs] == ["t1", "t1", "t1", "t2", "t2", "t2"]


# ----------------------------------------------------------------------
# serial vs parallel equivalence
# ----------------------------------------------------------------------
def test_parallel_executor_matches_serial_bit_for_bit(tmp_path):
    config = dict(trials=2, seed=DEFAULT_SEED, tasks=subset_tasks())
    serial = BenchmarkRunner(BenchmarkConfig(**config))
    parallel = BenchmarkRunner(BenchmarkConfig(**config, jobs=2,
                                               cache_dir=tmp_path / "cache"))
    assert isinstance(serial.executor(), SerialExecutor)
    assert isinstance(parallel.executor(), ParallelExecutor)

    out_serial = serial.run_settings(subset_settings())
    out_parallel = parallel.run_settings(subset_settings())

    assert set(out_serial) == set(out_parallel)
    for key in out_serial:
        dicts_serial = [r.as_dict() for r in out_serial[key].results]
        dicts_parallel = [r.as_dict() for r in out_parallel[key].results]
        assert dicts_serial == dicts_parallel
        assert aggregate(out_serial[key].results) == aggregate(out_parallel[key].results)


def test_parallel_executor_streams_progress_and_preserves_order(tmp_path):
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=5, tasks=subset_tasks(),
                                             jobs=2, cache_dir=tmp_path / "cache"))
    events = []
    outcome = runner.run_setting(setting_by_key("dmi-gpt5-medium"),
                                 progress=events.append)
    assert len(events) == 3
    assert [e.completed for e in events] == [1, 2, 3]
    assert all(e.total == 3 for e in events)
    # Results come back in spec order regardless of completion order.
    assert [r.task_id for r in outcome.results] == list(SUBSET)


def test_a_jobs_run_records_each_trials_measured_seconds(tmp_path):
    """A pool worker measures each trial it runs and sends the seconds back
    with the result, so the parent's ``trial_seconds`` timer gets one real
    observation per trial."""
    runner = BenchmarkRunner(BenchmarkConfig(trials=2, seed=5, tasks=subset_tasks(),
                                             jobs=2, cache_dir=tmp_path / "cache"))
    sink = AggregatingSink()
    with use_sink(sink):
        runner.run_setting(setting_by_key("dmi-gpt5-medium"))
    seconds = sink.timer("trial_seconds")
    assert sink.count("trial_finished") == 6
    assert seconds is not None and seconds.count == 6 and seconds.total > 0


def test_serial_executor_streams_progress():
    runner = BenchmarkRunner(BenchmarkConfig(trials=2, seed=5,
                                             tasks=[task_by_id(SUBSET[0])]))
    events = []
    runner.run_setting(setting_by_key("gui-gpt5-medium"), progress=events.append)
    assert [e.completed for e in events] == [1, 2]
    assert {e.spec.task_id for e in events} == {SUBSET[0]}


def test_parallel_executor_rejects_non_registry_work():
    executor = ParallelExecutor(2)
    runner = BenchmarkRunner(BenchmarkConfig(trials=1))
    bogus = [TrialSpec("no-such-task", "gui-gpt5-medium", 0, 1)]
    with pytest.raises(ValueError, match="registry"):
        executor.run(runner, bogus)
    with pytest.raises(ValueError):
        ParallelExecutor(0)


def test_run_settings_deduplicates_repeated_setting_keys():
    runner = BenchmarkRunner(BenchmarkConfig(trials=2, seed=11,
                                             tasks=[task_by_id(SUBSET[0])]))
    setting = setting_by_key("dmi-gpt5-medium")
    outcomes = runner.run_settings([setting, setting])
    assert len(outcomes) == 1
    assert len(outcomes[setting.key].results) == 2  # trials, not trials × 2


def test_serial_executor_runs_caller_supplied_task_objects():
    import dataclasses

    custom = dataclasses.replace(task_by_id("word-02-landscape"),
                                 task_id="custom-landscape")
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11))
    outcome = runner.run_setting(setting_by_key("dmi-gpt5-medium"), tasks=[custom])
    assert [r.task_id for r in outcome.results] == ["custom-landscape"]


def test_parallel_executor_rejects_customized_registry_tasks():
    import dataclasses

    tweaked = dataclasses.replace(task_by_id("word-02-landscape"),
                                  instruction="do something else")
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11, tasks=[tweaked],
                                             jobs=2))
    with pytest.raises(ValueError, match="customized"):
        runner.run_setting(setting_by_key("dmi-gpt5-medium"))


def test_parallel_executor_rejects_customized_registry_settings():
    import dataclasses

    from repro.llm.profiles import GPT5_MINIMAL

    tweaked = dataclasses.replace(setting_by_key("dmi-gpt5-medium"),
                                  profile=GPT5_MINIMAL)
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11,
                                             tasks=[task_by_id("word-02-landscape")],
                                             jobs=2))
    with pytest.raises(ValueError, match="customized"):
        runner.run_setting(tweaked)


def test_parallel_executor_skips_scratch_dir_with_persistent_cache(tmp_path, monkeypatch):
    """Regression: a TemporaryDirectory was created (and fsync'd) even when a
    persistent --cache-dir made it dead weight."""
    import repro.bench.engine as engine

    def explode(*args, **kwargs):
        raise AssertionError("scratch dir must not be created when a "
                             "persistent cache_dir is configured")

    monkeypatch.setattr(engine.tempfile, "TemporaryDirectory", explode)
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11,
                                             tasks=[task_by_id(SUBSET[0])],
                                             jobs=2, cache_dir=tmp_path / "cache"))
    outcome = runner.run_setting(setting_by_key("gui-gpt5-medium"))
    assert len(outcome.results) == 1


def test_worker_init_forwards_the_cache_bound(tmp_path, monkeypatch):
    """Regression: --cache-max-entries was dropped on the pool-worker side,
    so worker-side cache inserts were unbounded and the documented LRU
    bound did not hold for parallel runs."""
    import repro.bench.engine as engine

    monkeypatch.setattr(engine, "_WORKER_RUNNER", None)
    engine._worker_init(DMIConfig(), str(tmp_path / "cache"), 3)
    assert engine._WORKER_RUNNER.cache.max_entries == 3
    # And workers reset the fork-inherited default sink to null, so the
    # parent's events file never receives duplicate trial events.
    from repro.bench import telemetry

    assert telemetry.default_sink() is telemetry.NULL_SINK


def test_parallel_prewarm_counts_cache_hits_and_misses(tmp_path):
    """Regression: the pre-warm path bypassed ArtifactCache.load_or_build, so
    hits/misses under-counted (a warm parallel run reported 0 hits)."""
    config = dict(trials=1, seed=11, tasks=[task_by_id(SUBSET[0])], jobs=2,
                  cache_dir=tmp_path / "cache")
    cold = BenchmarkRunner(BenchmarkConfig(**config))
    cold.run_setting(setting_by_key("gui-gpt5-medium"))
    assert cold.cache.misses == 1 and cold.cache.hits == 0

    warm = BenchmarkRunner(BenchmarkConfig(**config))
    warm.run_setting(setting_by_key("gui-gpt5-medium"))
    assert warm.cache.hits == 1 and warm.cache.misses == 0


# ----------------------------------------------------------------------
# session-result serialisation (crosses the process boundary)
# ----------------------------------------------------------------------
def test_session_result_round_trips_exactly():
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=9))
    result = runner.run_trial(task_by_id("ppt-01-blue-background"),
                              setting_by_key("dmi-gpt5-medium"), 0)
    restored = SessionResult.from_dict(result.as_dict())
    assert restored.as_dict() == result.as_dict()
    assert restored.wall_time_s == result.wall_time_s
    assert len(restored.calls) == len(result.calls)
    assert restored.calls[0] == result.calls[0]


def test_session_result_round_trip_survives_json():
    result = SessionResult(task_id="t", app="word", interface=InterfaceSetting.GUI_ONLY,
                           model="gpt-5", reasoning="medium")
    result.record_call(LLMCallRecord(role="host", purpose="decompose",
                                     prompt_tokens=10, completion_tokens=1, latency_s=0.3))
    from repro.agent.session import FailureRecord
    result.failure = FailureRecord(FailureCause.AMBIGUOUS_TASK, detail="why")
    payload = json.loads(json.dumps(result.as_dict()))
    restored = SessionResult.from_dict(payload)
    assert restored.failure.cause is FailureCause.AMBIGUOUS_TASK
    assert restored.failure.detail == "why"
    assert restored.calls[0].latency_s == 0.3


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
def test_cache_round_trip_rebuilds_identical_artifacts(tmp_path):
    cache = ArtifactCache(tmp_path, DMIConfig())
    built = cache.load_or_build("powerpoint")
    assert cache.misses == 1 and cache.hits == 0
    assert cache.path_for("powerpoint").exists()

    warm = ArtifactCache(tmp_path, DMIConfig())
    loaded = warm.load_or_build("powerpoint")
    assert warm.hits == 1 and warm.misses == 0
    # The forest/core derived from the persisted UNG serialise identically.
    assert serialize_forest(loaded.forest) == serialize_forest(built.forest)
    assert loaded.core.visible_node_count() == built.core.visible_node_count()
    assert loaded.core.token_estimate() == built.core.token_estimate()
    # The original rip report travels with the cache entry.
    assert loaded.rip_report.clicks == built.rip_report.clicks > 0


def test_warm_cache_skips_gui_ripping_entirely(tmp_path, monkeypatch):
    BenchmarkRunner(BenchmarkConfig(cache_dir=tmp_path)).offline_artifacts("word")

    def explode(self):
        raise AssertionError("warm cache must not rip the GUI")

    monkeypatch.setattr(GuiRipper, "rip", explode)
    warm = BenchmarkRunner(BenchmarkConfig(cache_dir=tmp_path))
    artifacts = warm.offline_artifacts("word")
    assert warm.cache.hits == 1 and warm.cache.misses == 0
    assert artifacts.rip_report.clicks > 0  # original offline cost preserved


def test_cache_key_depends_on_ripper_config_and_app(tmp_path):
    base = DMIConfig()
    shallow = DMIConfig(ripper=RipperConfig(max_depth=2))
    assert config_fingerprint(base) != config_fingerprint(shallow)
    cache = ArtifactCache(tmp_path, base)
    assert cache.path_for("word") != cache.path_for("excel")
    assert (ArtifactCache(tmp_path, shallow).path_for("word")
            != cache.path_for("word"))


def _wrong_shape(field, value):
    def corrupt(payload):
        payload[field] = value
        return json.dumps(payload)
    return corrupt


def _wrong_node_field(field, value):
    def corrupt(payload):
        payload["nodes"][-1][field] = value
        return json.dumps(payload)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda payload: "{not json",
    lambda payload: json.dumps([payload]),
    _wrong_shape("rip_report", [1]),
    _wrong_shape("nodes", ["not an object"]),
    _wrong_shape("edges", [5]),
    lambda payload: "null",
    _wrong_shape("root_id", "no such node"),
    _wrong_shape("root_id", ["root"]),
    _wrong_node_field("name", 7),
    _wrong_shape("rip_report", {"clicks": "many"}),
], ids=["unparsable", "top-level-list", "report-list", "node-not-object",
        "edge-not-pair", "top-level-null", "root-not-a-node",
        "root-not-string", "node-name-not-string", "report-count-not-int"])
def test_cache_treats_corrupt_entries_as_misses(tmp_path, corrupt, ppt_artifacts):
    cache = ArtifactCache(tmp_path, DMIConfig())
    path = cache.store("powerpoint", ppt_artifacts)
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(corrupt(payload), encoding="utf-8")
    again = ArtifactCache(tmp_path, DMIConfig())
    assert again.get("powerpoint") is None
    rebuilt = again.load_or_build("powerpoint")
    assert again.misses == 1
    assert rebuilt.ung.node_count() > 0


def test_cached_artifacts_produce_identical_trial_results(tmp_path):
    task = task_by_id("ppt-01-blue-background")
    setting = setting_by_key("dmi-gpt5-medium")
    cold = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11))
    warm_once = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11, cache_dir=tmp_path))
    warm_twice = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11, cache_dir=tmp_path))
    results = [runner.run_trial(task, setting, 0).as_dict()
               for runner in (cold, warm_once, warm_twice)]
    assert results[0] == results[1] == results[2]
    assert warm_twice.cache.hits == 1
