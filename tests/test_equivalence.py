"""The equivalence harness as a tier-1 test (the acceptance-criteria gate).

Every execution path the codebase offers — serial, process-pool parallel,
file-based shard plan/run/merge, and the broker work queue (calm, under
chaos, and with several plans sharing one broker) — must export
byte-identical JSON for the same (seed, grid).  ``tests/equivalence.py``
does the running; these tests parametrize it over seeds and shard counts.
"""

import json

import pytest

from equivalence import (
    DEFAULT_SETTINGS,
    DEFAULT_TASKS,
    SYNTHETIC_SPEC,
    assert_paths_bit_identical,
    outcomes_bytes,
    run_all_paths,
    run_chaos_store_broker,
    run_multi_plan_broker,
    run_serial,
    synthetic_task_ids,
)
from repro.bench.runner import DEFAULT_SEED
from repro.bench.telemetry import AggregatingSink, use_sink


@pytest.mark.parametrize("shard_count", [2, 3])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1097])
def test_every_execution_path_is_bit_identical(tmp_path, seed, shard_count):
    reference = assert_paths_bit_identical(
        seed=seed, trials=1, setting_keys=DEFAULT_SETTINGS,
        task_ids=DEFAULT_TASKS, shard_count=shard_count, work_dir=tmp_path)
    # The reference is a real export: per-setting results for the full grid.
    payload = json.loads(reference.decode("utf-8"))
    assert set(payload) == set(DEFAULT_SETTINGS)
    for key in DEFAULT_SETTINGS:
        assert len(payload[key]["results"]) == len(DEFAULT_TASKS)


def test_two_plans_sharing_a_broker_stay_bit_identical_to_serial(tmp_path):
    """PR 7 tentpole: two named plans (different seeds) on one broker,
    drained by one worker through one shared cache, each collect
    bit-identical to running that seed's grid serially and alone."""
    seeds = (DEFAULT_SEED, 1097)
    multi = run_multi_plan_broker(
        seeds=seeds, trials=1, setting_keys=DEFAULT_SETTINGS,
        task_ids=DEFAULT_TASKS, shard_count=2, work_dir=tmp_path)
    for seed in seeds:
        reference = run_serial(seed, 1, DEFAULT_SETTINGS, DEFAULT_TASKS)
        assert multi[f"seed-{seed}"] == reference, (
            f"plan 'seed-{seed}' diverged from the serial run of the same "
            f"seed while sharing a broker with another plan")
    assert multi[f"seed-{seeds[0]}"] != multi[f"seed-{seeds[1]}"]


def test_chaos_store_broker_stays_bit_identical_to_serial(tmp_path):
    """PR 8 tentpole: a seeded hostile fault schedule rains transient
    errors on every object-store call while two workers drain the queue;
    bounded retry absorbs all of it (visible as ``store_retry`` telemetry)
    and the merged export is still byte-for-byte the serial export."""
    reference = run_serial(DEFAULT_SEED, 1, DEFAULT_SETTINGS, DEFAULT_TASKS)
    with use_sink(AggregatingSink()) as sink:
        chaotic = run_chaos_store_broker(
            seed=DEFAULT_SEED, trials=1, setting_keys=DEFAULT_SETTINGS,
            task_ids=DEFAULT_TASKS, shard_count=2, work_dir=tmp_path)
    assert chaotic == reference, (
        "the broker path diverged from serial under injected faults")
    # The weather actually reached the retry layer — this run earned its
    # name — and nobody exhausted a budget (the run completed).
    assert sink.count("store_retry") > 0
    """Guard against the harness comparing vacuously identical blobs."""
    exports = {
        seed: run_all_paths(seed=seed, trials=1,
                            setting_keys=DEFAULT_SETTINGS,
                            task_ids=DEFAULT_TASKS, shard_count=2,
                            work_dir=tmp_path / f"seed-{seed}")
        for seed in (DEFAULT_SEED, 1097)
    }
    assert exports[DEFAULT_SEED]["serial"] != exports[1097]["serial"]
    # Guard against an execution path silently dropping out of the harness.
    assert set(exports[DEFAULT_SEED]) == {"serial", "parallel",
                                          "file-shards", "broker"}


def test_generated_grid_is_bit_identical_across_all_paths(tmp_path):
    """PR 9 tentpole: a grid mixing a generated app's task suite with a
    hand-written task runs byte-identically through all four execution
    paths.  Workers in the shard/broker paths hold only the ``syn:`` ids —
    the token regenerates the app and tasks in each fresh process."""
    task_ids = synthetic_task_ids(SYNTHETIC_SPEC) + ("word-02-landscape",)
    reference = assert_paths_bit_identical(
        seed=DEFAULT_SEED, trials=1, setting_keys=DEFAULT_SETTINGS,
        task_ids=task_ids, shard_count=2, work_dir=tmp_path)
    payload = json.loads(reference.decode("utf-8"))
    for key in DEFAULT_SETTINGS:
        assert len(payload[key]["results"]) == len(task_ids)


def test_generated_grid_survives_chaos_store_broker(tmp_path):
    """The PR 8 chaos guarantee extends to generated grids: a hostile
    fault schedule on the object store leaves the synthetic suite's
    merged export byte-identical to its serial run."""
    task_ids = synthetic_task_ids(SYNTHETIC_SPEC)
    reference = run_serial(DEFAULT_SEED, 1, DEFAULT_SETTINGS, task_ids)
    chaotic = run_chaos_store_broker(
        seed=DEFAULT_SEED, trials=1, setting_keys=DEFAULT_SETTINGS,
        task_ids=task_ids, shard_count=2, work_dir=tmp_path)
    assert chaotic == reference, (
        "the generated grid diverged from serial under injected faults")


def test_outcomes_bytes_is_deterministic_for_equal_outcomes():
    from repro.bench.runner import BenchmarkConfig, BenchmarkRunner, setting_by_key
    from repro.bench.tasks import task_by_id

    def one_run():
        runner = BenchmarkRunner(BenchmarkConfig(
            trials=1, tasks=[task_by_id(DEFAULT_TASKS[0])]))
        return outcomes_bytes(runner.run_settings(
            [setting_by_key(DEFAULT_SETTINGS[1])]))

    assert one_run() == one_run()
