"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.bench.runner import DEFAULT_SEED
from repro.cli import build_parser, main


def test_parser_rejects_unknown_setting():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--settings", "nope"])


def test_tasks_command_lists_suite(capsys):
    assert main(["tasks"]) == 0
    output = capsys.readouterr().out
    assert "ppt-01-blue-background" in output
    assert output.count("\n") == 27


def test_tasks_command_filters_by_app(capsys):
    main(["tasks", "--app", "excel"])
    output = capsys.readouterr().out
    assert output.count("\n") == 9
    assert "word-" not in output


def test_model_command_prints_offline_statistics(capsys):
    assert main(["model", "powerpoint"]) == 0
    output = capsys.readouterr().out
    assert "UNG nodes" in output and "powerpoint" in output


def test_run_command_on_small_subset(capsys):
    code = main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
                 "--tasks", "ppt-02-scroll-to-end", "word-02-landscape"])
    assert code == 0
    output = capsys.readouterr().out
    assert "GUI+DMI" in output and "one-shot" in output


def test_report_command_on_small_subset(capsys):
    code = main(["report", "--trials", "1",
                 "--tasks", "ppt-01-blue-background", "excel-03-bold-header"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Table 3" in output
    assert "Figure 5a" in output
    assert "Figure 6" in output
    assert "single core LLM call" in output


def test_run_rejects_duplicate_task_ids(capsys):
    """PR 9 satellite: a repeated id would double-expand the grid (and trip
    the shard planner); the CLI names the offender instead."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
              "--tasks", "word-02-landscape", "ppt-01-blue-background",
              "word-02-landscape"])
    assert "duplicate task id 'word-02-landscape'" in str(excinfo.value)


def test_generate_prints_the_spec_identity(capsys):
    assert main(["generate", "seed=3,tasks=5"]) == 0
    output = capsys.readouterr().out
    assert "token:           s3-" in output
    assert "topology digest: " in output
    assert "tasks:           5" in output


def test_generate_ids_lists_one_task_id_per_line(capsys):
    token = "s3-t2-g1-c2-y3-m2-d2-cy1-x1-n4"
    assert main(["generate", token, "--ids"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"syn:{token}:{i:04d}" for i in range(4)]


def test_generate_json_round_trips(capsys):
    assert main(["generate", "seed=3,tasks=5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tasks"] == 5
    assert payload["app"].startswith("synthetic:s3-")
    assert len(payload["topology_digest"]) == 64


def test_generate_rejects_malformed_specs():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "bogus=1"])
    assert "synthetic spec" in str(excinfo.value)


def test_run_accepts_a_synthetic_grid(capsys):
    token = "s3-t2-g1-c2-y3-m2-d2-cy1-x1-n4"
    code = main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
                 "--synthetic", token])
    assert code == 0
    assert "GUI+DMI" in capsys.readouterr().out


def test_synthetic_flag_rejects_overlap_with_explicit_tasks():
    token = "s3-t2-g1-c2-y3-m2-d2-cy1-x1-n4"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
              "--tasks", f"syn:{token}:0001", "--synthetic", token])
    assert "both --tasks and the --synthetic suite" in str(excinfo.value)


def test_run_and_report_share_the_canonical_seed():
    parser = build_parser()
    assert parser.parse_args(["run"]).seed == DEFAULT_SEED
    assert parser.parse_args(["report"]).seed == DEFAULT_SEED


def test_run_command_with_jobs_cache_and_export(tmp_path, capsys):
    export = tmp_path / "out" / "results.json"
    args = ["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
            "--tasks", "ppt-02-scroll-to-end", "word-02-landscape",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--export", str(export)]
    assert main(args) == 0
    assert "GUI+DMI" in capsys.readouterr().out
    payload = json.loads(export.read_text())
    assert payload["config"]["jobs"] == 2
    results = payload["settings"]["dmi-gpt5-medium"]["results"]
    assert len(results) == 2
    assert {r["task_id"] for r in results} == {"ppt-02-scroll-to-end",
                                               "word-02-landscape"}
    assert "SR" in payload["settings"]["dmi-gpt5-medium"]["summary"]
    # Warm-cache re-run produces the identical export.
    assert main(args) == 0
    capsys.readouterr()
    assert json.loads(export.read_text()) == payload


def test_run_export_of_the_default_grid_is_pinned(tmp_path, capsys):
    """All 81 per-trial records of the default grid against fixed bytes.

    The execution paths are checked against each other, and dmibench's
    reference comes from the same runner, so this pin is what ties every
    trial's record to the behaviour of a freshly built app per trial.
    """
    export = tmp_path / "export.json"
    assert main(["run", "--trials", "1", "--seed", "3", "--export", str(export)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(export.read_bytes()).hexdigest() == (
        "0f7cdc0726da335bfbb6d21e4e4e35f4b5723d97b5e579d80ec579d1a3d49266")


def test_model_command_save_then_load_round_trip(tmp_path, capsys):
    model_path = tmp_path / "models" / "ppt.json"
    assert main(["model", "powerpoint", "--save", str(model_path)]) == 0
    built = capsys.readouterr().out
    assert model_path.exists()
    assert main(["model", "powerpoint", "--load", str(model_path)]) == 0
    loaded = capsys.readouterr().out
    assert loaded == built


def test_model_load_rejects_missing_file_and_wrong_app(tmp_path, capsys):
    with pytest.raises(SystemExit, match="cannot load"):
        main(["model", "word", "--load", str(tmp_path / "nope.json")])
    model_path = tmp_path / "ppt.json"
    main(["model", "powerpoint", "--save", str(model_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit, match="not of 'word'"):
        main(["model", "word", "--load", str(model_path)])
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format_version": 1}')
    with pytest.raises(SystemExit, match="invalid model file"):
        main(["model", "word", "--load", str(truncated)])


def test_model_save_reports_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")  # a file where --save needs a directory
    with pytest.raises(SystemExit, match="cannot save"):
        main(["model", "word", "--save", str(blocker / "model.json")])
    capsys.readouterr()


def test_run_rejects_invalid_jobs_and_cache_dir(tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--jobs", "0"])
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x")
    with pytest.raises(SystemExit, match="not a directory"):
        main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
              "--tasks", "word-02-landscape", "--cache-dir", str(not_a_dir)])


def test_run_and_report_reject_non_positive_trials(capsys):
    """Regression: --trials 0 used to print an all-zero Table 3."""
    for command in ("run", "report"):
        for trials in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--trials", trials,
                      "--tasks", "word-02-landscape"])
            assert exc.value.code != 0
    captured = capsys.readouterr()
    assert "must be >= 1" in captured.err
    assert "Table 3" not in captured.out


def test_run_rejects_explicit_empty_task_list():
    """Regression: `--tasks` with zero ids fell back to the full suite."""
    with pytest.raises(SystemExit, match="at least one task id"):
        main(["run", "--settings", "dmi-gpt5-medium", "--trials", "1",
              "--tasks"])


def test_run_rejects_unknown_task_id():
    with pytest.raises(SystemExit, match="unknown task id 'no-such-task'"):
        main(["run", "--trials", "1", "--tasks", "no-such-task"])


def test_run_progress_streams_one_line_per_trial(capsys):
    assert main(["run", "--settings", "dmi-gpt5-medium", "--trials", "2",
                 "--tasks", "word-02-landscape", "--progress"]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("[")]
    assert lines == ["[1/2] word-02-landscape dmi-gpt5-medium trial 0",
                     "[2/2] word-02-landscape dmi-gpt5-medium trial 1"]
    assert "[1/2]" not in captured.out  # progress stays off stdout


# ----------------------------------------------------------------------
# shard plan / run / merge
# ----------------------------------------------------------------------
SHARD_GRID = ["--settings", "dmi-gpt5-medium", "gui-gpt5-medium",
              "--tasks", "ppt-01-blue-background", "word-02-landscape",
              "--trials", "1"]


def _sharded_export(tmp_path, capsys, shards=3):
    out_dir = tmp_path / "shards"
    assert main(["shard", "plan", "--shards", str(shards),
                 "--out", str(out_dir)] + SHARD_GRID) == 0
    manifests = sorted(out_dir.glob("shard-*.json"))
    assert len(manifests) == shards
    results = []
    for index, manifest in enumerate(manifests):
        path = tmp_path / f"results-{index}.json"
        assert main(["shard", "run", str(manifest),
                     "--results", str(path)]) == 0
        results.append(str(path))
    merged = tmp_path / "merged.json"
    assert main(["shard", "merge", *results, "--export", str(merged)]) == 0
    capsys.readouterr()
    return json.loads(merged.read_text())


def test_shard_plan_run_merge_matches_single_machine_run(tmp_path, capsys):
    merged = _sharded_export(tmp_path, capsys)
    single = tmp_path / "single.json"
    assert main(["run", *SHARD_GRID, "--export", str(single)]) == 0
    capsys.readouterr()
    payload = json.loads(single.read_text())
    # Identical per-trial results and aggregate summaries, bit for bit.
    assert merged["settings"] == payload["settings"]
    assert merged["config"]["shards"] == 3
    assert merged["config"]["seed"] == payload["config"]["seed"]


def test_shard_run_progress_counts_manifest_specs(tmp_path, capsys):
    out_dir = tmp_path / "shards"
    main(["shard", "plan", "--shards", "1", "--out", str(out_dir)] + SHARD_GRID)
    capsys.readouterr()
    manifest = next(out_dir.glob("shard-*.json"))
    assert main(["shard", "run", str(manifest), "--progress",
                 "--results", str(tmp_path / "r.json")]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("[")]
    assert len(lines) == 4  # 2 settings x 2 tasks x 1 trial
    assert lines[-1].startswith("[4/4] ")


def test_shard_merge_rejects_foreign_and_missing_shards(tmp_path, capsys):
    out_dir = tmp_path / "shards"
    main(["shard", "plan", "--shards", "2", "--out", str(out_dir)] + SHARD_GRID)
    alien_dir = tmp_path / "alien"
    main(["shard", "plan", "--shards", "2", "--out", str(alien_dir),
          "--seed", "99"] + SHARD_GRID)
    capsys.readouterr()
    paths = {}
    for name, directory in (("ours-0", out_dir), ("alien-1", alien_dir)):
        index = name.split("-")[1]
        manifest = directory / f"shard-00{index}-of-002.json"
        paths[name] = tmp_path / f"{name}.json"
        assert main(["shard", "run", str(manifest),
                     "--results", str(paths[name])]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="seed"):
        main(["shard", "merge", str(paths["ours-0"]), str(paths["alien-1"])])
    with pytest.raises(SystemExit, match="missing results"):
        main(["shard", "merge", str(paths["ours-0"])])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["shard", "merge", str(tmp_path / "nope.json")])


def test_shard_plan_rejects_oversharding(tmp_path):
    with pytest.raises(SystemExit, match="fewer shards"):
        main(["shard", "plan", "--shards", "99", "--out", str(tmp_path / "s")]
             + SHARD_GRID)


# ----------------------------------------------------------------------
# shard submit / work / collect (the broker queue)
# ----------------------------------------------------------------------
#: Like SHARD_GRID but 2 trials, so the round-robin deal gives every shard
#: both apps (shard 1 then runs entirely from shard 0's warm cache).
BROKER_GRID = SHARD_GRID[:-1] + ["2"]


def test_shard_submit_work_collect_matches_single_machine_run(tmp_path, capsys):
    broker = tmp_path / "queue"
    cache = tmp_path / "cache"
    assert main(["shard", "submit", "--broker", str(broker), "--shards", "2"]
                + BROKER_GRID) == 0
    submitted = capsys.readouterr().out
    assert "submitted 2 shard manifest(s)" in submitted
    assert "repro shard work --broker DIR" in submitted
    # Two sequential workers sharing the cache dir, like two machines, with
    # explicit lease/heartbeat tuning.
    assert main(["shard", "work", "--broker", str(broker), "--worker-id", "w1",
                 "--lease-ttl", "120", "--heartbeat", "5",
                 "--cache-dir", str(cache), "--max-manifests", "1"]) == 0
    first = capsys.readouterr().out
    assert "w1: 1 manifest(s) executed" in first
    assert main(["shard", "work", "--broker", str(broker), "--worker-id", "w2",
                 "--heartbeat", "0", "--cache-dir", str(cache)]) == 0
    second = capsys.readouterr().out
    assert "w2: 1 manifest(s) executed" in second
    # Satellite guarantee: the second worker's cache never misses.
    assert "0 miss(es)" in second and "0 miss(es)" not in first
    merged = tmp_path / "merged.json"
    assert main(["shard", "collect", "--broker", str(broker),
                 "--export", str(merged)]) == 0
    capsys.readouterr()
    single = tmp_path / "single.json"
    assert main(["run", *BROKER_GRID, "--export", str(single)]) == 0
    capsys.readouterr()
    merged_payload = json.loads(merged.read_text())
    assert merged_payload["settings"] == json.loads(single.read_text())["settings"]
    assert merged_payload["config"]["broker"] == str(broker)


def test_shard_collect_reports_incomplete_queue(tmp_path, capsys):
    broker = tmp_path / "queue"
    main(["shard", "submit", "--broker", str(broker), "--shards", "2"]
         + SHARD_GRID)
    main(["shard", "work", "--broker", str(broker), "--max-manifests", "1"])
    capsys.readouterr()
    with pytest.raises(SystemExit, match="not complete") as exc:
        main(["shard", "collect", "--broker", str(broker)])
    assert "1/2 done" in str(exc.value)


def test_shard_work_streams_trial_progress(tmp_path, capsys):
    broker = tmp_path / "queue"
    main(["shard", "submit", "--broker", str(broker), "--shards", "1"]
         + SHARD_GRID)
    capsys.readouterr()
    assert main(["shard", "work", "--broker", str(broker), "--progress"]) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("[")]
    assert len(lines) == 4  # 2 settings x 2 tasks x 1 trial
    assert "posted shard 1/1" in captured.out


def test_shard_submit_refuses_a_second_plan(tmp_path, capsys):
    broker = tmp_path / "queue"
    assert main(["shard", "submit", "--broker", str(broker), "--shards", "1"]
                + SHARD_GRID) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="already holds a plan"):
        main(["shard", "submit", "--broker", str(broker), "--shards", "1"]
             + SHARD_GRID)


def test_shard_collect_on_unsubmitted_broker_errors_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="no plan has been submitted"):
        main(["shard", "collect", "--broker", str(tmp_path / "empty")])


def test_shard_work_rejects_bad_flags(tmp_path):
    for poll in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "work", "--broker", "q",
                                       "--poll", poll])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["shard", "work", "--broker", "q",
                                   "--max-manifests", "0"])


def test_shard_merge_report_prints_figures(tmp_path, capsys):
    out_dir = tmp_path / "shards"
    main(["shard", "plan", "--shards", "2", "--out", str(out_dir)] + SHARD_GRID)
    results = []
    for index, manifest in enumerate(sorted(out_dir.glob("shard-*.json"))):
        path = tmp_path / f"r{index}.json"
        main(["shard", "run", str(manifest), "--results", str(path)])
        results.append(str(path))
    capsys.readouterr()
    assert main(["shard", "merge", *results, "--report"]) == 0
    output = capsys.readouterr().out
    assert "Table 3" in output
    assert "Figure 5a" in output
    assert "Figure 6" in output
    assert "single core LLM call" in output


def test_shard_queue_commands_require_a_broker(tmp_path):
    for command in (["shard", "submit", "--shards", "1"],
                    ["shard", "work"], ["shard", "collect"],
                    ["shard", "status"]):
        with pytest.raises(SystemExit):  # no --broker
            build_parser().parse_args(command)
        assert build_parser().parse_args(command + ["--broker", "a"]).broker \
            == "a"


def test_shard_queue_commands_reject_nonpositive_lease_ttl():
    for value in ("0", "-5", "nan", "inf"):
        for command in (["shard", "submit", "--shards", "1"],
                        ["shard", "work"], ["shard", "collect"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--broker", "q",
                                                     "--lease-ttl", value])


def test_shard_work_rejects_heartbeat_at_or_above_lease_ttl(tmp_path):
    with pytest.raises(SystemExit, match="shorter than") as excinfo:
        main(["shard", "work", "--broker", str(tmp_path / "q"),
              "--lease-ttl", "30", "--heartbeat", "30"])
    assert "--lease-ttl" in str(excinfo.value)  # names both flags
    with pytest.raises(SystemExit, match="shorter than"):
        main(["shard", "work", "--broker", str(tmp_path / "q"),
              "--heartbeat", "1000"])  # >= the default 900s ttl
    with pytest.raises(SystemExit):  # negative: rejected by argparse
        build_parser().parse_args(["shard", "work", "--broker", "q",
                                   "--heartbeat", "-1"])


def test_shard_work_progress_prints_heartbeat_renewals(tmp_path, capsys):
    store = tmp_path / "objstore"
    main(["shard", "submit", "--broker", str(store), "--shards", "1"]
         + BROKER_GRID)
    capsys.readouterr()
    assert main(["shard", "work", "--broker", str(store), "--worker-id", "hb",
                 "--lease-ttl", "60", "--heartbeat", "0.02",
                 "--progress"]) == 0
    captured = capsys.readouterr()
    assert "hb: renewed lease on shard 1/1" in captured.err
    assert "posted shard 1/1" in captured.out


# ----------------------------------------------------------------------
# named plans, per-plan status, and daemon workers
# ----------------------------------------------------------------------
def test_shard_named_plans_submit_work_status_collect(tmp_path, capsys):
    """Two named plans on one broker: one worker drains both, `shard
    status` shows a per-plan table, and each collect exports exactly the
    single-machine run."""
    broker = tmp_path / "queue"
    assert main(["shard", "submit", "--broker", str(broker), "--shards", "1",
                 "--plan", "nightly", "--priority", "1"] + SHARD_GRID) == 0
    submitted = capsys.readouterr().out
    assert "as plan 'nightly'" in submitted
    assert "--plan nightly" in submitted  # the collect hint names the plan
    assert main(["shard", "submit", "--broker", str(broker), "--shards", "2",
                 "--plan", "smoke"] + SHARD_GRID) == 0
    capsys.readouterr()
    assert main(["shard", "work", "--broker", str(broker),
                 "--worker-id", "w1"]) == 0
    worked = capsys.readouterr().out
    assert "w1: 3 manifest(s) executed" in worked
    # Multi-plan drains get a per-plan breakdown under the summary line.
    assert "plan 'nightly': 1 manifest(s)" in worked
    assert "plan 'smoke': 2 manifest(s)" in worked
    assert main(["shard", "status", "--broker", str(broker)]) == 0
    table = capsys.readouterr().out
    assert "nightly" in table and "smoke" in table
    assert "(all plans)" in table  # the aggregate row
    exports = {}
    for name in ("nightly", "smoke"):
        target = tmp_path / f"{name}.json"
        assert main(["shard", "collect", "--broker", str(broker),
                     "--plan", name, "--export", str(target)]) == 0
        capsys.readouterr()
        exports[name] = json.loads(target.read_text())
        assert exports[name]["config"]["plan"] == name
    single = tmp_path / "single.json"
    assert main(["run", *SHARD_GRID, "--export", str(single)]) == 0
    capsys.readouterr()
    reference = json.loads(single.read_text())["settings"]
    assert exports["nightly"]["settings"] == reference
    assert exports["smoke"]["settings"] == reference


def test_shard_status_json_reports_drained_plans(tmp_path, capsys):
    """After one worker drains two named plans, `shard status --json`
    reports each complete with nothing queued or leased."""
    broker = tmp_path / "queue"
    for name, shards in (("fleet-a", "1"), ("fleet-b", "2")):
        assert main(["shard", "submit", "--broker", str(broker),
                     "--shards", shards, "--plan", name] + SHARD_GRID) == 0
    capsys.readouterr()
    assert main(["shard", "status", "--broker", str(broker), "--json"]) == 0
    pending = json.loads(capsys.readouterr().out)
    assert pending["plans"]["fleet-b"]["queued"] == 2
    assert pending["aggregate"]["complete"] is False
    assert main(["shard", "work", "--broker", str(broker)]) == 0
    capsys.readouterr()
    assert main(["shard", "status", "--broker", str(broker), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["plans"]) == {"fleet-a", "fleet-b"}
    for name, shards in (("fleet-a", 1), ("fleet-b", 2)):
        gauges = payload["plans"][name]
        assert gauges["complete"] is True, (name, gauges)
        assert (gauges["queued"], gauges["leased"], gauges["done"]) \
            == (0, 0, shards), (name, gauges)
    assert payload["aggregate"] == {"queued": 0, "leased": 0, "done": 3,
                                    "shard_count": 3, "complete": True}


@pytest.mark.parametrize("command, message", [
    (["fleet", "status", "--broker", "q"], "invalid choice: 'fleet'"),
    (["shard", "work", "--broker", "q", "--metrics", "fleet.json"],
     "unrecognized arguments: --metrics"),
], ids=["fleet-status", "shard-work-metrics"])
def test_removed_fleet_options_are_rejected(command, message, capsys):
    """The deleted fleet view and worker metrics snapshot fail loudly at
    parse time rather than being silently ignored."""
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(command)
    assert raised.value.code == 2
    assert message in capsys.readouterr().err


def test_shard_collect_names_the_incomplete_plan(tmp_path, capsys):
    broker = tmp_path / "queue"
    main(["shard", "submit", "--broker", str(broker), "--shards", "2",
          "--plan", "nightly"] + SHARD_GRID)
    capsys.readouterr()
    with pytest.raises(SystemExit, match="plan 'nightly'.*not complete"):
        main(["shard", "collect", "--broker", str(broker),
              "--plan", "nightly"])
    # An unknown plan name still gets the canonical unsubmitted error.
    with pytest.raises(SystemExit, match="no plan has been submitted"):
        main(["shard", "collect", "--broker", str(broker),
              "--plan", "never-was"])


def test_shard_rejects_invalid_plan_names():
    for bad in ("", ".", "..", "a/b", "a..b", "plan name"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "submit", "--broker", "q",
                                       "--shards", "1", "--plan", bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "collect", "--broker", "q",
                                       "--plan", bad])


def test_shard_work_daemon_flag_validation(tmp_path):
    with pytest.raises(SystemExit, match="only applies to --daemon"):
        main(["shard", "work", "--broker", str(tmp_path / "q"),
              "--max-idle-s", "5"])
    for value in ("0", "-1", "inf"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "work", "--broker", "q",
                                       "--daemon", "--max-idle-s", value])


# ----------------------------------------------------------------------
# chaos conformance: --fault-schedule on the queue commands
# ----------------------------------------------------------------------
def _hostile_schedule_file(tmp_path, ops):
    """A seeded storm for CLI runs: transient errors only (semantics-
    preserving), one call in four.  A worker's drain makes about ten store
    calls, so a sparser storm can miss it entirely.  At seed 8 no op's
    first 300 draws hold more than four faults in a row, so no call of a
    run this short can exhaust the default 8-attempt retry budget."""
    from repro.bench.faults import FaultSchedule, FaultSpec

    spec = FaultSpec(error_rate=0.25)
    schedule_path = tmp_path / "storm.json"
    FaultSchedule(seed=8, ops={op: spec for op in ops}).save(schedule_path)
    return schedule_path


def test_shard_chaos_store_round_trip_matches_single_run(tmp_path, capsys):
    """PR 8 satellite: the full submit/work/collect round trip over the
    object store with a seeded hostile fault schedule exports exactly the
    single-machine run, and the worker's registry record proves the storm
    reached the retry layer (``store_retry`` counter via ``runs show``)."""
    from repro.bench.faults import STORE_OPS
    from repro.bench.registry import RunRegistry

    store = tmp_path / "objstore"
    registry_dir = tmp_path / "registry"
    storm = _hostile_schedule_file(tmp_path, STORE_OPS)
    chaos = ["--fault-schedule", str(storm)]
    assert main(["shard", "submit", "--broker", str(store), "--shards", "2"]
                + BROKER_GRID + chaos) == 0
    capsys.readouterr()
    assert main(["shard", "work", "--broker", str(store), "--worker-id", "w1",
                 "--heartbeat", "0", "--max-manifests", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir)] + chaos) == 0
    assert "w1: 1 manifest(s) executed" in capsys.readouterr().out
    assert main(["shard", "work", "--broker", str(store), "--worker-id", "w2",
                 "--heartbeat", "0", "--cache-dir", str(tmp_path / "cache"),
                 "--registry", str(registry_dir)] + chaos) == 0
    assert "w2: 1 manifest(s) executed" in capsys.readouterr().out
    merged = tmp_path / "merged.json"
    assert main(["shard", "collect", "--broker", str(store),
                 "--export", str(merged)] + chaos) == 0
    single = tmp_path / "single.json"
    assert main(["run", *BROKER_GRID, "--export", str(single)]) == 0
    capsys.readouterr()
    merged_payload = json.loads(merged.read_text())
    assert merged_payload["settings"] == json.loads(single.read_text())["settings"]
    # The storm was real and the retries are on the record: `runs show`
    # surfaces a positive store_retry counter for the first worker.
    run_id = RunRegistry(registry_dir).latest().run_id
    assert main(["runs", "show", run_id, "--registry",
                 str(registry_dir)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["counters"]["store_retry"] > 0
    assert shown["counters"]["shard_posted"] == 1


def test_shard_fault_schedule_rejects_unreadable_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SystemExit, match="cannot read"):
        main(["shard", "submit", "--broker", str(tmp_path / "s"),
              "--shards", "1", "--fault-schedule", str(missing)] + BROKER_GRID)
    torn = tmp_path / "torn.json"
    torn.write_text("{not json", encoding="utf-8")
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["shard", "work", "--broker", str(tmp_path / "s"),
              "--fault-schedule", str(torn)])
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "something-else"}), encoding="utf-8")
    with pytest.raises(SystemExit, match="field 'kind'"):
        main(["shard", "collect", "--broker", str(tmp_path / "s"),
              "--fault-schedule", str(wrong)])
