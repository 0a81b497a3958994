"""Tests for ``benchmarks/ab_pairs.py``, the A/B pair runner.

A fake dmibench runner stands in for the real one: no subprocess starts
and no workload runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "benchmarks" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(pass_ms, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 81, "failed": 0 if correct else 81,
        "metrics": {"pass_ms": {"value": pass_ms, "unit": "ms"},
                    "setup_s": {"value": 0.3, "unit": "s"}}})


@pytest.fixture
def checkouts(tmp_path):
    parent, head = tmp_path / "parent", tmp_path / "head"
    parent.mkdir()
    head.mkdir()
    return parent, head


def fake_runner(calls, head_ms=200.0, parent_ms=250.0, fail=None):
    """A dmibench stand-in that checks the shared work directory on every
    run; the ``fail``-th run fails with ``fail_with``."""
    def run(checkout, command):
        link = checkout / ab_pairs.WORK
        assert link.is_symlink() and link.resolve().is_dir()
        calls.append((checkout.name, command, link.resolve()))
        if fail is not None and len(calls) == fail[0]:
            return fail[1], "dmibench: warming up\n" + fail[2] + "\n"
        ms = head_ms if checkout.name == "head" else parent_ms
        return 0, "dmibench: warming up\n" + result_line(ms) + "\n"
    return run


def test_pairs_run_in_abba_order_on_seeds_the_trajectory_does_not_use(
        checkouts, capsys):
    parent, head = checkouts
    calls = []
    assert ab_pairs.main([str(parent), str(head), "warm-grid", "4"],
                         run=fake_runner(calls)) == 0
    assert [name for name, _, _ in calls] == ["parent", "head", "head", "parent",
                                              "parent", "head", "head", "parent"]
    seeds = [int(command[command.index("--seed") + 1]) for _, command, _ in calls]
    assert seeds[0::2] == seeds[1::2]  # both runs of a pair share a seed
    assert len(set(seeds)) == 4
    assert not set(seeds) & set(ab_pairs.trajectory_point.SEEDS.values())
    for _, command, _ in calls:
        assert command[:len(BENCH["command"])] == BENCH["command"]
        assert command[len(BENCH["command"]):] == [
            "--workload", "warm-grid", "--seed", command[command.index("--seed") + 1],
            "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    out = capsys.readouterr().out
    assert "pass_ms" in out and "4/4" in out and "0.800" in out


def test_both_checkouts_share_one_work_directory_and_the_links_go(checkouts):
    parent, head = checkouts
    calls = []
    assert ab_pairs.main([str(parent), str(head), "broker-drain", "1"],
                         run=fake_runner(calls)) == 0
    shared = {target for _, _, target in calls}
    assert len(shared) == 1
    assert not (parent / ab_pairs.WORK).exists()
    assert not (head / ab_pairs.WORK).exists()
    assert not (parent / ab_pairs.WORK).is_symlink()
    assert not shared.pop().exists()


@pytest.mark.parametrize("status, last_line", [
    (0, result_line(250.0, correct=False)),
    (3, result_line(250.0)),
    (0, "Traceback (most recent call last): ..."),
], ids=["incorrect", "nonzero-exit", "not-a-result"])
def test_a_failed_run_exits_nonzero_and_removes_the_links(checkouts, capsys,
                                                          status, last_line):
    parent, head = checkouts
    calls = []
    run = fake_runner(calls, fail=(3, status, last_line))
    assert ab_pairs.main([str(parent), str(head), "warm-grid", "2"], run=run) == 1
    assert len(calls) == 3  # nothing runs after the failure
    assert "ab_pairs:" in capsys.readouterr().err
    for checkout in checkouts:
        assert not (checkout / ab_pairs.WORK).is_symlink()


def test_a_checkout_with_a_work_directory_is_refused(checkouts):
    parent, head = checkouts
    (head / ab_pairs.WORK).mkdir()
    calls = []
    assert ab_pairs.main([str(parent), str(head), "warm-grid", "1"],
                         run=fake_runner(calls)) == 1
    assert calls == []
    assert not (parent / ab_pairs.WORK).is_symlink()
    assert (head / ab_pairs.WORK).is_dir()


@pytest.mark.parametrize("argv", [[], ["a", "b", "warm-grid"],
                                  ["a", "b", "warm-grid", "0"],
                                  ["a", "b", "warm-grid", "x"]])
def test_usage(argv):
    calls = []
    assert ab_pairs.main(argv, run=fake_runner(calls)) == 2
    assert calls == []
