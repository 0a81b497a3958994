"""Tests for ``benchmarks/trajectory_point.py``, the perf-trajectory writer.

A fake dmibench runner stands in for the real one: no subprocess starts
and no workload runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "trajectory_point", ROOT / "benchmarks" / "trajectory_point.py")
trajectory_point = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory_point)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
ENTRY_KEYS = {"seed", "pass_ms", "setup_s", "correct", "attempted", "failed"}


def result_line(correct=True):
    return json.dumps({
        "correct": correct, "attempted": 81, "failed": 0 if correct else 81,
        "metrics": {"pass_ms": {"value": 250.0, "unit": "ms"},
                    "setup_s": {"value": 0.4, "unit": "s"}}})


def fake_runner(calls, broken=None, status=0, last_line=None):
    """A dmibench stand-in; the ``broken`` workload fails as specified."""
    def run(command):
        calls.append(command)
        workload = command[command.index("--workload") + 1]
        if workload != broken:
            return 0, "dmibench: warming up\n" + result_line() + "\n"
        return status, "dmibench: warming up\n" + last_line + "\n"
    return run


def test_a_point_has_the_same_keys_every_time(tmp_path):
    calls = []
    out = tmp_path / "BENCH_1.json"
    assert trajectory_point.main([str(out)], run=fake_runner(calls)) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert set(written) == {"kind", "format_version", "run_seconds", "nproc",
                            "python", "workloads"}
    assert written["run_seconds"] == BENCH["run_seconds"]
    assert list(written["workloads"]) == WORKLOADS
    for name, entry in written["workloads"].items():
        assert set(entry) == ENTRY_KEYS
        assert entry["seed"] == trajectory_point.SEEDS[name]
        assert entry["correct"] is True and entry["failed"] == 0
    # One untraced run per workload, at its seed, for run_seconds.
    assert len(calls) == len(WORKLOADS)
    for name, command in zip(WORKLOADS, calls):
        assert command[:len(BENCH["command"])] == BENCH["command"]
        tail = command[len(BENCH["command"]):]
        assert tail == ["--workload", name,
                        "--seed", str(trajectory_point.SEEDS[name]),
                        "--seconds", str(BENCH["run_seconds"]),
                        "--trace", "0"]


@pytest.mark.parametrize("status, last_line", [
    (0, result_line(correct=False)),
    (0, "Traceback (most recent call last): ..."),
    (0, json.dumps({"correct": True})),
    (1, result_line()),
], ids=["incorrect", "not-json", "not-a-result", "nonzero-exit"])
def test_a_failed_run_writes_no_point(tmp_path, capsys, status, last_line):
    out = tmp_path / "BENCH_1.json"
    # The last workload fails, after the others have been measured.
    run = fake_runner([], broken=WORKLOADS[-1], status=status,
                      last_line=last_line)
    assert trajectory_point.main([str(out)], run=run) != 0
    assert not out.exists()
    assert "no point written" in capsys.readouterr().err


def test_the_output_path_is_the_only_argument(tmp_path):
    calls = []
    assert trajectory_point.main([], run=fake_runner(calls)) != 0
    assert trajectory_point.main([str(tmp_path / "a.json"), "--seed"],
                                 run=fake_runner(calls)) != 0
    assert calls == []
