"""Import order: every entry module imports first in a fresh interpreter.

``repro.bench`` imports nothing itself, so the ripper and the artifact cache
can import :mod:`repro.bench.telemetry` at module top without pulling in the
runner, whose DMI stack imports them in turn.  These tests fail if that
cycle comes back.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("module", [
    "repro.ripping.ripper",
    "repro.dmi.cache",
    "repro.dmi.interface",
    "repro.bench.runner",
    "repro.bench.shard",
    "repro.bench.store",
    "repro.bench.transport",
    "repro.cli",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    _run(f"import {module}")


def test_the_ripper_does_not_load_the_bench_stack():
    loaded = _run("import sys, repro.ripping.ripper\n"
                  "print(*sorted(m for m in sys.modules"
                  " if m.startswith('repro.bench')))").split()
    assert "repro.bench.telemetry" in loaded
    assert "repro.bench.runner" not in loaded
    assert "repro.bench.transport" not in loaded
