"""Import order and the start-up import graph, each in a fresh interpreter.

``repro.bench`` imports nothing itself, so the ripper and the artifact cache
can import :mod:`repro.bench.telemetry` at module top without pulling in the
runner, whose DMI stack imports them in turn.  These tests fail if that
cycle comes back.

Every fresh ``repro`` process pays its imports before any work starts, so
the graph is guarded too: the package loads nothing outside the standard
library, and only a ``--jobs`` run loads the process-pool machinery.
"""

import json
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


ENTRY_MODULES = [
    "repro.ripping.ripper",
    "repro.dmi.cache",
    "repro.dmi.interface",
    "repro.bench.runner",
    "repro.bench.shard",
    "repro.bench.store",
    "repro.bench.transport",
    "repro.cli",
]

#: Loaded by a ``--jobs`` pool and by nothing else the package runs.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    _run(f"import {module}")


def _loaded_after(code: str) -> dict:
    """The modules that ``code`` loads in a fresh interpreter, beyond those
    the bare interpreter starts with (site ``.pth`` hooks among them)."""
    return json.loads(_run(
        "import json, sys\n"
        "_bare = set(sys.modules)\n"
        f"{code}\n"
        "_new = sorted(set(sys.modules) - _bare)\n"
        "print(json.dumps({'outside': sorted({m.split('.')[0] for m in _new}\n"
        "                  - set(sys.stdlib_module_names) - {'repro'}),\n"
        "                  'pool': [m for m in _new if m in %r]}))" % (POOL_MODULES,)
    ).splitlines()[-1])


_RUN_ONE_TRIAL = ("from repro.cli import main\n"
               "main(['run', '--settings', 'dmi-gpt5-medium', '--tasks',"
               " 'excel-03-bold-header', '--trials', '1'{jobs}])")


def test_entry_modules_load_only_the_standard_library():
    loaded = _loaded_after("\n".join(f"import {m}" for m in ENTRY_MODULES))
    assert loaded == {"outside": [], "pool": []}


def test_a_serial_run_loads_no_process_pool():
    assert _loaded_after(_RUN_ONE_TRIAL.format(jobs="")) == {"outside": [], "pool": []}


def test_a_jobs_run_loads_the_process_pool():
    """The guard above can fail: the same run with ``--jobs`` trips it."""
    loaded = _loaded_after(_RUN_ONE_TRIAL.format(jobs=", '--jobs', '2'"))
    assert loaded["pool"] == list(POOL_MODULES)


def test_the_ripper_does_not_load_the_bench_stack():
    loaded = _run("import sys, repro.ripping.ripper\n"
                  "print(*sorted(m for m in sys.modules"
                  " if m.startswith('repro.bench')))").split()
    assert "repro.bench.telemetry" in loaded
    assert "repro.bench.runner" not in loaded
    assert "repro.bench.transport" not in loaded
