"""Snapshot and restore: one as-built app per runner, restored before every trial.

"The same state" is ``observe`` (``tests/conftest.py``).  A restore must
reproduce a fresh build's ``observe`` after any interaction, in place (the
main window and the model stay the same objects), and the benchmark runner
must build each app once and still give every trial a fresh build's
starting state.  A restore rewrites only the containers their seams saved
before the first write, so every snapshot taken here also records, by the
drift oracle's walk (``tests/snapshot_drift.py``), everything its app
reaches, and after every restore the oracle checks each of them.
"""

from __future__ import annotations

import ast
import collections
import gc
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.agent.host_agent import HostAgent
from repro.apps import app_factory
from repro.apps.base import Application
from repro.apps.snapshot import AppSnapshot
from repro.apps.synthetic import SyntheticSpec, synthetic_suite
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    CORE_SETTING_KEYS,
    setting_by_key,
)
from repro.bench.tasks import task_by_id
from repro.bench.telemetry import EventSink, TrialFinished, use_sink
from repro.dmi.cache import ArtifactCache
from repro.dmi.interface import DMIConfig
from repro.gui.widgets import Button
from repro.uia.patterns import LegacyAccessiblePattern
from repro.uia.writes import Marked, MarkedAttribute

from snapshot_drift import drift, record, recording

SRC = Path(__file__).resolve().parent.parent / "src"

RESTORE_APPS = ["word", "excel", "powerpoint",
                SyntheticSpec(seed=3).app_name, SyntheticSpec(seed=8).app_name]


def _visible_controls(app):
    return [element for window in app.desktop.open_windows(app.process_id)
            for element in window.iter_subtree()
            if element.is_on_screen() and element.is_enabled]


def _click_nth(app, pick: int) -> None:
    controls = _visible_controls(app)
    try:
        app.input.click(controls[pick % len(controls)])
    except Exception:
        pass  # a click that fails half-way is part of what a restore undoes


@pytest.fixture(scope="module", autouse=True)
def _recording():
    """Every snapshot this module takes carries the oracle's record."""
    with recording():
        yield


@pytest.fixture(scope="module")
def as_built(observe):
    """``name -> (app, its as-built snapshot, a fresh build's observe)``,
    one instance per app for the whole module, as the runner keeps them."""
    built = {}

    def get(name):
        if name not in built:
            app = app_factory(name)()
            built[name] = (app, app.snapshot(), observe(app_factory(name)()))
        return built[name]

    return get


@pytest.mark.parametrize("name", RESTORE_APPS)
@settings(max_examples=25, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=10))
def test_restore_after_random_clicks_matches_a_fresh_build(observe, as_built, name, picks):
    app, snapshot, fresh = as_built(name)
    window, model = app.window, app.state
    for pick in picks:
        _click_nth(app, pick)
    app.restore(snapshot)
    assert drift(snapshot) == []
    assert app.window is window and app.state is model
    assert observe(app) == fresh


def test_observe_sees_a_dialog_and_an_edit_and_restore_undoes_both(observe):
    app = app_factory("word")()
    snapshot = app.snapshot()
    fresh = observe(app)
    status = app.window.find(name_contains="Words:")
    app.input.click(app.window.find(automation_id="Word.Review.WordCount"))
    app.document.add_paragraph("three more words")
    assert len(app.desktop.open_windows(app.process_id)) == 2
    assert observe(app) != fresh
    app.restore(snapshot)
    assert observe(app) == fresh
    assert app.window.find(name_contains="Words:") is status
    assert app.desktop.open_windows(app.process_id) == [app.window]


def test_restore_refills_sets():
    excel = app_factory("excel")()
    sheet = excel.workbook.active_sheet
    hidden = sheet.hidden_columns
    snapshot = excel.snapshot()
    sheet.hide_column("C")
    assert hidden == {2}
    excel.restore(snapshot)
    assert sheet.hidden_columns is hidden and hidden == set()
    assert drift(snapshot) == []


def test_no_code_in_src_rebinds_a_closure_cell():
    """A restore leaves closure cells alone, which holds only while no
    code rebinds one: no ``nonlocal``, no ``cell_contents`` write."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Nonlocal):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}: nonlocal")
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found.extend(f"{path.relative_to(SRC)}:{node.lineno}: cell_contents"
                         for target in targets
                         if isinstance(target, ast.Attribute)
                         and target.attr == "cell_contents")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "setattr" and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value == "cell_contents":
                found.append(f"{path.relative_to(SRC)}:{node.lineno}: cell_contents")
    assert found == []


def test_restores_interleaved_across_two_apps_lose_no_write(observe):
    """Each app's writes survive restores of the other: write A, restore
    B, write B, restore A, restore B."""
    word, excel = app_factory("word")(), app_factory("excel")()
    word_snapshot, excel_snapshot = word.snapshot(), excel.snapshot()
    fresh_word, fresh_excel = observe(word), observe(excel)
    word.input.click(word.window.find(name="Layout", control_type="TabItem"))
    word.document.set_margins(top=1.0)
    excel.restore(excel_snapshot)
    excel.input.click(excel.window.find(name="Insert", control_type="TabItem"))
    excel.workbook.active_sheet.set_filter(2, "> 3")
    assert observe(word) != fresh_word and observe(excel) != fresh_excel
    word.restore(word_snapshot)
    assert drift(word_snapshot) == [] and observe(word) == fresh_word
    excel.restore(excel_snapshot)
    assert drift(excel_snapshot) == [] and observe(excel) == fresh_excel


def test_a_second_live_snapshot_of_one_app_raises(observe):
    """An app has one live snapshot; once it is dropped, a new one records
    the state of that moment."""
    app = app_factory("word")()
    first = app.snapshot()
    with pytest.raises(ValueError, match="live snapshot"):
        app.snapshot()
    app.input.click(app.window.find(name="Layout", control_type="TabItem"))
    app.document.set_margins(top=1.0)
    del first
    gc.collect()
    edited = app.snapshot()
    changed = observe(app)
    app.document.set_margins(top=2.0)
    app.restore(edited)
    assert drift(edited) == [] and observe(app) == changed


def _hide_column_b(app):
    app.workbook.active_sheet.selection = [(0, 1)]
    app.input.click(app.window.find(automation_id="Excel.Home.FormatMenu.HideColumns"))


def _remove_first_shape(app):
    slide = app.presentation.active_slide
    slide.remove_shape(slide.shapes[0])


#: Writes through seams that no click of the default grid or the random
#: clicks above reaches, one per case.
SEAM_WRITES = {
    "word": {
        "insert-paragraph": lambda app: app.document.insert_paragraph(0, "x"),
        "delete-paragraph": lambda app: app.document.delete_paragraph(0),
        "register-shortcut": lambda app: app.register_shortcut("ctrl+alt+q", print),
        "register-context": lambda app: app.register_context("extra", print),
        "add-child": lambda app: app.window.add_child(Button("Extra")),
        "add-pattern": lambda app: app.window.add_pattern(
            LegacyAccessiblePattern(app.window, description="extra")),
        "subscribe": lambda app: app.desktop.events.subscribe(print),
        "clear-history": lambda app: app.desktop.events.clear_history(),
        "close-main-window": lambda app: app.window.close(),
    },
    "excel": {
        "add-sheet": lambda app: app.workbook.add_sheet("Extra"),
        "new-cell": lambda app: app.workbook.active_sheet.cell_at(90, 20),
        "column-width": lambda app: app.workbook.active_sheet.set_column_width_at(3, 20.0),
        "row-height": lambda app: app.workbook.active_sheet.set_row_height(3, 30.0),
        "hide-column": _hide_column_b,
    },
    "powerpoint": {"remove-shape": _remove_first_shape,
                   "duplicate-slide": lambda app: app.presentation.duplicate_slide(0)},
}


@pytest.mark.parametrize("name, write", [
    (name, write) for name, writes in SEAM_WRITES.items() for write in writes])
def test_a_write_through_each_seam_is_restored(observe, as_built, name, write):
    app, snapshot, fresh = as_built(name)
    SEAM_WRITES[name][write](app)
    app.restore(snapshot)
    assert drift(snapshot) == []
    assert observe(app) == fresh


def test_snapshot_refuses_state_it_cannot_see():
    app = app_factory(SyntheticSpec(seed=3).app_name)()
    app.window.properties["recent"] = collections.deque()
    with pytest.raises(TypeError, match="deque"):
        record(app)


def _no_save(owner, container=None):
    pass


def _unsaved_attribute(descriptor, instance, value):
    instance.__dict__[descriptor.name] = value


@pytest.mark.parametrize("seam, target, named", [
    # The descriptor: InvokePattern.invoke_count.
    ((MarkedAttribute, "__set__", _unsaved_attribute),
     "Word.Home.Bold", "InvokePattern: ['invoke_count']"),
    # The Marked base: the desktop's focus.
    ((Marked, "__setattr__", object.__setattr__),
     "Word.Home.Bold", "Desktop: ['focus']"),
    # A plain-dict save: the margins a Margins menu choice writes.
    (("repro.apps.document.save", _no_save), "Word.Layout.Margins.Narrow",
     "Document.margins"),
    # A list seam: the paragraph a Date & Time click appends.
    (("repro.apps.document.save", _no_save), "Word.Insert.DateTime",
     "Document.paragraphs"),
], ids=["descriptor", "marked-base", "plain-dict", "list"])
def test_the_oracle_names_a_write_that_skipped_its_seam(monkeypatch, seam, target, named):
    app = app_factory("word")()
    snapshot = app.snapshot()
    monkeypatch.setattr(*seam)
    app.input.click(app.window.find(automation_id=target))
    app.restore(snapshot)
    monkeypatch.undo()
    assert any(line.startswith(named) for line in drift(snapshot)), drift(snapshot)


def test_restore_refuses_another_apps_snapshot():
    word, other = app_factory("word")(), app_factory("word")()
    with pytest.raises(ValueError):
        other.restore(word.snapshot())


# ----------------------------------------------------------------------
# the runner: one instance per app, restored at the start of every trial
# ----------------------------------------------------------------------
@pytest.fixture
def warm_cache(tmp_path, word_artifacts, excel_artifacts, ppt_artifacts,
               synthetic_seed3_artifacts):
    """A model cache holding the session's models, so runners skip ripping."""
    cache = ArtifactCache(tmp_path / "models", DMIConfig())
    for name, artifacts in (("word", word_artifacts), ("excel", excel_artifacts),
                            ("powerpoint", ppt_artifacts),
                            (SyntheticSpec(seed=3).app_name, synthetic_seed3_artifacts)):
        cache.store(name, artifacts)
    return cache.cache_dir


def _checking_restores(monkeypatch, observe, app_names):
    """Check, at the start of every trial, that the restored app observes
    as a fresh build does and that no recorded container drifted; count the
    checks per app name."""
    checked = collections.Counter()
    fresh = {name: observe(app_factory(name)()) for name in app_names}
    restored_app = BenchmarkRunner._restored_app

    def checking(runner, app_name):
        app = restored_app(runner, app_name)
        assert drift(runner._apps[app_name][1]) == []
        assert observe(app) == fresh[app_name], f"{app_name} restored to another state"
        checked[app_name] += 1
        return app

    monkeypatch.setattr(BenchmarkRunner, "_restored_app", checking)
    return checked


def _counting_builds(monkeypatch):
    builds = collections.Counter()
    init = Application.__init__

    def counting(app, *args, **kwargs):
        builds[type(app).__name__] += 1
        init(app, *args, **kwargs)

    monkeypatch.setattr(Application, "__init__", counting)
    return builds


def test_one_runner_builds_each_app_once_over_the_default_grid(monkeypatch, observe,
                                                              warm_cache):
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11, cache_dir=warm_cache))
    checked = _checking_restores(monkeypatch, observe, ("word", "excel", "powerpoint"))
    builds = _counting_builds(monkeypatch)
    outcomes = runner.run_settings([setting_by_key(key) for key in CORE_SETTING_KEYS])
    assert sum(len(outcome.results) for outcome in outcomes.values()) == 81
    assert builds == {"WordApp": 1, "ExcelApp": 1, "PowerPointApp": 1}
    assert checked == {"word": 27, "excel": 27, "powerpoint": 27}


def test_a_default_grid_restore_rewrites_only_the_containers_its_trial_wrote(
        monkeypatch, warm_cache):
    """Each app reaches thousands of containers; a trial writes a few
    dozen, and the restore after it rewrites only those."""
    rewritten = []
    restore = AppSnapshot.restore

    def counting(snapshot):
        rewritten.append(restore(snapshot))
        return rewritten[-1]

    monkeypatch.setattr(AppSnapshot, "restore", counting)
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=11, cache_dir=warm_cache))
    runner.run_settings([setting_by_key(key) for key in CORE_SETTING_KEYS])
    reached = min(len(record(app)) for app, _ in runner._apps.values())
    assert len(rewritten) == 81 and reached > 2000
    assert sum(rewritten) / len(rewritten) <= 300


def test_a_dropped_runners_apps_are_collectable(warm_cache):
    """Neither the write log nor the record of live snapshots keeps a
    dropped runner's apps alive."""
    runner = BenchmarkRunner(BenchmarkConfig(seed=11, cache_dir=warm_cache))
    runner.run_trial(task_by_id("excel-03-bold-header"),
                     setting_by_key("gui-gpt5-medium"), 0)
    app = weakref.ref(runner._apps["excel"][0])
    del runner
    gc.collect()
    assert app() is None


def test_every_trial_of_a_synthetic_grid_starts_from_a_fresh_builds_state(
        monkeypatch, observe, warm_cache):
    spec = SyntheticSpec(seed=3)
    tasks = synthetic_suite(spec)[:8]
    runner = BenchmarkRunner(BenchmarkConfig(trials=2, seed=5, tasks=tasks,
                                             cache_dir=warm_cache))
    checked = _checking_restores(monkeypatch, observe, (spec.app_name,))
    runner.run_settings([setting_by_key(key) for key in CORE_SETTING_KEYS])
    assert checked == {spec.app_name: 3 * 8 * 2}


def test_a_trial_that_raises_midway_leaks_nothing_into_the_next(monkeypatch, warm_cache):
    task = task_by_id("word-02-landscape")
    setting = setting_by_key("dmi-gpt5-medium")
    fresh = BenchmarkRunner(BenchmarkConfig(seed=11, cache_dir=warm_cache))
    expected = fresh.run_trial(task, setting, 1).as_dict()

    runner = BenchmarkRunner(BenchmarkConfig(seed=11, cache_dir=warm_cache))
    run_task = HostAgent.run_task

    def solve_then_raise(agent, task, app, *args, **kwargs):
        run_task(agent, task, app, *args, **kwargs)
        assert task.checker(app)  # the app is left changed
        raise RuntimeError("trial failed after changing the app")

    with monkeypatch.context() as patched:
        patched.setattr(HostAgent, "run_task", solve_then_raise)
        with pytest.raises(RuntimeError, match="changing the app"):
            runner.run_trial(task, setting, 0)
    assert runner.run_trial(task, setting, 1).as_dict() == expected


def test_the_restore_is_timed_in_the_trials_build_phase(monkeypatch, warm_cache):
    delay = 0.05
    restore = Application.restore

    def slow_restore(app, snapshot):
        time.sleep(delay)
        restore(app, snapshot)

    monkeypatch.setattr(Application, "restore", slow_restore)
    finished = []

    class Capture(EventSink):
        def emit(self, event):
            if isinstance(event, TrialFinished):
                finished.append(event)

    runner = BenchmarkRunner(BenchmarkConfig(seed=11, cache_dir=warm_cache))
    runner.offline_artifacts("excel")  # so the rip phase is a lookup
    with use_sink(Capture()):
        runner.run_trial(task_by_id("excel-03-bold-header"),
                         setting_by_key("gui-gpt5-medium"), 0)
    [event] = finished
    assert event.phases["build"] >= delay
    assert event.phases["rip"] < delay
