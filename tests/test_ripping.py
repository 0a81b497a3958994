"""Tests for the GUI ripper, UNG, blocklist and exploration contexts."""

import hashlib
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import PowerPointApp, WordApp, app_factory
from repro.apps.synthetic import SyntheticSpec
from repro.bench.runner import BenchmarkConfig, BenchmarkRunner, setting_by_key
from repro.bench.tasks import task_by_id
from repro.bench.telemetry import EventSink, use_sink
from repro.dmi.cache import ArtifactCache
from repro.dmi.interface import DMIConfig
from repro.gui.ribbon import DialogBuilder
from repro.gui.screen import ScreenLayout
from repro.gui.widgets import Button, Dialog, Group, TabControl, TabItem
from repro.ripping.blocklist import AccessBlocklist, default_blocklist_for
from repro.ripping.contexts import DEFAULT_CONTEXT, context_plan_for
from repro.ripping.ripper import GuiRipper, RipperConfig, rip_application
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.topology.persistence import ung_digest
from repro.uia import patterns
from repro.uia.control_types import ControlType
from repro.uia.element import UIElement
from repro.uia.identifiers import identifier_string, visible_identifiers
from repro.uia.patterns import (
    ExpandCollapsePattern,
    ExpandCollapseState,
    InvokePattern,
    PatternId,
)


# ----------------------------------------------------------------------
# NavigationGraph
# ----------------------------------------------------------------------
def small_graph():
    graph = NavigationGraph(app_name="demo")
    for node_id in ("a", "b", "c"):
        graph.add_node(UNGNode(node_id=node_id, name=node_id.upper(),
                               control_type=ControlType.BUTTON))
    graph.add_edge(VIRTUAL_ROOT_ID, "a")
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "c")
    return graph


def test_graph_counts_and_queries():
    graph = small_graph()
    assert graph.node_count() == 4            # + virtual root
    assert graph.edge_count() == 4
    assert graph.successors("a") == ["b", "c"]
    assert graph.predecessors("c") == ["a", "b"]
    assert graph.in_degree("c") == 2
    assert set(graph.leaf_ids()) == {"c"}
    assert graph.merge_node_ids() == ["c"]
    assert not graph.has_cycle()


def test_add_node_merges_metadata():
    graph = NavigationGraph()
    graph.add_node(UNGNode(node_id="x", name="X", control_type=ControlType.BUTTON,
                           contexts={"default"}))
    merged = graph.add_node(UNGNode(node_id="x", name="X", control_type=ControlType.BUTTON,
                                    contexts={"image"}, description="the X button"))
    assert merged.contexts == {"default", "image"}
    assert merged.description == "the X button"
    assert graph.node_count() == 2


def test_add_edge_requires_registered_endpoints_and_deduplicates():
    graph = small_graph()
    with pytest.raises(KeyError):
        graph.add_edge("a", "zzz")
    assert graph.add_edge("a", "b") is False   # duplicate
    assert graph.edge_count() == 4


def test_cycle_detection_and_reachability():
    graph = small_graph()
    graph.add_edge("c", "a")
    assert graph.has_cycle()
    assert graph.reachable_from_root() == {VIRTUAL_ROOT_ID, "a", "b", "c"}


def test_find_nodes_by_name():
    graph = small_graph()
    assert [n.node_id for n in graph.find_nodes_by_name("A")] == ["a"]
    assert graph.find_nodes_by_name("a", exact=False)


def test_to_networkx_mirrors_structure():
    graph = small_graph()
    nx_graph = graph.to_networkx()
    assert nx_graph.number_of_nodes() == 4
    assert nx_graph.number_of_edges() == 4


# ----------------------------------------------------------------------
# blocklist
# ----------------------------------------------------------------------
def test_blocklist_matches_names_substrings_and_prefixes():
    blocklist = AccessBlocklist(names={"Print"}, name_substrings={"export"},
                                automation_id_prefixes={"App.External"})
    assert blocklist.blocks(UIElement(name="Print"))
    assert blocklist.blocks(UIElement(name="Export as PDF"))
    assert blocklist.blocks(UIElement(name="x", automation_id="App.External.Browser"))
    assert not blocklist.blocks(UIElement(name="Save"))


def test_blocklist_merge_and_defaults():
    merged = AccessBlocklist.from_names(["A"]).merged_with(AccessBlocklist.from_names(["B"]))
    assert merged.names == {"A", "B"}
    for app_name in ("Word", "Excel", "PowerPoint", "SomethingElse"):
        defaults = default_blocklist_for(app_name)
        assert "OK" in defaults.names and "Cancel" in defaults.names


# ----------------------------------------------------------------------
# exploration contexts
# ----------------------------------------------------------------------
def test_context_plan_includes_default_first():
    app = PowerPointApp()
    plan = context_plan_for(app)
    assert plan[0].name == DEFAULT_CONTEXT
    assert {c.name for c in plan[1:]} == {"image_selected", "text_box_selected"}


def test_context_plan_for_app_without_contexts():
    app = WordApp()
    assert [c.name for c in context_plan_for(app)] == [DEFAULT_CONTEXT]


# ----------------------------------------------------------------------
# ripper (on the MiniApp fixture and on Word)
# ----------------------------------------------------------------------
def test_ripper_builds_connected_graph(mini_app):
    ung, report = rip_application(mini_app)
    stats = ung.stats()
    assert stats["nodes"] > 40
    assert stats["reachable_from_root"] == stats["nodes"]
    assert report.clicks > 0
    assert report.duration_seconds >= 0
    assert DEFAULT_CONTEXT in report.contexts


def test_ripper_discovers_merge_nodes_for_shared_dialog(mini_app):
    # The two colour drop-downs share the identically named theme galleries,
    # but their identifiers differ (different automation ids), so a true
    # merge arises only for the shared dialog controls in bigger apps; here
    # we check that the colour cells of each drop-down were discovered.
    ung, _ = rip_application(mini_app)
    blues = ung.find_nodes_by_name("Blue")
    assert len(blues) >= 2


def test_ripper_respects_blocklist(mini_app):
    blocklist = AccessBlocklist.from_names({"Open Settings", "OK", "Cancel", "Close"})
    ung, report = rip_application(mini_app, blocklist=blocklist)
    # The dialog never opens, so its contents are absent from the graph.
    assert not ung.find_nodes_by_name("Enable feature")
    assert report.blocked > 0


def test_blocklisted_dialog_buttons_are_recorded_but_not_activated(mini_app):
    ung, _ = rip_application(mini_app)
    ok_nodes = ung.find_nodes_by_name("OK")
    assert ok_nodes, "OK button should be recorded as a node"
    assert all(ung.out_degree(n.node_id) == 0 for n in ok_nodes)


def test_ripper_restores_ui_state_after_exploration(mini_app):
    rip_application(mini_app)
    # No dialogs left open, nothing left expanded.
    assert mini_app.open_dialogs() == []
    dropdown = mini_app.window.find(automation_id="Mini.FontColor")
    assert all(not child.is_on_screen() for child in dropdown.children)


def test_ripper_click_budget_is_respected(mini_app):
    config = RipperConfig(max_clicks=5)
    ripper = GuiRipper(mini_app, config=config)
    ripper.rip()
    assert ripper.report.clicks <= 6


def test_ripper_max_depth_limits_exploration(mini_app):
    shallow = GuiRipper(mini_app, config=RipperConfig(max_depth=1)).rip()
    deep = GuiRipper(type(mini_app)(), config=RipperConfig(max_depth=10)).rip()
    assert shallow.node_count() <= deep.node_count()


def test_full_rip_emits_rip_full_event(mini_app):
    events = []

    class Capture(EventSink):
        def emit(self, event):
            events.append(event)

    ripper = GuiRipper(mini_app)
    with use_sink(Capture()):
        ripper.rip()
    assert [event.name for event in events] == ["rip_full"]
    assert events[0].nodes_visited == ripper.report.clicks > 0
    assert events[0].nodes == ripper.report.nodes


PINNED_APPS = ["word_artifacts", "excel_artifacts", "ppt_artifacts",
               "synthetic_seed3_artifacts"]


@pytest.mark.parametrize("fixture, digest", zip(PINNED_APPS, [
    "42a7a8541c75295a", "0eb556c9fa4044e3", "2079e4ddb672599c",
    "44dc7f3858307ede"]), ids=PINNED_APPS)
def test_rip_output_is_pinned(request, fixture, digest):
    """The ripper against fixed bytes, not only against itself: a change to
    the exploration loop must leave every app's UNG digest where it was."""
    assert ung_digest(request.getfixturevalue(fixture).ung) == digest


@pytest.mark.parametrize("fixture, digest", zip(PINNED_APPS, [
    "2e005689502f2936", "19e8187e9ceededa", "024de9e4b3e30e10",
    "3f52f6b9d266c72d"]), ids=PINNED_APPS)
def test_core_topology_is_pinned(request, fixture, digest):
    """The core view the agent reads, derived from the pinned UNG through
    decycling and forest construction, is pinned to fixed bytes too."""
    core = request.getfixturevalue(fixture).core.serialize()
    assert hashlib.sha256(core.encode("utf-8")).hexdigest()[:16] == digest


@pytest.mark.parametrize("app_name, digest", [
    ("word", "42a7a8541c75295a"), ("excel", "0eb556c9fa4044e3"),
    ("powerpoint", "2079e4ddb672599c"),
    (SyntheticSpec(seed=3).app_name, "44dc7f3858307ede")], ids=PINNED_APPS)
def test_rip_after_restore_is_pinned(app_name, digest):
    """A rip's clicks edit the document model, so ripping one instance
    again gives another graph; restoring the as-built snapshot in between
    gives the pinned one (the digests of ``test_rip_output_is_pinned``)."""
    app = app_factory(app_name)()
    as_built = app.snapshot()
    rip_application(app)
    app.restore(as_built)
    assert ung_digest(rip_application(app)[0]) == digest


def test_cold_model_apps_take_their_pinned_click_count(word_artifacts, excel_artifacts,
                                                       ppt_artifacts):
    """The three hand-written apps and the generated app of seed 1, the
    apps one cold model build rips, take 1863 clicks between them: how a
    click is diffed must not change which clicks a rip takes."""
    synthetic = GuiRipper(app_factory(SyntheticSpec(seed=1).app_name)())
    synthetic.rip()
    clicks = [artifacts.rip_report.clicks
              for artifacts in (word_artifacts, excel_artifacts, ppt_artifacts)]
    assert clicks + [synthetic.report.clicks] == [651, 460, 609, 143]


# ----------------------------------------------------------------------
# the per-click snapshot and the conditional relayout, checked mid-rip
# ----------------------------------------------------------------------
def _visible_preorder(element):
    if not element.visible:
        return []
    found = [element]
    for child in element.children:
        found.extend(_visible_preorder(child))
    return found


def _stale_elements(desktop):
    """Visible elements whose rect differs from a fresh layout of the
    desktop; every rect is put back afterwards, so the rip is undisturbed."""
    windows = desktop.open_windows()
    saved = [(node, node.rect) for window in windows for node in window.iter_subtree()]
    visible = [node for window in windows for node in _visible_preorder(window)]
    current = [node.rect for node in visible]
    ScreenLayout(desktop.layout.width, desktop.layout.height).layout_windows(windows)
    stale = [node for node, rect in zip(visible, current) if node.rect != rect]
    for node, rect in saved:
        node.rect = rect
    return stale


class _CheckingRipper(GuiRipper):
    """Compares the ripper's memoized snapshot with ``identifier_string``
    over every visible control, and the geometry with a fresh layout, at
    the initial screen and after every click and every restore; the kinds
    of screen checked include an open menu and an open dialog."""

    def __init__(self, app):
        super().__init__(app)
        self.checked = set()
        self.mismatched = []
        self.restores = self.restores_without_relayout = 0
        self.stale = []
        self.relayouts = 0
        relayout = app.desktop.relayout

        def counting_relayout():
            self.relayouts += 1
            relayout()

        app.desktop.relayout = counting_relayout
        self._check_snapshot("initial")

    def _check_snapshot(self, label):
        windows = self.app.desktop.open_windows(self.app.process_id)
        expected = [(identifier_string(e), e)
                    for window in windows for e in _visible_preorder(window)]
        self.checked.add(label)
        if self._visible_identifiers() != expected:
            self.mismatched.append((label, self._clicks))

    def _menu_open(self):
        return any((pattern := e.patterns.get(PatternId.EXPAND_COLLAPSE)) is not None
                   and pattern.state == ExpandCollapseState.EXPANDED
                   for window in self.app.desktop.open_windows(self.app.process_id)
                   for e in _visible_preorder(window))

    def _activate_and_diff(self, element):
        revealed = super()._activate_and_diff(element)
        self.stale.extend(identifier_string(e) for e in _stale_elements(self.app.desktop))
        if self.app.open_dialogs():
            self._check_snapshot("dialog")
        elif self._menu_open():
            self._check_snapshot("menu")
        else:
            self._check_snapshot("click")
        return revealed

    def _restore_state(self, state):
        relayouts = self.relayouts
        super()._restore_state(state)
        self.restores += 1
        self.restores_without_relayout += self.relayouts == relayouts
        self.stale.extend(identifier_string(e) for e in _stale_elements(self.app.desktop))
        self._check_snapshot("restore")


CHECKED_APPS = {"word": "word_artifacts", "excel": "excel_artifacts",
                "powerpoint": "ppt_artifacts",
                SyntheticSpec(seed=3).app_name: "synthetic_seed3_artifacts"}


@pytest.fixture(scope="module", params=list(CHECKED_APPS), ids=list(CHECKED_APPS.values()))
def checked_rip(request):
    ripper = _CheckingRipper(app_factory(request.param)())
    ung = ripper.rip()
    return ripper, ung, request.getfixturevalue(CHECKED_APPS[request.param]).ung


def test_checked_rip_matches_the_plain_rip(checked_rip):
    ripper, ung, plain = checked_rip
    assert ung_digest(ung) == ung_digest(plain)


def test_top_down_identifiers_match_identifier_string(checked_rip):
    """At the initial screen and after every click and every restore (open
    menus and open dialogs among them), the memoized snapshot yields exactly
    ``identifier_string`` of every visible control, in pre-order."""
    ripper, _, _ = checked_rip
    assert ripper.checked == {"initial", "click", "menu", "dialog", "restore"}
    assert ripper.mismatched == []


def test_restore_never_leaves_stale_geometry(checked_rip):
    """Restore skips the relayout when it changed nothing, and a relayout
    skips the windows that did not change; after every click and every
    restore each visible control still sits where a fresh layout puts it."""
    ripper, _, _ = checked_rip
    assert ripper.restores == ripper.report.clicks
    assert 0 < ripper.restores_without_relayout < ripper.restores
    assert ripper.stale == []


def test_restore_relays_out_after_collapsing_a_sibling_pane(mini_app):
    """A disclosure control whose expansion shows a *sibling* pane reshapes
    every control beside it, so the collapse in restore must relay out."""

    class DisclosureApp(type(mini_app)):
        def build_ui(self):
            super().build_ui()
            home = self.window.find(automation_id="Mini.Home")
            details = home.add_child(Group(name="Details", automation_id="Mini.Details"))
            details.add_child(Button("Detail A", automation_id="Mini.DetailA"))
            details.visible = False
            toggle = home.add_child(UIElement(name="Show Details",
                                              control_type=ControlType.BUTTON,
                                              automation_id="Mini.ShowDetails"))
            expander = toggle.add_pattern(ExpandCollapsePattern(
                toggle, on_expand=lambda: setattr(details, "visible", True),
                on_collapse=lambda: setattr(details, "visible", False)))
            toggle.add_pattern(InvokePattern(toggle, on_invoke=expander.expand))

    ripper = _CheckingRipper(DisclosureApp())
    ung = ripper.rip()
    assert ung.find_nodes_by_name("Detail A")
    assert ripper.restores_without_relayout < ripper.restores
    assert ripper.stale == []


# ----------------------------------------------------------------------
# incremental relayout: the cases a skipped window could get wrong
# ----------------------------------------------------------------------
def test_relayout_lays_out_a_subtree_changed_while_hidden_once_shown(mini_app):
    """A change under a hidden control must still reach its window's stamp
    when the control is shown after a relayout in between (a dirty flag
    that stops at an already-dirty ancestor would miss it)."""
    desktop = mini_app.desktop
    hidden = _home(mini_app).add_child(Group(name="Hidden", automation_id="Mini.Hidden"))
    inner = hidden.add_child(Group(name="Inner", automation_id="Mini.Inner"))
    hidden.visible = False
    desktop.relayout()
    inner.add_child(Button("Deep A", automation_id="Mini.DeepA"))
    desktop.relayout()
    hidden.visible = True
    desktop.relayout()
    assert inner.find(name="Deep A").rect.area > 0
    assert _stale_elements(desktop) == []


def test_relayout_follows_a_control_moved_between_windows(mini_app):
    desktop = mini_app.desktop
    mini_app._open_settings()
    dialog = mini_app.open_dialogs()[-1]
    bold = mini_app.window.find(automation_id="Mini.Bold")
    dialog.add_child(bold)
    desktop.relayout()
    assert bold.root() is dialog and _stale_elements(desktop) == []
    _home(mini_app).add_child(bold, index=0)
    desktop.relayout()
    assert bold.root() is mini_app.window and _stale_elements(desktop) == []


def test_relayout_follows_a_window_restacked_and_reopened(mini_app):
    desktop = mini_app.desktop
    first, second = Dialog("First"), Dialog("Second")
    mini_app.open_dialog(first)
    mini_app.open_dialog(second)
    first.close()                      # second drops from index 2 to 1
    assert desktop.open_windows().index(second) == 1
    assert _stale_elements(desktop) == []
    first.get_pattern(PatternId.WINDOW).is_open = True
    mini_app.open_dialog(first)        # back, above second this time
    assert desktop.open_windows().index(first) == 2
    assert _stale_elements(desktop) == []


def test_relayout_after_restoring_the_as_built_snapshot(mini_app):
    desktop = mini_app.desktop
    as_built = mini_app.snapshot()
    mini_app.input.click(mini_app.window.find(automation_id="Mini.FontColor"))
    mini_app._open_settings()
    _home(mini_app).add_child(Button("Temp", automation_id="Mini.Temp"))
    desktop.relayout()
    mini_app.restore(as_built)
    desktop.relayout()
    assert _stale_elements(desktop) == []
    mini_app.input.click(mini_app.window.find(automation_id="Mini.PageColor"))
    assert _stale_elements(desktop) == []


# ----------------------------------------------------------------------
# the change journal, checked against the walks it replaced
# ----------------------------------------------------------------------
class _WalkingRipper(GuiRipper):
    """The restore the change journal replaced, kept as its specification.

    Capture walks every open window for the expanded controls and the
    selected tabs; restore closes the windows opened since, then walks the
    open windows in pre-order, collapsing every expansion that was not
    there at capture, and re-selects the captured tab of every tab strip
    whose selection moved."""

    def _capture_state(self):
        windows = self.app.desktop.open_windows(self.app.process_id)
        expanded, selected_tabs = set(), set()
        for node in (node for window in windows for node in window.iter_subtree()):
            pattern = node.patterns.get(PatternId.EXPAND_COLLAPSE)
            if pattern is not None and pattern.state == ExpandCollapseState.EXPANDED:
                expanded.add(node.runtime_id)
            if isinstance(node, TabItem) and node.is_selected:
                selected_tabs.add(node.runtime_id)
        return {w.runtime_id for w in windows}, expanded, selected_tabs

    def _restore_state(self, state):
        open_window_ids, expanded_ids, selected_tab_ids = state
        desktop = self.app.desktop
        for window in reversed(desktop.open_windows(self.app.process_id)):
            if window.runtime_id not in open_window_ids:
                window.close()
        changed = False
        tab_controls = []
        stack = list(reversed(desktop.open_windows(self.app.process_id)))
        while stack:
            node = stack.pop()
            pattern = node.patterns.get(PatternId.EXPAND_COLLAPSE)
            if (pattern is not None
                    and pattern.state == ExpandCollapseState.EXPANDED
                    and node.runtime_id not in expanded_ids):
                changed = True
                try:
                    pattern.collapse()
                except Exception:
                    pass
            if isinstance(node, TabControl):
                tab_controls.append(node)
            stack.extend(reversed(node.children))
        for tab_control in tab_controls:
            selected = tab_control.selected_tab()
            if selected is not None and selected.runtime_id in selected_tab_ids:
                continue
            for tab in tab_control.tabs():
                if tab.runtime_id in selected_tab_ids:
                    tab.select()
                    changed = True
                    break
        if changed:
            desktop.relayout()


ORACLE_APPS = ["word", "excel", "powerpoint",
               SyntheticSpec(seed=3).app_name, SyntheticSpec(seed=8).app_name]


def _restored_view(app):
    """What a restore puts back, by identifier: the open windows, the
    expanded controls and the selected tabs."""
    windows = app.desktop.open_windows(app.process_id)
    nodes = [node for window in windows for node in window.iter_subtree()]
    return ([identifier_string(window) for window in windows],
            [identifier_string(node) for node in nodes
             if (pattern := node.patterns.get(PatternId.EXPAND_COLLAPSE)) is not None
             and pattern.state == ExpandCollapseState.EXPANDED],
            [identifier_string(node) for node in nodes
             if isinstance(node, TabItem) and node.is_selected])


def _collapsed(element):
    pattern = element.patterns.get(PatternId.EXPAND_COLLAPSE)
    return pattern is not None and pattern.state == ExpandCollapseState.COLLAPSED


@pytest.mark.parametrize("app_name", ORACLE_APPS)
@settings(max_examples=10, deadline=None)
@given(program=st.lists(st.tuples(st.sampled_from(["capture", "click", "expand", "restore"]),
                                  st.integers(min_value=0, max_value=10_000)),
                        min_size=1, max_size=24))
def test_journal_restore_agrees_with_the_walk(observe, app_name, program):
    """Twin apps take the same random clicks between nested captures; at
    every restore the journal's restore and the walk's leave the same open
    windows, expansions, selected tabs and ``observe``, through the same
    state changes in the same order.  An "expand" clicks a collapsed
    expander, so that one restore often has several expansions to undo.
    After every op each twin's memoized snapshot equals a memo-free walk."""
    twins = [GuiRipper(app_factory(app_name)()), _WalkingRipper(app_factory(app_name)())]
    journal = patterns.arm_journal()
    for ripper in twins:
        ripper._journal = journal
    marks = []

    def restore():
        effects = []
        for ripper, mark in zip(twins, marks.pop()):
            start = len(journal)
            ripper._restore_state(mark)
            effects.append([(identifier_string(pattern.element), old)
                            for pattern, old in journal[start:]])
        journal_app, walked_app = (ripper.app for ripper in twins)
        assert effects[0] == effects[1]
        assert _restored_view(journal_app) == _restored_view(walked_app)
        assert observe(journal_app) == observe(walked_app)
        assert _stale_elements(journal_app.desktop) == []

    def snapshots_agree():
        for ripper in twins:
            windows = ripper.app.desktop.open_windows(ripper.app.process_id)
            assert ripper._visible_identifiers() == visible_identifiers(windows)

    try:
        for op, pick in program:
            if op == "capture":
                marks.append([ripper._capture_state() for ripper in twins])
            elif op in ("click", "expand"):
                targets = [[(identifier, element) for identifier, element
                            in visible_identifiers(ripper.app.desktop.open_windows(
                                ripper.app.process_id))
                            if ripper._should_activate(element)
                            and (op == "click" or _collapsed(element))] for ripper in twins]
                assert [i for i, _ in targets[0]] == [i for i, _ in targets[1]]
                if targets[0]:
                    for ripper, candidates in zip(twins, targets):
                        ripper._activate_and_diff(candidates[pick % len(candidates)][1])
            elif marks:
                restore()
            snapshots_agree()
        while marks:
            restore()
            snapshots_agree()
    finally:
        patterns.disarm_journal()


def test_a_rip_that_raises_leaves_no_journal_armed(mini_app):
    class FailingRipper(GuiRipper):
        def _activate_and_diff(self, element):
            assert patterns._armed.entries is self._journal
            if self._clicks == 3:
                raise RuntimeError("exploration failed")
            return super()._activate_and_diff(element)

    with pytest.raises(RuntimeError, match="exploration failed"):
        FailingRipper(mini_app).rip()
    assert patterns._armed.entries is None


def test_a_warm_trial_journals_nothing(tmp_path, monkeypatch, excel_artifacts):
    """Only a rip arms the journal: a trial served from the model cache
    writes pattern states with no journal to append to."""
    cache = ArtifactCache(tmp_path / "models", DMIConfig())
    cache.store("excel", excel_artifacts)
    writes = {"plain": 0, "journaled": 0}
    write = patterns._Journaled.__set__

    def counting(descriptor, pattern, value):
        writes["plain" if patterns._armed.entries is None else "journaled"] += 1
        write(descriptor, pattern, value)

    monkeypatch.setattr(patterns._Journaled, "__set__", counting)
    runner = BenchmarkRunner(BenchmarkConfig(seed=11, cache_dir=cache.cache_dir))
    result = runner.run_trial(task_by_id("excel-03-bold-header"),
                              setting_by_key("gui-gpt5-medium"), 0)
    assert result.steps > 0
    assert writes["plain"] > 0 and writes["journaled"] == 0


def test_two_rips_on_two_threads_at_once_each_give_their_pin():
    """The journal is per thread: two rips interleaved on two threads do
    not see each other's changes."""
    pins = {"word": "42a7a8541c75295a", "excel": "0eb556c9fa4044e3"}
    apps = {name: app_factory(name)() for name in pins}
    start = threading.Barrier(len(apps))
    digests = {}

    def rip(name):
        start.wait()
        digests[name] = ung_digest(rip_application(apps[name])[0])

    threads = [threading.Thread(target=rip, args=(name,)) for name in apps]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert digests == pins


@pytest.fixture
def growing_settings_app(mini_app):
    """A MiniApp subclass whose Settings dialog gains a checkbox per entry of
    ``extra_settings`` the next time it opens."""

    class GrowingSettingsApp(type(mini_app)):
        def __init__(self, desktop=None):
            self.extra_settings = []
            super().__init__(desktop=desktop)

        def _open_settings(self) -> None:
            super()._open_settings()
            dialog = self.open_dialogs()[-1]
            for label in self.extra_settings:
                DialogBuilder(dialog.name).add_checkbox(dialog, label)

    return GrowingSettingsApp


def _home(app):
    return app.window.find(automation_id="Mini.Home")


def _add_and_remove(app):
    button = _home(app).add_child(Button("Temp", automation_id="Mini.Temp"))
    _home(app).remove_child(button)


def _open_and_close_settings(app):
    app._open_settings()
    app.close_all_dialogs()


@pytest.mark.parametrize("mutate, appeared, vanished", [
    (lambda app: _home(app).add_child(
        Button("Format Painter", automation_id="Mini.FormatPainter")),
     {"Format Painter"}, set()),
    (lambda app: _home(app).remove_child(
        app.window.find(automation_id="Mini.Bold")), set(), {"Bold"}),
    (lambda app: app.extra_settings.append("Night mode"),
     {"Night mode"}, set()),
    (_add_and_remove, set(), set()),
    (_open_and_close_settings, set(), set()),
], ids=["main-window-button-added", "main-window-button-removed",
        "dialog-row-added", "added-then-removed", "dialog-opened-and-closed"])
def test_full_rip_follows_ui_changes_made_after_build(growing_settings_app,
                                                      mutate, appeared,
                                                      vanished):
    """A rip reads the live UI: a control added or removed after the app was
    built shows up in (or drops out of) the graph, exactly as in a rip of a
    fresh twin given the same change, and a change that is undone leaves the
    graph as the unchanged app's."""
    baseline, _ = rip_application(growing_settings_app())
    app = growing_settings_app()
    mutate(app)
    ung, _ = rip_application(app)
    before = {node.name for node in baseline.nodes.values()}
    after = {node.name for node in ung.nodes.values()}
    assert after - before == appeared
    assert before - after == vanished
    twin = growing_settings_app()
    mutate(twin)
    assert ung_digest(rip_application(twin)[0]) == ung_digest(ung)
    if not appeared and not vanished:
        assert ung_digest(ung) == ung_digest(baseline)


def test_word_rip_has_paper_like_structural_properties(word_artifacts):
    ung = word_artifacts.ung
    stats = ung.stats()
    assert stats["nodes"] > 500, "Office-like app should expose hundreds of controls"
    assert stats["merge_nodes"] > 5, "shared dialogs should create merge nodes"
    assert stats["has_cycle"], "More/Less buttons should create a cycle"
    # scoped root initialization: Bold hangs below the Home tab, not the root
    bold = ung.find_nodes_by_name("Bold")[0]
    assert VIRTUAL_ROOT_ID not in ung.predecessors(bold.node_id)


def test_powerpoint_contexts_contribute_contextual_tab_nodes(ppt_artifacts):
    ung = ppt_artifacts.ung
    nodes = ung.find_nodes_by_name("Compress Pictures")
    assert nodes, "Picture Format content requires the image_selected context"
    assert any("image_selected" in n.contexts or "default" in n.contexts for n in nodes)
