"""The GUI ripper: DFS exploration with differential capture (paper §4.1).

The ripper drives a live (simulated) application:

1. **Root node initialization** — a virtual root is introduced and the
   controls on the initial screen are attached to it.  If a tab strip has an
   active tab, controls that are only visible *because* that tab is active
   are attached to the tab's node instead of the root (detected
   differentially by briefly switching to a sibling tab).
2. **DFS exploration** — for every clickable, non-blocklisted control the
   ripper takes a visibility snapshot, clicks the control, takes a second
   snapshot, and records every newly revealed control as a successor.  The
   snapshots span every open window of the application, so controls in a
   top-level or modal window the click opened count as revealed.  Each
   snapshot is one walk of the visible tree that computes control
   identifiers top-down (:func:`~repro.uia.identifiers.visible_identifiers`):
   a child extends its parent's escaped path, so a snapshot costs one escape
   per visible control rather than one per control and ancestor.
3. **State restoration** — after exploring a branch the ripper restores the
   prior UI state (closes windows the click opened, collapses expansions,
   re-selects the previously selected tab) so sibling branches are explored
   from a consistent state.  Capture is one walk of every open window;
   restore collapses expansions and collects tab strips in one walk too, and
   lays the desktop out again only if it collapsed something or re-selected
   a tab (closing a window already relays out, and so does every click).
4. **Context-aware exploration** — the whole procedure repeats for every
   exploration context the application registers (e.g. "image selected"),
   and the per-context results merge into a single UNG.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.apps.base import Application
from repro.bench import telemetry
from repro.gui.widgets import TabControl, TabItem, Window
from repro.ripping.blocklist import AccessBlocklist, default_blocklist_for
from repro.ripping.contexts import DEFAULT_CONTEXT, context_plan_for
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.uia.control_types import (
    ControlType,
    NON_NAVIGATING_CONTROL_TYPES,
    is_clickable_type,
)
from repro.uia.element import UIElement
from repro.uia.identifiers import identifier_string, visible_identifiers
from repro.uia.patterns import ExpandCollapseState, PatternId

@dataclass
class RipperConfig:
    """Exploration budgets and switches."""

    #: Maximum number of activations during one rip.
    max_clicks: int = 50000
    #: Maximum DFS depth measured in activations from the root.
    max_depth: int = 14
    #: Whether to explore the application's registered contexts.
    explore_contexts: bool = True


@dataclass
class RipReport:
    """Statistics of one ripping run (paper §5.2, offline modeling cost)."""

    app_name: str = ""
    clicks: int = 0
    blocked: int = 0
    contexts: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    nodes: int = 0
    edges: int = 0
    leaves: int = 0
    merge_nodes: int = 0
    cycles: bool = False

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class _UIState:
    """Snapshot of the restorable UI state around an activation."""

    open_window_ids: Set[int]
    expanded_ids: Set[int]
    selected_tab_ids: Set[int]


class GuiRipper:
    """Builds the UI Navigation Graph for one application instance."""

    def __init__(self, app: Application, blocklist: Optional[AccessBlocklist] = None,
                 config: Optional[RipperConfig] = None) -> None:
        self.app = app
        self.blocklist = blocklist if blocklist is not None else default_blocklist_for(app.APP_NAME)
        self.config = config or RipperConfig()
        self.ung = NavigationGraph(app_name=app.APP_NAME)
        self.report = RipReport(app_name=app.APP_NAME)
        self._visited: Set[str] = set()
        self._clicks = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def rip(self) -> NavigationGraph:
        """Run the full exploration and return the UNG."""
        started = time.perf_counter()
        contexts = context_plan_for(self.app) if self.config.explore_contexts else \
            context_plan_for(self.app)[:1]
        for context in contexts:
            context.enter()
            self.app.desktop.relayout()
            self._rip_context(context.name)
            self.report.contexts.append(context.name)
        self.report.duration_seconds = time.perf_counter() - started
        stats = self.ung.stats()
        self.report.nodes = stats["nodes"]
        self.report.edges = stats["edges"]
        self.report.leaves = stats["leaves"]
        self.report.merge_nodes = stats["merge_nodes"]
        self.report.cycles = stats["has_cycle"]
        self.report.clicks = self._clicks
        sink = telemetry.default_sink()
        if sink:
            sink.emit(telemetry.RipFull(
                app=self.app.APP_NAME, nodes_visited=self._clicks,
                nodes=self.report.nodes, seconds=self.report.duration_seconds))
        return self.ung

    # ------------------------------------------------------------------
    # per-context exploration
    # ------------------------------------------------------------------
    def _rip_context(self, context: str) -> None:
        initial = [element for _, element in self._visible_identifiers()]
        scoped = self._active_tab_scoped_elements()

        frontier: List[Tuple[UIElement, str, int]] = []
        for element in initial:
            if element is self.app.window:
                continue
            node = self._add_element(element, context)
            parent_id = VIRTUAL_ROOT_ID
            if element.runtime_id in scoped:
                parent_id = scoped[element.runtime_id]
                # The owning tab itself is part of ``initial`` and is attached
                # to the virtual root by its own iteration.
            if parent_id != node.node_id:
                self.ung.add_edge(parent_id, node.node_id)
            frontier.append((element, node.node_id, 1))

        for element, node_id, depth in frontier:
            self._explore(element, node_id, depth, context)

    def _active_tab_scoped_elements(self) -> Dict[int, str]:
        """Map runtime ids of controls scoped to the active tab -> tab node id.

        Implements the paper's root-initialization rule: controls that are
        only visible because the default tab is active are attached to that
        tab instead of the virtual root.  Detection is differential: briefly
        select a sibling tab, observe what disappears, then restore.
        """
        scoped: Dict[int, str] = {}
        for tab_control in self._find_tab_controls():
            selected = tab_control.selected_tab()
            others = [t for t in tab_control.tabs() if t is not selected and t.visible]
            if selected is None or not others:
                continue
            before = {e.runtime_id for _, e in self._visible_identifiers()}
            others[0].select()
            self.app.desktop.relayout()
            after = {e.runtime_id for _, e in self._visible_identifiers()}
            selected.select()
            self.app.desktop.relayout()
            disappeared = before - after - {selected.runtime_id}
            tab_node = self._add_element(selected, DEFAULT_CONTEXT)
            self.ung.add_edge(VIRTUAL_ROOT_ID, tab_node.node_id)
            for runtime_id in disappeared:
                scoped[runtime_id] = tab_node.node_id
        return scoped

    def _find_tab_controls(self) -> List[TabControl]:
        result = []
        for window in self.app.desktop.open_windows(self.app.process_id):
            for element in window.iter_subtree():
                if isinstance(element, TabControl):
                    result.append(element)
        return result

    # ------------------------------------------------------------------
    # DFS
    # ------------------------------------------------------------------
    def _explore(self, element: UIElement, node_id: str, depth: int, context: str) -> None:
        if node_id in self._visited:
            return
        self._visited.add(node_id)
        if depth > self.config.max_depth or self._clicks >= self.config.max_clicks:
            return
        if not self._should_activate(element):
            if self.blocklist.blocks(element):
                self.report.blocked += 1
            return
        if not element.is_on_screen():
            # A sibling's exploration hid this control (e.g. a collapsed
            # menu); skip rather than force visibility.
            return

        state_before = self._capture_state()
        revealed = self._activate_and_diff(element)
        registered: List[Tuple[UIElement, str]] = []
        for new_element in revealed:
            new_node = self._add_element(new_element, context)
            if new_node.node_id != node_id:
                self.ung.add_edge(node_id, new_node.node_id)
                registered.append((new_element, new_node.node_id))
        for new_element, new_id in registered:
            # Exploring an earlier sibling may have rebuilt part of the UI
            # (detaching this element); re-registration keeps ids consistent
            # with what exploration will observe from here on.
            current_id = identifier_string(new_element)
            if current_id != new_id:
                refreshed = self._add_element(new_element, context)
                self.ung.add_edge(node_id, refreshed.node_id)
                new_id = refreshed.node_id
            self._explore(new_element, new_id, depth + 1, context)
        self._restore_state(state_before)

    def _should_activate(self, element: UIElement) -> bool:
        if self.blocklist.blocks(element):
            return False
        if not element.is_enabled:
            return False
        if element.control_type in NON_NAVIGATING_CONTROL_TYPES:
            return False
        if element.control_type == ControlType.WINDOW:
            return False
        if element.control_type == ControlType.DATA_ITEM:
            # Grid cells are functional leaves; activating each of the
            # hundreds of cells adds nothing to the topology.
            return False
        return is_clickable_type(element.control_type) or bool(element.patterns)

    def _activate_and_diff(self, element: UIElement) -> List[UIElement]:
        """Click ``element`` and return the controls that became visible.

        The differential capture is keyed on the composite control identifier
        rather than on object identity: an application that rebuilds part of
        its widget tree (fresh objects, same controls) does not produce
        spurious "new control" edges.
        """
        seen = {identifier for identifier, _ in self._visible_identifiers()}
        self._clicks += 1
        try:
            self.app.input.click(element)
        except Exception:
            # Disabled controls, pattern errors and the like simply produce
            # no outgoing edges.  The click may have failed half-way through
            # its effect, before its relayout; lay out now so geometry never
            # goes stale (restore relays out only when it changes something).
            self.app.desktop.relayout()
            return []
        revealed = []
        for identifier, candidate in self._visible_identifiers():
            if identifier not in seen:
                seen.add(identifier)
                revealed.append(candidate)
        return revealed

    # ------------------------------------------------------------------
    # state capture / restore
    # ------------------------------------------------------------------
    def _capture_state(self) -> _UIState:
        windows = self.app.desktop.open_windows(self.app.process_id)
        expanded = set()
        selected_tabs = set()
        expand_collapse, expanded_state = PatternId.EXPAND_COLLAPSE, ExpandCollapseState.EXPANDED
        stack: List[UIElement] = list(windows)
        while stack:
            node = stack.pop()
            pattern = node.patterns.get(expand_collapse)
            if pattern is not None and pattern.state == expanded_state:
                expanded.add(node.runtime_id)
            if isinstance(node, TabItem) and node.is_selected:
                selected_tabs.add(node.runtime_id)
            stack.extend(node.children)
        return _UIState(
            open_window_ids={w.runtime_id for w in windows},
            expanded_ids=expanded,
            selected_tab_ids=selected_tabs,
        )

    def _restore_state(self, state: _UIState) -> None:
        desktop = self.app.desktop
        # 1. Close windows opened by the explored branch (newest first);
        #    each close relays the desktop out.
        for window in reversed(desktop.open_windows(self.app.process_id)):
            if window.runtime_id not in state.open_window_ids:
                window.close()
        # 2. Collapse expansions introduced by the branch, in pre-order, and
        #    collect the tab strips on the way.  A node's children are read
        #    after it is collapsed, as the collapse may change them.
        changed = False
        tab_controls: List[TabControl] = []
        expand_collapse, expanded_state = PatternId.EXPAND_COLLAPSE, ExpandCollapseState.EXPANDED
        stack: List[UIElement] = list(reversed(desktop.open_windows(self.app.process_id)))
        while stack:
            node = stack.pop()
            pattern = node.patterns.get(expand_collapse)
            if (pattern is not None
                    and pattern.state == expanded_state
                    and node.runtime_id not in state.expanded_ids):
                changed = True
                try:
                    pattern.collapse()
                except Exception:
                    pass
            if isinstance(node, TabControl):
                tab_controls.append(node)
            stack.extend(reversed(node.children))
        # 3. Re-select tabs whose selection the branch changed.
        for tab_control in tab_controls:
            selected = tab_control.selected_tab()
            if selected is not None and selected.runtime_id in state.selected_tab_ids:
                continue
            for tab in tab_control.tabs():
                if tab.runtime_id in state.selected_tab_ids:
                    tab.select()
                    changed = True
                    break
        if changed:
            desktop.relayout()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _visible_identifiers(self) -> List[Tuple[str, UIElement]]:
        """(identifier, element) for every visible control of the app."""
        return visible_identifiers(self.app.desktop.open_windows(self.app.process_id))

    def _add_element(self, element: UIElement, context: str) -> UNGNode:
        return self.ung.add_element(element, context=context,
                                    window=self._window_title(element))

    @staticmethod
    def _window_title(element: UIElement) -> str:
        root = element.root()
        return root.name if isinstance(root, Window) or root.name else ""


def rip_application(app: Application, blocklist: Optional[AccessBlocklist] = None,
                    config: Optional[RipperConfig] = None) -> Tuple[NavigationGraph, RipReport]:
    """Convenience helper: rip ``app`` and return (UNG, report)."""
    ripper = GuiRipper(app, blocklist=blocklist, config=config)
    ung = ripper.rip()
    return ung, ripper.report

