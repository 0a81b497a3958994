"""The ``visit`` interface: access declaration (paper §3.4, §4.3).

``visit`` receives a JSON-like array of commands and translates each into
concrete GUI actions:

* ``{"id": <target_id>}`` — control access: navigate to the functional
  control and perform the primitive interaction (a click);
* ``{"id": <target_id>, "entry_ref_id": [...]}`` — control access inside a
  shared subtree;
* ``{"id": <target_id>, "text": "..."}`` — access-and-input-text;
* ``{"shortcut_key": "..."}`` — auxiliary keyboard shortcut;
* ``{"further_query": [...]}`` — topology retrieval (exclusive; answered by
  the query engine, not executed here).

Pipeline per call: **filter** commands targeting navigation (non-leaf) nodes
and any shortcut commands that follow them; **resolve** each retained command
to the unique root-to-target path; **navigate** the path from the current UI
state (matching the path backward against the visible hierarchy, closing
stray windows, fuzzy-matching and retrying); **interact** (click / click +
text input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.base import Application
from repro.dmi.errors import (
    ControlDisabledFeedback,
    ControlNotFoundFeedback,
    ExecutionStatus,
    FilteredFeedback,
    StructuredFeedback,
    ok_feedback,
)
from repro.dmi.matching import FuzzyControlMatcher
from repro.gui.widgets import Dialog, Edit, Window
from repro.topology.forest import NavigationForest
from repro.uia.element import UIElement
from repro.uia.identifiers import ControlIdentifier, parse_identifier


@dataclass
class VisitCommand:
    """One parsed visit command."""

    kind: str                                  # access | access_input | shortcut | further_query
    node_id: Optional[int] = None
    entry_ref_ids: List[int] = field(default_factory=list)
    text: Optional[str] = None
    shortcut: Optional[str] = None
    query_ids: List[int] = field(default_factory=list)
    raw: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def parse(cls, raw: Dict[str, object]) -> "VisitCommand":
        if "further_query" in raw:
            ids = raw["further_query"]
            if isinstance(ids, (int, str)):
                ids = [ids]
            return cls(kind="further_query", query_ids=[int(i) for i in ids], raw=dict(raw))
        if "shortcut_key" in raw:
            return cls(kind="shortcut", shortcut=str(raw["shortcut_key"]), raw=dict(raw))
        if "id" in raw:
            entry = raw.get("entry_ref_id", [])
            if isinstance(entry, (int, str)):
                entry = [entry]
            kind = "access_input" if "text" in raw else "access"
            return cls(kind=kind, node_id=int(raw["id"]),
                       entry_ref_ids=[int(e) for e in entry],
                       text=str(raw["text"]) if "text" in raw else None,
                       raw=dict(raw))
        raise ValueError(f"unrecognised visit command: {raw!r}")


@dataclass
class VisitResult:
    """The outcome of one visit call."""

    feedback: List[StructuredFeedback] = field(default_factory=list)
    filtered: List[VisitCommand] = field(default_factory=list)
    executed: int = 0
    further_query_ids: List[int] = field(default_factory=list)
    #: Low-level input actions delivered while navigating (for step/action
    #: accounting in the benchmark).
    actions_delivered: int = 0

    @property
    def ok(self) -> bool:
        return all(f.status != ExecutionStatus.ERROR for f in self.feedback)

    def errors(self) -> List[StructuredFeedback]:
        return [f for f in self.feedback if f.status == ExecutionStatus.ERROR]


@dataclass
class VisitConfig:
    """Executor robustness knobs."""

    #: How many times to re-scan for a deterministically expected control
    #: before giving up (slow-loading controls).
    max_retries: int = 2
    #: Maximum windows the navigator will close while searching for a path.
    max_window_closes: int = 4


class VisitExecutor:
    """Executes visit commands against a live application."""

    def __init__(self, app: Application, forest: NavigationForest,
                 matcher: Optional[FuzzyControlMatcher] = None,
                 config: Optional[VisitConfig] = None) -> None:
        self.app = app
        self.forest = forest
        self.matcher = matcher or FuzzyControlMatcher()
        self.config = config or VisitConfig()

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def execute(self, commands: Sequence[Dict[str, object]]) -> VisitResult:
        """Execute a visit call (an array of raw command dicts)."""
        result = VisitResult()
        parsed = [VisitCommand.parse(raw) for raw in commands]

        queries = [c for c in parsed if c.kind == "further_query"]
        if queries:
            # FurtherQuery is exclusive: it cannot be mixed with other
            # commands in the same call (paper §3.4).
            if len(parsed) > len(queries):
                result.feedback.append(StructuredFeedback(
                    status=ExecutionStatus.ERROR,
                    command_kind="further_query",
                    message="further_query cannot be mixed with other commands in one call",
                ))
                return result
            for query in queries:
                result.further_query_ids.extend(query.query_ids)
                result.feedback.append(ok_feedback("further_query",
                                                   target=str(query.query_ids)))
            return result

        retained = self._filter_navigation_targets(parsed, result)
        for command in retained:
            if command.kind == "shortcut":
                feedback = self._execute_shortcut(command)
            else:
                feedback = self._execute_access(command, result)
            result.feedback.append(feedback)
            if feedback.ok:
                result.executed += 1
        return result

    # ------------------------------------------------------------------
    # filtering (handling improper LLM instruction following)
    # ------------------------------------------------------------------
    def _filter_navigation_targets(self, commands: List[VisitCommand],
                                   result: VisitResult) -> List[VisitCommand]:
        """Drop commands that target non-leaf (navigation) nodes, plus any
        shortcut commands that immediately follow a dropped command."""
        retained: List[VisitCommand] = []
        previous_filtered = False
        for command in commands:
            if command.kind in ("access", "access_input"):
                node = self.forest.node(command.node_id) if \
                    self.forest.has_node(command.node_id) else None
                if node is not None and not node.is_leaf:
                    result.filtered.append(command)
                    result.feedback.append(FilteredFeedback(command.kind, node.name))
                    previous_filtered = True
                    continue
                retained.append(command)
                previous_filtered = False
            elif command.kind == "shortcut":
                if previous_filtered:
                    result.filtered.append(command)
                    result.feedback.append(FilteredFeedback("shortcut", command.shortcut or ""))
                    continue
                retained.append(command)
            else:  # pragma: no cover - further_query handled earlier
                retained.append(command)
        return retained

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------
    def _execute_shortcut(self, command: VisitCommand) -> StructuredFeedback:
        try:
            self.app.input.keyboard_input(command.shortcut or "")
        except Exception as exc:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind="shortcut",
                                      target=command.shortcut or "", message=str(exc))
        return ok_feedback("shortcut", target=command.shortcut or "")

    def _execute_access(self, command: VisitCommand, result: VisitResult) -> StructuredFeedback:
        if command.node_id is None or not self.forest.has_node(command.node_id):
            return StructuredFeedback(
                status=ExecutionStatus.ERROR, command_kind=command.kind,
                target=str(command.node_id),
                message=f"unknown topology node id {command.node_id}",
                suggestions=["use ids from the provided navigation topology",
                             "request the relevant branch with further_query"],
            )
        node = self.forest.node(command.node_id)
        try:
            path = [parse_identifier(cid)
                    for cid in self.forest.control_path(command.node_id,
                                                        list(command.entry_ref_ids))]
        except Exception as exc:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind=command.kind,
                                      target=node.name, message=f"path resolution failed: {exc}")

        element, feedback = self._navigate_path(path, command, result)
        if element is None:
            return feedback
        if command.kind == "access_input":
            try:
                self.app.input.type_text(element, command.text or "")
                result.actions_delivered += 1
            except Exception as exc:
                return StructuredFeedback(status=ExecutionStatus.ERROR,
                                          command_kind=command.kind, target=node.name,
                                          message=f"text input failed: {exc}")
            return ok_feedback(command.kind, target=node.name, text=command.text)
        return ok_feedback(command.kind, target=node.name)

    # ------------------------------------------------------------------
    # path navigation
    # ------------------------------------------------------------------
    def _navigate_path(self, path: List[ControlIdentifier], command: VisitCommand,
                       result: VisitResult):
        """Navigate along ``path`` and click each remaining step.

        Returns (target_element, feedback); the element is None on failure.
        """
        if not path:
            return None, StructuredFeedback(status=ExecutionStatus.ERROR,
                                            command_kind=command.kind,
                                            message="empty navigation path")
        closes = 0
        while True:
            windows = self._open_windows_topmost_first()
            if not windows:
                return None, ControlNotFoundFeedback(command.kind, path[-1].primary_id,
                                                     window="<none>")
            start_index = self._deepest_visible_index(path, windows)
            if start_index is None:
                # No element of the path exists in the topmost window; close
                # it (OK > Close > Cancel, preferring to save modifications)
                # and retry against the window below (paper §4.3).
                top = windows[0]
                if isinstance(top, Dialog) and closes < self.config.max_window_closes:
                    self._close_window_politely(top)
                    closes += 1
                    result.actions_delivered += 1
                    continue
                start_index = 0
            break

        element: Optional[UIElement] = None
        for index in range(start_index, len(path)):
            identifier = path[index]
            element = self._locate_with_retry(identifier)
            if element is None:
                windows = self._open_windows_topmost_first()
                candidates = self.matcher.nearest_names(windows, identifier)
                return None, ControlNotFoundFeedback(
                    command.kind, identifier.primary_id,
                    window=windows[0].name if windows else "<none>",
                    candidates=candidates)
            if not element.is_enabled:
                return None, ControlDisabledFeedback(
                    command.kind, identifier.primary_id,
                    state={"control_type": element.control_type.value,
                           "window": element.root().name})
            try:
                self.app.input.click(element)
                result.actions_delivered += 1
            except Exception as exc:
                return None, StructuredFeedback(
                    status=ExecutionStatus.ERROR, command_kind=command.kind,
                    target=identifier.primary_id,
                    message=f"primitive interaction failed: {exc}")
        return element, ok_feedback(command.kind, target=path[-1].primary_id)

    def _deepest_visible_index(self, path: List[ControlIdentifier],
                               windows: Sequence[Window]) -> Optional[int]:
        """Match the path from the end backward against the visible hierarchy.

        Only exact matches count here: this step decides where navigation
        starts, and a fuzzy false-positive would skip required clicks.  Fuzzy
        matching still applies during the forward pass.
        """
        top = self.app.desktop.views(windows[:1])
        for index in range(len(path) - 1, -1, -1):
            match = self.matcher.find(top, path[index], allow_fuzzy=False)
            if match.found:
                return index
        # Nothing from the path exists in the topmost window.  The main
        # window always restarts navigation from the top of the path; a
        # dialog signals the caller to close it and try the window below.
        if len(windows) == 1:
            return 0
        return None

    def _locate_with_retry(self, identifier: ControlIdentifier) -> Optional[UIElement]:
        """Find a control, retrying to absorb slow-loading UI (paper §3.4)."""
        for attempt in range(self.config.max_retries + 1):
            views = self.app.desktop.views(self._open_windows_topmost_first())
            match = self.matcher.find(views, identifier)
            if match.found:
                return match.element
            # A retry re-lays-out the desktop, emulating "wait and re-scan".
            self.app.desktop.relayout()
        return None

    def _close_window_politely(self, window: Window) -> None:
        """Close a window following the OK > Close > Cancel priority."""
        for name in ("OK", "Close", "Cancel"):
            button = window.find(name=name)
            if button is not None and button.is_enabled:
                try:
                    self.app.input.click(button)
                    return
                except Exception:
                    continue
        window.close()

    def _open_windows_topmost_first(self) -> List[Window]:
        return list(reversed(self.app.desktop.open_windows(self.app.process_id)))
