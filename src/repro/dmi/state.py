"""State declarations: interaction-related interfaces (paper §3.5, Table 2).

These interfaces let the caller declare a control's desired end state instead
of emitting the compound interaction that would realise it (drag sequences,
keyboard-mouse coordination, repeated clicking).  They are built directly on
UIA control patterns:

===================  =====================  =========================================
Interface            Control pattern        Description
===================  =====================  =========================================
set_scrollbar_pos    Scroll                 Set scrollbar position to x%
select_lines         Text                   Select one (or contiguous) line(s)
select_paragraphs    Text                   Select one paragraph or a range
select_controls      Selection              Single or multi-select controls
set_toggle_state     Toggle                 Set a checkbox-like control's state
set_expanded         ExpandCollapse         Expand a collapsible control
set_collapsed        ExpandCollapse         Collapse a collapsible control
set_value            Value / RangeValue     Set an edit/spinner value directly
===================  =====================  =========================================

Two design rules from the paper are enforced here:

* **separation from control access** — these interfaces refuse static
  topology ids; controls are addressed by their *label on the current
  screen* (the accessibility tree the caller can see right now);
* **conservative execution** — if any addressed control does not support the
  required pattern the call returns an error and nothing is partially
  executed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.base import Application
from repro.dmi.errors import (
    ExecutionStatus,
    PatternUnsupportedFeedback,
    StructuredFeedback,
    ok_feedback,
)
from repro.dmi.matching import FuzzyControlMatcher
from repro.gui.screen import ScreenView
from repro.uia.element import UIElement
from repro.uia.patterns import (
    ExpandCollapsePattern,
    PatternId,
    ScrollPattern,
    SelectionItemPattern,
    TextPattern,
    TogglePattern,
    ToggleState,
)

#: Interface name -> UIA control pattern it builds on (paper Table 2).  Used
#: by the Table 2 bench and by documentation tests.
INTERFACE_PATTERN_TABLE: Dict[str, str] = {
    "set_scrollbar_pos": "ScrollPattern",
    "select_lines": "TextPattern",
    "select_paragraphs": "TextPattern",
    "select_controls": "SelectionPattern",
    "get_texts": "TextPattern & ValuePattern",
    "set_toggle_state": "TogglePattern",
    "set_expanded": "ExpandCollapsePattern",
    "set_collapsed": "ExpandCollapsePattern",
    "set_value": "ValuePattern",
}


class StateInterfaces:
    """Executes state declarations against the live accessibility tree."""

    def __init__(self, app: Application, matcher: Optional[FuzzyControlMatcher] = None) -> None:
        self.app = app
        self.matcher = matcher or FuzzyControlMatcher()

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def _views(self) -> List[ScreenView]:
        desktop = self.app.desktop
        return desktop.views(list(reversed(desktop.open_windows(self.app.process_id))))

    def _find_by_label(self, label: str) -> Optional[UIElement]:
        match = self.matcher.find_by_label(self._views(), label)
        return match.element

    @staticmethod
    def _reject_static_id(label: object) -> Optional[StructuredFeedback]:
        """Static topology ids are prohibited here (paper §3.5)."""
        if isinstance(label, int) or (isinstance(label, str) and label.isdigit()):
            return StructuredFeedback(
                status=ExecutionStatus.ERROR,
                command_kind="state",
                target=str(label),
                message="interaction-related interfaces take on-screen control labels, "
                        "not navigation-topology ids",
                suggestions=["pass the control's label from the current accessibility tree"],
            )
        return None

    # ------------------------------------------------------------------
    # scroll
    # ------------------------------------------------------------------
    def set_scrollbar_pos(self, control_label: str, x_percent: Optional[float] = None,
                          y_percent: Optional[float] = None) -> StructuredFeedback:
        """Set a scrollbar / scrollable container to an absolute position."""
        rejected = self._reject_static_id(control_label)
        if rejected is not None:
            return rejected
        element = self._find_by_label(control_label)
        if element is None:
            return StructuredFeedback(status=ExecutionStatus.ERROR,
                                      command_kind="set_scrollbar_pos",
                                      target=control_label,
                                      message=f"no on-screen control labelled {control_label!r}")
        scroll: Optional[ScrollPattern] = element.get_pattern(PatternId.SCROLL)
        if scroll is None:
            return PatternUnsupportedFeedback("set_scrollbar_pos", control_label, "Scroll")
        try:
            scroll.set_scroll_percent(x_percent, y_percent)
        except Exception as exc:
            return StructuredFeedback(status=ExecutionStatus.ERROR,
                                      command_kind="set_scrollbar_pos",
                                      target=control_label, message=str(exc))
        return ok_feedback("set_scrollbar_pos", target=control_label,
                           horizontal=scroll.horizontal_percent,
                           vertical=scroll.vertical_percent)

    # ------------------------------------------------------------------
    # text selection
    # ------------------------------------------------------------------
    def select_lines(self, control_label: str, start_index: int,
                     end_index: Optional[int] = None) -> StructuredFeedback:
        return self._select_text(control_label, start_index, end_index, unit="line")

    def select_paragraphs(self, control_label: str, start_index: int,
                          end_index: Optional[int] = None) -> StructuredFeedback:
        return self._select_text(control_label, start_index, end_index, unit="paragraph")

    def _select_text(self, control_label: str, start: int, end: Optional[int],
                     unit: str) -> StructuredFeedback:
        command = f"select_{unit}s"
        rejected = self._reject_static_id(control_label)
        if rejected is not None:
            return rejected
        element = self._find_by_label(control_label)
        if element is None:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind=command,
                                      target=control_label,
                                      message=f"no on-screen control labelled {control_label!r}")
        text: Optional[TextPattern] = element.get_pattern(PatternId.TEXT)
        if text is None:
            return PatternUnsupportedFeedback(command, control_label, "Text")
        try:
            if unit == "line":
                selection = text.select_lines(start, end)
            else:
                selection = text.select_paragraphs(start, end)
        except IndexError as exc:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind=command,
                                      target=control_label, message=str(exc),
                                      detail={"available": len(text.get_lines())
                                              if unit == "line" else len(text.get_paragraphs())})
        return ok_feedback(command, target=control_label, selection=selection)

    # ------------------------------------------------------------------
    # control selection
    # ------------------------------------------------------------------
    def select_controls(self, control_labels: Sequence[str],
                        mode: str = "replace") -> StructuredFeedback:
        """Select one or several controls (cells, list items, thumbnails).

        ``mode`` is "replace" (single/contiguous selection semantics) or
        "add" (multi-select).  Execution is conservative: if any label cannot
        be resolved or lacks SelectionItem support, nothing is selected.
        """
        if isinstance(control_labels, str):
            control_labels = [control_labels]
        resolved: List[UIElement] = []
        for label in control_labels:
            rejected = self._reject_static_id(label)
            if rejected is not None:
                return rejected
            element = self._find_by_label(label)
            if element is None:
                return StructuredFeedback(
                    status=ExecutionStatus.ERROR, command_kind="select_controls",
                    target=label,
                    message=f"no on-screen control labelled {label!r}; nothing was selected")
            if element.get_pattern(PatternId.SELECTION_ITEM) is None:
                return PatternUnsupportedFeedback("select_controls", label, "SelectionItem")
            resolved.append(element)
        for index, element in enumerate(resolved):
            item: SelectionItemPattern = element.get_pattern(PatternId.SELECTION_ITEM)
            if mode == "add" or index > 0:
                try:
                    item.add_to_selection()
                except Exception:
                    item.select()
            else:
                item.select()
        return ok_feedback("select_controls",
                           target=", ".join(control_labels),
                           selected=[e.name for e in resolved])

    # ------------------------------------------------------------------
    # toggle / expand
    # ------------------------------------------------------------------
    def set_toggle_state(self, control_label: str, on: bool) -> StructuredFeedback:
        element = self._find_by_label(control_label)
        if element is None:
            return StructuredFeedback(status=ExecutionStatus.ERROR,
                                      command_kind="set_toggle_state", target=control_label,
                                      message=f"no on-screen control labelled {control_label!r}")
        toggle: Optional[TogglePattern] = element.get_pattern(PatternId.TOGGLE)
        if toggle is None:
            return PatternUnsupportedFeedback("set_toggle_state", control_label, "Toggle")
        toggle.set_state(ToggleState.ON if on else ToggleState.OFF)
        return ok_feedback("set_toggle_state", target=control_label, state=int(toggle.state))

    def set_expanded(self, control_label: str) -> StructuredFeedback:
        return self._set_expansion(control_label, expanded=True)

    def set_collapsed(self, control_label: str) -> StructuredFeedback:
        return self._set_expansion(control_label, expanded=False)

    def _set_expansion(self, control_label: str, expanded: bool) -> StructuredFeedback:
        command = "set_expanded" if expanded else "set_collapsed"
        element = self._find_by_label(control_label)
        if element is None:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind=command,
                                      target=control_label,
                                      message=f"no on-screen control labelled {control_label!r}")
        pattern: Optional[ExpandCollapsePattern] = element.get_pattern(PatternId.EXPAND_COLLAPSE)
        if pattern is None:
            return PatternUnsupportedFeedback(command, control_label, "ExpandCollapse")
        if expanded:
            pattern.expand()
        else:
            pattern.collapse()
        self.app.desktop.relayout()
        return ok_feedback(command, target=control_label, state=int(pattern.state))

    # ------------------------------------------------------------------
    # value
    # ------------------------------------------------------------------
    def set_value(self, control_label: str, value: object) -> StructuredFeedback:
        """Set an Edit/Spinner/ComboBox value directly (ValuePattern)."""
        element = self._find_by_label(control_label)
        if element is None:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind="set_value",
                                      target=control_label,
                                      message=f"no on-screen control labelled {control_label!r}")
        value_pattern = element.get_pattern(PatternId.VALUE)
        range_pattern = element.get_pattern(PatternId.RANGE_VALUE)
        if value_pattern is None and range_pattern is None:
            return PatternUnsupportedFeedback("set_value", control_label, "Value")
        try:
            if isinstance(value, (int, float)) and range_pattern is not None:
                range_pattern.set_value(float(value))
            else:
                self.app.input.type_text(element, str(value))
        except Exception as exc:
            return StructuredFeedback(status=ExecutionStatus.ERROR, command_kind="set_value",
                                      target=control_label, message=str(exc))
        return ok_feedback("set_value", target=control_label, value=value)
