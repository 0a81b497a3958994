"""UIA control patterns.

UIA describes what a control *can do* via a finite set of control patterns
(34 in the real framework).  DMI's state and observation declarations are
built directly on these patterns (paper Table 2): ``set_scrollbar_pos`` on
``ScrollPattern``, ``select_lines`` on ``TextPattern``, ``select_controls``
on ``SelectionPattern``/``SelectionItemPattern``, ``get_texts`` on
``TextPattern``/``ValuePattern``, ``set_toggle_state`` on ``TogglePattern``
and ``set_expanded``/``set_collapsed`` on ``ExpandCollapsePattern``.

This module implements the subset of patterns the reproduction exercises.
Each pattern is a small object attached to a :class:`repro.uia.element.UIElement`;
widgets wire pattern callbacks to application behaviour.

**The change journal.**  The two pattern states a GUI rip must put back
after every click, :attr:`ExpandCollapsePattern.state` and
:attr:`SelectionItemPattern.is_selected`, are journaled: while a journal is
armed on the current thread (:func:`arm_journal`), every write that changes
one appends ``(pattern, old value)`` to it, so "what did this branch
change?" is a slice of the journal instead of a walk of every window.  A
pattern's first write (in its constructor) journals an old value of
``None``.  With no journal armed a write costs one ``is None`` check.  The
journal is per thread, so rips on different threads never see each other's
changes.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.uia import writes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.uia.element import UIElement


class PatternId(str, enum.Enum):
    """Identifiers for the control patterns implemented by the substrate."""

    INVOKE = "InvokePattern"
    TOGGLE = "TogglePattern"
    EXPAND_COLLAPSE = "ExpandCollapsePattern"
    SCROLL = "ScrollPattern"
    SELECTION = "SelectionPattern"
    SELECTION_ITEM = "SelectionItemPattern"
    TEXT = "TextPattern"
    VALUE = "ValuePattern"
    RANGE_VALUE = "RangeValuePattern"
    GRID = "GridPattern"
    GRID_ITEM = "GridItemPattern"
    WINDOW = "WindowPattern"
    LEGACY_ACCESSIBLE = "LegacyIAccessiblePattern"


class PatternNotSupportedError(RuntimeError):
    """Raised when a pattern operation is requested on an unsupporting control."""


class ElementDisabledError(RuntimeError):
    """Raised when a pattern operation targets a disabled control."""


class _Armed(threading.local):
    #: The journal armed on this thread, if any.
    entries: Optional[List[Tuple["UIAPattern", Any]]] = None


_armed = _Armed()


def arm_journal() -> List[Tuple["UIAPattern", Any]]:
    """Arm a new, empty journal on the current thread and return it."""
    _armed.entries = []
    return _armed.entries


def disarm_journal() -> None:
    """Stop journaling on the current thread."""
    _armed.entries = None


class _Journaled:
    """A set-only data descriptor for a journaled pattern attribute.

    It defines ``__set__`` but no ``__get__``, so a read is a plain
    instance-dict lookup; only a write pays for the journal and the write
    mark (:mod:`repro.uia.writes`).
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, pattern: "UIAPattern", value: Any) -> None:
        values = pattern.__dict__
        old = values.get(self.name)
        if old != value:
            values[self.name] = value
            log = writes.log
            if log is not None:
                log.add(id(values))
            entries = _armed.entries
            if entries is not None:
                entries.append((pattern, old))


class UIAPattern:
    """Base class for all control patterns.

    Parameters
    ----------
    element:
        The UI element this pattern instance is attached to.
    """

    pattern_id: PatternId

    def __init__(self, element: "UIElement") -> None:
        self.element = element

    def _require_enabled(self) -> None:
        if not self.element.is_enabled:
            raise ElementDisabledError(
                f"control {self.element.name!r} ({self.element.control_type}) is disabled"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} on {self.element.name!r}>"


class InvokePattern(UIAPattern):
    """Single, unambiguous action (a click on a Button, MenuItem, ...)."""

    pattern_id = PatternId.INVOKE

    invoke_count = writes.MarkedAttribute()

    def __init__(self, element: "UIElement", on_invoke: Optional[Callable[[], None]] = None):
        super().__init__(element)
        self._on_invoke = on_invoke
        self.invoke_count = 0

    def invoke(self) -> None:
        """Trigger the control's default action."""
        self._require_enabled()
        self.invoke_count += 1
        if self._on_invoke is not None:
            self._on_invoke()


class ToggleState(enum.IntEnum):
    OFF = 0
    ON = 1
    INDETERMINATE = 2


class TogglePattern(UIAPattern):
    """Two/three-state controls such as check boxes."""

    pattern_id = PatternId.TOGGLE

    state = writes.MarkedAttribute()

    def __init__(
        self,
        element: "UIElement",
        state: ToggleState = ToggleState.OFF,
        on_change: Optional[Callable[[ToggleState], None]] = None,
    ):
        super().__init__(element)
        self.state = ToggleState(state)
        self._on_change = on_change

    def toggle(self) -> ToggleState:
        """Cycle OFF -> ON -> OFF (indeterminate resolves to ON)."""
        self._require_enabled()
        self.state = ToggleState.OFF if self.state == ToggleState.ON else ToggleState.ON
        if self._on_change is not None:
            self._on_change(self.state)
        return self.state

    def set_state(self, state: ToggleState) -> ToggleState:
        """Set the toggle state directly (used by DMI's ``set_toggle_state``)."""
        self._require_enabled()
        state = ToggleState(state)
        if state != self.state:
            self.state = state
            if self._on_change is not None:
                self._on_change(self.state)
        return self.state


class ExpandCollapseState(enum.IntEnum):
    COLLAPSED = 0
    EXPANDED = 1
    PARTIALLY_EXPANDED = 2
    LEAF_NODE = 3


class ExpandCollapsePattern(UIAPattern):
    """Controls that show/hide child content (menus, combo boxes, tree items)."""

    pattern_id = PatternId.EXPAND_COLLAPSE

    state = _Journaled()

    def __init__(
        self,
        element: "UIElement",
        state: ExpandCollapseState = ExpandCollapseState.COLLAPSED,
        on_expand: Optional[Callable[[], None]] = None,
        on_collapse: Optional[Callable[[], None]] = None,
    ):
        super().__init__(element)
        self.state = ExpandCollapseState(state)
        self._on_expand = on_expand
        self._on_collapse = on_collapse

    def expand(self) -> None:
        self._require_enabled()
        if self.state != ExpandCollapseState.EXPANDED:
            self.state = ExpandCollapseState.EXPANDED
            if self._on_expand is not None:
                self._on_expand()

    def collapse(self) -> None:
        self._require_enabled()
        if self.state != ExpandCollapseState.COLLAPSED:
            self.state = ExpandCollapseState.COLLAPSED
            if self._on_collapse is not None:
                self._on_collapse()


class ScrollPattern(UIAPattern):
    """Scrollable containers; positions are percentages in [0, 100].

    A value of -1 mirrors UIA's ``UIA_ScrollPatternNoScroll`` sentinel for the
    axis that cannot scroll.
    """

    pattern_id = PatternId.SCROLL

    NO_SCROLL = -1.0

    horizontal_percent = writes.MarkedAttribute()
    vertical_percent = writes.MarkedAttribute()

    def __init__(
        self,
        element: "UIElement",
        horizontal: float = NO_SCROLL,
        vertical: float = 0.0,
        on_scroll: Optional[Callable[[float, float], None]] = None,
    ):
        super().__init__(element)
        self.horizontal_percent = horizontal
        self.vertical_percent = vertical
        self._on_scroll = on_scroll

    @property
    def horizontally_scrollable(self) -> bool:
        return self.horizontal_percent != self.NO_SCROLL

    @property
    def vertically_scrollable(self) -> bool:
        return self.vertical_percent != self.NO_SCROLL

    @staticmethod
    def _clamp(value: float) -> float:
        return max(0.0, min(100.0, float(value)))

    def set_scroll_percent(self, horizontal: Optional[float], vertical: Optional[float]) -> None:
        """Set the scroll position; ``None`` leaves the axis unchanged."""
        self._require_enabled()
        if horizontal is not None:
            if not self.horizontally_scrollable:
                raise PatternNotSupportedError(
                    f"control {self.element.name!r} cannot scroll horizontally"
                )
            self.horizontal_percent = self._clamp(horizontal)
        if vertical is not None:
            if not self.vertically_scrollable:
                raise PatternNotSupportedError(
                    f"control {self.element.name!r} cannot scroll vertically"
                )
            self.vertical_percent = self._clamp(vertical)
        if self._on_scroll is not None:
            self._on_scroll(self.horizontal_percent, self.vertical_percent)

    def scroll_by(self, horizontal_delta: float = 0.0, vertical_delta: float = 0.0) -> None:
        """Relative scroll used by imperative wheel/drag interactions."""
        horizontal = None
        vertical = None
        if self.horizontally_scrollable and horizontal_delta:
            horizontal = self.horizontal_percent + horizontal_delta
        if self.vertically_scrollable and vertical_delta:
            vertical = self.vertical_percent + vertical_delta
        if horizontal is not None or vertical is not None:
            self.set_scroll_percent(horizontal, vertical)


class SelectionPattern(UIAPattern):
    """Containers whose children can be selected (lists, tabs, grids)."""

    pattern_id = PatternId.SELECTION

    def __init__(self, element: "UIElement", can_select_multiple: bool = False):
        super().__init__(element)
        self.can_select_multiple = can_select_multiple

    def get_selection(self) -> List["UIElement"]:
        """Return the currently selected child elements."""
        selected = []
        for child in self.element.iter_descendants():
            item = child.get_pattern(PatternId.SELECTION_ITEM)
            if item is not None and item.is_selected:
                selected.append(child)
        return selected


class SelectionItemPattern(UIAPattern):
    """Selectable items inside a selection container."""

    pattern_id = PatternId.SELECTION_ITEM

    is_selected = _Journaled()

    def __init__(
        self,
        element: "UIElement",
        is_selected: bool = False,
        container: Optional["UIElement"] = None,
        on_select: Optional[Callable[[bool], None]] = None,
    ):
        super().__init__(element)
        self.is_selected = is_selected
        self._container = container
        self._on_select = on_select

    @property
    def selection_container(self) -> Optional["UIElement"]:
        if self._container is not None:
            return self._container
        ancestor = self.element.parent
        while ancestor is not None:
            if ancestor.get_pattern(PatternId.SELECTION) is not None:
                return ancestor
            ancestor = ancestor.parent
        return None

    def _container_pattern(self) -> Optional[SelectionPattern]:
        container = self.selection_container
        if container is None:
            return None
        return container.get_pattern(PatternId.SELECTION)

    def select(self) -> None:
        """Select this item, deselecting siblings if single-select."""
        self._require_enabled()
        container = self._container_pattern()
        if container is not None and not container.can_select_multiple:
            for other in container.get_selection():
                other_item = other.get_pattern(PatternId.SELECTION_ITEM)
                if other_item is not None and other is not self.element:
                    other_item._set_selected(False)
        self._set_selected(True)

    def add_to_selection(self) -> None:
        self._require_enabled()
        container = self._container_pattern()
        if container is not None and not container.can_select_multiple:
            raise PatternNotSupportedError(
                f"container {container.element.name!r} does not allow multi-selection"
            )
        self._set_selected(True)

    def remove_from_selection(self) -> None:
        self._require_enabled()
        self._set_selected(False)

    def _set_selected(self, value: bool) -> None:
        if value != self.is_selected:
            self.is_selected = value
            if self._on_select is not None:
                self._on_select(value)


class TextPattern(UIAPattern):
    """Text containers: documents, edit fields, cells.

    The pattern operates on a *text provider*: any object with ``get_text()``,
    ``get_lines()``, ``get_paragraphs()`` and ``select_range(start, end, unit)``.
    Widgets supply the provider; for simple cases the element's ``text``
    property is used.
    """

    pattern_id = PatternId.TEXT

    selection = writes.MarkedAttribute()

    def __init__(self, element: "UIElement", provider=None):
        super().__init__(element)
        self._provider = provider
        self.selection: Optional[tuple] = None  # (unit, start, end)

    # -- reading ---------------------------------------------------------
    def get_text(self, max_length: int = -1) -> str:
        text = self._provider.get_text() if self._provider is not None else self.element.text
        if max_length >= 0:
            return text[:max_length]
        return text

    def get_lines(self) -> List[str]:
        if self._provider is not None and hasattr(self._provider, "get_lines"):
            return list(self._provider.get_lines())
        return self.get_text().splitlines()

    def get_paragraphs(self) -> List[str]:
        if self._provider is not None and hasattr(self._provider, "get_paragraphs"):
            return list(self._provider.get_paragraphs())
        return [p for p in self.get_text().split("\n\n")]

    # -- selecting -------------------------------------------------------
    def select_lines(self, start_index: int, end_index: Optional[int] = None) -> tuple:
        """Select one line or a contiguous line range (inclusive, 0-based)."""
        self._require_enabled()
        end_index = start_index if end_index is None else end_index
        lines = self.get_lines()
        self._validate_range(start_index, end_index, len(lines), unit="line")
        self.selection = ("line", start_index, end_index)
        if self._provider is not None and hasattr(self._provider, "select_range"):
            self._provider.select_range(start_index, end_index, unit="line")
        return self.selection

    def select_paragraphs(self, start_index: int, end_index: Optional[int] = None) -> tuple:
        """Select one paragraph or a contiguous paragraph range (inclusive)."""
        self._require_enabled()
        end_index = start_index if end_index is None else end_index
        paragraphs = self.get_paragraphs()
        self._validate_range(start_index, end_index, len(paragraphs), unit="paragraph")
        self.selection = ("paragraph", start_index, end_index)
        if self._provider is not None and hasattr(self._provider, "select_range"):
            self._provider.select_range(start_index, end_index, unit="paragraph")
        return self.selection

    @staticmethod
    def _validate_range(start: int, end: int, length: int, unit: str) -> None:
        if start < 0 or end < start or end >= length:
            raise IndexError(
                f"invalid {unit} range [{start}, {end}] for provider with {length} {unit}s"
            )


class ValuePattern(UIAPattern):
    """Controls with a settable string value (edit fields, combo boxes)."""

    pattern_id = PatternId.VALUE

    value = writes.MarkedAttribute()

    def __init__(
        self,
        element: "UIElement",
        value: str = "",
        is_read_only: bool = False,
        on_change: Optional[Callable[[str], None]] = None,
    ):
        super().__init__(element)
        self.value = value
        self.is_read_only = is_read_only
        self._on_change = on_change

    def set_value(self, value: str) -> None:
        self._require_enabled()
        if self.is_read_only:
            raise PatternNotSupportedError(
                f"control {self.element.name!r} has a read-only value"
            )
        self.value = str(value)
        if self._on_change is not None:
            self._on_change(self.value)


class RangeValuePattern(UIAPattern):
    """Controls with a numeric value in a range (sliders, spinners)."""

    pattern_id = PatternId.RANGE_VALUE

    value = writes.MarkedAttribute()

    def __init__(
        self,
        element: "UIElement",
        value: float = 0.0,
        minimum: float = 0.0,
        maximum: float = 100.0,
        small_change: float = 1.0,
        on_change: Optional[Callable[[float], None]] = None,
    ):
        super().__init__(element)
        if maximum < minimum:
            raise ValueError("maximum must be >= minimum")
        self.minimum = minimum
        self.maximum = maximum
        self.small_change = small_change
        self.value = max(minimum, min(maximum, value))
        self._on_change = on_change

    def set_value(self, value: float) -> None:
        self._require_enabled()
        clamped = max(self.minimum, min(self.maximum, float(value)))
        self.value = clamped
        if self._on_change is not None:
            self._on_change(self.value)


class GridPattern(UIAPattern):
    """Two-dimensional containers of items (spreadsheet grids)."""

    pattern_id = PatternId.GRID

    def __init__(self, element: "UIElement", row_count: int, column_count: int, get_item=None):
        super().__init__(element)
        self.row_count = row_count
        self.column_count = column_count
        self._get_item = get_item

    def get_item(self, row: int, column: int) -> "UIElement":
        if row < 0 or row >= self.row_count or column < 0 or column >= self.column_count:
            raise IndexError(f"grid item ({row}, {column}) out of bounds")
        if self._get_item is None:
            raise PatternNotSupportedError("grid has no item accessor")
        return self._get_item(row, column)


class GridItemPattern(UIAPattern):
    """Items living inside a grid."""

    pattern_id = PatternId.GRID_ITEM

    def __init__(self, element: "UIElement", row: int, column: int,
                 containing_grid: Optional["UIElement"] = None):
        super().__init__(element)
        self.row = row
        self.column = column
        self.containing_grid = containing_grid


class WindowPattern(UIAPattern):
    """Top-level and modal windows."""

    pattern_id = PatternId.WINDOW

    is_open = writes.MarkedAttribute()

    def __init__(
        self,
        element: "UIElement",
        is_modal: bool = False,
        on_close: Optional[Callable[[], None]] = None,
    ):
        super().__init__(element)
        self.is_modal = is_modal
        self.is_open = True
        self._on_close = on_close

    def close(self) -> None:
        if self.is_open:
            self.is_open = False
            if self._on_close is not None:
                self._on_close()


class LegacyAccessiblePattern(UIAPattern):
    """Carries the legacy MSAA description string for a control."""

    pattern_id = PatternId.LEGACY_ACCESSIBLE

    def __init__(self, element: "UIElement", description: str = ""):
        super().__init__(element)
        self.description = description


#: All pattern classes implemented by the substrate, keyed by id.
ALL_PATTERN_CLASSES = {
    cls.pattern_id: cls
    for cls in (
        InvokePattern,
        TogglePattern,
        ExpandCollapsePattern,
        ScrollPattern,
        SelectionPattern,
        SelectionItemPattern,
        TextPattern,
        ValuePattern,
        RangeValuePattern,
        GridPattern,
        GridItemPattern,
        WindowPattern,
        LegacyAccessiblePattern,
    )
}
