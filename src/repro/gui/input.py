"""Input simulation: the imperative GUI action surface.

This module is the analogue of pywinauto's mouse/keyboard layer.  Both the
GUI-only agent baseline (clicks, drags, wheel, keyboard) and the DMI executor
(which performs the final primitive interaction after deterministic
navigation) funnel through :class:`InputSimulator`, so the two paths exercise
the same underlying machinery — only *who decides what to do* differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.gui.desktop import Desktop
from repro.gui.widgets import Edit, ScrollBarControl, Widget
from repro.uia.element import UIElement
from repro.uia.events import EventKind
from repro.uia.patterns import PatternId
from repro.uia.writes import Marked


class InputError(RuntimeError):
    """Raised when an input action cannot be delivered (e.g. empty point)."""


@dataclass(frozen=True)
class Shortcut:
    """A keyboard shortcut such as ``ctrl+s`` or ``enter``."""

    keys: Tuple[str, ...]

    @classmethod
    def parse(cls, combination: str) -> "Shortcut":
        keys = tuple(k.strip().lower() for k in combination.replace("-", "+").split("+") if k.strip())
        if not keys:
            raise ValueError(f"empty key combination: {combination!r}")
        return cls(keys=keys)

    def __str__(self) -> str:
        return "+".join(self.keys)


@dataclass
class InputLogEntry:
    """One delivered input action (for traces and step accounting)."""

    kind: str
    target: Optional[str] = None
    detail: dict = field(default_factory=dict)


class InputSimulator(Marked):
    """Delivers simulated mouse and keyboard input to a :class:`Desktop`."""

    def __init__(self, desktop: Desktop) -> None:
        self.desktop = desktop
        self.log: List[InputLogEntry] = []
        self.cursor: Tuple[float, float] = (0.0, 0.0)
        self._drag_origin: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # mouse: element-addressed
    # ------------------------------------------------------------------
    def click(self, element: UIElement) -> None:
        """Primitive interaction on an element (the widget decides semantics)."""
        if not element.is_enabled:
            raise InputError(f"cannot click disabled control {element.name!r}")
        self._record("click", element)
        self.cursor = element.rect.center
        self.desktop.set_focus(element)
        if isinstance(element, Widget):
            element.activate()
        else:
            invoke = element.get_pattern(PatternId.INVOKE)
            if invoke is not None:
                invoke.invoke()
        self.desktop.events.emit_kind(EventKind.INVOKED, source=element)
        self.desktop.relayout()

    # ------------------------------------------------------------------
    # mouse: coordinate-addressed (the fragile imperative path)
    # ------------------------------------------------------------------
    def click_on_coordinates(self, x: float, y: float) -> Optional[UIElement]:
        """Click whatever is under the point; returns the element hit (if any)."""
        self._record("click_on_coordinates", None, x=x, y=y)
        self.cursor = (x, y)
        target = self.desktop.element_at(x, y)
        if target is None:
            return None
        self.click(target)
        return target

    def drag_on_coordinates(self, x1: float, y1: float, x2: float, y2: float) -> Optional[UIElement]:
        """Press at (x1, y1), drag to (x2, y2), release.

        Dragging a scrollbar thumb adjusts the scrollbar position
        proportionally to the drag distance along its orientation.  Dragging
        anything else records the gesture but has no structural effect (as in
        a real app, many drags are no-ops unless they hit a drag-aware
        control).
        """
        self._record("drag_on_coordinates", None, x1=x1, y1=y1, x2=x2, y2=y2)
        origin = self.desktop.element_at(x1, y1)
        self.cursor = (x2, y2)
        if origin is None:
            return None
        scrollbar = _owning_scrollbar(origin)
        if scrollbar is not None:
            span = (
                scrollbar.rect.width if scrollbar.orientation == "horizontal" else scrollbar.rect.height
            )
            if span <= 0:
                span = 1.0
            delta = (x2 - x1) if scrollbar.orientation == "horizontal" else (y2 - y1)
            scrollbar.set_position(scrollbar.position + (delta / span) * 100.0)
            self.desktop.events.emit_kind(EventKind.SCROLL_CHANGED, source=scrollbar)
        return origin

    def wheel_mouse_input(self, element: UIElement, wheel_dist: int) -> None:
        """Scroll the element (or its nearest scrollable ancestor) by notches."""
        self._record("wheel_mouse_input", element, wheel_dist=wheel_dist)
        node: Optional[UIElement] = element
        while node is not None:
            scroll = node.get_pattern(PatternId.SCROLL)
            if scroll is not None and scroll.vertically_scrollable:
                # One wheel notch ~ 5% of the document, matching typical apps.
                scroll.scroll_by(vertical_delta=-5.0 * wheel_dist)
                self.desktop.events.emit_kind(EventKind.SCROLL_CHANGED, source=node)
                return
            node = node.parent

    # ------------------------------------------------------------------
    # keyboard
    # ------------------------------------------------------------------
    def type_text(self, element: UIElement, text: str) -> None:
        """Type ``text`` into an editable control (replacing its content)."""
        self._record("type_text", element, text=text)
        self.desktop.set_focus(element)
        if isinstance(element, Edit):
            element.set_text(text)
        else:
            value = element.get_pattern(PatternId.VALUE)
            if value is None:
                raise InputError(f"control {element.name!r} does not accept text input")
            value.set_value(text)
            element.text = text
        self.desktop.events.emit_kind(EventKind.VALUE_CHANGED, source=element)

    def keyboard_input(self, combination: str) -> Shortcut:
        """Deliver a keyboard shortcut to the focused element / top window."""
        shortcut = Shortcut.parse(combination)
        self._record("keyboard_input", self.desktop.focus, keys=str(shortcut))
        focus = self.desktop.focus
        if shortcut.keys == ("enter",) and isinstance(focus, Edit):
            focus.commit()
        elif shortcut.keys == ("escape",):
            top = self.desktop.top_window()
            if top is not None and top.is_modal:
                top.close()
        # Other shortcuts are delivered to the application via its
        # shortcut table (see repro.apps.base.Application.handle_shortcut).
        top = self.desktop.top_window()
        app = getattr(top, "application", None) if top is not None else None
        if app is not None:
            app.handle_shortcut(shortcut)
        return shortcut

    # ------------------------------------------------------------------
    def _record(self, kind: str, target: Optional[UIElement], **detail) -> None:
        self.log.append(
            InputLogEntry(kind=kind, target=target.name if target is not None else None,
                          detail=dict(detail))
        )

    @property
    def action_count(self) -> int:
        """Number of delivered low-level input actions."""
        return len(self.log)


def _owning_scrollbar(element: UIElement) -> Optional[ScrollBarControl]:
    node: Optional[UIElement] = element
    while node is not None:
        if isinstance(node, ScrollBarControl):
            return node
        node = node.parent
    return None
