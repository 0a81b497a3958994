"""The desktop: window management, focus and process registry.

The desktop is the single authority on which windows exist, their z-order and
which one is "topmost valid" — the notion DMI's path-navigation loop uses
("fetch the topmost valid window and all descendant controls", paper §4.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.gui.screen import ScreenLayout, ScreenView
from repro.gui.widgets import Window
from repro.uia.element import UIElement
from repro.uia.events import EventBus, EventKind
from repro.uia import writes
from repro.uia.writes import Marked

_process_id_counter = itertools.count(1000)


class Desktop(Marked):
    """A simulated desktop session.

    Responsibilities:

    * track open top-level windows and modal dialogs in z-order;
    * expose the *topmost valid* window (modal dialogs take priority);
    * maintain keyboard focus;
    * emit accessibility events (window opened/closed, focus changed);
    * lay out visible elements so coordinate-based interaction works.
    """

    def __init__(self, width: int = 1920, height: int = 1080) -> None:
        self.width = width
        self.height = height
        self.windows: List[Window] = []
        self.focus: Optional[UIElement] = None
        self.events = EventBus()
        self.layout = ScreenLayout(width=width, height=height)
        self._processes: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def register_process(self, name: str) -> int:
        """Register an application process and return its process id."""
        pid = next(_process_id_counter)
        self._processes[pid] = name
        return pid

    def process_name(self, pid: int) -> Optional[str]:
        return self._processes.get(pid)

    # ------------------------------------------------------------------
    # windows
    # ------------------------------------------------------------------
    def open_window(self, window: Window, process_id: Optional[int] = None) -> Window:
        """Add ``window`` to the desktop on top of the z-order."""
        if writes.log is not None:
            writes.save(window)
            writes.save(self, self.windows)
        window.desktop = self
        if process_id is not None:
            window.process_id = process_id
        self.windows.append(window)
        self.events.emit_kind(EventKind.WINDOW_OPENED, source=window)
        self.relayout()
        return window

    def notify_window_closed(self, window: Window) -> None:
        """Called by :class:`Window` when its WindowPattern closes."""
        if window in self.windows:
            if writes.log is not None:
                writes.save(self, self.windows)
            self.windows.remove(window)
        if self.focus is not None and self.focus.root() is window:
            self.focus = None
        self.events.emit_kind(EventKind.WINDOW_CLOSED, source=window)
        self.relayout()

    def open_windows(self, process_id: Optional[int] = None) -> List[Window]:
        """All open windows, optionally filtered by process id (bottom-up z-order)."""
        result = [w for w in self.windows if w.is_open]
        if process_id is not None:
            result = [w for w in result if w.process_id == process_id]
        return result

    def top_window(self, process_id: Optional[int] = None) -> Optional[Window]:
        """The topmost valid window: the most recently opened open window.

        Modal dialogs are always above their owners because they are opened
        later; this matches the "fetch the topmost valid window" rule the DMI
        executor follows.
        """
        candidates = self.open_windows(process_id)
        return candidates[-1] if candidates else None

    def modal_windows(self, process_id: Optional[int] = None) -> List[Window]:
        return [w for w in self.open_windows(process_id) if w.is_modal]

    # ------------------------------------------------------------------
    # focus
    # ------------------------------------------------------------------
    def set_focus(self, element: Optional[UIElement]) -> None:
        if element is not self.focus:
            self.focus = element
            self.events.emit_kind(EventKind.FOCUS_CHANGED, source=element)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def relayout(self) -> None:
        """Recompute bounding rectangles for every visible element.

        Windows whose stack index and visible structure are unchanged since
        the previous relayout keep their rectangles (see
        :class:`~repro.gui.screen.ScreenLayout`), so a relayout costs what
        changed rather than every open window."""
        self.layout.layout_windows(self.open_windows())

    def views(self, windows: List[Window]) -> List[ScreenView]:
        """What each of ``windows`` shows now, in the order given (see
        :class:`~repro.gui.screen.ScreenView`)."""
        return [self.layout.view(window) for window in windows]

    def element_at(self, x: float, y: float) -> Optional[UIElement]:
        """Hit-test: the deepest visible element under the point, topmost window first."""
        for window in reversed(self.open_windows()):
            hit = self.layout.hit_test(window, x, y)
            if hit is not None:
                return hit
        return None
