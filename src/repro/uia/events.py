"""UIA-style event notifications.

The paper registers a UIA event handler so applications expose their full
control trees (avoiding lazy-loading artefacts) and uses window listeners to
detect new top-level or modal windows during GUI ripping.  This module
provides a minimal publish/subscribe bus carrying the same event kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.uia import writes
from repro.uia.element import UIElement


class EventKind(str, enum.Enum):
    """Kinds of accessibility events emitted by the GUI runtime."""

    STRUCTURE_CHANGED = "StructureChanged"
    WINDOW_OPENED = "WindowOpened"
    WINDOW_CLOSED = "WindowClosed"
    INVOKED = "Invoked"
    VALUE_CHANGED = "ValueChanged"
    SELECTION_CHANGED = "SelectionChanged"
    SCROLL_CHANGED = "ScrollChanged"
    FOCUS_CHANGED = "FocusChanged"


@dataclass
class UIAEvent:
    """A single accessibility event."""

    kind: EventKind
    source: Optional[UIElement] = None
    detail: Dict[str, object] = field(default_factory=dict)


Handler = Callable[[UIAEvent], None]


class EventBus(writes.Marked):
    """A simple synchronous event bus.

    Handlers may subscribe to a specific :class:`EventKind` or to all events
    (``kind=None``).  Events are also recorded in :attr:`history` so tests and
    the ripper can inspect what happened during an interaction without
    registering handlers up front.  Every write to the handlers or the
    history saves it first (:mod:`repro.uia.writes`).
    """

    def __init__(self, history_limit: int = 10000) -> None:
        self._handlers: Dict[Optional[EventKind], List[Handler]] = {}
        self.history: List[UIAEvent] = []
        self._history_limit = history_limit

    def subscribe(self, handler: Handler, kind: Optional[EventKind] = None) -> Callable[[], None]:
        """Register ``handler`` and return a callable that unsubscribes it."""
        writes.save(self, self._handlers)
        handlers = self._handlers.setdefault(kind, [])
        writes.save(self, handlers)
        handlers.append(handler)

        def unsubscribe() -> None:
            handlers = self._handlers.get(kind, [])
            if handler in handlers:
                writes.save(self, handlers)
                handlers.remove(handler)

        return unsubscribe

    def emit(self, event: UIAEvent) -> None:
        """Dispatch ``event`` to all matching handlers and record it."""
        if writes.log is not None:
            writes.save(self, self.history)
        self.history.append(event)
        if len(self.history) > self._history_limit:
            del self.history[: len(self.history) - self._history_limit]
        for handler in list(self._handlers.get(event.kind, [])):
            handler(event)
        for handler in list(self._handlers.get(None, [])):
            handler(event)

    def emit_kind(self, kind: EventKind, source: Optional[UIElement] = None, **detail) -> UIAEvent:
        """Convenience: build and emit an event in one call."""
        event = UIAEvent(kind=kind, source=source, detail=dict(detail))
        self.emit(event)
        return event

    def events_of_kind(self, kind: EventKind) -> List[UIAEvent]:
        """Return all recorded events of a given kind."""
        return [e for e in self.history if e.kind == kind]

    def clear_history(self) -> None:
        writes.save(self, self.history)
        self.history.clear()
