"""The accessibility element (UI control node).

:class:`UIElement` is the single node type of the simulated accessibility
tree.  Widgets in :mod:`repro.gui.widgets` subclass it to add behaviour, but
every consumer in the reproduction (the ripper, DMI's executor, the agent
baseline) sees only the UIA surface defined here: name, automation id,
control type, enabled/offscreen flags, bounding rectangle, children, and the
set of supported control patterns.

**Layout stamps.**  Every element carries a ``layout_stamp``.  A
structural write (a change of ``visible``, :meth:`UIElement.add_child`,
:meth:`UIElement.remove_child`) or a rename (a change of ``name`` or
``automation_id``, which changes control identifiers) stamps the element
whose subtree it changes and every ancestor up to the root with the
current stamp, so an element whose stamp is unchanged since a reader last
recorded it has the same visible structure and names below it.  Stamps key
three memos: :class:`repro.gui.screen.ScreenLayout` relays out only the
windows whose stamp moved; its screen views
(:class:`repro.gui.screen.ScreenView`), which every on-screen read of both
agents goes through, re-walk only the windows whose stamp moved; and the
ripper's snapshot (:func:`repro.uia.identifiers.visible_identifiers`)
re-walks only the subtrees whose stamp moved.  Stamps come from a
process-global counter that only grows; :func:`seal_stamps` moves on to a
fresh one after a layout, a view or a snapshot has recorded the current
stamps.  Until then a walk stops at the
first element already carrying the current stamp, as every ancestor of such
an element carries it too, so building an app costs one short walk per
write rather than one walk to the root.  (Two threads sealing at once may
install their stamps in either order; each stamp is still current for one
stretch of time only, which is all the early stop needs.)

A :class:`StampMemo` holds values derived from what elements showed at
recorded stamps.  It is not application state: a restore
(:class:`repro.apps.snapshot.AppSnapshot`) puts back the stamps of the
state it restores, along with that state, so an entry recorded at those
stamps is valid again.

**Saved before written.**  A restore puts back only the containers
saved by the write log (:mod:`repro.uia.writes`), so every element write
that can happen after an app is built first saves the element's
``__dict__`` (or its ``children`` or ``patterns``) while a snapshot is
armed: the stamped writes above and the stamp each of them leaves on the
ancestors, the ``parent`` and ``children`` writes of
:meth:`UIElement.add_child` and :meth:`UIElement.remove_child`, ``text`` (a
set-only marking descriptor), :meth:`UIElement.add_pattern`, and the
``rect`` the layout's tiling writes.  The class has no ``__setattr__``
hook: an app build makes tens of thousands of other attribute writes, each
of which it would slow down.  The constructor writes straight into the new
element's dict, which no snapshot has saved.  With no snapshot armed a
seam costs one ``is None`` check.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional

from repro.uia import writes
from repro.uia.control_types import ControlType, control_type_of
from repro.uia.patterns import PatternId, UIAPattern

_runtime_id_counter = itertools.count(1)

_stamp_counter = itertools.count(1)
_stamp = next(_stamp_counter)


def seal_stamps() -> None:
    """Give every later structural write a stamp no element carries yet."""
    global _stamp
    _stamp = next(_stamp_counter)


class StampMemo:
    """A bounded memo of values derived from elements at recorded stamps.

    Every key names the elements and the layout stamps its value was read
    at, so an entry stays valid for as long as those elements carry those
    stamps, restores included; whoever records an entry seals the stamps
    (:func:`seal_stamps`) before a write can reuse them.  Past ``capacity``
    entries the least recently used one goes.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[object]:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def _touch(element: Optional["UIElement"]) -> None:
    """Stamp ``element`` and its ancestors with the current stamp."""
    stamp = _stamp
    log = writes.log
    while element is not None and element.layout_stamp != stamp:
        if log is not None:
            writes.save(element)
        element.layout_stamp = stamp
        element = element.parent


class _Stamped:
    """``visible``, ``name`` and ``automation_id``: set-only data descriptors.

    A read is a plain instance-dict lookup; a write that changes the value
    saves and stamps the element (see the module docstring).
    """

    def __set_name__(self, owner: type, attribute: str) -> None:
        self.attribute = attribute

    def __set__(self, element: "UIElement", value: object) -> None:
        values = element.__dict__
        if values.get(self.attribute) != value:
            if writes.log is not None:
                writes.save(element)
            values[self.attribute] = value
            _touch(element)


@dataclass(frozen=True)
class BoundingRect:
    """Screen-space bounding rectangle of a control (pixels)."""

    left: float = 0.0
    top: float = 0.0
    width: float = 0.0
    height: float = 0.0

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def center(self) -> tuple:
        return (self.left + self.width / 2.0, self.top + self.height / 2.0)

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def contains(self, x: float, y: float) -> bool:
        """Return True if the point (x, y) falls inside the rectangle."""
        return self.left <= x < self.right and self.top <= y < self.bottom

    def intersects(self, other: "BoundingRect") -> bool:
        return not (
            other.left >= self.right
            or other.right <= self.left
            or other.top >= self.bottom
            or other.bottom <= self.top
        )


class UIElement(writes.Born):
    """A node in the accessibility tree.

    Parameters
    ----------
    name:
        Human-readable control name (UIA ``Name`` property).
    control_type:
        One of the 41 UIA control types.
    automation_id:
        Developer-assigned identifier (may be empty; uniqueness is *not*
        guaranteed, mirroring real UIA).
    description:
        Free-form help/description text (UIA ``HelpText`` /
        ``FullDescription``).
    enabled / visible:
        The UIA ``IsEnabled`` and (negated) ``IsOffscreen`` properties.
        Visibility here is the element's *own* flag; whether it is actually
        on screen also depends on its ancestors (see :meth:`is_on_screen`).
    """

    visible = _Stamped()
    name = _Stamped()
    automation_id = _Stamped()
    text = writes.MarkedAttribute()

    def __init__(
        self,
        name: str = "",
        control_type: ControlType = ControlType.CUSTOM,
        automation_id: str = "",
        description: str = "",
        enabled: bool = True,
        visible: bool = True,
        rect: Optional[BoundingRect] = None,
    ) -> None:
        self._born = writes.epoch
        # Straight into the dict: no snapshot has saved a new element, and
        # it has no parent to stamp, only itself.
        values = self.__dict__
        values["name"] = name
        values["automation_id"] = automation_id
        self.control_type = control_type_of(control_type)
        self.description = description
        self.is_enabled = enabled
        values["layout_stamp"] = _stamp
        self.parent: Optional[UIElement] = None
        values["visible"] = visible
        self.rect = rect or BoundingRect()
        values["text"] = ""
        self.runtime_id: int = next(_runtime_id_counter)
        self.children: List[UIElement] = []
        self.patterns: Dict[PatternId, UIAPattern] = {}
        #: Free-form property bag for application metadata (e.g. semantic
        #: tags used by checkers); never read by DMI itself.
        self.properties: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def add_child(self, child: "UIElement", index: Optional[int] = None) -> "UIElement":
        """Attach ``child`` to this element and return it."""
        if child.parent is not None:
            child.parent.remove_child(child)
        if writes.log is not None:
            writes.save(child)
            writes.save(self, self.children)
        child.parent = self
        if index is None:
            self.children.append(child)
        else:
            self.children.insert(index, child)
        _touch(self)
        return child

    def add_children(self, children: List["UIElement"]) -> List["UIElement"]:
        for child in children:
            self.add_child(child)
        return children

    def remove_child(self, child: "UIElement") -> None:
        if child in self.children:
            if writes.log is not None:
                writes.save(self, self.children)
                writes.save(child)
            self.children.remove(child)
            child.parent = None
            _touch(self)

    def clear_children(self) -> None:
        for child in list(self.children):
            self.remove_child(child)

    def ancestors(self) -> List["UIElement"]:
        """Return ancestors from the immediate parent to the root."""
        chain = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def root(self) -> "UIElement":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        """Distance to the root (root has depth 0)."""
        return len(self.ancestors())

    def iter_descendants(self) -> Iterator["UIElement"]:
        """Yield all descendants in depth-first pre-order (excluding self)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_subtree(self) -> Iterator["UIElement"]:
        """Yield self followed by all descendants (depth-first pre-order)."""
        yield self
        for node in self.iter_descendants():
            yield node

    # ------------------------------------------------------------------
    # patterns
    # ------------------------------------------------------------------
    def add_pattern(self, pattern: UIAPattern) -> UIAPattern:
        """Register a pattern instance on this element and return it."""
        if writes.log is not None:
            writes.save(self, self.patterns)
        self.patterns[pattern.pattern_id] = pattern
        return pattern

    def get_pattern(self, pattern_id: PatternId) -> Optional[UIAPattern]:
        """Return the pattern with ``pattern_id`` or None if unsupported."""
        return self.patterns.get(pattern_id)

    # ------------------------------------------------------------------
    # visibility
    # ------------------------------------------------------------------
    def is_on_screen(self) -> bool:
        """True if this element and every ancestor is visible."""
        node: Optional[UIElement] = self
        while node is not None:
            if not node.visible:
                return False
            node = node.parent
        return True

    @property
    def is_offscreen(self) -> bool:
        """The UIA ``IsOffscreen`` property (inverse of :meth:`is_on_screen`)."""
        return not self.is_on_screen()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def primary_id(self) -> str:
        """automation_id, falling back to name, falling back to "[Unnamed]".

        This mirrors the paper's control-identifier synthesis (§4.1).
        """
        if self.automation_id:
            return self.automation_id
        if self.name:
            return self.name
        return "[Unnamed]"

    def ancestor_path(self) -> str:
        """Slash-delimited sequence of ancestor primary ids, root first."""
        names = [a.primary_id for a in reversed(self.ancestors())]
        return "/".join(names)

    def find(self, **criteria) -> Optional["UIElement"]:
        """Return the first descendant matching all keyword criteria.

        Supported criteria: ``name``, ``automation_id``, ``control_type``,
        ``name_contains``.
        """
        for node in self.iter_descendants():
            if _matches(node, criteria):
                return node
        return None

    def find_all(self, **criteria) -> List["UIElement"]:
        """Return all descendants matching all keyword criteria."""
        return [node for node in self.iter_descendants() if _matches(node, criteria)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UIElement(name={self.name!r}, type={self.control_type.value}, "
            f"automation_id={self.automation_id!r}, children={len(self.children)})"
        )


def _matches(node: UIElement, criteria: Dict[str, object]) -> bool:
    for key, expected in criteria.items():
        if key == "name" and node.name != expected:
            return False
        elif key == "automation_id" and node.automation_id != expected:
            return False
        elif key == "control_type" and node.control_type != ControlType(expected):
            return False
        elif key == "name_contains" and str(expected).lower() not in node.name.lower():
            return False
        elif key not in {"name", "automation_id", "control_type", "name_contains"}:
            raise TypeError(f"unsupported search criterion {key!r}")
    return True
