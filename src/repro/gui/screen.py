"""Screen layout and hit-testing.

The simulated desktop needs *some* geometry so that imperative, coordinate-
based interaction (``click_on_coordinates``, ``drag_on_coordinates``) and the
LLM grounding-error model ("clicked a nearby control instead") have meaning.
A pixel-accurate layout engine is unnecessary for the paper's claims; what
matters is that

* every visible element gets a deterministic, non-overlapping rectangle,
* containers enclose their children,
* densely packed sibling controls are *close together* so a grounding error
  can plausibly land on a neighbour.

``ScreenLayout`` therefore performs a simple recursive tiling: each
container's visible children share its rectangle, split along the dominant
axis in document order.

The layout also keeps the **screen views** every on-screen read goes
through: a :class:`ScreenView` is what one window shows at one layout stamp
(its on-screen controls in pre-order), recorded in a
:class:`~repro.uia.element.StampMemo` keyed by (window, stamp) and built
again only when the window's stamp moved.  A relayout records the view its
tiling walk visits, so the walk a change costs is shared by the layout, the
GUI agent's labelling and grounding, and DMI's control matching.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.uia import writes
from repro.uia.element import BoundingRect, StampMemo, UIElement, seal_stamps
from repro.uia.tree import visible_elements

#: Minimum size a leaf control is given, in pixels.
MIN_LEAF_WIDTH = 24.0
MIN_LEAF_HEIGHT = 16.0
#: Entries a layout's memo keeps: the views of a trial's windows, of the
#: state every restore returns to, and the values derived from them.
MEMO_CAPACITY = 64


class ScreenView:
    """What one window shows at one layout stamp.

    ``elements`` are the window's on-screen controls in depth-first
    pre-order (a hidden control hides its subtree), walked unless the
    caller has walked them; readers must not mutate it.  The indexes by
    primary id and by lower-cased name are built on first use.  A view
    describes its window only while the window carries ``stamp``:
    :meth:`ScreenLayout.view` builds a new one once it moved.
    """

    __slots__ = ("window", "stamp", "elements", "_by_primary_id", "_by_name")

    def __init__(self, window: UIElement, elements: Optional[List[UIElement]] = None) -> None:
        self.window = window
        self.stamp = window.layout_stamp
        self.elements = visible_elements(window) if elements is None else elements
        self._by_primary_id: Optional[Dict[str, List[UIElement]]] = None
        self._by_name: Optional[Dict[str, List[UIElement]]] = None

    def with_primary_id(self, primary_id: str) -> List[UIElement]:
        """The on-screen elements whose primary id is ``primary_id``, in pre-order."""
        if self._by_primary_id is None:
            self._by_primary_id = {}
            for element in self.elements:
                self._by_primary_id.setdefault(element.primary_id, []).append(element)
        return self._by_primary_id.get(primary_id, [])

    def named(self, name: str) -> List[UIElement]:
        """The on-screen elements whose name, lower-cased, is ``name``, in pre-order."""
        if self._by_name is None:
            self._by_name = {}
            for element in self.elements:
                if element.name:
                    self._by_name.setdefault(element.name.lower(), []).append(element)
        return self._by_name.get(name, [])


class ScreenLayout(writes.Marked):
    """Assigns bounding rectangles to visible elements of open windows.

    A window's tiling depends only on its rectangle and its visible
    structure, so the layout remembers each window's stack index, rectangle
    and layout stamp (see :mod:`repro.uia.element`) at its last layout and
    lays out again only the windows where one of the three changed.  The
    records are per instance: a new ``ScreenLayout`` lays out every window.
    Every rectangle the tiling writes saves its element's dict first
    (:mod:`repro.uia.writes`).
    """

    def __init__(self, width: int = 1920, height: int = 1080) -> None:
        self.width = width
        self.height = height
        #: (stack index, rect, stamp) of each window at its last layout.
        self._laid_out: Dict[UIElement, Tuple[int, BoundingRect, int]] = {}
        #: Screen views by (window, stamp), and values readers derive from
        #: them under keys naming the same (window, stamp) pairs.
        self.memo = StampMemo(MEMO_CAPACITY)

    def view(self, window: UIElement) -> ScreenView:
        """What ``window`` shows now: the view recorded at its current
        stamp, or a new one, recorded before the stamps are sealed."""
        key = (window, window.layout_stamp)
        view = self.memo.get(key)
        if view is None:
            view = ScreenView(window)
            self.memo.put(key, view)
            # A write from here on must not match the stamp recorded above.
            seal_stamps()
        return view

    # ------------------------------------------------------------------
    def layout_windows(self, windows: List[UIElement]) -> None:
        """Lay out each open window; later windows are centred and smaller,
        mimicking dialogs stacked over the main window.  A window whose
        stack index, rectangle and stamp are those of its last layout keeps
        the rectangles it has."""
        laid_out = {}
        for index, window in enumerate(windows):
            if index == 0:
                rect = BoundingRect(0.0, 0.0, float(self.width), float(self.height))
            else:
                # Stack dialogs centred with a cascading offset.
                shrink = 0.55
                offset = 24.0 * index
                width = self.width * shrink
                height = self.height * shrink
                left = (self.width - width) / 2.0 + offset
                top = (self.height - height) / 2.0 + offset
                rect = BoundingRect(left, top, width, height)
            key = (index, rect, window.layout_stamp)
            if self._laid_out.get(window) != key:
                view = ScreenView(window, self._tile(window, rect))
                self.memo.put((window, view.stamp), view)
            laid_out[window] = key
        self._laid_out = laid_out
        # A write from here on must not match a stamp recorded above.
        seal_stamps()

    def _tile(self, window: UIElement, rect: BoundingRect) -> List[UIElement]:
        """Assign ``rect`` to ``window`` and tile each on-screen control's
        visible children inside its rectangle; return the on-screen
        controls in the pre-order the tiling visits them in.  A control
        whose rectangle keeps its place and size keeps its rectangle: only
        a moved one is saved (:mod:`repro.uia.writes`) and written."""
        log = writes.log
        if window.rect != rect:
            if log is not None:
                writes.save(window)
            window.rect = rect
        elements = []
        # A hidden window shows nothing; its controls keep their rectangles.
        stack = [(window, 0)] if window.visible else []
        while stack:
            element, depth = stack.pop()
            elements.append(element)
            children = element.children
            if not children:
                continue
            visible_children = [c for c in children if c.visible]
            if not visible_children:
                continue
            rect = element.rect
            count = len(visible_children)
            if self._split_horizontally(rect, depth):
                slot = max(rect.width / count, MIN_LEAF_WIDTH)
                height = max(rect.height, MIN_LEAF_HEIGHT)
                places = [(rect.left + i * slot, rect.top, slot, height)
                          for i in range(count)]
            else:
                slot = max(rect.height / count, MIN_LEAF_HEIGHT)
                width = max(rect.width, MIN_LEAF_WIDTH)
                places = [(rect.left, rect.top + i * slot, width, slot)
                          for i in range(count)]
            for child, place in zip(visible_children, places):
                old = child.rect
                if (old.left, old.top, old.width, old.height) != place:
                    if log is not None:
                        writes.save(child)
                    child.rect = BoundingRect(*place)
            depth += 1
            stack.extend([(child, depth) for child in reversed(visible_children)])
        return elements

    @staticmethod
    def _split_horizontally(rect: BoundingRect, depth: int) -> bool:
        # Alternate split direction with depth, preferring the longer axis.
        if rect.width >= rect.height * 1.5:
            return True
        if rect.height >= rect.width * 1.5:
            return False
        return depth % 2 == 0

    # ------------------------------------------------------------------
    def hit_test(self, root: UIElement, x: float, y: float) -> Optional[UIElement]:
        """Deepest visible element of ``root``'s subtree containing (x, y)."""
        return hit_test(root, x, y)


def hit_test(root: UIElement, x: float, y: float) -> Optional[UIElement]:
    """Return the deepest visible descendant of ``root`` containing the point."""
    if not root.visible or not root.rect.contains(x, y):
        return None
    best: Optional[UIElement] = root
    # Walk down greedily: prefer the last child containing the point (later
    # siblings are drawn on top in document order).
    current = root
    while True:
        next_child = None
        for child in current.children:
            if child.visible and child.rect.contains(x, y):
                next_child = child
        if next_child is None:
            return best
        best = next_child
        current = next_child


def neighbours_of(element: UIElement, radius: float = 120.0) -> List[UIElement]:
    """Visible leaves whose centres lie within ``radius`` pixels of ``element``.

    Used by the LLM grounding-error model to pick a plausible wrong target.
    The leaves come from the screen view of ``element``'s window (a tree
    on no desktop is walked), last first: the reverse of pre-order, which
    is the order the seeded pick has always drawn from.
    """
    cx, cy = element.rect.center
    root = element.root()
    desktop = getattr(root, "desktop", None)
    view = desktop.layout.view(root) if desktop is not None else ScreenView(root)
    result = []
    for node in reversed(view.elements):
        if node is not element and node.children == []:
            nx, ny = node.rect.center
            if abs(nx - cx) <= radius and abs(ny - cy) <= radius:
                result.append(node)
    return result
