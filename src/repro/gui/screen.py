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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.uia.element import BoundingRect, UIElement, seal_stamps

#: Minimum size a leaf control is given, in pixels.
MIN_LEAF_WIDTH = 24.0
MIN_LEAF_HEIGHT = 16.0


class ScreenLayout:
    """Assigns bounding rectangles to visible elements of open windows.

    A window's tiling depends only on its rectangle and its visible
    structure, so the layout remembers each window's stack index, rectangle
    and layout stamp (see :mod:`repro.uia.element`) at its last layout and
    lays out again only the windows where one of the three changed.  The
    memo is per instance: a new ``ScreenLayout`` lays out every window.
    """

    def __init__(self, width: int = 1920, height: int = 1080) -> None:
        self.width = width
        self.height = height
        #: (stack index, rect, stamp) of each window at its last layout.
        self._laid_out: Dict[UIElement, Tuple[int, BoundingRect, int]] = {}

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
                self.layout_element(window, rect)
            laid_out[window] = key
        self._laid_out = laid_out
        # A write from here on must not match a stamp recorded above.
        seal_stamps()

    def layout_element(self, element: UIElement, rect: BoundingRect, depth: int = 0) -> None:
        """Recursively assign ``rect`` to ``element`` and tile its children."""
        element.rect = rect
        visible_children = [c for c in element.children if c.visible]
        if not visible_children:
            return
        horizontal = self._split_horizontally(rect, depth)
        count = len(visible_children)
        if horizontal:
            slot = max(rect.width / count, MIN_LEAF_WIDTH)
            for i, child in enumerate(visible_children):
                child_rect = BoundingRect(
                    rect.left + i * slot, rect.top, slot, max(rect.height, MIN_LEAF_HEIGHT)
                )
                self.layout_element(child, child_rect, depth + 1)
        else:
            slot = max(rect.height / count, MIN_LEAF_HEIGHT)
            for i, child in enumerate(visible_children):
                child_rect = BoundingRect(
                    rect.left, rect.top + i * slot, max(rect.width, MIN_LEAF_WIDTH), slot
                )
                self.layout_element(child, child_rect, depth + 1)

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
    """Visible elements whose centres lie within ``radius`` pixels of ``element``.

    Used by the LLM grounding-error model to pick a plausible wrong target.
    """
    cx, cy = element.rect.center
    root = element.root()
    result = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.visible:
            continue
        if node is not element and node.children == []:
            nx, ny = node.rect.center
            if abs(nx - cx) <= radius and abs(ny - cy) <= radius:
                result.append(node)
        stack.extend(node.children)
    return result
