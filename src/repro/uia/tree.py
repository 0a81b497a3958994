"""Accessibility-tree traversal helpers.

These mirror the UIA ``TreeWalker`` facilities that both the ripper (to take
differential captures of the visible control set) and DMI's executor (to
match a navigation path against the current window hierarchy) rely on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

from repro.uia.control_types import ControlType
from repro.uia.element import UIElement

Predicate = Callable[[UIElement], bool]


def iter_subtree(root: UIElement) -> Iterator[UIElement]:
    """Yield ``root`` and every descendant, depth-first pre-order."""
    return root.iter_subtree()


def iter_descendants(root: UIElement) -> Iterator[UIElement]:
    """Yield every descendant of ``root`` (excluding ``root``)."""
    return root.iter_descendants()


def tree_size(root: UIElement) -> int:
    """Number of elements in the subtree rooted at ``root`` (including root)."""
    return sum(1 for _ in root.iter_subtree())


def tree_depth(root: UIElement) -> int:
    """Maximum depth of the subtree (a lone root has depth 1)."""
    best = 0
    base = root.depth()
    for node in root.iter_subtree():
        best = max(best, node.depth() - base + 1)
    return best


def find_first(root: UIElement, predicate: Predicate) -> Optional[UIElement]:
    """Return the first element (pre-order) satisfying ``predicate``."""
    for node in root.iter_subtree():
        if predicate(node):
            return node
    return None


def find_all(root: UIElement, predicate: Predicate) -> List[UIElement]:
    """Return every element (pre-order) satisfying ``predicate``."""
    return [node for node in root.iter_subtree() if predicate(node)]


def visible_elements(root: UIElement) -> List[UIElement]:
    """Return all elements of the subtree that are currently on screen.

    This is what a :class:`~repro.gui.screen.ScreenView` holds, the set
    both agents read the screen through.
    """
    result: List[UIElement] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.visible:
            # An invisible node hides its entire subtree.
            continue
        result.append(node)
        stack.extend(reversed(node.children))
    return result


class TreeWalker:
    """A filtered walker over the accessibility tree (UIA ``TreeWalker``).

    Parameters
    ----------
    condition:
        Optional predicate restricting which elements the walker "sees".
        Elements failing the condition are skipped, but their children are
        still considered (UIA "raw" vs "control" view behaviour).
    """

    def __init__(self, condition: Optional[Predicate] = None):
        self.condition = condition or (lambda _e: True)

    def _visible_children(self, element: UIElement) -> List[UIElement]:
        result: List[UIElement] = []
        for child in element.children:
            if self.condition(child):
                result.append(child)
            else:
                result.extend(self._visible_children(child))
        return result

    def get_first_child(self, element: UIElement) -> Optional[UIElement]:
        children = self._visible_children(element)
        return children[0] if children else None

    def get_last_child(self, element: UIElement) -> Optional[UIElement]:
        children = self._visible_children(element)
        return children[-1] if children else None

    def get_children(self, element: UIElement) -> List[UIElement]:
        return self._visible_children(element)

    def get_parent(self, element: UIElement) -> Optional[UIElement]:
        node = element.parent
        while node is not None and not self.condition(node):
            node = node.parent
        return node

    def get_next_sibling(self, element: UIElement) -> Optional[UIElement]:
        parent = element.parent
        if parent is None:
            return None
        siblings = self._visible_children(parent)
        try:
            index = siblings.index(element)
        except ValueError:
            return None
        return siblings[index + 1] if index + 1 < len(siblings) else None

    def walk(self, root: UIElement) -> Iterator[UIElement]:
        """Depth-first pre-order walk of the filtered view."""
        if self.condition(root):
            yield root
        stack = list(reversed(self.get_children(root)))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.get_children(node)))


#: Walker matching UIA's "control view": skips purely decorative elements.
CONTROL_VIEW_WALKER = TreeWalker(
    condition=lambda e: e.control_type
    not in {ControlType.SEPARATOR, ControlType.TOOL_TIP, ControlType.THUMB}
)


def snapshot(root: UIElement, only_visible: bool = True) -> List[dict]:
    """Return a serialisable snapshot of the (visible) subtree.

    Each entry records the properties the ripper's differential capture and
    the agent's labelling step need.  The snapshot is order-stable
    (pre-order), so diffing two snapshots yields deterministic results.
    """
    nodes = visible_elements(root) if only_visible else list(root.iter_subtree())
    result = []
    for node in nodes:
        result.append(
            {
                "runtime_id": node.runtime_id,
                "name": node.name,
                "automation_id": node.automation_id,
                "control_type": node.control_type.value,
                "enabled": node.is_enabled,
                "depth": node.depth(),
                "rect": (node.rect.left, node.rect.top, node.rect.width, node.rect.height),
                "patterns": sorted(p.value for p in node.patterns),
            }
        )
    return result


def diff_snapshots(before: Iterable[dict], after: Iterable[dict]) -> List[dict]:
    """Return entries present in ``after`` but not in ``before``.

    Presence is keyed on ``runtime_id`` so that elements that merely moved or
    were re-labelled are not reported as new.
    """
    before_ids = {entry["runtime_id"] for entry in before}
    return [entry for entry in after if entry["runtime_id"] not in before_ids]
