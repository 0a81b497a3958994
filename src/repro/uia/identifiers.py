"""XPath-like control identifiers (paper §4.1, "Control identifier synthesis").

UIA does not guarantee globally unique ``AutomationId`` values, so the paper
labels each UNG node with a composite identifier::

    primary_id|control_type|ancestor_path

where ``primary_id`` is the automation id, falling back to the control name,
falling back to ``[Unnamed]``; ``control_type`` is the UIA type name; and
``ancestor_path`` is a slash-delimited sequence of ancestor primary ids
(root first).  Index-based addressing is deliberately avoided because dynamic
menus shift indices unpredictably.

Every identifier string is produced by :func:`_format` from an escaped
primary id and an escaped ancestor path.  :func:`identifier_string` builds
the path bottom-up for one element (O(depth));
:func:`visible_identifiers` builds it top-down for a whole visible tree,
extending each parent's escaped path by one segment, so a snapshot costs one
escape per element.  Given a memo, it also reuses each subtree that neither
changed nor moved since the memo recorded it, so a repeated snapshot costs
one escape per element on the paths from what changed up to the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.uia.control_types import ControlType
from repro.uia.element import UIElement, seal_stamps

#: Field separator inside a control identifier.
FIELD_SEPARATOR = "|"
#: Segment separator inside the ancestor path.
PATH_SEPARATOR = "/"
#: Fallback primary id for controls with neither automation id nor name.
UNNAMED = "[Unnamed]"

#: Per visible container: its layout stamp, its escaped ancestor path and its
#: subtree's ``(identifier, element)`` pairs in pre-order, as last walked.
SnapshotMemo = Dict[UIElement, Tuple[int, str, List[Tuple[str, UIElement]]]]


@dataclass(frozen=True)
class ControlIdentifier:
    """Parsed form of a composite control identifier."""

    primary_id: str
    control_type: ControlType
    ancestor_path: Tuple[str, ...] = ()

    def __str__(self) -> str:
        return _format(
            _escape(self.primary_id),
            self.control_type,
            PATH_SEPARATOR.join(_escape(seg) for seg in self.ancestor_path),
        )

    @property
    def short_name(self) -> str:
        """Human-oriented short label (primary id only)."""
        return self.primary_id

    def matches_element(self, element: UIElement) -> bool:
        """Exact match of primary id and control type against an element."""
        return (
            element.primary_id == self.primary_id
            and element.control_type == self.control_type
        )


def _format(escaped_primary: str, control_type: ControlType, escaped_path: str) -> str:
    """The one identifier format: ``primary|type|path`` from escaped parts."""
    return f"{escaped_primary}{FIELD_SEPARATOR}{control_type.value}{FIELD_SEPARATOR}{escaped_path}"


def _escape(segment: str) -> str:
    """Escape separator characters occurring inside names."""
    return segment.replace("\\", "\\\\").replace(FIELD_SEPARATOR, "\\|").replace(
        PATH_SEPARATOR, "\\/"
    )


def _unescape(segment: str) -> str:
    out = []
    i = 0
    while i < len(segment):
        ch = segment[i]
        if ch == "\\" and i + 1 < len(segment):
            out.append(segment[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_escaped(text: str, separator: str) -> list:
    """Split on ``separator`` while honouring backslash escapes."""
    parts = []
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            current.append(ch)
            current.append(text[i + 1])
            i += 2
            continue
        if ch == separator:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def synthesize_identifier(element: UIElement) -> ControlIdentifier:
    """Build the composite identifier for ``element`` from its current position."""
    ancestors = tuple(a.primary_id for a in reversed(element.ancestors()))
    return ControlIdentifier(
        primary_id=element.primary_id,
        control_type=element.control_type,
        ancestor_path=ancestors,
    )


def identifier_string(element: UIElement) -> str:
    """Convenience wrapper returning ``str(synthesize_identifier(element))``."""
    return str(synthesize_identifier(element))


def visible_identifiers(roots: Iterable[UIElement],
                        memo: Optional[SnapshotMemo] = None) -> List[Tuple[str, UIElement]]:
    """``(identifier_string(e), e)`` for every visible element under ``roots``.

    Elements come in depth-first pre-order, root by root; a hidden element
    and its whole subtree are skipped.  The walk carries each parent's
    escaped ancestor path down to its children, so every element costs one
    escape and one join however deep it sits.

    With a ``memo``, a visible container whose layout stamp and ancestor
    path are those the memo holds for it contributes its recorded pairs
    without a descent: a change below it or a rename of it would have moved
    its stamp (see :mod:`repro.uia.element`), and a rename or move above it
    moves its path.  Every container walked is recorded, and the stamps are
    sealed afterwards, so a later write cannot carry a stamp recorded here.
    """
    result: List[Tuple[str, UIElement]] = []
    for root in roots:
        path = PATH_SEPARATOR.join(_escape(a.primary_id) for a in reversed(root.ancestors()))
        stack = [(root, path)]
        while stack:
            node, path = stack.pop()
            if node is None:
                # The end of a container's subtree: ``path`` carries what
                # the memo records for it.
                container, stamp, container_path, start = path
                memo[container] = (stamp, container_path, result[start:])
                continue
            if not node.visible:
                continue
            children = node.children
            if children and memo is not None:
                stamp = node.layout_stamp
                recorded = memo.get(node)
                if recorded is not None and recorded[0] == stamp and recorded[1] == path:
                    result.extend(recorded[2])
                    continue
                stack.append((None, (node, stamp, path, len(result))))
            escaped = _escape(node.primary_id)
            result.append((_format(escaped, node.control_type, path), node))
            if children:
                # Primary ids are never empty, so an empty path has no segments.
                child_path = f"{path}{PATH_SEPARATOR}{escaped}" if path else escaped
                stack.extend([(child, child_path) for child in reversed(children)])
    if memo is not None:
        seal_stamps()
    return result


def parse_identifier(text: str) -> ControlIdentifier:
    """Parse a composite identifier string back into a :class:`ControlIdentifier`.

    Raises
    ------
    ValueError
        If the string does not have exactly three ``|``-separated fields or
        the control type is unknown.
    """
    fields = _split_escaped(text, FIELD_SEPARATOR)
    if len(fields) != 3:
        raise ValueError(
            f"control identifier must have 3 '|'-separated fields, got {len(fields)}: {text!r}"
        )
    primary_raw, type_raw, path_raw = fields
    try:
        control_type = ControlType(type_raw)
    except ValueError as exc:
        raise ValueError(f"unknown control type {type_raw!r} in identifier {text!r}") from exc
    if path_raw:
        ancestors = tuple(_unescape(seg) for seg in _split_escaped(path_raw, PATH_SEPARATOR))
    else:
        ancestors = ()
    return ControlIdentifier(
        primary_id=_unescape(primary_raw),
        control_type=control_type,
        ancestor_path=ancestors,
    )


def identifiers_equal(a: str, b: str) -> bool:
    """Structural equality of two identifier strings (ignores escaping noise)."""
    return parse_identifier(a) == parse_identifier(b)


def find_by_identifier(root: UIElement, identifier: ControlIdentifier) -> Optional[UIElement]:
    """Locate an element under ``root`` by exact identifier match.

    The search requires primary id and control type to match and the ancestor
    path to match as a suffix (the stored path may have been captured from a
    different root).  Returns the first match in pre-order, or None.
    """
    for node in root.iter_subtree():
        if not identifier.matches_element(node):
            continue
        node_path = tuple(a.primary_id for a in reversed(node.ancestors()))
        if _is_suffix(identifier.ancestor_path, node_path) or _is_suffix(
            node_path, identifier.ancestor_path
        ):
            return node
    return None


def _is_suffix(short: Tuple[str, ...], long: Tuple[str, ...]) -> bool:
    if len(short) > len(long):
        return False
    if not short:
        return True
    return long[-len(short):] == short
