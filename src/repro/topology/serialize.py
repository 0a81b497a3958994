"""Context-efficient textual descriptions of controls and navigation (paper §3.3, §4.2).

The forest is serialised into compact structured text the LLM reads in its
prompt::

    name(type)(description)_id[children]

Parentheses mark optional fields, square brackets encode hierarchical
nesting; ``id`` is the forest's consecutive integer id.  Descriptions are
selectively attached:

* always for controls with *key* types (Menu, TabItem, ComboBox, Group,
  Button, ...) when available;
* when several controls share a name and the group includes at least one key
  type, descriptions are applied to all of them;
* non-leaf (navigational) nodes get full descriptions by default — they are
  few but pivotal;
* descriptions are truncated to a configurable length.

:class:`SerializationConfig` is frozen, so a config is a value: the core
topology memoizes its text per config (see :mod:`repro.topology.core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional

from repro.topology.forest import ForestNode, NavigationForest
from repro.uia.control_types import KEY_CONTROL_TYPES


@dataclass(frozen=True)
class SerializationConfig:
    """Controls what gets included in the textual topology."""

    #: Maximum characters of a description before truncation.
    max_description_chars: int = 60
    #: Include descriptions on navigational (non-leaf) nodes when available.
    describe_non_leaves: bool = True
    #: Include descriptions on key-type controls when available.
    describe_key_types: bool = True
    #: Include the control type for every node.
    include_types: bool = True


def _wants_description(node: ForestNode, shared_names: AbstractSet[str],
                       config: SerializationConfig) -> bool:
    if not node.description:
        return False
    if config.describe_non_leaves and not node.is_leaf:
        return True
    if config.describe_key_types and node.control_type in KEY_CONTROL_TYPES:
        return True
    return node.name in shared_names


def _escape(text: str) -> str:
    """Escape the structural characters of the output schema."""
    return (text.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")
            .replace("[", "\\[").replace("]", "\\]").replace(",", "\\,"))


def serialize_node(node: ForestNode, config: SerializationConfig = SerializationConfig(),
                   shared_names: Optional[AbstractSet[str]] = None,
                   visible_ids: Optional[AbstractSet[int]] = None,
                   max_depth: Optional[int] = None) -> str:
    """Serialize one node (and its visible descendants) to schema text.

    ``visible_ids`` restricts the output to a subset of node ids (used by the
    core-topology extraction); ``max_depth`` limits recursion depth relative
    to this node.
    """
    if shared_names is None:
        shared_names = set()
    parts: List[str] = [_escape(node.name or "[Unnamed]")]
    if config.include_types:
        parts.append(f"({node.control_type.value})")
    if _wants_description(node, shared_names, config):
        description = node.description[: config.max_description_chars]
        parts.append(f"({_escape(description)})")
    parts.append(f"_{node.node_id}")
    if node.is_reference and node.ref_subtree_id is not None:
        parts.append(f"{{ref:S{node.ref_subtree_id}}}")

    children = node.children
    if visible_ids is not None:
        children = [c for c in children if c.node_id in visible_ids]
    if max_depth is not None and max_depth <= 0:
        children = []
    if children:
        child_depth = None if max_depth is None else max_depth - 1
        inner = ",".join(
            serialize_node(child, config, shared_names, visible_ids, child_depth)
            for child in children
        )
        parts.append(f"[{inner}]")
    hidden = len(node.children) - len(children)
    if hidden > 0:
        parts.append(f"{{+{hidden} more via further_query}}")
    return "".join(parts)


def serialize_forest(forest: NavigationForest,
                     config: SerializationConfig = SerializationConfig(),
                     visible_ids: Optional[AbstractSet[int]] = None,
                     max_depth: Optional[int] = None) -> str:
    """Serialize the whole forest: the main tree followed by shared subtrees.

    The shared-subtree entry map is rendered explicitly so the LLM knows
    which reference ids select which subtree (paper §3.3).
    """
    if forest.main_root is None:
        return ""
    shared_names = forest.shared_key_names()
    sections: List[str] = []
    sections.append("## Main tree")
    sections.append(serialize_node(forest.main_root, config, shared_names,
                                   visible_ids, max_depth))
    if forest.shared_subtrees:
        sections.append("## Shared subtrees")
        for subtree_id in sorted(forest.shared_subtrees):
            root = forest.shared_subtrees[subtree_id]
            sections.append(f"S{subtree_id}: " + serialize_node(
                root, config, shared_names, visible_ids, max_depth))
        sections.append("## Shared subtree entry map (reference id -> subtree)")
        entries = [f"{ref_id}->S{subtree_id}"
                   for ref_id, subtree_id in sorted(forest.entry_map.items())]
        sections.append(", ".join(entries))
    return "\n".join(sections)


def leaf_catalog(forest: NavigationForest) -> Dict[int, str]:
    """A flat id -> 'path-qualified name' map of all functional controls.

    This is the *strawman* flattened representation the paper discusses (and
    rejects as context-inefficient); it is kept for the token-overhead
    ablation bench and for debugging.
    """
    catalog: Dict[int, str] = {}
    for leaf in forest.leaf_nodes():
        path = " > ".join(n.name for n in leaf.path_from_root() if n.name)
        catalog[leaf.node_id] = path
    return catalog
