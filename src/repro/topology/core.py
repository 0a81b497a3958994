"""Core-topology extraction (paper §3.3, "Query on demand").

Most tasks only need a fraction of the full forest.  DMI therefore sends the
LLM a *core* view by default: the forest limited to a configurable depth,
with large enumerations (font lists, colour galleries beyond a sample) and a
manual prune list removed.  Whatever the core view omits remains reachable
through ``further_query``.

A :class:`CoreTopology` is immutable: :func:`extract_core` is its only
constructor, its id sets are frozensets, and the forest it views does not
change once built.  The text and token count every agent round asks for are
therefore computed once per core, on first use: :meth:`CoreTopology.serialize`
memoizes its text per (frozen) :class:`SerializationConfig` value and
:meth:`CoreTopology.token_estimate` memoizes the default text's token count.
Neither memo is filled by :func:`extract_core`, so building or loading a
model does no extra work; two racing first callers store the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.topology.forest import ForestNode, NavigationForest
from repro.topology.serialize import SerializationConfig, serialize_forest
from repro.llm.tokens import estimate_tokens


@dataclass
class CoreTopologyConfig:
    """What the default (core) view of the topology contains."""

    #: Maximum depth of nodes included in the core view (the paper uses ~6
    #: levels by default).
    max_depth: int = 6
    #: A node whose child count exceeds this is treated as a large
    #: enumeration: only the first ``enumeration_sample`` children stay in
    #: the core view.  The default keeps colour galleries (~30 cells) in the
    #: core while pruning font-family lists and similar long enumerations.
    enumeration_threshold: int = 40
    enumeration_sample: int = 4
    #: Manually identified node names excluded from the core view (the paper
    #: notes these pruning rules are currently manual).
    manual_prune_names: Set[str] = field(default_factory=lambda: {
        "Font items", "Font Size items",
    })


@dataclass
class CoreTopology:
    """A core view over a navigation forest."""

    forest: NavigationForest
    config: CoreTopologyConfig
    visible_ids: FrozenSet[int]
    pruned_ids: FrozenSet[int]
    _texts: Dict[SerializationConfig, str] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _tokens: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def contains(self, node_id: int) -> bool:
        return node_id in self.visible_ids

    def serialize(self, serialization: SerializationConfig = SerializationConfig()) -> str:
        text = self._texts.get(serialization)
        if text is None:
            text = serialize_forest(self.forest, serialization, visible_ids=self.visible_ids)
            self._texts[serialization] = text
        return text

    def token_estimate(self) -> int:
        if self._tokens is None:
            self._tokens = estimate_tokens(self.serialize())
        return self._tokens

    def visible_node_count(self) -> int:
        return len(self.visible_ids)

    def pruned_node_count(self) -> int:
        return len(self.pruned_ids)

    def stats(self) -> Dict[str, object]:
        return {
            "app": self.forest.app_name,
            "core_nodes": self.visible_node_count(),
            "pruned_nodes": self.pruned_node_count(),
            "forest_nodes": self.forest.node_count(),
            "core_tokens": self.token_estimate(),
        }


def _is_large_enumeration(node: ForestNode, config: CoreTopologyConfig) -> bool:
    """Heuristic for "large enumeration" nodes (font lists, colour galleries).

    A node is treated as an enumeration when it has many children and those
    children are overwhelmingly homogeneous leaves (same control type, no
    substructure).  Heterogeneous containers — most importantly the virtual
    root, whose children are the whole initial screen — are never pruned
    this way.
    """
    if node.parent is None:
        # Tree roots (the virtual root, shared-subtree roots) always keep
        # their children: the initial screen is not an enumeration.
        return False
    children = node.children
    if len(children) <= config.enumeration_threshold:
        return False
    leaf_children = [c for c in children if c.is_leaf]
    if len(leaf_children) < 0.9 * len(children):
        return False
    type_counts = {}
    for child in leaf_children:
        type_counts[child.control_type] = type_counts.get(child.control_type, 0) + 1
    dominant = max(type_counts.values())
    return dominant >= 0.9 * len(leaf_children)


def extract_core(forest: NavigationForest,
                 config: Optional[CoreTopologyConfig] = None) -> CoreTopology:
    """Compute the default core view of ``forest``."""
    config = config or CoreTopologyConfig()
    visible: Set[int] = set()
    pruned: Set[int] = set()

    def walk(node: ForestNode, depth: int) -> None:
        if node.name in config.manual_prune_names:
            pruned.update(n.node_id for n in node.iter_subtree())
            return
        if depth > config.max_depth:
            pruned.update(n.node_id for n in node.iter_subtree())
            return
        visible.add(node.node_id)
        children = node.children
        if _is_large_enumeration(node, config):
            kept = children[: config.enumeration_sample]
            for dropped in children[config.enumeration_sample:]:
                pruned.update(n.node_id for n in dropped.iter_subtree())
            children = kept
        for child in children:
            walk(child, depth + 1)

    roots: List[ForestNode] = []
    if forest.main_root is not None:
        roots.append(forest.main_root)
    roots.extend(forest.shared_subtrees.values())
    for root in roots:
        walk(root, 0)
    return CoreTopology(forest=forest, config=config, visible_ids=frozenset(visible),
                        pruned_ids=frozenset(pruned))
