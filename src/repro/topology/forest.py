"""The path-unambiguous navigation forest (paper §3.2).

A :class:`NavigationForest` contains

* a **main tree** rooted at the virtual root,
* a set of **shared subtrees**, each rooted at an externalized merge node,
* an **entry map** connecting reference nodes in the main tree (or in other
  subtrees) to the shared subtree they stand for.

Every node carries a small consecutive integer id — the id the LLM uses in
``visit`` commands — plus the underlying composite control identifier the
executor resolves against the live UI.  For any functional control the
forest yields a *unique* root-to-control path; controls inside shared
subtrees additionally need the reference node(s) that select which entry
path is meant (``entry_ref_id`` in the visit command).

A forest is immutable once built: :func:`build_forest` is its only writer.
Two query caches rely on that and are never invalidated.  The name index
behind :meth:`NavigationForest.find_by_name` and the shared key names
behind :meth:`NavigationForest.shared_key_names` are each built on first use
by one walk of the forest, and live on the forest instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.ripping.ung import NavigationGraph, VIRTUAL_ROOT_ID
from repro.topology.decycle import DecycleResult, decycle
from repro.topology.externalize import (
    ExternalizationConfig,
    ExternalizationResult,
    plan_externalization,
)
from repro.uia.control_types import KEY_CONTROL_TYPES, ControlType


@dataclass
class ForestNode:
    """A node of the navigation forest."""

    node_id: int
    control_id: str
    name: str
    control_type: ControlType
    description: str = ""
    is_reference: bool = False
    ref_subtree_id: Optional[int] = None
    subtree_id: Optional[int] = None          # None -> main tree
    parent: Optional["ForestNode"] = None
    children: List["ForestNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Functional (non-navigational) nodes are the leaves of the forest."""
        return not self.children and not self.is_reference

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def add_child(self, child: "ForestNode") -> "ForestNode":
        child.parent = self
        self.children.append(child)
        return child

    def iter_subtree(self) -> Iterator["ForestNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def ancestors(self) -> List["ForestNode"]:
        chain = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def depth(self) -> int:
        return len(self.ancestors())

    def path_from_root(self) -> List["ForestNode"]:
        """Nodes from the tree/subtree root down to (and including) this node."""
        return list(reversed([self] + self.ancestors()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "ref" if self.is_reference else self.control_type.value
        return f"ForestNode(id={self.node_id}, name={self.name!r}, kind={kind})"


class ForestBuildError(RuntimeError):
    """Raised when the forest cannot be built (e.g. node ceiling exceeded)."""


class NavigationForest:
    """Main tree + shared subtrees + entry map, with integer node ids."""

    def __init__(self, app_name: str = "") -> None:
        self.app_name = app_name
        self.main_root: Optional[ForestNode] = None
        self.shared_subtrees: Dict[int, ForestNode] = {}
        self.nodes_by_id: Dict[int, ForestNode] = {}
        #: reference-node id -> shared subtree id
        self.entry_map: Dict[int, int] = {}
        #: externalized control id -> shared subtree id
        self.subtree_id_by_control: Dict[str, int] = {}
        #: Query caches, built on first use (see the module docstring):
        #: lower-cased name -> nodes, and (lower-cased name, node) pairs,
        #: both in :meth:`iter_all_nodes` order.
        self._nodes_by_name: Optional[Dict[str, List[ForestNode]]] = None
        self._named_nodes: List[Tuple[str, ForestNode]] = []
        self._shared_key_names: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> ForestNode:
        try:
            return self.nodes_by_id[node_id]
        except KeyError:
            raise KeyError(f"no forest node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self.nodes_by_id

    def node_count(self) -> int:
        return len(self.nodes_by_id)

    def iter_all_nodes(self) -> Iterator[ForestNode]:
        if self.main_root is not None:
            yield from self.main_root.iter_subtree()
        for root in self.shared_subtrees.values():
            yield from root.iter_subtree()

    def leaf_nodes(self) -> List[ForestNode]:
        return [n for n in self.iter_all_nodes() if n.is_leaf]

    def reference_nodes(self) -> List[ForestNode]:
        return [n for n in self.iter_all_nodes() if n.is_reference]

    def find_by_name(self, name: str, exact: bool = True,
                     leaves_only: bool = False) -> List[ForestNode]:
        """Nodes whose name equals (or, unless ``exact``, contains) ``name``.

        Matching ignores case; matches come in :meth:`iter_all_nodes` order.
        """
        if self._nodes_by_name is None:
            self._index_names()
        wanted = name.lower()
        if exact:
            matches = self._nodes_by_name.get(wanted, ())
        else:
            matches = [node for candidate, node in self._named_nodes if wanted in candidate]
        return [node for node in matches if node.is_leaf or not leaves_only]

    def _index_names(self) -> None:
        by_name: Dict[str, List[ForestNode]] = {}
        named: List[Tuple[str, ForestNode]] = []
        for node in self.iter_all_nodes():
            candidate = node.name.lower()
            by_name.setdefault(candidate, []).append(node)
            named.append((candidate, node))
        # Published whole, pairs first: a racing first caller rebuilds the
        # same index instead of reading a half-built one.
        self._named_nodes = named
        self._nodes_by_name = by_name

    def shared_key_names(self) -> FrozenSet[str]:
        """Names carried by several nodes, at least one of a key control type.

        The serializer describes every node of such a group (paper §4.2).
        """
        if self._shared_key_names is None:
            nodes = list(self.iter_all_nodes())
            counts = Counter(n.name for n in nodes if n.name)
            self._shared_key_names = frozenset(
                n.name for n in nodes
                if counts[n.name] > 1 and n.control_type in KEY_CONTROL_TYPES)
        return self._shared_key_names

    def references_to_subtree(self, subtree_id: int) -> List[ForestNode]:
        return [self.nodes_by_id[ref_id] for ref_id, sid in self.entry_map.items()
                if sid == subtree_id]

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------
    def node_path(self, node_id: int,
                  entry_ref_ids: Optional[List[int]] = None) -> List[ForestNode]:
        """The sequence of forest nodes to traverse, root to target.

        Reference nodes and the virtual root are excluded: what remains is
        exactly the sequence of real controls a navigator clicks.  For nodes
        inside shared subtrees the path is stitched through the selected
        reference node's position in its own tree.
        """
        node = self.node(node_id)
        entry_refs = list(entry_ref_ids or [])
        segments: List[List[ForestNode]] = []
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise ForestBuildError("reference chain too deep while resolving path")
            segment = [n for n in node.path_from_root()
                       if n.control_id and n.control_id != VIRTUAL_ROOT_ID and not n.is_reference]
            segments.append(segment)
            if node.subtree_id is None:
                break
            node = self._select_reference(node.subtree_id, entry_refs)
        segments.reverse()
        return [n for segment in segments for n in segment]

    def control_path(self, node_id: int,
                     entry_ref_ids: Optional[List[int]] = None) -> List[str]:
        """The unique sequence of control identifiers to click, root to target.

        For nodes in the main tree the path follows tree parents.  For nodes
        in a shared subtree, ``entry_ref_ids`` selects the reference node(s)
        used to enter the subtree (one per level of nesting, outermost
        first); if omitted and exactly one reference exists, it is used
        implicitly.

        The virtual root is excluded; reference nodes contribute nothing
        themselves (the subtree root they point at is the control that gets
        clicked).
        """
        return [n.control_id for n in self.node_path(node_id, entry_ref_ids)]

    def _select_reference(self, subtree_id: int, entry_refs: List[int]) -> ForestNode:
        candidates = self.references_to_subtree(subtree_id)
        if not candidates:
            raise ForestBuildError(f"shared subtree {subtree_id} has no reference nodes")
        if entry_refs:
            wanted = entry_refs.pop()
            for candidate in candidates:
                if candidate.node_id == wanted:
                    return candidate
            # Fall through: an unknown ref id falls back to the first
            # reference (structured error feedback happens at the DMI layer).
        return candidates[0]

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        main_size = sum(1 for _ in self.main_root.iter_subtree()) if self.main_root else 0
        subtree_sizes = {sid: sum(1 for _ in root.iter_subtree())
                         for sid, root in self.shared_subtrees.items()}
        depths = [n.depth() for n in self.iter_all_nodes()]
        return {
            "app": self.app_name,
            "total_nodes": self.node_count(),
            "main_tree_nodes": main_size,
            "shared_subtrees": len(self.shared_subtrees),
            "shared_subtree_nodes": sum(subtree_sizes.values()),
            "reference_nodes": len(self.entry_map),
            "leaves": len(self.leaf_nodes()),
            "max_depth": max(depths) if depths else 0,
        }


def build_forest(ung: NavigationGraph,
                 externalization: Optional[ExternalizationConfig] = None,
                 dag: Optional[DecycleResult] = None,
                 plan: Optional[ExternalizationResult] = None) -> NavigationForest:
    """Build the navigation forest from a UNG.

    ``dag`` and ``plan`` may be supplied to reuse previously computed stages
    (the ablation benches sweep externalization thresholds over one DAG).
    """
    config = externalization or ExternalizationConfig()
    dag = dag if dag is not None else decycle(ung)
    plan = plan if plan is not None else plan_externalization(dag, config)

    forest = NavigationForest(app_name=ung.app_name)
    counter = _IdCounter()
    budget = _NodeBudget(config.max_total_nodes)

    # Shared subtrees are built first so reference nodes can point at them.
    subtree_ids: Dict[str, int] = {}
    for index, control_id in enumerate(sorted(plan.externalized), start=1):
        subtree_ids[control_id] = index
    forest.subtree_id_by_control = dict(subtree_ids)

    pending_refs: List[Tuple[ForestNode, str]] = []

    def expand(control_id: str, subtree_id: Optional[int]) -> ForestNode:
        budget.spend()
        meta = ung.nodes[control_id]
        node = ForestNode(
            node_id=counter.next(),
            control_id=control_id,
            name=meta.name,
            control_type=meta.control_type,
            description=meta.description,
            subtree_id=subtree_id,
        )
        forest.nodes_by_id[node.node_id] = node
        for child_id in dag.successors.get(control_id, []):
            if child_id in plan.externalized:
                budget.spend()
                ref = ForestNode(
                    node_id=counter.next(),
                    control_id="",
                    name=f"-> {ung.nodes[child_id].name}",
                    control_type=ung.nodes[child_id].control_type,
                    description=f"reference to shared subtree of {ung.nodes[child_id].name!r}",
                    is_reference=True,
                    subtree_id=subtree_id,
                )
                forest.nodes_by_id[ref.node_id] = ref
                node.add_child(ref)
                pending_refs.append((ref, child_id))
            else:
                node.add_child(expand(child_id, subtree_id))
        return node

    forest.main_root = expand(ung.root_id, None)
    for control_id, subtree_id in subtree_ids.items():
        forest.shared_subtrees[subtree_id] = expand(control_id, subtree_id)

    for ref, control_id in pending_refs:
        subtree_id = subtree_ids[control_id]
        ref.ref_subtree_id = subtree_id
        forest.entry_map[ref.node_id] = subtree_id

    return forest


class _IdCounter:
    """Consecutive integer ids (1-based; 0 is reserved for 'no id')."""

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        self._next += 1
        return self._next


class _NodeBudget:
    def __init__(self, ceiling: int) -> None:
        self.ceiling = ceiling
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.ceiling:
            raise ForestBuildError(
                f"forest expansion exceeded the configured ceiling of {self.ceiling} nodes"
            )
