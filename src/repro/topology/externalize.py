"""Cost-based selective externalization (paper §3.2, step 2).

Merge nodes (DAG nodes with several incoming edges) prevent unique paths.
Two textbook fixes both fail at application scale:

* *clone everything* — duplicate the merge node and its descendants under
  every incoming edge: unique paths, but exponential node blow-up;
* *delete in-edges* — unique paths, but loses path-dependent semantics
  (Word's colour cell means different things under Font Color vs Underline
  Color).

The paper's middle ground processes nodes in reverse topological order and,
for each merge node, estimates the *cloning cost* — the extra nodes created
by duplicating its (already-resolved) substructure along every additional
incoming edge.  If that cost exceeds a configurable threshold the node is
*externalized*: it becomes the root of a shared subtree and every incoming
edge is redirected to a lightweight reference node.  Otherwise the node is
cloned.  The result grows linearly with the application size while keeping
most paths direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.topology.decycle import DecycleResult


@dataclass
class ExternalizationConfig:
    """Tuning knobs for the externalization pass."""

    #: A merge node is externalized when cloning it would add more than this
    #: many nodes.  The paper leaves the threshold configurable; 40 keeps the
    #: simulated Office-scale topologies comfortably linear while cloning
    #: small shared structures in place (shorter declared paths).
    clone_cost_threshold: int = 40
    #: Hard ceiling on the number of nodes the expanded forest may contain.
    #: Exceeding it raises, protecting against degenerate configurations
    #: (e.g. threshold = infinity on a highly shared DAG).
    max_total_nodes: int = 2_000_000


@dataclass
class ExternalizationResult:
    """The externalization decision for every merge node plus size accounting."""

    externalized: Set[str] = field(default_factory=set)
    #: Expanded-subtree size per node (reference nodes count as 1).
    expanded_size: Dict[str, int] = field(default_factory=dict)
    #: Cloning cost that was evaluated for each merge node.
    clone_costs: Dict[str, int] = field(default_factory=dict)
    #: Estimated total nodes of the resulting forest (main tree + subtrees).
    estimated_total_nodes: int = 0

def plan_externalization(dag: DecycleResult,
                         config: ExternalizationConfig = ExternalizationConfig()
                         ) -> ExternalizationResult:
    """Decide which merge nodes become shared subtrees.

    Nodes are processed in reverse topological order so that a node's
    expanded size already accounts for externalization decisions made for its
    descendants.
    """
    result = ExternalizationResult()
    in_degree = dag.in_degree()
    order = dag.topological_order()

    for node in reversed(order):
        children = dag.successors.get(node, [])
        size = 1
        for child in children:
            if child in result.externalized:
                size += 1  # replaced by a reference node
            else:
                size += result.expanded_size.get(child, 1)
        result.expanded_size[node] = size

        degree = in_degree.get(node, 0)
        if degree > 1:
            clone_cost = (degree - 1) * size
            result.clone_costs[node] = clone_cost
            if clone_cost > config.clone_cost_threshold:
                result.externalized.add(node)

    # Estimated total: the main tree expanded from the root plus one copy of
    # every externalized subtree.
    total = result.expanded_size.get(dag.root_id, 1)
    for node in result.externalized:
        total += result.expanded_size.get(node, 1)
    result.estimated_total_nodes = total
    if total > config.max_total_nodes:
        raise ValueError(
            f"expanded forest would contain {total} nodes, exceeding the "
            f"configured ceiling of {config.max_total_nodes}; raise the "
            f"externalization threshold or the ceiling"
        )
    return result


def full_clone_size(dag: DecycleResult) -> int:
    """Size of the forest if *every* merge node were cloned (no externalization).

    This is the naive graph-to-tree expansion the paper warns about; the
    Figure 4 ablation bench compares it against the cost-based forest.  The
    computation is the same reverse-topological size propagation with an
    empty externalized set, so it stays polynomial even though the expansion
    it measures can be exponential in size.
    """
    sizes: Dict[str, int] = {}
    for node in reversed(dag.topological_order()):
        sizes[node] = 1 + sum(sizes.get(child, 1) for child in dag.successors.get(node, []))
    return sizes.get(dag.root_id, 1)


def externalized_only_size(dag: DecycleResult) -> int:
    """Size if every merge node were externalized (maximal indirection)."""
    in_degree = dag.in_degree()
    sizes: Dict[str, int] = {}
    externalized = {n for n, d in in_degree.items() if d > 1}
    for node in reversed(dag.topological_order()):
        size = 1
        for child in dag.successors.get(node, []):
            size += 1 if child in externalized else sizes.get(child, 1)
        sizes[node] = size
    total = sizes.get(dag.root_id, 1)
    for node in externalized:
        total += sizes.get(node, 1)
    return total
