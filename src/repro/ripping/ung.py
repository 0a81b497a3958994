"""The UI Navigation Graph (UNG).

``UNG = (V, E)`` where each node corresponds to a UI control exposed by the
accessibility API and each directed edge captures click-induced reachability
(paper §3.2).  Nodes are keyed by the composite control identifier
(:mod:`repro.uia.identifiers`) so that the *same* control reached through
different paths collapses onto a single node — which is precisely how merge
nodes arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.uia.control_types import ControlType
from repro.uia.element import UIElement
from repro.uia.identifiers import identifier_string

#: Identifier of the synthetic single-source root node.
VIRTUAL_ROOT_ID = "[VirtualRoot]|Window|"


@dataclass
class UNGNode:
    """A node of the UI Navigation Graph."""

    node_id: str                      # composite control identifier string
    name: str
    control_type: ControlType
    automation_id: str = ""
    description: str = ""
    #: Contexts (paper §4.1) in which the control was observed, e.g.
    #: {"default", "image_selected"}.
    contexts: Set[str] = field(default_factory=set)
    #: Window title the control was captured under (main window or dialog).
    window: str = ""

class NavigationGraph:
    """A directed graph of controls with click-reachability edges."""

    def __init__(self, app_name: str = "") -> None:
        self.app_name = app_name
        self.nodes: Dict[str, UNGNode] = {}
        self._successors: Dict[str, List[str]] = {}
        self._predecessors: Dict[str, List[str]] = {}
        self.root_id: str = VIRTUAL_ROOT_ID
        self.add_node(UNGNode(node_id=VIRTUAL_ROOT_ID, name="[VirtualRoot]",
                              control_type=ControlType.WINDOW))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: UNGNode) -> UNGNode:
        """Add a node, merging metadata if it already exists."""
        existing = self.nodes.get(node.node_id)
        if existing is not None:
            existing.contexts.update(node.contexts)
            if not existing.description and node.description:
                existing.description = node.description
            return existing
        self.nodes[node.node_id] = node
        self._successors.setdefault(node.node_id, [])
        self._predecessors.setdefault(node.node_id, [])
        return node

    def add_element(self, element: UIElement, context: str = "default",
                    window: str = "") -> UNGNode:
        """Add (or merge) a node built from a live UI element."""
        node = UNGNode(
            node_id=identifier_string(element),
            name=element.name,
            control_type=element.control_type,
            automation_id=element.automation_id,
            description=element.description,
            contexts={context},
            window=window,
        )
        return self.add_node(node)

    def add_edge(self, source_id: str, target_id: str) -> bool:
        """Add a directed edge; returns False if it already existed."""
        if source_id not in self.nodes or target_id not in self.nodes:
            raise KeyError("both endpoints must be added before the edge")
        if target_id in self._successors[source_id]:
            return False
        self._successors[source_id].append(target_id)
        self._predecessors[target_id].append(source_id)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def successors(self, node_id: str) -> List[str]:
        return list(self._successors.get(node_id, []))

    def predecessors(self, node_id: str) -> List[str]:
        return list(self._predecessors.get(node_id, []))

    def out_degree(self, node_id: str) -> int:
        return len(self._successors.get(node_id, []))

    def in_degree(self, node_id: str) -> int:
        return len(self._predecessors.get(node_id, []))

    def edges(self) -> Iterable[Tuple[str, str]]:
        for source, targets in self._successors.items():
            for target in targets:
                yield (source, target)

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(t) for t in self._successors.values())

    def leaf_ids(self) -> List[str]:
        """Nodes with no outgoing edges: the functional controls."""
        return [nid for nid in self.nodes if self.out_degree(nid) == 0]

    def merge_node_ids(self) -> List[str]:
        """Nodes with more than one incoming edge."""
        return [nid for nid in self.nodes if self.in_degree(nid) > 1]

    def reachable_from_root(self) -> Set[str]:
        seen: Set[str] = set()
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._successors.get(nid, []))
        return seen

    def find_nodes_by_name(self, name: str, exact: bool = True) -> List[UNGNode]:
        wanted = name.lower()
        result = []
        for node in self.nodes.values():
            candidate = node.name.lower()
            if (exact and candidate == wanted) or (not exact and wanted in candidate):
                result.append(node)
        return result

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def has_cycle(self) -> bool:
        """Any directed cycle, self-loops and cycles the root cannot reach
        included: an iterative three-colour DFS from every node."""
        done: Set[str] = set()
        for start in self.nodes:
            if start in done:
                continue
            on_path = {start}
            stack = [(start, iter(self._successors[start]))]
            while stack:
                node, targets = stack[-1]
                for target in targets:
                    if target in on_path:
                        return True
                    if target not in done:
                        on_path.add(target)
                        stack.append((target, iter(self._successors[target])))
                        break
                else:
                    stack.pop()
                    on_path.discard(node)
                    done.add(node)
        return False

    def stats(self) -> Dict[str, object]:
        reachable = self.reachable_from_root()
        return {
            "app": self.app_name,
            "nodes": self.node_count(),
            "edges": self.edge_count(),
            "leaves": len(self.leaf_ids()),
            "merge_nodes": len(self.merge_node_ids()),
            "reachable_from_root": len(reachable),
            "has_cycle": self.has_cycle(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"NavigationGraph(app={self.app_name!r}, nodes={self.node_count()}, "
                f"edges={self.edge_count()})")
