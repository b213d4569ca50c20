"""Symbolic analysis: frontal structures and the level schedule.

For each elimination node the front's index set is ``S + B``:

* ``S`` — the node's own vertices (eliminated here);
* ``B`` — the *boundary*: vertices outside the node's subtree adjacent
  (in the original graph) to any subtree vertex.  By the separator
  property the boundary lies entirely in ancestor separators, so the
  Schur complement extend-adds cleanly into the parent's front.

The level schedule groups independent fronts (same tree depth, deepest
first) — each level is one variable-size batch for the numeric phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .ordering import EliminationNode, nested_dissection

if TYPE_CHECKING:
    from networkx import Graph

__all__ = ["FrontInfo", "SymbolicFactorization", "analyze"]


@dataclass
class FrontInfo:
    """Structure of one frontal matrix."""

    node: EliminationNode
    sep: list  # eliminated vertices, elimination order
    boundary: list  # remaining vertices, global elimination order
    children: list = field(default_factory=list)  # FrontInfo

    @property
    def rows(self) -> list:
        return self.sep + self.boundary

    @property
    def order(self) -> int:
        return len(self.sep) + len(self.boundary)

    @property
    def k(self) -> int:
        return len(self.sep)


@dataclass
class SymbolicFactorization:
    """Everything the numeric phase needs."""

    graph: Graph
    fronts: list  # all FrontInfo, postorder
    levels: list  # list[list[FrontInfo]], deepest level first
    elim_position: dict  # vertex -> global elimination index

    @property
    def n(self) -> int:
        return len(self.elim_position)

    @property
    def max_front(self) -> int:
        return max(f.order for f in self.fronts)

    def permutation(self) -> np.ndarray:
        """perm[i] = the vertex eliminated i-th."""
        perm = [None] * self.n
        for v, i in self.elim_position.items():
            perm[i] = v
        return np.array(perm, dtype=object)


def analyze(graph: Graph, min_size: int = 8) -> SymbolicFactorization:
    """Order, dissect, and build every front's structure."""
    if graph.number_of_nodes() == 0:
        raise ValueError("graph must have at least one vertex")
    forest = nested_dissection(graph, min_size=min_size)

    # Global elimination order: postorder over the forest (children
    # before parents — interiors before their separators).
    elim_position: dict = {}
    all_nodes: list[EliminationNode] = []
    for tree in forest:
        for node in tree.postorder():
            all_nodes.append(node)
            for v in node.vertices:
                elim_position[v] = len(elim_position)

    # Boundary of each node: neighbors of its subtree, outside it.
    front_of: dict[int, FrontInfo] = {}
    fronts: list[FrontInfo] = []
    for tree in forest:
        for node in tree.postorder():
            subtree = set(node.subtree_vertices)
            boundary = set()
            for v in subtree:
                for u in graph.adj[v]:
                    if u not in subtree:
                        boundary.add(u)
            info = FrontInfo(
                node=node,
                sep=sorted(node.vertices, key=elim_position.get),
                boundary=sorted(boundary, key=elim_position.get),
                children=[front_of[id(c)] for c in node.children],
            )
            front_of[id(node)] = info
            fronts.append(info)

    max_depth = max(f.node.depth for f in fronts)
    levels = [
        [f for f in fronts if f.node.depth == d] for d in range(max_depth, -1, -1)
    ]
    levels = [lv for lv in levels if lv]
    return SymbolicFactorization(
        graph=graph, fronts=fronts, levels=levels, elim_position=elim_position
    )
