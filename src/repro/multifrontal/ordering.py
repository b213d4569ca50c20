"""Nested-dissection ordering: build the elimination forest.

Recursive graph bisection: a separator whose removal splits the graph
balances the two halves; the separator becomes an elimination node
whose children order the halves.  Separators are found with a BFS
level-set heuristic from a pseudo-peripheral vertex — not state of the
art (METIS territory), but a genuine dissection with the property the
numeric phase needs: every path between the halves crosses the
separator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from networkx import Graph

__all__ = ["EliminationNode", "nested_dissection"]


@dataclass
class EliminationNode:
    """One separator of the elimination forest."""

    vertices: list  # eliminated at this node, in elimination order
    depth: int
    children: list = field(default_factory=list)

    def postorder(self):
        for child in self.children:
            yield from child.postorder()
        yield self

    @property
    def subtree_vertices(self) -> list:
        out = []
        for node in self.postorder():
            out.extend(node.vertices)
        return out


def _pseudo_peripheral(graph: Graph, nodes: list):
    """Endpoint of an approximately longest shortest path (two BFS sweeps)."""
    import networkx as nx

    start = nodes[0]
    for _ in range(2):
        lengths = nx.single_source_shortest_path_length(graph.subgraph(nodes), start)
        start = max(lengths, key=lengths.get)
    return start


def _bfs_separator(graph: Graph, nodes: list) -> tuple[list, list, list]:
    """Split ``nodes`` into (left, separator, right) by BFS level sets.

    The middle BFS level (by cumulative vertex count) separates the
    earlier levels from the later ones: every edge joins vertices at
    most one level apart, so removing the level disconnects them.
    """
    import networkx as nx

    sub = graph.subgraph(nodes)
    root = _pseudo_peripheral(graph, nodes)
    levels: dict[int, list] = {}
    for v, d in nx.single_source_shortest_path_length(sub, root).items():
        levels.setdefault(d, []).append(v)
    depths = sorted(levels)
    if len(depths) < 3:
        return [], list(nodes), []  # too shallow to dissect
    # Pick the level whose prefix is closest to half the vertices.
    total = len(nodes)
    best, acc = depths[1], 0
    best_gap = total
    for d in depths[1:-1]:
        acc = sum(len(levels[dd]) for dd in depths if dd < d)
        gap = abs(acc - total // 2)
        if gap < best_gap:
            best, best_gap = d, gap
    left = [v for d in depths if d < best for v in levels[d]]
    sep = sorted(levels[best])
    right = [v for d in depths if d > best for v in levels[d]]
    return left, sep, right


def nested_dissection(
    graph: Graph, min_size: int = 8, _nodes=None, _depth: int = 0
) -> list[EliminationNode]:
    """Dissect ``graph`` into an elimination forest (one tree per
    connected component).

    ``min_size`` stops recursion: components at or below it become leaf
    nodes eliminated wholesale.  networkx is imported here, on the
    first call, so ``import repro`` does not pay for it.
    """
    import networkx as nx

    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if _nodes is None:
        return [
            nested_dissection(graph, min_size, sorted(comp), _depth)[0]
            for comp in nx.connected_components(graph)
        ]

    nodes = list(_nodes)
    if len(nodes) <= min_size:
        return [EliminationNode(vertices=sorted(nodes), depth=_depth)]

    left, sep, right = _bfs_separator(graph, nodes)
    if not left or not right:
        return [EliminationNode(vertices=sorted(nodes), depth=_depth)]

    node = EliminationNode(vertices=sep, depth=_depth)
    for part in (left, right):
        sub = graph.subgraph(part)
        for comp in nx.connected_components(sub):
            node.children.extend(
                nested_dissection(graph, min_size, sorted(comp), _depth + 1)
            )
    return [node]
