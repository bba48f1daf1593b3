"""The dict-of-dicts entity graph and the dense union-find, kept as
test oracles.

:class:`DictEntityGraph` is the adjacency-dict form the columnar
:class:`repro.graph.builder.EntityGraph` replaced: one neighbour dict
per node, first/last-seen dicts, components by graph search.  It stays
here, outside the package, as the executable specification the
property tests (``tests/test_propagation_csr.py``) and the analysis
benchmark compare the columnar graph and its derived CSR view against.
A :class:`~repro.graph.builder.GraphBuilder` whose ``graph`` is swapped
for one of these builds the oracle from the same records.

:func:`cold_csr` is the CSR layout computed straight from the dicts —
nodes in insertion order, each node's neighbours sorted by id — which
every derivation of :func:`repro.graph.propagation.compile_graph` must
equal array for array.

:class:`UnionFind` is the dense disjoint-set (path compression, union
by size); ``tests/test_graph_unionfind.py`` checks
:func:`repro.graph.unionfind.key_groups` against its ``groups()``.
"""

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.entities import EntityId


class DictEntityGraph:
    """Weighted undirected multipartite graph with node timestamps."""

    def __init__(self) -> None:
        self._adjacency: Dict[EntityId, Dict[EntityId, float]] = {}
        self._first_seen: Dict[EntityId, float] = {}
        self._last_seen: Dict[EntityId, float] = {}

    @classmethod
    def copy_of(cls, graph) -> "DictEntityGraph":
        """The oracle form of any graph: same node insertion order,
        edges and spans."""
        oracle = cls()
        for node in graph.nodes():
            oracle.add_node(node)
        for a, b, weight in graph.edges():
            oracle.add_edge(a, b, weight)
        for node, first, last in graph.snapshot(include_spans=True)["spans"]:
            oracle.touch(node, first)
            oracle.touch(node, last)
        return oracle

    # -- construction --------------------------------------------------------

    def add_node(self, node: EntityId, time: Optional[float] = None) -> None:
        self._adjacency.setdefault(node, {})
        if time is not None:
            self.touch(node, time)

    def touch(self, node: EntityId, time: float) -> None:
        self._adjacency.setdefault(node, {})
        first = self._first_seen.get(node)
        if first is None or time < first:
            self._first_seen[node] = time
        last = self._last_seen.get(node)
        if last is None or time > last:
            self._last_seen[node] = time

    def add_edge(
        self,
        a: EntityId,
        b: EntityId,
        weight: float,
        time: Optional[float] = None,
    ) -> None:
        if a == b:
            raise ValueError(f"self-edge not allowed: {a}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"edge weight must be in (0, 1]: {weight}")
        self.add_node(a, time)
        self.add_node(b, time)
        if weight > self._adjacency[a].get(b, 0.0):
            self._adjacency[a][b] = weight
            self._adjacency[b][a] = weight

    # -- reads ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adjacency.values())) // 2

    def __contains__(self, node: EntityId) -> bool:
        return node in self._adjacency

    def nodes(self, kind: Optional[str] = None) -> List[EntityId]:
        return [
            node for node in self._adjacency
            if kind is None or node.kind == kind
        ]

    def neighbors(self, node: EntityId) -> Dict[EntityId, float]:
        return dict(self._adjacency.get(node, {}))

    def first_seen(self, node: EntityId) -> Optional[float]:
        return self._first_seen.get(node)

    def last_seen(self, node: EntityId) -> Optional[float]:
        return self._last_seen.get(node)

    def components(
        self, nodes: Optional[Iterable[EntityId]] = None
    ) -> List[List[EntityId]]:
        """Components of the subgraph induced by ``nodes`` (default:
        every node), by depth-first search, in sorted order."""
        allowed = {
            node for node in (self._adjacency if nodes is None else nodes)
            if node in self._adjacency
        }
        seen = set()
        groups = []
        for start in sorted(allowed):
            if start in seen:
                continue
            seen.add(start)
            group, stack = [], [start]
            while stack:
                node = stack.pop()
                group.append(node)
                for neighbor in self._adjacency[node]:
                    if neighbor in allowed and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            groups.append(sorted(group))
        return sorted(groups, key=lambda group: group[0])

    def edges(self) -> List[Tuple[EntityId, EntityId, float]]:
        return sorted(
            (a, b, weight)
            for a, neighbors in self._adjacency.items()
            for b, weight in neighbors.items()
            if a < b
        )

    def snapshot(self, include_spans: bool = False) -> Dict[str, object]:
        view: Dict[str, object] = {
            "nodes": sorted(self._adjacency),
            "edges": self.edges(),
        }
        if include_spans:
            view["spans"] = [
                (node, self._first_seen[node], self._last_seen[node])
                for node in sorted(self._first_seen)
            ]
        return view


def neighbor_weights(graph, node: EntityId) -> Dict[EntityId, float]:
    """``node``'s neighbours and edge weights, read from ``graph.edges()``."""
    return {
        b if a == node else a: weight
        for a, b, weight in graph.edges()
        if node in (a, b)
    }


def cold_csr(graph: DictEntityGraph) -> Dict[str, object]:
    """The CSR arrays of ``graph``, computed from its neighbour dicts."""
    nodes = graph.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    indptr, src, dst, weights, degree = [0], [], [], [], []
    for i, node in enumerate(nodes):
        total = 0.0
        for neighbor, weight in sorted(graph.neighbors(node).items()):
            src.append(index[neighbor])
            dst.append(i)
            weights.append(weight)
            total += weight
        indptr.append(len(src))
        degree.append(total)
    return {
        "nodes": nodes,
        "indptr": np.array(indptr, dtype=np.int64),
        "src": np.array(src, dtype=np.int64),
        "dst": np.array(dst, dtype=np.int64),
        "weights": np.array(weights, dtype=np.float64),
        "degree": np.array(degree, dtype=np.float64),
    }


class UnionFind:
    """Disjoint-set union with path compression and union by size."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0: {size}")
        self._parent = list(range(size))
        self._size = [1] * size

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def groups(self) -> List[List[int]]:
        """Members of every disjoint set, smallest index first."""
        by_root: Dict[int, List[int]] = defaultdict(list)
        for item in range(len(self._parent)):
            by_root[self.find(item)].append(item)
        return sorted(by_root.values(), key=lambda grp: grp[0])
