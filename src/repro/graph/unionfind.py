"""Disjoint-set unions: a dense union-find and array component labels.

:class:`UnionFind` is the dense integer variant the identity linker in
:mod:`repro.core.detection.rotation` has always used (it lives here so
every graph consumer shares one implementation).  It keeps the classic
invariants: path compression never changes which root represents a
set, union is by size, and ``groups()`` is a deterministic partition
of every index.

:func:`merge_labels` is the vectorised form the entity graph uses: one
label per node index, merged edge array by edge array.  It labels
:meth:`~repro.graph.builder.EntityGraph.components` and keeps the
streaming adapter's component labels current as edges arrive
(:class:`~repro.graph.stream.ComponentCache`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np


def merge_labels(
    labels: np.ndarray, ends: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Merge the components that the edges ``(ends[k], starts[k])`` join.

    ``labels`` gives each node index its component's label: the index
    of one member, no larger than the node's own index, and a fixed
    point (``labels[labels] == labels``).  Each joined pair's larger
    root is hooked under its smaller one, labels are flattened by
    pointer jumping, and that repeats until every edge's ends share a
    root.  Every label points at a smaller-or-equal index, so there are
    no cycles and roots only decrease.  Returns the merged labels
    (``labels`` itself may be written to).
    """
    while True:
        a, b = labels[ends], labels[starts]
        apart = a != b
        if not apart.any():
            return labels
        a, b = a[apart], b[apart]
        labels[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            jumped = labels[labels]
            if (jumped == labels).all():
                break
            labels = jumped


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
