"""Disjoint-set unions as array component labels.

:func:`merge_labels` is the one union-find of the package: one label
per node index, merged edge array by edge array.  It labels
:meth:`~repro.graph.builder.EntityGraph.components`, keeps the
streaming adapter's component labels current as edges arrive
(:class:`~repro.graph.stream.ComponentCache`), and backs
:func:`key_groups`, which groups records that share a key — the
identity linker in :mod:`repro.core.detection.rotation` and the
name-set permutation check in :mod:`repro.core.detection.
passenger_details`.  The tests check :func:`key_groups` against the
dense ``UnionFind`` oracle in ``tests/graph_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence

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


def key_groups(key_sets: Sequence[Iterable[Hashable]]) -> List[List[int]]:
    """Group indices whose key sets share a key, transitively.

    Index ``i`` stands for ``key_sets[i]``; two indices land in one
    group when they share any key, directly or through a chain of
    others.  Every index is in exactly one group; groups are ordered by
    their smallest index and list their indices ascending.
    """
    first_with_key: Dict[Hashable, int] = {}
    ends: List[int] = []
    starts: List[int] = []
    for index, keys in enumerate(key_sets):
        for key in keys:
            first = first_with_key.setdefault(key, index)
            if first != index:
                ends.append(first)
                starts.append(index)
    labels = merge_labels(
        np.arange(len(key_sets), dtype=np.int64),
        np.array(ends, dtype=np.int64),
        np.array(starts, dtype=np.int64),
    )
    # Each label is its component's smallest index, so the first index
    # seen under a label opens that label's group.
    groups: Dict[int, List[int]] = {}
    for index, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(index)
    return list(groups.values())
