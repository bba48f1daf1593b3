"""Property and unit tests for the dense disjoint-set structure.

:class:`repro.graph.unionfind.UnionFind` backs the rotation linker, so
its invariants are pinned property-style: the partition it reports
must be exactly the transitive closure of the unions applied,
independent of order and repetition, and path compression must never
change it.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.unionfind import UnionFind


def _partition(uf: UnionFind) -> set:
    return {frozenset(group) for group in uf.groups()}


def _pairs(size: int):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=size - 1),
            st.integers(min_value=0, max_value=size - 1),
        ),
        max_size=30,
    )


class TestUnionFindProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=20).flatmap(
        lambda size: st.tuples(st.just(size), _pairs(size))
    ))
    def test_groups_partition_every_element(self, case):
        """groups() is a partition: every index appears exactly once."""
        size, pairs = case
        uf = UnionFind(size)
        for a, b in pairs:
            uf.union(a, b)
        seen = [index for group in uf.groups() for index in group]
        assert sorted(seen) == list(range(size))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=20).flatmap(
        lambda size: st.tuples(st.just(size), _pairs(size))
    ))
    def test_union_is_order_independent_and_idempotent(self, case):
        """Applying pairs reversed, swapped, or twice yields the same
        partition — union builds a set, not a sequence."""
        size, pairs = case
        forward = UnionFind(size)
        for a, b in pairs:
            forward.union(a, b)
        scrambled = UnionFind(size)
        for a, b in reversed(pairs):
            scrambled.union(b, a)
            scrambled.union(b, a)
        assert _partition(forward) == _partition(scrambled)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=20).flatmap(
        lambda size: st.tuples(st.just(size), _pairs(size))
    ))
    def test_path_compression_preserves_partition(self, case):
        """find() may rewire parent pointers but never the partition,
        and two elements share a root iff they share a group."""
        size, pairs = case
        uf = UnionFind(size)
        for a, b in pairs:
            uf.union(a, b)
        before = _partition(uf)
        roots = [uf.find(index) for index in range(size)]
        assert _partition(uf) == before
        group_of = {}
        for group in uf.groups():
            for index in group:
                group_of[index] = group[0]
        for index in range(size):
            assert group_of[index] == group_of[roots[index]]

    def test_groups_ordered_by_smallest_member(self):
        uf = UnionFind(6)
        uf.union(5, 3)
        uf.union(0, 4)
        groups = uf.groups()
        assert groups == [[0, 4], [1], [2], [3, 5]]
        assert len(uf) == 6
