"""CSR propagation kernel vs the dict reference, plus compile caching.

The vectorized Jacobi sweep in :func:`repro.graph.propagation.propagate`
must be *bit-identical* to the dict implementation it replaced
(:func:`tests.propagation_oracle.propagate_dict`) — same sorted-neighbour summation order, same
damping factor associativity — so these tests pin exact equality on
random multipartite graphs (including isolated nodes and zero-seed
worlds), identical round counts and convergence flags, and identical
``top()`` rankings.  Alongside: the ``top()`` heap-selection tie-break
regression, the ``CompiledGraph`` version-stamp lifecycle, and the
incremental compile: splicing forward from the previous compile must
give a cold compile's arrays exactly, and a ``previous`` that is not
the graph's last compile must never be spliced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.builder import EntityGraph
from repro.graph.entities import EntityId
from repro.graph.propagation import (
    CompiledGraph,
    PropagationConfig,
    PropagationResult,
    compile_graph,
    propagate,
)
from tests.propagation_oracle import propagate_dict

_KINDS = ("s", "fp", "ip", "ref")


def _node(kind_index: int, index: int) -> EntityId:
    return EntityId(_KINDS[kind_index % len(_KINDS)], f"{index:03d}")


_EDGES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=11),
        st.floats(min_value=0.05, max_value=1.0),
    ).filter(lambda e: (e[0], e[1]) != (e[2], e[3])),
    max_size=30,
)

_SEEDS = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=13),
    ),
    st.floats(min_value=0.0, max_value=1.5),
    max_size=16,
)

_ISOLATED = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=12, max_value=15),
    ),
    max_size=4,
)


def _build(edges, isolated=()) -> EntityGraph:
    graph = EntityGraph()
    for ka, a, kb, b, weight in edges:
        graph.add_edge(_node(ka, a), _node(kb, b), weight)
    for kind, index in isolated:
        graph.add_node(_node(kind, index))
    return graph


class TestCsrMatchesDictReference:
    @settings(max_examples=120, deadline=None)
    @given(edges=_EDGES, seeds=_SEEDS, isolated=_ISOLATED)
    def test_bit_identical_scores_rounds_and_ranking(
        self, edges, seeds, isolated
    ):
        """CSR and dict sweeps agree exactly on random multipartite
        graphs with isolated nodes and off-graph seeds."""
        graph = _build(edges, isolated)
        seed_map = {
            _node(kind, index): value
            for (kind, index), value in seeds.items()
        }
        csr = propagate(graph, seed_map)
        ref = propagate_dict(graph, seed_map)
        assert csr.rounds == ref.rounds
        assert csr.converged == ref.converged
        assert set(csr.scores) == set(ref.scores)
        for node, score in ref.scores.items():
            assert csr.scores[node] == score, node
        assert csr.top(10) == ref.top(10)

    @settings(max_examples=40, deadline=None)
    @given(edges=_EDGES, isolated=_ISOLATED)
    def test_zero_seed_graph(self, edges, isolated):
        """No seeds → all-zero scores, one round, both paths."""
        graph = _build(edges, isolated)
        csr = propagate(graph, {})
        ref = propagate_dict(graph, {})
        assert csr.scores == ref.scores
        assert all(score == 0.0 for score in csr.scores.values())
        assert csr.rounds == ref.rounds
        assert csr.converged and ref.converged

    def test_isolated_and_offgraph_seeds_pass_through(self):
        graph = EntityGraph()
        graph.add_node(_node(0, 0))
        offgraph = _node(1, 9)
        seeds = {_node(0, 0): 0.4, offgraph: 1.7}
        for result in (
            propagate(graph, seeds), propagate_dict(graph, seeds)
        ):
            assert result.scores[_node(0, 0)] == 0.4
            # Off-graph seeds are clipped to [0, 1] and passed through.
            assert result.scores[offgraph] == 1.0


class TestTopSelection:
    def test_tie_break_is_lexicographic_on_node_id(self):
        """Equal scores rank by node id — the order a full sort on
        ``(-score, node)`` produced before the heap-selection switch."""
        scores = {
            _node(0, 3): 0.5,
            _node(0, 1): 0.5,
            _node(1, 2): 0.9,
            _node(0, 2): 0.5,
            _node(2, 0): 0.1,
        }
        result = PropagationResult(
            scores=scores, rounds=1, converged=True
        )
        expected = sorted(
            scores.items(), key=lambda item: (-item[1], item[0])
        )
        assert result.top(len(scores)) == expected
        # Partial selection agrees with the prefix of the full sort.
        for count in range(len(scores) + 2):
            assert result.top(count) == expected[:count]
        assert result.top(0) == []
        assert result.top(-3) == []


class TestCompiledGraphLifecycle:
    def test_version_bumps_on_structural_change_only(self):
        graph = EntityGraph()
        version = graph.version
        graph.add_node(_node(0, 0))
        assert graph.version > version
        version = graph.version
        graph.add_node(_node(0, 0))          # already present: no bump
        assert graph.version == version
        graph.add_edge(_node(0, 0), _node(1, 0), 0.5)
        assert graph.version > version
        version = graph.version
        graph.add_edge(_node(0, 0), _node(1, 0), 0.3)  # weaker: no-op
        assert graph.version == version
        graph.add_edge(_node(0, 0), _node(1, 0), 0.9)  # raise: bump
        assert graph.version > version

    def test_compile_snapshot_matches_graph(self):
        graph = _build(
            [(0, 0, 1, 1, 0.5), (1, 1, 2, 2, 0.25), (0, 0, 2, 2, 1.0)]
        )
        compiled = compile_graph(graph)
        assert compiled.version == graph.version
        assert compiled.node_count == graph.node_count
        # Directed edge count is twice the undirected one.
        assert compiled.edge_count == 2 * graph.edge_count
        for node in graph.nodes():
            assert sorted(compiled.neighbors_of(node)) == sorted(
                graph.neighbors(node)
            )

    def test_stale_compiled_graph_is_rejected(self):
        graph = _build([(0, 0, 1, 1, 0.5)])
        compiled = compile_graph(graph)
        graph.add_edge(_node(0, 0), _node(2, 2), 0.7)
        with pytest.raises(ValueError, match="stale"):
            propagate(graph, {}, compiled=compiled)

    def test_reused_compiled_graph_gives_identical_result(self):
        graph = _build(
            [(0, i, 1, i % 3, 0.5 + 0.1 * (i % 4)) for i in range(8)]
        )
        seeds = {_node(0, 0): 0.9, _node(1, 1): 0.3}
        compiled = compile_graph(graph)
        fresh = propagate(graph, seeds)
        reused = propagate(graph, seeds, compiled=compiled)
        assert fresh.scores == reused.scores
        assert fresh.rounds == reused.rounds

    def test_compile_emits_obs_counters(self):
        from repro.obs.core import ObsRegistry

        registry = ObsRegistry()
        graph = _build([(0, 0, 1, 1, 0.5), (1, 1, 2, 2, 0.25)])
        compiled = compile_graph(graph, obs=registry)
        assert registry.counter("graph.compile.nodes") == float(
            compiled.node_count
        )
        assert registry.counter("graph.compile.edges") == float(
            compiled.edge_count
        )
        assert registry.timers("graph.compile")


class TestConfigEquivalenceAcrossSweeps:
    @settings(max_examples=30, deadline=None)
    @given(
        edges=_EDGES,
        seeds=_SEEDS,
        damping=st.floats(min_value=0.05, max_value=0.95),
        max_rounds=st.integers(min_value=1, max_value=12),
    )
    def test_non_default_configs_also_match(
        self, edges, seeds, damping, max_rounds
    ):
        """Equality holds under early round caps and other dampings —
        including runs that stop *before* convergence."""
        graph = _build(edges)
        seed_map = {
            _node(kind, index): value
            for (kind, index), value in seeds.items()
        }
        config = PropagationConfig(
            damping=damping, max_rounds=max_rounds
        )
        csr = propagate(graph, seed_map, config=config)
        ref = propagate_dict(graph, seed_map, config=config)
        assert csr.scores == ref.scores
        assert (csr.rounds, csr.converged) == (ref.rounds, ref.converged)


def _compile_arrays(compiled: CompiledGraph):
    """Everything a compile carries, floats as raw bytes (bit-exact)."""
    names = ("indptr", "src", "dst", "weights", "degree", "src_degree")
    arrays = [getattr(compiled, name) for name in names]
    raw = [(array.dtype.str, array.tobytes()) for array in arrays]
    return compiled.nodes, compiled.index, raw, compiled.version


def _resorted(graph, previous=None):
    """Compile ``graph`` and report how many groups were re-sorted."""
    from repro.obs.core import ObsRegistry

    registry = ObsRegistry()
    compiled = compile_graph(graph, obs=registry, previous=previous)
    return compiled, int(registry.counter("graph.compile.resorted"))


#: Graph mutations: ``("edge", ka, a, kb, b, weight)`` adds an edge or
#: raises/keeps an existing one; ``("raise", pick, bump)`` raises the
#: weight of an existing edge; ``("node", k, i)`` adds a node;
#: ``("compile", pick)`` compiles with ``previous`` chosen by ``pick``
#: from the last compile, an older one, a foreign graph's, or none.
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("edge"),
            st.integers(0, 3), st.integers(0, 11),
            st.integers(0, 3), st.integers(0, 11),
            st.floats(min_value=0.05, max_value=1.0),
        ).filter(lambda op: (op[1], op[2]) != (op[3], op[4])),
        st.tuples(
            st.just("raise"),
            st.integers(0, 1_000),
            st.floats(min_value=0.01, max_value=0.5),
        ),
        st.tuples(st.just("node"), st.integers(0, 3), st.integers(0, 15)),
        st.tuples(st.just("compile"), st.integers(0, 9)),
    ),
    max_size=60,
)


class TestIncrementalCompile:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, seeds=_SEEDS)
    def test_incremental_compile_equals_cold_compile(self, ops, seeds):
        """Whatever the mutation history and whichever ``previous`` is
        passed, the compile equals a cold compile array for array, and
        propagating over it still equals the dict reference."""
        graph = EntityGraph()
        # Same mutations, compiled cold only: the reference arrays.
        mirror = EntityGraph()
        foreign = _build([(0, 0, 1, 1, 0.5), (1, 1, 2, 2, 0.25)])
        history = [compile_graph(foreign)]
        last = None
        seed_map = {
            _node(kind, index): value
            for (kind, index), value in seeds.items()
        }
        for op in ops + [("compile", 0)]:
            if op[0] == "edge":
                _, ka, a, kb, b, weight = op
                for target in (graph, mirror):
                    target.add_edge(_node(ka, a), _node(kb, b), weight)
            elif op[0] == "raise":
                edges = graph.edges()
                if edges:
                    a, b, weight = edges[op[1] % len(edges)]
                    for target in (graph, mirror):
                        target.add_edge(a, b, min(1.0, weight + op[2]))
            elif op[0] == "node":
                for target in (graph, mirror):
                    target.add_node(_node(op[1], op[2]))
            else:
                pick = op[1]
                if pick < 6:
                    previous = last          # the normal, spliced case
                elif pick < 9:
                    previous = history[pick % len(history)]
                else:
                    previous = None
                compiled, resorted = _resorted(graph, previous)
                cold = compile_graph(mirror)
                assert _compile_arrays(compiled) == _compile_arrays(cold)
                if previous is not last or last is None:
                    # Not the graph's last compile: nothing spliced.
                    assert resorted == graph.node_count
                history.append(compiled)
                last = compiled
        csr = propagate(graph, seed_map, compiled=last)
        ref = propagate_dict(graph, seed_map)
        assert csr.scores == ref.scores
        assert (csr.rounds, csr.converged) == (ref.rounds, ref.converged)

    def test_only_changed_groups_are_resorted(self):
        graph = _build([(0, i, 1, i % 3, 0.5) for i in range(10)])
        first, resorted = _resorted(graph)
        assert resorted == graph.node_count
        same, resorted = _resorted(graph, first)
        assert resorted == 0
        assert _compile_arrays(same) == _compile_arrays(first)
        # A new edge touches its two endpoints; a new node appends.
        graph.add_edge(_node(0, 0), _node(2, 0), 0.7)
        grown, resorted = _resorted(graph, same)
        assert resorted == 2
        assert grown.nodes[:first.node_count] == first.nodes
        # A weight raise touches both endpoints; a no-op touches none.
        graph.add_edge(_node(0, 1), _node(1, 1), 0.9)
        graph.add_edge(_node(0, 2), _node(1, 2), 0.1)
        _, resorted = _resorted(graph, grown)
        assert resorted == 2

    def test_foreign_or_older_previous_compiles_cold(self):
        graph = _build([(0, i, 1, i % 3, 0.5) for i in range(6)])
        other = _build([(0, i, 1, i % 3, 0.5) for i in range(6)])
        older = compile_graph(graph)
        latest = compile_graph(graph, previous=older)
        graph.add_edge(_node(0, 0), _node(2, 0), 0.7)
        # Same structure, but another graph's compile: not spliced.
        _, resorted = _resorted(graph, compile_graph(other))
        assert resorted == graph.node_count
        # The compile above superseded ``latest``, so it is stale too.
        _, resorted = _resorted(graph, latest)
        assert resorted == graph.node_count
        _, resorted = _resorted(graph, older)
        assert resorted == graph.node_count
