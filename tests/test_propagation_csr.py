"""CSR propagation kernel vs the dict reference, plus the derived view.

The vectorized Jacobi sweep in :func:`repro.graph.propagation.propagate`
must be *bit-identical* to the dict implementation it replaced
(:func:`tests.propagation_oracle.propagate_dict`) — same sorted-neighbour summation order, same
damping factor associativity — so these tests pin exact equality on
random multipartite graphs (including isolated nodes and zero-seed
worlds), identical round counts and convergence flags, and identical
``top()`` rankings.  Alongside: the ``top()`` heap-selection tie-break
regression, the ``CompiledGraph`` version-stamp lifecycle, and the
incremental derivation: whatever was derived before, and across a
pickle round trip, the CSR view, snapshot and components of the
columnar graph equal the dict oracle's
(:class:`tests.graph_oracle.DictEntityGraph`) array for array.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.builder import EntityGraph, GraphBuilder
from repro.graph.entities import EntityId
from repro.graph.propagation import (
    CompiledGraph,
    PropagationConfig,
    PropagationResult,
    compile_graph,
    propagate,
)
from tests.graph_oracle import DictEntityGraph, cold_csr, neighbor_weights
from tests.propagation_oracle import propagate_dict
from tests.test_graph_builder import (
    make_booking,
    make_entry,
    make_session,
    make_sms,
)

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
                neighbor_weights(graph, node)
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


def _resorted(graph):
    """Compile ``graph`` and report how many groups were re-sorted."""
    from repro.obs.core import ObsRegistry

    registry = ObsRegistry()
    compiled = compile_graph(graph, obs=registry)
    return compiled, int(registry.counter("graph.compile.resorted"))


def _restored(graph):
    """A copy through pickle, as a snapshot/restore would make."""
    return pickle.loads(pickle.dumps(graph))


def _assert_view_matches_oracle(graph, oracle) -> None:
    """The graph's derived CSR view equals the oracle's cold layout,
    integers and floats compared as raw bytes."""
    compiled = compile_graph(graph)
    want = cold_csr(oracle)
    assert compiled.nodes == want["nodes"]
    for name in ("indptr", "src", "dst", "weights", "degree"):
        got = getattr(compiled, name)
        assert got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes(), name


#: Graph mutations: ``("edge", ka, a, kb, b, weight)`` adds an edge or
#: raises/keeps an existing one; ``("raise", pick, bump)`` raises the
#: weight of an existing edge; ``("node", k, i)`` adds a node;
#: ``("compile",)`` derives the view; ``("restore",)`` round-trips the
#: graph through pickle, which drops the view.
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
        st.tuples(st.just("compile")),
        st.tuples(st.just("compile")),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


class TestIncrementalCompile:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, seeds=_SEEDS)
    def test_incremental_compile_equals_cold_compile(self, ops, seeds):
        """Whatever the mutation history and whatever was derived
        before, the view equals a cold derivation array for array, and
        propagating over it still equals the dict reference."""
        graph = EntityGraph()
        oracle = DictEntityGraph()
        seed_map = {
            _node(kind, index): value
            for (kind, index), value in seeds.items()
        }
        for op in ops + [("compile",)]:
            if op[0] == "edge":
                _, ka, a, kb, b, weight = op
                for target in (graph, oracle):
                    target.add_edge(_node(ka, a), _node(kb, b), weight)
            elif op[0] == "raise":
                edges = oracle.edges()
                if edges:
                    a, b, weight = edges[op[1] % len(edges)]
                    for target in (graph, oracle):
                        target.add_edge(a, b, min(1.0, weight + op[2]))
            elif op[0] == "node":
                for target in (graph, oracle):
                    target.add_node(_node(op[1], op[2]))
            elif op[0] == "restore":
                graph = _restored(graph)
            else:
                compiled = compile_graph(graph)
                cold = compile_graph(_restored(graph))
                assert cold.base == -1
                assert _compile_arrays(compiled) == _compile_arrays(cold)
                _assert_view_matches_oracle(graph, oracle)
        csr = propagate(graph, seed_map, compiled=compiled)
        ref = propagate_dict(oracle, seed_map)
        assert csr.scores == ref.scores
        assert (csr.rounds, csr.converged) == (ref.rounds, ref.converged)

    def test_only_changed_groups_are_resorted(self):
        graph = _build([(0, i, 1, i % 3, 0.5) for i in range(10)])
        first, resorted = _resorted(graph)
        assert resorted == graph.node_count
        same, resorted = _resorted(graph)
        assert resorted == 0
        assert same is first
        # A new edge touches its two endpoints; a new node appends.
        graph.add_edge(_node(0, 0), _node(2, 0), 0.7)
        grown, resorted = _resorted(graph)
        assert resorted == 2
        assert grown.base == first.version
        assert grown.nodes[:first.node_count] == first.nodes
        # A weight raise touches both endpoints; a no-op touches none.
        graph.add_edge(_node(0, 1), _node(1, 1), 0.9)
        graph.add_edge(_node(0, 2), _node(1, 2), 0.1)
        _, resorted = _resorted(graph)
        assert resorted == 2

    def test_restored_graph_derives_cold(self):
        """The view is derived state: a pickle leaves it out, so the
        first derivation after a restore re-sorts every group and
        equals the uninterrupted graph's view."""
        graph = _build([(0, i, 1, i % 3, 0.5) for i in range(6)])
        compile_graph(graph)
        graph.add_edge(_node(0, 0), _node(2, 0), 0.7)
        restored = _restored(graph)
        assert restored._view is None
        cold, resorted = _resorted(restored)
        assert resorted == restored.node_count
        assert cold.base == -1
        spliced, resorted = _resorted(graph)
        assert resorted == 2
        assert _compile_arrays(cold) == _compile_arrays(spliced)


_FP = st.sampled_from(["f0", "f1", "f2", "f3"])
_IPS = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.7", "10.2.0.1"])
_TIME = st.integers(0, 50).map(float)

#: Record feeds: each ``observe_*`` kind, drawn from small pools so
#: edges repeat, plus direct weight raises, derivations and restores.
_FEED = st.lists(
    st.one_of(
        st.tuples(st.just("entry"), _FP, _IPS, _TIME),
        st.tuples(
            st.just("session"), st.integers(0, 5), _FP, _IPS, _TIME,
            st.integers(0, 3),
        ),
        st.tuples(
            st.just("booking"), _FP, _IPS, _TIME,
            st.sampled_from(["ann", "bo", "cy"]), st.integers(0, 2),
        ),
        st.tuples(
            st.just("sms"), _FP, _IPS, _TIME, st.integers(0, 3),
            st.sampled_from(["", "R1", "R2"]),
        ),
        st.tuples(
            st.just("raise"), st.integers(0, 1_000),
            st.floats(min_value=0.01, max_value=0.5),
        ),
        st.tuples(st.just("compile")),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


def _feed(builder: GraphBuilder, step) -> None:
    kind = step[0]
    if kind == "entry":
        _, fp, ip, time = step
        builder.observe_entry(make_entry(time, fp, ip), time)
    elif kind == "session":
        _, sid, fp, ip, time, length = step
        builder.observe_session(make_session(
            f"s{sid}", fp, ip, [time + 10.0 * k for k in range(length + 1)]
        ))
    elif kind == "booking":
        _, fp, ip, time, name, flight = step
        builder.observe_booking(make_booking(
            time, fp, ip, [(name, "kot")], flight=f"LO{flight}"
        ))
    else:
        _, fp, ip, time, phone, ref = step
        builder.observe_sms(make_sms(time, fp, ip, f"60{phone}", ref=ref))


class TestColumnarGraphMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(steps=_FEED, picks=st.lists(st.integers(0, 1_000), max_size=8))
    def test_observe_feed_matches_dict_graph(self, steps, picks):
        """Random interleavings of every ``observe_*`` kind, duplicate
        edges, weight raises and pickle round trips: the columnar
        graph's derived CSR arrays, snapshot and components equal the
        dict oracle's fed the same records."""
        builder = GraphBuilder()
        reference = GraphBuilder()
        reference.graph = DictEntityGraph()
        for step in steps + [("compile",)]:
            if step[0] == "compile":
                _assert_view_matches_oracle(builder.graph, reference.graph)
            elif step[0] == "restore":
                builder = _restored(builder)
            elif step[0] == "raise":
                edges = reference.graph.edges()
                if edges:
                    a, b, weight = edges[step[1] % len(edges)]
                    for target in (builder.graph, reference.graph):
                        target.add_edge(a, b, min(1.0, weight + step[2]))
            else:
                for target in (builder, reference):
                    _feed(target, step)
        graph, oracle = builder.graph, reference.graph
        assert graph.snapshot(include_spans=True) == oracle.snapshot(
            include_spans=True
        )
        assert graph.components() == oracle.components()
        nodes = oracle.nodes()
        subset = [nodes[pick % len(nodes)] for pick in picks] if nodes else []
        assert graph.components(subset) == oracle.components(subset)
        for node in nodes:
            assert graph.first_seen(node) == oracle.first_seen(node)
            assert graph.last_seen(node) == oracle.last_seen(node)
