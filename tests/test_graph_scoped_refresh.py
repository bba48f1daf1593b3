"""Property tests for the component-scoped periodic graph refresh.

A periodic refresh re-propagates and re-extracts only the connected
components that hold a node changed since the previous refresh, and
reuses every other component's cached campaigns.  Three claims, on
streamed multi-component graphs with random refresh cadences:

1. every periodic refresh's scores (over the components it swept) and
   the full campaign list it leaves cached equal a cold recompute that
   analyses each component as a graph of its own, bit for bit;
2. every periodic refresh convicts the same fingerprints, under the
   same campaign names and at the same time, as a global ``analyze()``
   on the same graph and seeds would;
3. an adapter pickled at a random point between refreshes (the cache
   is not pickled) continues exactly like the uninterrupted one.

Plus the refresh's counters: ``graph.propagation.edge_sweeps`` counts
the edges actually swept, ``graph.refresh.dirty_nodes`` the changed
nodes, and the campaign gauges follow the full ranked list.
"""

import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.detection.verdict import Verdict
from repro.graph import detector
from repro.graph.builder import EntityGraph
from repro.graph.campaigns import (
    CampaignConfig,
    extract_campaigns,
    rank_campaigns,
)
from repro.graph.detector import (
    GraphDetectorConfig,
    analyze,
    merged_seeds,
)
from repro.graph.entities import fingerprint_node, ip_node, session_node
from repro.graph.propagation import (
    ComponentScope,
    compile_graph,
    propagate,
)
from repro.graph.stream import GraphStreamAdapter
from repro.obs import ObsRegistry
from repro.stream import RecordFeed
from repro.stream.adapters import FP_SUBJECT_PREFIX
from repro.web.logs import Session
from repro.web.request import HOLD

from tests.graph_oracle import DictEntityGraph
from tests.test_graph_builder import make_booking, make_entry, make_sms

#: Thresholds low enough that small random crews form campaigns and
#: get convicted, so every property sees convictions.
CONFIG = GraphDetectorConfig(
    campaigns=CampaignConfig(risk_threshold=0.15, min_sessions=2),
    seed_weights={"volume-threshold": 0.9},
    hold_seed_scale=3.0,
    fp_sms_seed_scale=4.0,
    ref_sms_seed_scale=4.0,
    verdict_threshold=0.3,
)

_CREW = st.integers(0, 3)
_PICK = st.integers(0, 2)
_SESSION = st.tuples(
    st.just("session"), _CREW, _PICK, _PICK, st.integers(0, 4)
)
#: Sessions drive the refresh cadence, so they get twice the weight.
_STEP = st.one_of(
    _SESSION,
    _SESSION,
    st.tuples(st.just("booking"), _CREW, _PICK, _PICK, st.integers(0, 1)),
    st.tuples(st.just("sms"), _CREW, _PICK, _PICK, _PICK),
    st.tuples(
        st.just("verdict"),
        st.sampled_from(["session", "fp"]),
        _CREW,
        st.integers(0, 50),
        st.sampled_from([0.3, 0.6, 0.9, 1.0]),
    ),
)
_STEPS = st.lists(_STEP, min_size=20, max_size=80)


class Stream:
    """One adapter plus the record lists its feeds read."""

    def __init__(self, refresh_every: int, obs=None) -> None:
        self.bookings = []
        self.sms = []
        self.verdicts = []
        self.campaigns = []
        self.adapter = GraphStreamAdapter(
            config=CONFIG,
            booking_feed=RecordFeed(self.bookings),
            sms_feed=RecordFeed(self.sms),
            refresh_every=refresh_every,
            campaign_sink=CampaignRecorder(self.campaigns),
            seed_feeds=[RecordFeed(self.verdicts)],
            obs=obs,
        )

    def restored(self) -> "Stream":
        """A copy through pickle, as a snapshot/restore would make."""
        return pickle.loads(pickle.dumps(self))


class CampaignRecorder:
    """Picklable campaign sink."""

    def __init__(self, records) -> None:
        self.records = records

    def __call__(self, campaign, now) -> None:
        self.records.append(
            (campaign.campaign_id, campaign.fingerprint_ids, now)
        )


def _fp(crew: int, pick: int) -> str:
    return f"c{crew}-fp{pick}"


def _ip(crew: int, pick: int) -> str:
    return f"10.{crew}.{pick}.1"


def apply_step(stream: Stream, index: int, step, sessions: list):
    """Feed one step; returns ``(verdicts, refreshed)``."""
    adapter = stream.adapter
    time = 10.0 * (index + 1)
    kind = step[0]
    if kind == "booking":
        _, crew, fp, name, flight = step
        names = [("anna", f"c{crew}-{name}")] if name else [("jan", "kowal")]
        stream.bookings.append(
            make_booking(time, _fp(crew, fp), _ip(crew, fp), names,
                         flight=f"F{flight}")
        )
        return [], False
    if kind == "sms":
        _, crew, fp, phone, ref = step
        stream.sms.append(
            make_sms(time, _fp(crew, fp), _ip(crew, fp),
                     f"5{crew}{phone}000", ref=f"R{crew}{ref}")
        )
        return [], False
    if kind == "verdict":
        _, target, crew, pick, score = step
        if target == "session":
            if not sessions:
                return [], False
            subject = sessions[pick % len(sessions)]
        else:
            subject = f"{FP_SUBJECT_PREFIX}{_fp(crew, pick % 3)}"
        stream.verdicts.append(
            Verdict(subject, "volume-threshold", score, True)
        )
        return [], False
    _, crew, fp, ip, holds = step
    session_id = f"s{index}"
    entries = [
        make_entry(time + offset, _fp(crew, fp), _ip(crew, ip),
                   HOLD if offset < holds else "/search")
        for offset in range(max(holds, 1))
    ]
    sessions.append(session_id)
    session = Session(
        session_id=session_id,
        ip_address=_ip(crew, ip),
        fingerprint_id=_fp(crew, fp),
        entries=entries,
    )
    before = adapter.refreshes
    verdicts = []
    for entry in entries:
        verdicts.extend(adapter.on_entry(entry, entry.time))
    verdicts.extend(adapter.on_session_closed(session, session.end))
    return verdicts, adapter.refreshes > before


def _subgraph(graph: EntityGraph, component) -> EntityGraph:
    """``component`` as a graph of its own, spans included."""
    sub = EntityGraph()
    for node in component:
        sub.add_node(node)
        for time in (graph.first_seen(node), graph.last_seen(node)):
            if time is not None:
                sub.touch(node, time)
    oracle = DictEntityGraph.copy_of(graph)
    for node in component:
        for neighbor, weight in oracle.neighbors(node).items():
            if node < neighbor:
                sub.add_edge(node, neighbor, weight)
    return sub


def cold_per_component(adapter: GraphStreamAdapter):
    """Scores and ranked campaigns from analysing every component of
    the adapter's graph alone, with the unscoped code paths."""
    graph = adapter.builder.graph
    seeds = merged_seeds(adapter._seeds, adapter.builder, CONFIG)
    scores, campaigns = {}, []
    for component in graph.components():
        sub = _subgraph(graph, component)
        own = {node: seeds[node] for node in component if node in seeds}
        result = propagate(sub, own, CONFIG.propagation)
        scores.update(result.scores)
        campaigns.extend(
            extract_campaigns(
                sub, result.scores, CONFIG.campaigns, seeds=seeds
            )
        )
    return scores, rank_campaigns(campaigns)


def _campaign_rows(campaigns):
    return [
        (c.campaign_id, c.members, c.risk, c.first_seen, c.last_seen)
        for c in campaigns
    ]


def _bits(scores, nodes):
    """``scores`` over ``nodes`` as float64 bytes: bit-for-bit equality."""
    return np.fromiter(
        (scores[node] for node in nodes), dtype=np.float64
    ).tobytes()


def assert_refresh_is_cold_recompute(adapter, refresh) -> None:
    """``refresh`` (the adapter's last periodic refresh) swept scores
    and left campaigns that a cold per-component recompute matches."""
    scores, campaigns = cold_per_component(adapter)
    assert refresh.scores
    assert _bits(refresh.scores, refresh.scores) == _bits(
        scores, refresh.scores
    )
    assert _campaign_rows(refresh.campaigns) == _campaign_rows(campaigns)
    assert _campaign_rows(adapter._components.campaigns) == _campaign_rows(
        campaigns
    )


class RefreshRecorder:
    """Stands in for ``refresh_components`` in the stream module and
    keeps every result."""

    def __init__(self) -> None:
        self.results = []

    def __call__(self, *args, **kwargs):
        result = detector.refresh_components(*args, **kwargs)
        self.results.append(result)
        return result

    def patch(self):
        return mock.patch("repro.graph.stream.refresh_components", self)


def global_convictions(adapter: GraphStreamAdapter, convicted: set):
    """What the pre-scoping refresh convicted: one global ``analyze()``,
    fresh fingerprints of every bot-positive campaign in rank order."""
    analysis = analyze(
        adapter.builder.graph,
        merged_seeds(adapter._seeds, adapter.builder, CONFIG),
        CONFIG,
    )
    convictions = []
    for campaign_verdict in analysis.campaign_verdicts:
        if not campaign_verdict.verdict.is_bot:
            continue
        fresh = [
            fp for fp in campaign_verdict.campaign.fingerprint_ids
            if fp not in convicted
        ]
        if fresh:
            convicted.update(fresh)
            convictions.append(
                (campaign_verdict.campaign.campaign_id, tuple(fresh))
            )
    return convictions


def _convictions(records, verdicts, now):
    """``(campaign_id, fresh fps)`` per sink record of one refresh."""
    subjects = [v.subject_id[len(FP_SUBJECT_PREFIX):] for v in verdicts]
    out = []
    for campaign_id, fingerprints, when in records:
        assert when == now
        fresh = tuple(fp for fp in fingerprints if fp in subjects)
        out.append((campaign_id, fresh))
    assert sum(len(fresh) for _, fresh in out) == len(subjects)
    return out




def run_stream(steps, refresh_every, on_refresh) -> None:
    """Feed ``steps``; after each periodic refresh call
    ``on_refresh(stream, verdicts, seen, now, refresh)`` with the sink
    records before the step (``seen``) and the refresh's result."""
    stream = Stream(refresh_every)
    sessions = []
    recorder = RefreshRecorder()
    with recorder.patch():
        for index, step in enumerate(steps):
            seen = len(stream.campaigns)
            verdicts, refreshed = apply_step(stream, index, step, sessions)
            if not refreshed:
                continue
            now = 10.0 * (index + 1) + max(step[4], 1) - 1
            on_refresh(stream, verdicts, seen, now, recorder.results[-1])


class TestScopedRefresh:
    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS, refresh_every=st.integers(1, 4))
    def test_periodic_refresh_matches_cold_per_component(
        self, steps, refresh_every
    ):
        def check(stream, verdicts, seen, now, refresh):
            assert_refresh_is_cold_recompute(stream.adapter, refresh)

        run_stream(steps, refresh_every, check)

    @settings(max_examples=40, deadline=None)
    @given(steps=_STEPS, refresh_every=st.integers(1, 4))
    def test_views_derived_between_refreshes_miss_nothing(
        self, steps, refresh_every
    ):
        """Another reader deriving the graph's CSR view between two
        refreshes must not hide the changes before its derivation from
        the next refresh."""
        stream = Stream(refresh_every)
        sessions = []
        recorder = RefreshRecorder()
        with recorder.patch():
            for index, step in enumerate(steps):
                _, refreshed = apply_step(stream, index, step, sessions)
                if refreshed:
                    assert_refresh_is_cold_recompute(
                        stream.adapter, recorder.results[-1]
                    )
                compile_graph(stream.adapter.builder.graph)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=_STEPS, refresh_every=st.integers(1, 4))
    def test_periodic_convictions_match_global_analysis(
        self, steps, refresh_every
    ):
        """Periodic scores stop at each component's own convergence,
        while a global sweep keeps converged components running (scores
        only rise).  A campaign risk or core score within the
        propagation tolerance below a threshold can therefore convict
        under ``analyze()`` but not yet under the scoped refresh, so
        this property holds up to the tolerance; the test is
        derandomised and runs a fixed set of examples."""
        convicted = set()

        def check(stream, verdicts, seen, now, refresh):
            assert _convictions(
                stream.campaigns[seen:], verdicts, now
            ) == global_convictions(stream.adapter, convicted)

        run_stream(steps, refresh_every, check)

    @settings(max_examples=40, deadline=None)
    @given(
        steps=_STEPS,
        refresh_every=st.integers(1, 4),
        cut=st.floats(0.0, 1.0),
    )
    def test_restore_between_refreshes_matches_uninterrupted(
        self, steps, refresh_every, cut
    ):
        at = int(cut * len(steps))
        reference = Stream(refresh_every)
        sessions = []
        for index, step in enumerate(steps[:at]):
            apply_step(reference, index, step, sessions)
        restored = reference.restored()
        assert restored.adapter._components is None
        assert restored.adapter._compiled is None
        restored_sessions = list(sessions)
        recorder = RefreshRecorder()
        with recorder.patch():
            for index, step in enumerate(steps[at:], start=at):
                want, refreshed = apply_step(
                    reference, index, step, sessions
                )
                theirs = recorder.results[-1] if refreshed else None
                got, again = apply_step(
                    restored, index, step, restored_sessions
                )
                assert refreshed == again
                assert got == want
                if not refreshed:
                    continue
                # The restored side's first refresh sweeps every
                # component; each one it shares with the reference's
                # scope carries the same bits.
                ours = recorder.results[-1]
                assert theirs.scores.keys() <= ours.scores.keys()
                assert _bits(ours.scores, theirs.scores) == _bits(
                    theirs.scores, theirs.scores
                )
                assert _campaign_rows(ours.campaigns) == _campaign_rows(
                    theirs.campaigns
                )
        assert restored.campaigns == reference.campaigns
        assert list(restored.adapter.end_of_stream()) == list(
            reference.adapter.end_of_stream()
        )
        ours = restored.adapter.final_analysis
        theirs = reference.adapter.final_analysis
        assert ours.propagation.scores == theirs.propagation.scores
        assert _campaign_rows(ours.campaigns) == _campaign_rows(
            theirs.campaigns
        )


class TestCounters:
    def test_edge_sweeps_count_the_edges_swept(self):
        """A component frozen early stops adding its edges; the
        whole-graph sweep runs every edge every round."""
        graph = EntityGraph()
        quiet = (fingerprint_node("q"), ip_node("10.9.9.9"))
        graph.add_edge(*quiet, 1.0)
        chain = [session_node(f"s{i}") for i in range(4)]
        for a, b in zip(chain, chain[1:]):
            graph.add_edge(a, b, 1.0)
        seeds = {chain[0]: 0.8}
        compiled = compile_graph(graph)
        index = compiled.index
        nodes = np.array(
            sorted(index[node] for node in (*quiet, *chain)), dtype=np.int64
        )
        scope = ComponentScope(
            nodes=nodes,
            components=np.array(
                [int(compiled.nodes[i] in quiet) for i in nodes],
                dtype=np.int64,
            ),
        )
        obs = ObsRegistry()
        scoped = propagate(graph, seeds, compiled=compiled, scope=scope,
                           obs=obs)
        # The unseeded pair never moves: frozen after round one.
        chain_edges = 2 * (len(chain) - 1)
        assert scoped.rounds > 1
        swept = obs.counter("graph.propagation.edge_sweeps")
        assert swept == 2 * 1 + chain_edges * scoped.rounds
        assert swept < compiled.edge_count * scoped.rounds

        whole = ObsRegistry()
        result = propagate(graph, seeds, compiled=compiled, obs=whole)
        assert whole.counter("graph.propagation.edge_sweeps") == (
            compiled.edge_count * result.rounds
        )

    def test_refresh_counters_and_campaign_gauges(self):
        """Two disjoint crews, one refresh per session: each refresh
        sweeps only the crew that changed, counts its changed nodes,
        and sets the campaign gauges from the full ranked list."""
        obs = ObsRegistry()
        stream = Stream(refresh_every=1, obs=obs)
        adapter = stream.adapter
        sessions = []
        dirty = swept = 0.0
        scoped = 0
        for index in range(12):
            crew = index % 2
            step = ("session", crew, index % 3, index % 2, 3)
            _, refreshed = apply_step(stream, index, step, sessions)
            assert refreshed
            assert obs.counter("graph.refresh.dirty_nodes") > dirty
            dirty = obs.counter("graph.refresh.dirty_nodes")
            step_sweeps = obs.counter("graph.propagation.edge_sweeps") - swept
            swept += step_sweeps
            rounds = obs.gauge("graph.propagation.rounds")
            if step_sweeps < adapter._compiled.edge_count * rounds:
                scoped += 1
            campaigns = adapter._components.campaigns
            assert obs.gauge("graph.campaigns") == len(campaigns)
            assert obs.gauge("graph.campaign_sessions") == sum(
                c.session_count for c in campaigns
            )
        assert scoped >= 10
        assert obs.gauge("graph.campaigns") >= 2
