"""Streaming graph detection: the incremental builder on the pipeline.

:class:`GraphStreamAdapter` rides
:class:`~repro.stream.pipeline.StreamPipeline` like any other adapter:
closed sessions grow the graph, booking/SMS records arrive through
:class:`RecordFeed` cursors over the live substrate logs, and every
``refresh_every`` closed sessions the adapter re-analyses the graph
built *so far*.

A periodic refresh is scoped to the connected components that hold a
node changed since the previous refresh: a new node, a node whose
adjacency changed (the nodes the incremental compile re-sorts), a node
whose merged seed changed, or a session node whose span changed.  Only
those components are propagated and searched for campaigns; every
other component keeps the campaigns cached from earlier refreshes.
Each component's sweep stops at its own convergence, so a cached
component equals a cold recompute, and the cached and fresh campaigns
are ranked together under the global ``C001``... names.  The cache
(component labels, campaigns, merged seeds) is derived state: it is
left out of pickles, and the first refresh after a restore recomputes
every component.  The dirty set is kept only when periodic refreshes
are on.

When a campaign clears the risk threshold the adapter emits one
``fp:<fingerprint_id>`` entity verdict per not-yet-convicted member
fingerprint — the cluster-level conviction.  Those flow through the
pipeline's fusion into :class:`~repro.core.mitigation.online.
OnlineVerdictSink` exactly like velocity convictions, so the sink
blocks the *whole cluster* while the campaign is still running; a
``campaign_sink`` callback additionally receives each newly convicted
:class:`~repro.graph.campaigns.Campaign` for campaign-scale actions
(:meth:`OnlineVerdictSink.handle_campaign`).

End-of-stream, the adapter runs one final global analysis over the
complete graph.  The final analysis is *exactly* the batch
:class:`~repro.graph.detector.GraphDetector` result on the same
records — the equivalence the test suite pins — because builder,
seeding, propagation and extraction are the same code on the same
order-independent graph.  Periodic scores can differ from a global
sweep within the propagation tolerance (a global sweep runs every
component as long as the slowest one needs); the final pass does not.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

import numpy as np

from ..core.detection.verdict import Verdict
from ..stream.adapters import StreamAdapter, entity_subject
from ..stream.feed import RecordFeed
from ..web.logs import LogEntry, Session
from .builder import GraphBuilder
from .campaigns import CAMPAIGN_DETECTOR, Campaign, CampaignVerdict
from .detector import (
    GraphAnalysis,
    GraphDetectorConfig,
    accumulate_seed,
    analyze,
    merged_seed,
    merged_seeds,
    refresh_components,
    seed_from_verdicts,
    session_prior,
)
from .entities import (
    EntityId,
    booking_ref_node,
    fingerprint_node,
    session_node,
)
from .propagation import CompiledGraph, ComponentScope, compile_graph
from .unionfind import merge_labels


class ComponentCache:
    """What periodic refreshes keep between them (derived state).

    ``labels`` maps each node index to its component's label (the
    index of one member, the same for the whole component),
    ``campaigns`` holds the last ranked campaign list, and ``seeds``
    the merged seed map, updated node by node as seeds change.
    """

    def __init__(self, seeds: Dict[EntityId, float]) -> None:
        self.labels = np.empty(0, dtype=np.int64)
        self.campaigns: List[Campaign] = []
        self.seeds = seeds

    def link(self, compiled: CompiledGraph, rows: np.ndarray) -> None:
        """Label the compile's new nodes, then merge the components
        that the edges of ``rows`` join.

        The graph only grows, so components only ever merge, and only
        through new edges — whose endpoints are all among the nodes
        the compile re-sorted, the ``rows`` a caller passes.
        """
        n = compiled.node_count
        old_n = self.labels.shape[0]
        labels = np.concatenate(
            [self.labels, np.arange(old_n, n, dtype=np.int64)]
        )
        edges = compiled.group_edges(rows)
        self.labels = merge_labels(
            labels, compiled.dst[edges], compiled.src[edges]
        )

    def scope(self, changed: np.ndarray) -> ComponentScope:
        """Every node of the components holding a ``changed`` node."""
        labels = self.labels
        touched = np.zeros(labels.shape[0], dtype=bool)
        touched[labels[changed]] = True
        nodes = np.flatnonzero(touched[labels])
        # Number the touched components 0, 1, ... in label order.
        number = np.cumsum(touched) - 1
        return ComponentScope(nodes=nodes, components=number[labels[nodes]])


class GraphStreamAdapter(StreamAdapter):
    """Incremental campaign detection as a stream adapter."""

    name = CAMPAIGN_DETECTOR

    def __init__(
        self,
        config: Optional[GraphDetectorConfig] = None,
        booking_feed: Optional[RecordFeed] = None,
        sms_feed: Optional[RecordFeed] = None,
        refresh_every: Optional[int] = None,
        campaign_sink: Optional[Callable[[Campaign, float], None]] = None,
        seed_feeds: Optional[Sequence["RecordFeed"]] = None,
        obs: Optional[object] = None,
    ) -> None:
        if refresh_every is not None and refresh_every < 1:
            raise ValueError(
                f"refresh_every must be >= 1: {refresh_every}"
            )
        self.config = config or GraphDetectorConfig()
        self.booking_feed = booking_feed
        self.sms_feed = sms_feed
        self.refresh_every = refresh_every
        self.campaign_sink = campaign_sink
        #: Cursors over growing :class:`~repro.core.detection.verdict.
        #: Verdict` lists (e.g. the pipeline's session/entity verdict
        #: accumulators).  Each new verdict is folded into the seeds
        #: exactly once, right before the next analysis — how a pure
        #: web-log deployment (no booking/SMS records) hands the other
        #: families' convictions to the graph.  Campaign-graph verdicts
        #: are skipped by ``seed_from_verdicts``, so the adapter's own
        #: output can never self-amplify through a feed.
        self.seed_feeds = list(seed_feeds or [])
        self.obs = obs
        self.builder = GraphBuilder(self.config.builder, obs=obs)
        self._seeds: Dict[EntityId, float] = {}
        #: Nodes whose merged seed or session span changed since the
        #: last refresh.  Adjacency changes are not tracked here: the
        #: incremental compile already knows them (``resorted``).
        self._dirty: Set[EntityId] = set()
        self._convicted_fingerprints: set = set()
        self._sessions_since_refresh = 0
        #: The graph's CSR view as of the last refresh: a later view
        #: derived from it re-sorted exactly the nodes changed since.
        #: Derived state, so it is left out of pickles.
        self._compiled: Optional[CompiledGraph] = None
        #: Per-component state of the periodic refresh; derived, so it
        #: is left out of pickles like ``_compiled``.
        self._components: Optional[ComponentCache] = None
        self.refreshes = 0
        self.final_analysis: Optional[GraphAnalysis] = None

    def __getstate__(self) -> Dict[str, object]:
        # A restored adapter cold-compiles once and recomputes every
        # component, at its first refresh.
        state = self.__dict__.copy()
        state["_compiled"] = None
        state["_components"] = None
        state["_dirty"] = set()
        return state

    # -- stream hooks --------------------------------------------------------

    def on_entry(self, entry: LogEntry, now: float) -> Iterable[Verdict]:
        self.builder.observe_entry(entry, now)
        self._drain_feeds()
        return ()

    def on_session_closed(
        self, session: Session, now: float
    ) -> Iterable[Verdict]:
        self.builder.observe_session(session)
        node = session_node(session.session_id)
        accumulate_seed(
            self._seeds, node, session_prior(session, self.config)
        )
        self._mark_dirty((node,))
        if self.refresh_every is None:
            return ()
        self._sessions_since_refresh += 1
        if self._sessions_since_refresh < self.refresh_every:
            return ()
        self._sessions_since_refresh = 0
        return self._refresh(now)

    def end_of_stream(self) -> Iterable[Verdict]:
        self._drain_feeds()
        last = max(
            (t for t in (
                self.builder.graph.last_seen(node)
                for node in self.builder.graph.nodes()
            ) if t is not None),
            default=0.0,
        )
        verdicts = self._refresh(last, final=True)
        return verdicts

    def evict_idle(self, now: float, idle_gap: float) -> None:
        self.builder.evict_idle_names(now, idle_gap)

    # -- internals -----------------------------------------------------------

    def _drain_feeds(self) -> None:
        if self.booking_feed is not None:
            for record in self.booking_feed.drain():
                self.builder.observe_booking(record)
        if self.sms_feed is not None:
            for record in self.sms_feed.drain():
                self.builder.observe_sms(record)
                # The send raised these nodes' SMS-velocity seeds.
                raised = [fingerprint_node(record.client.fingerprint_id)]
                if record.booking_ref:
                    raised.append(booking_ref_node(record.booking_ref))
                self._mark_dirty(raised)

    def _drain_seed_feeds(self) -> None:
        for feed in self.seed_feeds:
            tail = list(feed.drain())
            if tail:
                self._mark_dirty(
                    seed_from_verdicts(self._seeds, tail, self.config)
                )

    def _mark_dirty(self, nodes: Iterable[EntityId]) -> None:
        # Only periodic refreshes read the dirty set.
        if self.refresh_every is not None:
            self._dirty.update(nodes)

    def _refresh(
        self, now: float, final: bool = False
    ) -> List[Verdict]:
        """Re-run the analysis; convict newly campaign-bound clusters."""
        self.refreshes += 1
        self._drain_seed_feeds()
        graph = self.builder.graph
        compiled = compile_graph(graph, obs=self.obs)
        resorted = np.empty(0, dtype=np.int64)
        if compiled is not self._compiled:
            if (
                self._compiled is None
                or compiled.base != self._compiled.version
            ):
                # Not derived from the view the labels were kept from.
                self._components = None
            resorted = compiled.resorted
            self._compiled = compiled
        if not final:
            return self._convict(self._refresh_components(resorted), now)
        # The final pass is global; its compile is not linked into the
        # component cache, which therefore goes with the dirty set.
        self._components = None
        self._dirty.clear()
        analysis = analyze(
            graph,
            merged_seeds(self._seeds, self.builder, self.config),
            self.config,
            obs=self.obs,
            compiled=self._compiled,
        )
        self.final_analysis = analysis
        return self._convict(analysis.campaign_verdicts, now)

    def _refresh_components(
        self, resorted: np.ndarray
    ) -> List[CampaignVerdict]:
        """Re-analyse the components holding a changed node; returns
        the verdict forms of their new or changed campaigns."""
        compiled = self._compiled
        cache = self._components
        if cache is None:
            cache = self._components = ComponentCache(
                merged_seeds(self._seeds, self.builder, self.config)
            )
            resorted = changed = np.arange(
                compiled.node_count, dtype=np.int64
            )
        else:
            index = compiled.index
            for node in self._dirty:
                value = merged_seed(
                    self._seeds, self.builder, self.config, node
                )
                if value is not None:
                    cache.seeds[node] = value
            is_changed = np.zeros(compiled.node_count, dtype=bool)
            is_changed[resorted] = True
            is_changed[
                [index[node] for node in self._dirty if node in index]
            ] = True
            changed = np.flatnonzero(is_changed)
        self._dirty.clear()
        cache.link(compiled, resorted)
        scope = cache.scope(changed)
        if self.obs is not None:
            self.obs.increment(
                "graph.refresh.dirty_nodes", float(changed.shape[0])
            )
        refresh = refresh_components(
            self.builder.graph,
            cache.seeds,
            self.config,
            compiled,
            scope,
            cache.campaigns,
            obs=self.obs,
        )
        cache.campaigns = refresh.campaigns
        return refresh.campaign_verdicts

    def _convict(
        self, campaign_verdicts: Sequence[CampaignVerdict], now: float
    ) -> List[Verdict]:
        """Entity verdicts for the not-yet-convicted fingerprints of
        every bot-positive campaign, in campaign order."""
        verdicts: List[Verdict] = []
        for campaign_verdict in campaign_verdicts:
            if not campaign_verdict.verdict.is_bot:
                continue
            campaign = campaign_verdict.campaign
            fresh = [
                fingerprint_id
                for fingerprint_id in campaign.fingerprint_ids
                if fingerprint_id not in self._convicted_fingerprints
            ]
            if not fresh:
                continue
            self._convicted_fingerprints.update(fresh)
            if self.campaign_sink is not None:
                self.campaign_sink(campaign, now)
            for fingerprint_id in fresh:
                verdicts.append(
                    Verdict(
                        subject_id=entity_subject(fingerprint_id),
                        detector=self.name,
                        score=campaign_verdict.verdict.score,
                        is_bot=True,
                        reasons=campaign_verdict.verdict.reasons,
                    )
                )
        return verdicts

    # -- introspection -------------------------------------------------------

    @property
    def convicted_fingerprints(self) -> List[str]:
        return sorted(self._convicted_fingerprints)

    @property
    def final_campaigns(self) -> List[Campaign]:
        return (
            list(self.final_analysis.campaigns)
            if self.final_analysis is not None
            else []
        )
