"""Streaming graph detection: the incremental builder on the pipeline.

:class:`GraphStreamAdapter` rides
:class:`~repro.stream.pipeline.StreamPipeline` like any other adapter:
closed sessions grow the graph, booking/SMS records arrive through
:class:`RecordFeed` cursors over the live substrate logs, and every
``refresh_every`` closed sessions the adapter re-runs propagation +
campaign extraction on the graph built *so far*.

When a campaign clears the risk threshold the adapter emits one
``fp:<fingerprint_id>`` entity verdict per not-yet-convicted member
fingerprint — the cluster-level conviction.  Those flow through the
pipeline's fusion into :class:`~repro.core.mitigation.online.
OnlineVerdictSink` exactly like velocity convictions, so the sink
blocks the *whole cluster* while the campaign is still running; a
``campaign_sink`` callback additionally receives each newly convicted
:class:`~repro.graph.campaigns.Campaign` for campaign-scale actions
(:meth:`OnlineVerdictSink.handle_campaign`).

End-of-stream, the adapter runs one final analysis over the complete
graph.  With periodic refresh disabled (``refresh_every=None``) the
final analysis is *exactly* the batch :class:`~repro.graph.detector.
GraphDetector` result on the same records — the equivalence the test
suite pins — because builder, seeding, propagation and extraction are
the same code on the same order-independent graph.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.detection.verdict import Verdict
from ..stream.adapters import StreamAdapter, entity_subject
from ..stream.feed import RecordFeed
from ..web.logs import LogEntry, Session
from .builder import GraphBuilder
from .campaigns import CAMPAIGN_DETECTOR, Campaign
from .detector import (
    GraphAnalysis,
    GraphDetectorConfig,
    accumulate_seed,
    analyze,
    merged_seeds,
    seed_from_verdicts,
    session_prior,
)
from .entities import EntityId, session_node
from .propagation import CompiledGraph, compile_graph


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
        self._convicted_fingerprints: set = set()
        self._sessions_since_refresh = 0
        #: Cached CSR compile of the builder's graph, keyed on the
        #: graph's structural version: refreshes that land between
        #: structural changes (or the final analysis right after a
        #: periodic one) reuse the arrays, and the others hand it to
        #: ``compile_graph`` so only the changed nodes are re-sorted.
        #: Derived state, so it is left out of pickles.
        self._compiled: Optional[CompiledGraph] = None
        self.refreshes = 0
        self.final_analysis: Optional[GraphAnalysis] = None

    def __getstate__(self) -> Dict[str, object]:
        # A restored adapter cold-compiles once, at its first refresh.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # -- stream hooks --------------------------------------------------------

    def on_entry(self, entry: LogEntry, now: float) -> Iterable[Verdict]:
        self.builder.observe_entry(entry, now)
        self._drain_feeds()
        return ()

    def on_session_closed(self, session: Session) -> Iterable[Verdict]:
        self.builder.observe_session(session)
        accumulate_seed(
            self._seeds,
            session_node(session.session_id),
            session_prior(session, self.config),
        )
        if self.refresh_every is None:
            return ()
        self._sessions_since_refresh += 1
        if self._sessions_since_refresh < self.refresh_every:
            return ()
        self._sessions_since_refresh = 0
        return self._refresh(session.end)

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

    def _drain_seed_feeds(self) -> None:
        for feed in self.seed_feeds:
            tail = list(feed.drain())
            if tail:
                seed_from_verdicts(self._seeds, tail, self.config)

    def _refresh(
        self, now: float, final: bool = False
    ) -> List[Verdict]:
        """Re-run the analysis; convict newly campaign-bound clusters."""
        self.refreshes += 1
        self._drain_seed_feeds()
        graph = self.builder.graph
        if (
            self._compiled is None
            or self._compiled.version != graph.version
        ):
            self._compiled = compile_graph(
                graph, obs=self.obs, previous=self._compiled
            )
        analysis = analyze(
            graph,
            merged_seeds(self._seeds, self.builder, self.config),
            self.config,
            obs=self.obs,
            compiled=self._compiled,
        )
        if final:
            self.final_analysis = analysis
        verdicts: List[Verdict] = []
        for campaign_verdict in analysis.campaign_verdicts:
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
