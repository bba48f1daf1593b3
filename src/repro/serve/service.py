"""The detection service core: one pipeline, one journal, one truth.

:class:`DetectionService` owns a :class:`~repro.stream.pipeline.
StreamPipeline` with the standard adapter set plus a
:class:`~repro.graph.stream.GraphStreamAdapter` (campaign detection,
seeded from the pipeline's own velocity/volume verdicts via
``seed_feeds``), applies ingested events journal-first through a
:class:`~repro.serve.state.StateStore`, and checkpoints the pickled
core every ``checkpoint_interval`` events.

Everything in the core is deliberately plain picklable Python — the
sink records verdicts instead of touching a live
:class:`~repro.web.application.WebApplication`, the campaign sink is a log, and
``obs`` instrumentation lives on the *service*, never inside the
pickled core — so a snapshot is one ``pickle.dumps`` with no
detach/reattach dance, and a restored core is bit-identical to the
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from typing import Dict, List, Optional, Tuple

from ..core.detection.subjects import fingerprint_of
from ..core.detection.verdict import Verdict
from ..graph.campaigns import Campaign
from ..graph.detector import GraphDetectorConfig
from ..graph.stream import GraphStreamAdapter
from ..stream.pipeline import build_stream_pipeline
from ..stream.feed import RecordFeed
from ..stream.pipeline import StreamPipeline, StreamReport
from ..trace.replay import read_entries
from ..web.logs import LogEntry
from .codec import check_order, encode_record, entry_to_dict, parse_events
from .state import StateStore, StateStoreError

#: Default events between checkpoints (the CLI flag overrides).
DEFAULT_CHECKPOINT_INTERVAL = 2000

#: Default closed-session cadence for periodic campaign re-analysis.
DEFAULT_REFRESH_EVERY = 64


class SeqConflict(Exception):
    """Client/server event-count mismatch on an ingest batch."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(
            f"ingest seq mismatch: client says {got} events precede "
            f"this batch, server has {expected}"
        )
        self.expected = expected
        self.got = got


class ServiceFinished(Exception):
    """Ingest/replay after :meth:`DetectionService.finish`."""


class RecordingSink:
    """Picklable verdict sink: remembers each subject's first
    bot-positive fused verdict with its event-time timestamp.

    The batch scenarios wire :class:`~repro.core.mitigation.online.
    OnlineVerdictSink` here to block live traffic; a detection service
    has no application to act on, so conviction *records* are the
    product — queryable over HTTP and replayed into mitigation by
    whoever deploys behind the service.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[float, Verdict]] = []

    def handle(self, verdict: Verdict, now: float) -> None:
        self.records.append((now, verdict))


class CampaignLog:
    """Picklable ``campaign_sink``: the convicted-campaign ledger,
    one ``(convicted_at, campaign)`` record per campaign conviction."""

    def __init__(self) -> None:
        self.records: List[Tuple[float, Campaign]] = []

    def __call__(self, campaign: Campaign, now: float) -> None:
        self.records.append((now, campaign))


def build_core(
    refresh_every: Optional[int],
    graph_config: Optional[GraphDetectorConfig],
    evict_every: int,
) -> Dict[str, object]:
    """Fresh detection core: pipeline + graph adapter + record sinks.

    The graph adapter goes *last* in the adapter list and reads the
    pipeline's own verdict accumulators through ``seed_feeds``, so by
    the time a refresh (or the final analysis) runs, every velocity and
    volume conviction emitted so far is already folded into the seeds.
    """
    sink = RecordingSink()
    campaigns = CampaignLog()
    pipeline = build_stream_pipeline(sink=sink, evict_every=evict_every)
    graph = GraphStreamAdapter(
        config=graph_config,
        refresh_every=refresh_every,
        campaign_sink=campaigns,
        seed_feeds=[
            RecordFeed(pipeline._session_verdicts),
            RecordFeed(pipeline._entity_verdicts),
        ],
    )
    pipeline.adapters.append(graph)
    return {
        "pipeline": pipeline,
        "graph": graph,
        "sink": sink,
        "campaigns": campaigns,
    }


def _verdict_dict(verdict: Verdict) -> Dict[str, object]:
    return {
        "subject_id": verdict.subject_id,
        "detector": verdict.detector,
        "score": verdict.score,
        "is_bot": verdict.is_bot,
        "reasons": list(verdict.reasons),
    }


class DetectionService:
    """Journal-first event application over a persistent pipeline.

    On construction the service restores itself from ``store``: load
    the latest pickled core (or build a fresh one), then re-apply the
    journal tail. Because the core is a deterministic function of the
    acknowledged event prefix, a service restored after ``SIGKILL``
    continues *exactly* where the uninterrupted one would be.

    Write protocol per batch: validate everything up front (shape in
    :func:`~repro.serve.codec.parse_events`, time order in
    :func:`~repro.serve.codec.check_order` and what a record can hold
    in the RPTR writer that encodes the record, for ingest and replay
    alike), journal the encoded record + commit, then apply to the
    pipeline — so no acknowledged event can be lost and no
    half-applied batch can diverge memory from disk.  A failed
    journal commit is rolled back and raises
    :class:`~repro.serve.state.StateStoreError` before anything is
    applied, so the same batch can be resent with the same ``seq``.
    """

    def __init__(
        self,
        store: StateStore,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        refresh_every: Optional[int] = DEFAULT_REFRESH_EVERY,
        graph_config: Optional[GraphDetectorConfig] = None,
        evict_every: int = 256,
        obs: Optional[object] = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1: {checkpoint_interval}"
            )
        self.store = store
        self.checkpoint_interval = checkpoint_interval
        self.obs = obs
        self.started_at = _time.time()
        snapshot = store.load_snapshot()
        if snapshot is None:
            self._seq = 0
            self._core = build_core(
                refresh_every, graph_config, evict_every
            )
            self.restored = False
        else:
            self._seq, self._core = snapshot
            self.restored = True
            self._check_restored_settings(
                refresh_every, graph_config, evict_every
            )
        replayed = 0
        for journal_seq, entry in store.journal_tail(self._seq):
            self.pipeline.process(entry)
            self._seq = journal_seq
            replayed += 1
        self.journal_replayed = replayed
        self._events_since_checkpoint = 0
        self._report: Optional[StreamReport] = None
        if obs is not None:
            obs.increment("serve.restores" if self.restored else
                          "serve.cold_starts")
            obs.set_gauge("serve.journal_replayed", float(replayed))

    def _check_restored_settings(
        self,
        refresh_every: Optional[int],
        graph_config: Optional[GraphDetectorConfig],
        evict_every: int,
    ) -> None:
        """Refuse a restore whose requested settings differ from the
        snapshot's: the pickled core carries its own, and running it
        under other ones would diverge silently."""
        requested = {
            "refresh_every": refresh_every,
            "evict_every": evict_every,
            "graph_config": graph_config or GraphDetectorConfig(),
        }
        restored = {
            "refresh_every": self.graph.refresh_every,
            "evict_every": self.pipeline.evict_every,
            "graph_config": self.graph.config,
        }
        for name, value in requested.items():
            if value != restored[name]:
                raise StateStoreError(
                    f"{self.store.path}: snapshot was taken with "
                    f"{name}={restored[name]!r}, restore requested "
                    f"{name}={value!r}"
                )

    # -- core accessors --------------------------------------------------------

    @property
    def pipeline(self) -> StreamPipeline:
        return self._core["pipeline"]  # type: ignore[return-value]

    @property
    def graph(self) -> GraphStreamAdapter:
        return self._core["graph"]  # type: ignore[return-value]

    @property
    def sink(self) -> RecordingSink:
        return self._core["sink"]  # type: ignore[return-value]

    @property
    def campaign_log(self) -> CampaignLog:
        return self._core["campaigns"]  # type: ignore[return-value]

    @property
    def events_ingested(self) -> int:
        """Durable event count — the seq a client resumes from."""
        return self._seq

    @property
    def finished(self) -> bool:
        return self.pipeline._finished

    def last_time(self) -> Optional[float]:
        return self.pipeline.sessionizer._last_time

    # -- ingestion -------------------------------------------------------------

    def ingest(
        self, payload: object, seq: Optional[int] = None
    ) -> int:
        """Validate, journal, apply one batch; returns events applied.

        ``seq`` (optional) is the client's idea of how many events
        precede this batch — a cheap idempotency token: after a
        reconnect the client sends its running count, and a mismatch
        (server already has these events, or lost an unacknowledged
        batch) raises :class:`SeqConflict` carrying the authoritative
        count instead of silently double-applying.
        """
        if self.finished:
            raise ServiceFinished("service already finished")
        # Seq check first: a blind retry of an already-applied batch
        # should surface as a conflict (with the count to resync to),
        # not as a confusing out-of-order error.
        if seq is not None and seq != self._seq:
            raise SeqConflict(expected=self._seq, got=seq)
        entries, record = parse_events(
            payload, self.last_time(), self._seq + 1
        )
        if entries:
            self._apply(entries, record)
        return len(entries)

    def replay_file(
        self,
        path: str,
        offset: int = 0,
        limit: Optional[int] = None,
        batch: int = 512,
    ) -> Dict[str, int]:
        """Replay an RPTR trace through the service, journal-first.

        ``offset`` skips the first N trace entries (resume-after-crash:
        pass the server's durable ``events_ingested``); ``limit`` caps
        how many are applied this call, which lets callers replay in
        bounded chunks. Entries are journaled and applied in ``batch``
        groups — one SQLite commit per group, the throughput lever that
        keeps the server path within 2x of direct replay.  The trace is
        read through once before any of it is journaled, so a torn or
        corrupt trace raises before the first batch, and each batch is
        order-checked and encoded as :func:`parse_events` does an
        ingest batch.
        """
        if self.finished:
            raise ServiceFinished("service already finished")
        if offset < 0:
            raise ValueError(f"offset must be >= 0: {offset}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0: {limit}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1: {batch}")
        for _ in read_entries(path):
            pass  # a CRC pass first: no unverified entry is journaled
        applied = 0
        skipped = 0
        pending: List[LogEntry] = []
        for entry in read_entries(path):
            if skipped < offset:
                skipped += 1
                continue
            if limit is not None and applied >= limit:
                break
            pending.append(entry)
            applied += 1
            if len(pending) >= batch:
                self._apply_replayed(pending)
                pending.clear()
        if pending:
            self._apply_replayed(pending)
        return {
            "replayed": applied,
            "skipped": skipped,
            "events_ingested": self._seq,
        }

    def _apply_replayed(self, pending: List[LogEntry]) -> None:
        entries = tuple(pending)
        check_order(entries, self.last_time())
        self._apply(entries, encode_record(entries, self._seq + 1))

    def _apply(self, entries: Tuple[LogEntry, ...], record: bytes) -> None:
        """Journal-then-apply one batch of entries already checked for
        order, and ``record``, their journal record: an entry the
        pipeline would refuse must never reach the journal, or every
        restore would replay it into the same refusal."""
        self.store.append_events(self._seq + 1, entries, record)
        pipeline = self.pipeline
        for entry in entries:
            pipeline.process(entry)
        self._seq += len(entries)
        self._events_since_checkpoint += len(entries)
        if self.obs is not None:
            self.obs.increment("serve.events_ingested", len(entries))
        if self._events_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    # -- checkpoint / finish ---------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the core at the current seq; returns blob bytes."""
        size = self.store.write_snapshot(
            self._seq,
            self._core,
            created_at=_time.time(),
            derived={
                "verdicts": self.verdicts_view(),
                "campaigns": self.campaigns_view(),
                "entities": self.entities_view(),
            },
        )
        self._events_since_checkpoint = 0
        if self.obs is not None:
            self.obs.increment("serve.checkpoints")
            self.obs.set_gauge("serve.snapshot_bytes", float(size))
            self.obs.set_gauge("serve.snapshot_seq", float(self._seq))
        return size

    def finish(self) -> StreamReport:
        """Flush the pipeline, run the final graph analysis, and
        checkpoint the terminal state. Idempotent via the cached
        report; no further ingest is accepted."""
        if self._report is None:
            if self.finished:
                raise ServiceFinished(
                    "restored core is already finished"
                )
            self._report = self.pipeline.finish()
            self.checkpoint()
        return self._report

    # -- query views (all JSON-able) -------------------------------------------

    def verdicts_view(self) -> List[Dict[str, object]]:
        """Current fused verdict per subject, sorted by subject id."""
        return [_verdict_dict(v) for v in self.pipeline.fusion.fused()]

    def campaigns_view(self) -> List[Dict[str, object]]:
        """One row per :class:`CampaignLog` record, in conviction order:
        the campaign as it convicted a new fingerprint, under the rank
        name it had then.  A later refresh can give that name to
        another campaign, so rows are never merged by name."""
        return [
            {
                "campaign_id": campaign.campaign_id,
                "risk": campaign.risk,
                "first_seen": campaign.first_seen,
                "last_seen": campaign.last_seen,
                "sessions": campaign.session_count,
                "fingerprints": list(campaign.fingerprint_ids),
                "ips": list(campaign.ip_addresses),
                "convicted_at": convicted_at,
            }
            for convicted_at, campaign in self.campaign_log.records
        ]

    def entities_view(self) -> List[Dict[str, object]]:
        """Convicted fingerprint entities, in conviction order.

        The pipeline hands each subject to the sink once, so every
        entity record is a first conviction.
        """
        out: List[Dict[str, object]] = []
        for convicted_at, verdict in self.sink.records:
            fingerprint_id = fingerprint_of(verdict.subject_id)
            if fingerprint_id is not None:
                out.append(
                    {
                        "fingerprint_id": fingerprint_id,
                        "convicted_at": convicted_at,
                        "detector": verdict.detector,
                        "score": verdict.score,
                    }
                )
        return out

    def status_view(self) -> Dict[str, object]:
        return {
            "events_ingested": self._seq,
            "snapshot_seq": self.store.snapshot_seq(),
            "journal_rows": self.store.journal_rows(),
            "checkpoint_interval": self.checkpoint_interval,
            "sessions_closed": self.pipeline.sessionizer.sessions_closed,
            "subjects_tracked": self.pipeline.fusion.subjects_tracked,
            "campaigns_convicted": len(self.campaign_log.records),
            "entities_convicted": len(self.entities_view()),
            "restored": self.restored,
            "journal_replayed": self.journal_replayed,
            "finished": self.finished,
        }

    # -- final-analysis digest -------------------------------------------------

    def analysis_summary(self) -> Dict[str, object]:
        """Canonical JSON-able dump of the *finished* run: fused
        verdicts, propagation scores, campaigns and campaign verdicts
        — everything the batch graph detector would report."""
        report = self.finish()
        analysis = self.graph.final_analysis
        assert analysis is not None  # finish() ran end_of_stream
        return {
            "events_processed": report.events_processed,
            "sessions_closed": report.sessions_closed,
            "fused": [_verdict_dict(v) for v in report.fused],
            "propagation": {
                "scores": {
                    str(node): score
                    for node, score in analysis.propagation.scores.items()
                },
                "rounds": analysis.propagation.rounds,
                "converged": analysis.propagation.converged,
            },
            "campaigns": [
                {
                    "campaign_id": campaign.campaign_id,
                    "members": [str(m) for m in campaign.members],
                    "risk": campaign.risk,
                    "first_seen": campaign.first_seen,
                    "last_seen": campaign.last_seen,
                }
                for campaign in analysis.campaigns
            ],
            "campaign_verdicts": [
                {
                    "campaign_id": cv.campaign.campaign_id,
                    "verdict": _verdict_dict(cv.verdict),
                    "member_verdicts": [
                        _verdict_dict(v) for v in cv.member_verdicts
                    ],
                }
                for cv in analysis.campaign_verdicts
            ],
        }

    def analysis_digest(self) -> str:
        """SHA-256 over the canonical analysis summary.

        ``json.dumps`` with sorted keys and ``repr``-exact floats makes
        this digest equal *iff* the analyses are bit-identical — the
        recovery-equivalence test compares exactly this string between
        a SIGKILLed-and-restored run and an uninterrupted one.
        """
        canonical = json.dumps(
            self.analysis_summary(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ingest_payload(entries) -> List[Dict[str, object]]:
    """Helper for clients/tests: entries → POST /ingest JSON body."""
    return [entry_to_dict(entry) for entry in entries]
