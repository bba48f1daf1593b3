"""The online detection pipeline.

:class:`StreamPipeline` consumes one :class:`~repro.web.logs.LogEntry`
at a time — either live, subscribed to a :class:`~repro.web.logs.WebLog`
while the simulation is still running, or offline from a captured trace
(:mod:`repro.trace`).  Each entry flows through

1. the incremental sessionizer (closing idle sessions as event time
   advances),
2. every adapter's fast path (``on_entry``) and session hook
   (``on_session_closed``),
3. incremental noisy-OR fusion,

and any subject whose *fused* verdict crosses the bot threshold is
pushed to the verdict sink exactly once — while the run is still in
progress, which is what lets mitigation act mid-attack.

End-of-stream, :meth:`finish` flushes the sessionizer and returns a
:class:`StreamReport` whose session verdicts are identical to the batch
pipeline's on the same log (see :func:`batch_session_verdicts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Protocol, Sequence

from ..core.detection.fusion import FusionDetector
from ..core.detection.verdict import Verdict
from ..web.logs import DEFAULT_IDLE_GAP, LogEntry, Session, WebLog
from .adapters import SessionJudge, StreamAdapter
from .fusion import IncrementalFusion
from .sessionizer import StreamSessionizer


class VerdictSink(Protocol):
    """Receives each subject's first bot-positive fused verdict."""

    def handle(self, verdict: Verdict, now: float) -> None: ...


@dataclass
class StreamReport:
    """Everything one streaming run produced."""

    events_processed: int
    sessions_closed: int
    #: Per-session detector verdicts, in judge order (session close
    #: order, then adapter order) — batch-equivalent as a set.
    session_verdicts: List[Verdict] = field(default_factory=list)
    #: Fast-path entity verdicts (``fp:`` subjects), in emission order.
    entity_verdicts: List[Verdict] = field(default_factory=list)
    #: Final fused verdict per subject, sorted by subject id.
    fused: List[Verdict] = field(default_factory=list)
    peak_open_sessions: int = 0
    sink_notifications: int = 0

    def bot_subjects(self) -> List[str]:
        return [v.subject_id for v in self.fused if v.is_bot]


class StreamPipeline:
    """Online sessionization → incremental detection → fusion → sink."""

    def __init__(
        self,
        adapters: Sequence[StreamAdapter],
        fusion: Optional[FusionDetector] = None,
        sink: Optional[VerdictSink] = None,
        idle_gap: float = DEFAULT_IDLE_GAP,
        evict_every: int = 256,
        max_open_sessions: Optional[int] = None,
        obs: Optional[object] = None,
    ) -> None:
        if evict_every < 1:
            raise ValueError(f"evict_every must be >= 1: {evict_every}")
        self.adapters = list(adapters)
        self.sink = sink
        self.evict_every = evict_every
        #: Optional wall-clock instrumentation (duck-typed
        #: :class:`repro.obs.ObsRegistry`): per-stage latency timers
        #: (``stream.stage.sessionize`` / ``.adapters`` / ``.fusion``
        #: / ``.evict``) and entry/verdict counters.  ``None`` keeps
        #: ingestion on the zero-overhead path.  Note the fusion stage
        #: runs nested inside the adapter/session stages, so stage
        #: totals overlap rather than summing to the pipeline total.
        self.obs = obs
        self.sessionizer = StreamSessionizer(
            idle_gap=idle_gap, max_open_sessions=max_open_sessions
        )
        self.fusion = IncrementalFusion(fusion)
        self._session_verdicts: List[Verdict] = []
        self._entity_verdicts: List[Verdict] = []
        self._notified: set = set()
        self._finished = False
        self.events_processed = 0
        self.sink_notifications = 0

    # -- ingestion -----------------------------------------------------------

    def attach(self, log: WebLog) -> Callable[[], None]:
        """Subscribe to a live log; returns the unsubscribe callable."""
        return log.subscribe(self.process)

    def process(self, entry: LogEntry) -> None:
        """Ingest one entry (live observer or replay feed)."""
        if self._finished:
            raise RuntimeError("pipeline already finished")
        self.events_processed += 1
        now = entry.time
        obs = self.obs
        if obs is None:
            for session in self.sessionizer.observe(entry):
                self._on_session_closed(session)
            for adapter in self.adapters:
                for verdict in adapter.on_entry(entry, now):
                    self._entity_verdicts.append(verdict)
                    self._fuse(verdict, now)
            if self.events_processed % self.evict_every == 0:
                for session in self.sessionizer.close_idle(now):
                    self._on_session_closed(session)
                for adapter in self.adapters:
                    adapter.evict_idle(now, self.sessionizer.idle_gap)
            return

        obs.increment("stream.entries")
        started = perf_counter()
        closed = self.sessionizer.observe(entry)
        obs.timer("stream.stage.sessionize").observe(
            perf_counter() - started
        )
        for session in closed:
            self._on_session_closed(session)
        started = perf_counter()
        for adapter in self.adapters:
            for verdict in adapter.on_entry(entry, now):
                self._entity_verdicts.append(verdict)
                obs.increment("stream.verdicts.entity")
                self._fuse(verdict, now)
        obs.timer("stream.stage.adapters").observe(
            perf_counter() - started
        )
        if self.events_processed % self.evict_every == 0:
            started = perf_counter()
            for session in self.sessionizer.close_idle(now):
                self._on_session_closed(session)
            for adapter in self.adapters:
                adapter.evict_idle(now, self.sessionizer.idle_gap)
            obs.timer("stream.stage.evict").observe(
                perf_counter() - started
            )

    def finish(self) -> StreamReport:
        """Flush open state and assemble the final report."""
        if self._finished:
            raise RuntimeError("pipeline already finished")
        self._finished = True
        now = self._last_time()
        for session in self.sessionizer.flush():
            self._on_session_closed(session, now=now)
        for adapter in self.adapters:
            for verdict in adapter.end_of_stream():
                self._entity_verdicts.append(verdict)
                self._fuse(verdict, now)
        obs = self.obs
        if obs is not None:
            obs.set_gauge(
                "stream.events_processed", float(self.events_processed)
            )
            obs.set_gauge(
                "stream.sessions_closed",
                float(self.sessionizer.sessions_closed),
            )
            # Per-stage throughput: entries per second of ingest-path
            # busy time (sessionize + adapters + evict; fusion nests
            # inside and is excluded to avoid double counting).
            busy = sum(
                obs.timer(f"stream.stage.{stage}").total
                for stage in ("sessionize", "adapters", "evict")
            )
            if busy > 0:
                obs.set_gauge(
                    "stream.events_per_second",
                    self.events_processed / busy,
                )
        return StreamReport(
            events_processed=self.events_processed,
            sessions_closed=self.sessionizer.sessions_closed,
            session_verdicts=list(self._session_verdicts),
            entity_verdicts=list(self._entity_verdicts),
            fused=self.fusion.fused(),
            peak_open_sessions=self.sessionizer.peak_open_sessions,
            sink_notifications=self.sink_notifications,
        )

    # -- internals ------------------------------------------------------------

    def _on_session_closed(
        self, session: Session, now: Optional[float] = None
    ) -> None:
        when = now if now is not None else session.end
        obs = self.obs
        started = perf_counter() if obs is not None else 0.0
        for adapter in self.adapters:
            for verdict in adapter.on_session_closed(session):
                self._session_verdicts.append(verdict)
                self._fuse(verdict, when)
        if obs is not None:
            obs.increment("stream.sessions_closed")
            obs.timer("stream.stage.session_judges").observe(
                perf_counter() - started
            )

    def _fuse(self, verdict: Verdict, now: float) -> None:
        obs = self.obs
        if obs is not None:
            started = perf_counter()
            fused = self.fusion.update(verdict)
            obs.timer("stream.stage.fusion").observe(
                perf_counter() - started
            )
        else:
            fused = self.fusion.update(verdict)
        if (
            fused.is_bot
            and self.sink is not None
            and fused.subject_id not in self._notified
        ):
            self._notified.add(fused.subject_id)
            self.sink_notifications += 1
            self.sink.handle(fused, now)

    def _last_time(self) -> float:
        last = self.sessionizer._last_time
        return last if last is not None else 0.0


def batch_session_verdicts(
    log: WebLog,
    detectors: Sequence[SessionJudge],
    idle_gap: float = DEFAULT_IDLE_GAP,
) -> List[Verdict]:
    """The batch pipeline the stream is measured against: sessionize
    the finished log, judge every session with every detector."""
    from ..core.detection.session_index import SessionIndex

    sessions = SessionIndex.from_log(log, idle_gap=idle_gap).sessions()
    verdicts: List[Verdict] = []
    for detector in detectors:
        for session in sessions:
            verdicts.append(detector.judge(session))
    return verdicts
