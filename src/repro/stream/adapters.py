"""Incremental adapters feeding the detector families.

Two kinds of adapter ride the stream:

* **session adapters** (:class:`SessionDetectorAdapter`) judge each
  block of sessions *the moment the sessionizer closes it*, with the
  unmodified batch detector's ``judge_index`` over a ``SessionIndex``
  of the block (:meth:`~repro.core.detection.session_index.
  SessionIndex.from_sessions`) — the same encoding and the same code
  as the batch pass, so end-of-stream verdicts are identical to
  ``judge_index`` over the batch ``SessionIndex``, which is the
  equivalence the replay harness asserts;
* **entity fast paths** (:class:`HoldVelocityAdapter`,
  :class:`SmsVelocityAdapter`) keep sliding per-client tallies and can
  convict *while the session is still open* — the only verdicts that
  arrive early enough for mid-attack mitigation, since a session only
  closes after its client has already gone idle (or rotated away).

Entity subjects are namespaced (:func:`~repro.core.detection.subjects.
entity_subject`) so they never collide with session ids inside the
fusion layer, and a fast path convicts each fingerprint once, through
:func:`~repro.core.detection.subjects.convict_once`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Protocol, Set

from ..core.detection.subjects import convict_once
from ..core.detection.verdict import Verdict
from ..web.logs import LogEntry, Session
from ..web.request import BOARDING_PASS_SMS, HOLD
from .store import KeyedStore


class IndexJudge(Protocol):
    """A batch detector's columnar path over a ``SessionIndex``."""

    name: str

    def judge_index(self, index) -> List[Verdict]: ...


class StreamAdapter:
    """Base adapter: override any subset of the three hooks."""

    name = "stream-adapter"

    def on_entry(self, entry: LogEntry, now: float) -> Iterable[Verdict]:
        """Called for every log entry, in stream order."""
        return ()

    def on_session_closed(
        self, session: Session, now: float
    ) -> Iterable[Verdict]:
        """Called for every closed session, at ``now``, the stream time
        of the close."""
        return ()

    def end_of_stream(self) -> Iterable[Verdict]:
        """Called once after the final flush."""
        return ()

    def evict_idle(self, now: float, idle_gap: float) -> None:
        """Drop per-client state idle past ``idle_gap`` (no-op default)."""


class SessionDetectorAdapter(StreamAdapter):
    """Judges closed sessions with an unmodified batch detector.

    The pipeline hands it each block of closed sessions once
    (:meth:`judge_block`), then each session of the block in order
    (:meth:`on_session_closed`), which returns that session's verdict.
    A block's verdicts are all handed out before the pipeline returns,
    so between blocks the adapter holds none — all windowing lives in
    the sessionizer.
    """

    def __init__(self, detector: IndexJudge) -> None:
        self.detector = detector
        self.name = detector.name
        self.sessions_judged = 0

    def __getstate__(self) -> Dict[str, object]:
        # Between blocks no verdict is pending: snapshots carry none.
        state = self.__dict__.copy()
        state.pop("_judged", None)
        return state

    def judge_block(self, index) -> None:
        """Judge one block's ``SessionIndex``, rows in close order."""
        self._judged: Deque[Verdict] = deque(
            self.detector.judge_index(index)
        )

    def on_session_closed(
        self, session: Session, now: float
    ) -> Iterable[Verdict]:
        self.sessions_judged += 1
        return (self._judged.popleft(),)


class _SlidingCounterAdapter(StreamAdapter):
    """Shared machinery: per-fingerprint sliding-window event counter
    that convicts (once) when the window count reaches a threshold."""

    #: Request path this adapter counts (subclasses set it).
    path = ""
    #: Reason string attached to convictions.
    reason = "velocity"

    def __init__(
        self,
        threshold: int,
        window: float,
        max_clients: int = 100_000,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.threshold = threshold
        self.window = window
        self._tallies: KeyedStore[str, Deque[float]] = KeyedStore(
            max_keys=max_clients
        )
        #: Fingerprints convicted so far (each is convicted once).
        self.convicted: Set[str] = set()

    def on_entry(self, entry: LogEntry, now: float) -> Iterable[Verdict]:
        if entry.path != self.path:
            return ()
        fingerprint_id = entry.client.fingerprint_id
        if fingerprint_id in self.convicted:
            return ()
        # get_or_create is a touching access, so a fingerprint that
        # keeps sending events is never evicted as idle mid-window;
        # evict_idle below only reaps tallies with no recent events.
        tally, _ = self._tallies.get_or_create(
            fingerprint_id, now, deque
        )
        tally.append(entry.time)
        while tally and entry.time - tally[0] > self.window:
            tally.popleft()
        if len(tally) < self.threshold:
            return ()
        self._tallies.pop(fingerprint_id)
        return convict_once(
            self.convicted, (fingerprint_id,), self.name,
            f"{self.reason}:{len(tally)}-in-{self.window:.0f}s",
        )

    def evict_idle(self, now: float, idle_gap: float) -> None:
        # A tally idle past the detection window can never refill fast
        # enough to convict from its stale prefix; drop it.
        self._tallies.evict_idle(now, max(self.window, idle_gap))

    @property
    def convictions(self) -> int:
        return len(self.convicted)

    @property
    def tracked_clients(self) -> int:
        return len(self._tallies)

    @property
    def peak_tracked_clients(self) -> int:
        return self._tallies.peak_size


class HoldVelocityAdapter(_SlidingCounterAdapter):
    """Convicts a fingerprint making too many ``/hold`` requests in a
    sliding window — the online version of the mitigation controller's
    holds-per-fingerprint frequency rule, firing per-event instead of
    on the next periodic evaluation."""

    name = "hold-velocity"
    path = HOLD
    reason = "hold-velocity"


class SmsVelocityAdapter(_SlidingCounterAdapter):
    """Convicts a fingerprint pumping boarding-pass SMS requests — the
    streaming fast path for the Case C abuse."""

    name = "sms-velocity"
    path = BOARDING_PASS_SMS
    reason = "sms-velocity"
