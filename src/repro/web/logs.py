"""Web logs and sessionization.

Behaviour-based bot detection (Section III-A) starts from web logs
grouped into user sessions.  :class:`WebLog` records one row per
request in a columnar store; batch analysis sessionizes it with
:class:`~repro.core.detection.session_index.SessionIndex`.
:func:`sessionize` is the per-entry reference reconstruction —
entries grouped by client identity (IP + fingerprint), split on idle
gaps, the standard log-analysis pipeline the paper describes — that
the columnar index and the streaming sessionizer are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..common import ClientRef

#: Default idle gap that closes a session (the conventional 30 minutes).
DEFAULT_IDLE_GAP = 30.0 * 60.0


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One line of the web log.

    Slotted: the log holds one of these per request for the whole run,
    and feature extraction walks them attribute by attribute — no
    per-entry ``__dict__`` means less memory and faster reads.
    """

    time: float
    method: str
    path: str
    status: int
    client: ClientRef
    blocked_by: str = ""
    outcome: str = ""


#: Observer signature for :meth:`WebLog.subscribe`.
LogObserver = Callable[[LogEntry], None]


def _observer_name(observer: LogObserver) -> str:
    """Best human-readable identity for a subscribed callable."""
    qualname = getattr(observer, "__qualname__", None)
    if qualname:
        owner = getattr(observer, "__self__", None)
        if owner is not None:
            return f"{qualname} of {owner!r}"
        return qualname
    return repr(observer)


class WebLog:
    """Append-only request log with time-ordered access.

    Consumers that need the whole log as they please can call
    :meth:`entries` (a defensive copy); hot paths should iterate
    :meth:`iter_entries` instead, batch analysis should read
    :meth:`columns`, and *online* consumers (the streaming detection
    pipeline, trace capture) should :meth:`subscribe` and be handed
    each entry as it lands.

    Storage is columnar (one NumPy array per field, see
    :mod:`repro.web.logstore`) so million-visitor worlds keep the log
    at rest in bounded memory.  Producers that already hold the raw
    fields should call :meth:`append_fields`, which skips ``LogEntry``
    construction entirely unless an observer is subscribed.
    """

    def __init__(self) -> None:
        from .logstore import ColumnarLogStore

        self._store = ColumnarLogStore()
        self._observers: List[LogObserver] = []
        #: The observer currently being dispatched to (``None`` outside
        #: :meth:`_notify`) — named in the re-entrancy error so the
        #: offending subscriber is identifiable from the traceback.
        self._dispatching: Optional[LogObserver] = None

    def _check_order(self, time: float) -> None:
        if self._dispatching is not None:
            raise RuntimeError(
                "re-entrant WebLog.append from subscribed observer "
                f"{_observer_name(self._dispatching)}: an observer may "
                "not append to the log it is observing"
            )
        if len(self._store):
            last = self._store.last_time()
            if time < last:
                raise ValueError(
                    f"log entries must be time-ordered: {time} < {last}"
                )

    def _notify(self, entry: LogEntry) -> None:
        # Snapshot before dispatch: an observer that unsubscribes
        # (itself or a peer) mid-dispatch must not perturb this
        # iteration — removed observers still see the in-flight entry,
        # and nobody is skipped by list compaction.
        try:
            for observer in tuple(self._observers):
                self._dispatching = observer
                observer(entry)
        finally:
            self._dispatching = None

    def append(self, entry: LogEntry) -> None:
        self._check_order(entry.time)
        self._store.append_entry(entry)
        if self._observers:
            self._notify(entry)

    def append_fields(
        self,
        time: float,
        method: str,
        path: str,
        status: int,
        client: ClientRef,
        blocked_by: str = "",
        outcome: str = "",
    ) -> None:
        """Append from raw fields — the request hot path.

        With no observers subscribed this writes straight into the
        arrays and never builds a :class:`LogEntry`; otherwise it
        behaves exactly like :meth:`append`.
        """
        self._check_order(time)
        self._store.append(
            time, method, path, status, client, blocked_by, outcome
        )
        if self._observers:
            self._notify(self._store.get(len(self._store) - 1))

    def subscribe(self, observer: LogObserver) -> Callable[[], None]:
        """Register ``observer`` to receive every future entry.

        Returns an unsubscribe callable.  Observers run synchronously
        inside :meth:`append` (after the entry is committed) and must
        not append to the same log — re-entrant appends raise, naming
        the observer that was mid-dispatch.
        """
        self._observers.append(observer)
        return lambda: self.unsubscribe(observer)

    def unsubscribe(self, observer: LogObserver) -> bool:
        """Remove ``observer``; returns whether it was subscribed.

        Idempotent, and safe to call *during dispatch* (from any
        observer, against itself or a peer): the in-flight notification
        iterates a snapshot, so the removed observer still receives the
        entry being dispatched and stops at the next append — clean
        subscriber teardown for long-running services shutting down.
        """
        try:
            self._observers.remove(observer)
        except ValueError:
            return False
        return True

    @property
    def observer_count(self) -> int:
        return len(self._observers)

    def entries(self) -> List[LogEntry]:
        """The whole log as a fresh list (O(n) per call)."""
        return list(self._store.iter_entries())

    def iter_entries(self) -> Iterator[LogEntry]:
        """Lazy iteration without a defensive copy.

        The row set is pinned at call time: entries appended after the
        view is taken are not yielded.
        """
        return self._store.iter_entries()

    def entry_at(self, index: int) -> LogEntry:
        """Random access to one entry by row index."""
        return self._store.get(index)

    def entries_between(self, start: float, end: float) -> List[LogEntry]:
        return self._store.entries_between(start, end)

    def columns(self):
        """Whole-log columnar view (:class:`~repro.web.logstore.
        LogColumns`), free of per-row materialisation."""
        return self._store.columns()

    def __len__(self) -> int:
        return len(self._store)


@dataclass(slots=True)
class Session:
    """A reconstructed user session: one client identity, no idle gaps."""

    session_id: str
    ip_address: str
    fingerprint_id: str
    entries: List[LogEntry] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.entries[0].time

    @property
    def end(self) -> float:
        return self.entries[-1].time

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def request_count(self) -> int:
        return len(self.entries)

    @property
    def actor_class(self) -> str:
        """Ground-truth majority actor class (evaluation only).

        A zero-entry session carries no evidence of anything — it
        counts as legitimate rather than crashing ``max()``.
        """
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.client.actor_class] = (
                counts.get(entry.client.actor_class, 0) + 1
            )
        if not counts:
            return "legit"
        return max(counts.items(), key=lambda item: item[1])[0]

    @property
    def is_attacker(self) -> bool:
        """Ground truth — scoring only."""
        return self.actor_class != "legit"


def sessionize(
    log: WebLog,
    idle_gap: float = DEFAULT_IDLE_GAP,
) -> List[Session]:
    """Group log entries into sessions.

    A session is a maximal run of requests sharing ``(ip, fingerprint)``
    with no gap larger than ``idle_gap`` — the same reconstruction a
    defender would run on production logs.  Note the defender-side
    blind spot this encodes: a bot that rotates IP or fingerprint
    *starts a new session*, which is exactly why rotation defeats
    session-level profiling.
    """
    if idle_gap <= 0:
        raise ValueError(f"idle_gap must be positive: {idle_gap}")
    open_sessions: Dict[Tuple[str, str], Session] = {}
    finished: List[Session] = []
    counter = 0
    for entry in log.iter_entries():
        key = (entry.client.ip_address, entry.client.fingerprint_id)
        session = open_sessions.get(key)
        if session is not None and entry.time - session.end > idle_gap:
            finished.append(session)
            session = None
        if session is None:
            counter += 1
            session = Session(
                session_id=f"S{counter:07d}",
                ip_address=entry.client.ip_address,
                fingerprint_id=entry.client.fingerprint_id,
            )
            open_sessions[key] = session
        session.entries.append(entry)
    finished.extend(open_sessions.values())
    finished.sort(key=lambda s: s.start)
    return finished
