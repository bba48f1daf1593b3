"""Incremental session reconstruction.

:class:`StreamSessionizer` is the online mirror of the batch session
partition (:class:`~repro.core.detection.session_index.SessionIndex`,
specified by ``sessionize`` in ``tests/session_oracle.py``): feed it
the same time-ordered entry stream and the set of sessions it emits
(closed incrementally plus the final :meth:`flush`) is *identical* —
same grouping, same idle-gap splits, same session ids — while holding
only the currently-open sessions in memory.

The equivalence argument: both run the same single pass.  The batch
version closes a session lazily, when the next same-key entry arrives
past the idle gap; :meth:`close_idle` merely closes such sessions
early, which is safe because event time is monotone — any future entry
from that key must arrive at or after the current stream time, hence
also past the gap.  Proactive closure is what turns the open-session
table into a *bounded* working set instead of one entry list per
client ever seen.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..web.logs import DEFAULT_IDLE_GAP, LogEntry, Session
from .store import KeyedStore

#: (ip_address, fingerprint_id) — the batch sessionizer's client key.
ClientKey = Tuple[str, str]


class StreamSessionizer:
    """Groups a live entry stream into sessions, one pass, bounded state.

    ``max_open_sessions`` optionally caps the open-session table; when
    the cap forces a session closed early the stream diverges from the
    batch reconstruction (counted in ``forced_closes``), so leave it
    ``None`` when exact equivalence matters.
    """

    def __init__(
        self,
        idle_gap: float = DEFAULT_IDLE_GAP,
        max_open_sessions: Optional[int] = None,
    ) -> None:
        if idle_gap <= 0:
            raise ValueError(f"idle_gap must be positive: {idle_gap}")
        self.idle_gap = idle_gap
        self._open: KeyedStore[ClientKey, Session] = KeyedStore(
            max_keys=max_open_sessions
        )
        self._counter = 0
        self._last_time: Optional[float] = None
        self.sessions_closed = 0
        self.entries_observed = 0
        self.forced_closes = 0

    # -- stream interface ---------------------------------------------------------

    def observe(self, entry: LogEntry) -> List[Session]:
        """Ingest one entry; returns any sessions this entry closed."""
        if self._last_time is not None and entry.time < self._last_time:
            raise ValueError(
                f"log entries must be time-ordered: {entry.time} < "
                f"{self._last_time}"
            )
        self._last_time = entry.time
        self.entries_observed += 1

        key = (entry.client.ip_address, entry.client.fingerprint_id)
        closed: List[Session] = []
        # A touching read: observing an entry is activity, so the key's
        # idle clock advances with event time even on this read path —
        # a continuously-hot session can never be evicted as idle.
        session = self._open.get(key, now=entry.time)
        if session is not None and entry.time - session.end > self.idle_gap:
            self._open.pop(key)
            closed.append(session)
            session = None
        if session is None:
            session, overflow = self._open.get_or_create(
                key, entry.time, lambda: self._new_session(entry)
            )
            for _, victim in overflow:
                self.forced_closes += 1
                closed.append(victim)
        session.entries.append(entry)
        self.sessions_closed += len(closed)
        return closed

    def close_idle(self, now: Optional[float] = None) -> List[Session]:
        """Close (and return) every session idle past the gap at ``now``
        (default: the latest observed entry time)."""
        if now is None:
            now = self._last_time
        if now is None:
            return []
        closed = [
            session for _, session in self._open.evict_idle(now, self.idle_gap)
        ]
        self.sessions_closed += len(closed)
        return closed

    def flush(self) -> List[Session]:
        """End of stream: close every remaining open session."""
        closed = [session for _, session in self._open.items()]
        for session in closed:
            self._open.pop(
                (session.ip_address, session.fingerprint_id)
            )
        self.sessions_closed += len(closed)
        return closed

    def open_session_for(self, key: ClientKey) -> Optional[Session]:
        """The currently-open session for a client key, if any.

        Deliberately a *non-touching* read: introspection (dashboards,
        tests, mitigation peeking at open state) must not keep a
        session alive past its idle gap — only observed entries count
        as activity.
        """
        return self._open.get(key)

    # -- accounting ------------------------------------------------------------

    @property
    def open_sessions(self) -> int:
        return len(self._open)

    @property
    def peak_open_sessions(self) -> int:
        """High-water mark of the open-session table — the number the
        bounded-memory acceptance test pins."""
        return self._open.peak_size

    def _new_session(self, entry: LogEntry) -> Session:
        self._counter += 1
        return Session(
            session_id=f"S{self._counter:07d}",
            ip_address=entry.client.ip_address,
            fingerprint_id=entry.client.fingerprint_id,
        )
