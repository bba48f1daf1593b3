"""Per-entry reference for the session partition.

:func:`sessionize` is the historical batch sessionizer: one pass over
the log, entries grouped by client identity (IP + fingerprint) and
split on idle gaps.  Production code partitions sessions with
:class:`~repro.core.detection.session_index.SessionIndex` (batch) and
:class:`~repro.stream.sessionizer.StreamSessionizer` (stream); this
stays here, outside the package, as the executable specification both
are tested against.
"""

from typing import Dict, List, Tuple

from repro.web.logs import DEFAULT_IDLE_GAP, Session, WebLog


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
