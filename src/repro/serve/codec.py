"""Wire codec: :class:`~repro.web.logs.LogEntry` ⇄ JSON-able dicts.

The ingest endpoint and the query responses speak one flat field set —
exactly the eleven strings plus three scalars the RPTR trace format
(:mod:`repro.trace.format`) serialises, which is also the journal's
encoding at rest.  :func:`entry_from_dict` takes each field only in
its own JSON type — a number for ``time``, an integer for ``status``,
a bool for ``ip_residential``, a string for the rest — rather than
coercing it, and refuses what an RPTR record cannot hold (a status
outside the u16, a string over :data:`~repro.trace.format.
MAX_STRING_BYTES` UTF-8 bytes or not encodable at all), so a batch
that parses always journals what was sent.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..common import ClientRef
from ..trace.format import MAX_STATUS, MAX_STRING_BYTES
from ..web.logs import LogEntry

_REQUIRED = ("time", "method", "path", "status", "ip_address",
             "fingerprint_id")

#: The eleven string fields and their defaults (``None`` for a
#: required field).
_TEXT_NAMES = (
    "method", "path", "blocked_by", "outcome", "ip_address", "ip_country",
    "fingerprint_id", "user_agent", "profile_id", "actor", "actor_class",
)
_TEXT_DEFAULTS = (None, None, "", "", None, "", None, "", "", "", "legit")


class CodecError(ValueError):
    """An ingested event dict does not describe a valid log entry."""


def _mistyped(name: str, value: object, kind: str) -> CodecError:
    return CodecError(
        f"field {name!r} must be {kind}, got {type(value).__name__}"
    )


def entry_to_dict(entry: LogEntry) -> Dict[str, object]:
    """Flatten one entry (client fields inlined) for JSON transport."""
    client = entry.client
    return {
        "time": entry.time,
        "method": entry.method,
        "path": entry.path,
        "status": entry.status,
        "blocked_by": entry.blocked_by,
        "outcome": entry.outcome,
        "ip_address": client.ip_address,
        "ip_country": client.ip_country,
        "ip_residential": client.ip_residential,
        "fingerprint_id": client.fingerprint_id,
        "user_agent": client.user_agent,
        "profile_id": client.profile_id,
        "actor": client.actor,
        "actor_class": client.actor_class,
    }


def entry_from_dict(data: Mapping[str, object]) -> LogEntry:
    """Parse one flat event dict; raises :class:`CodecError` on bad
    shape so the ingest endpoint can reject the batch *before* any of
    it touches pipeline or journal."""
    if not isinstance(data, Mapping):
        raise CodecError(f"event must be an object, got {type(data).__name__}")
    missing = [name for name in _REQUIRED if name not in data]
    if missing:
        raise CodecError(f"event missing required fields: {missing}")
    # Exact type() tests: JSON true/false parse as bool, an int
    # subclass, and are neither a number nor an integer here.
    time = data["time"]
    if type(time) not in (int, float):
        raise _mistyped("time", time, "a number")
    status = data["status"]
    if type(status) is not int:
        raise _mistyped("status", status, "an integer")
    residential = data.get("ip_residential", False)
    if type(residential) is not bool:
        raise _mistyped("ip_residential", residential, "a bool")
    texts = list(map(data.get, _TEXT_NAMES, _TEXT_DEFAULTS))
    if set(map(type, texts)) != {str}:
        name, text = next(
            (name, text) for name, text in zip(_TEXT_NAMES, texts)
            if type(text) is not str
        )
        raise _mistyped(name, text, "a string")
    (method, path, blocked_by, outcome, ip_address, ip_country,
     fingerprint_id, user_agent, profile_id, actor, actor_class) = texts
    try:
        entry = LogEntry(
            time=float(time),
            method=method,
            path=path,
            status=status,
            client=ClientRef(
                ip_address=ip_address,
                ip_country=ip_country,
                ip_residential=residential,
                fingerprint_id=fingerprint_id,
                user_agent=user_agent,
                profile_id=profile_id,
                actor=actor,
                actor_class=actor_class,
            ),
            blocked_by=blocked_by,
            outcome=outcome,
        )
        _check_recordable(entry)
    except (OverflowError, ValueError) as error:
        # float() of an integer past the double range, or a string
        # the UTF-8 encoder refuses.
        raise CodecError(f"bad event field: {error}")
    return entry


def _check_recordable(entry: LogEntry) -> None:
    """Refuse what the journal's RPTR record cannot hold."""
    if not 0 <= entry.status <= MAX_STATUS:
        raise CodecError(f"status {entry.status} outside 0..{MAX_STATUS}")
    client = entry.client
    texts = (
        entry.method, entry.path, entry.blocked_by, entry.outcome,
        client.ip_address, client.ip_country, client.fingerprint_id,
        client.user_agent, client.profile_id, client.actor,
        client.actor_class,
    )
    for text in texts:
        size = len(text.encode("utf-8"))  # a lone surrogate raises here
        if size > MAX_STRING_BYTES:
            raise CodecError(
                f"string field of {size} UTF-8 bytes "
                f"(at most {MAX_STRING_BYTES})"
            )


def check_order(
    entries: Sequence[LogEntry], last_time: Optional[float]
) -> None:
    """Raise :class:`CodecError` unless every time is finite and none
    precedes ``last_time`` (the pipeline's latest observed event time)
    or the entry before it: the pipeline's ordering contract, checked
    before a batch is journaled so neither journaling nor applying can
    fail halfway.  ``Infinity`` would put every later event "before"
    it and ``NaN`` compares false with everything, so both are
    refused outright."""
    previous = last_time
    for index, entry in enumerate(entries):
        if not math.isfinite(entry.time):
            raise CodecError(f"event {index} has time {entry.time}")
        if previous is not None and entry.time < previous:
            raise CodecError(
                f"events must be time-ordered: event {index} at "
                f"{entry.time} arrives before {previous}"
            )
        previous = entry.time


def parse_events(
    payload: object, last_time: Optional[float]
) -> Tuple[LogEntry, ...]:
    """Validate a full ingest batch up front: the shape of every
    event, then :func:`check_order` against ``last_time``."""
    if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
        raise CodecError("events must be a list of event objects")
    entries = tuple(entry_from_dict(item) for item in payload)
    check_order(entries, last_time)
    return entries
