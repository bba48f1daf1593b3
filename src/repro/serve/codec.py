"""Wire codec: :class:`~repro.web.logs.LogEntry` ⇄ JSON-able dicts,
and each ingest batch's journal record.

The ingest endpoint and the query responses speak one flat field set —
exactly the eleven strings plus three scalars the RPTR trace format
(:mod:`repro.trace.format`) serialises, which is also the journal's
encoding at rest.  :func:`entry_from_dict` takes each field only in
its own JSON type — a number for ``time``, an integer for ``status``,
a bool for ``ip_residential``, a string for the rest — rather than
coercing it, and refuses a field outside that set, so a misspelt
optional field cannot pass for its default.  :func:`parse_events`
then checks time order and encodes the batch's journal record, so
what a record cannot hold (a status outside the u16, a string UTF-8
cannot encode or that is too long) is refused by the one
:class:`~repro.trace.format.TraceWriter` that writes it.  Each
refusal is a :class:`CodecError` (a 400) raised before any journal
work.  Identical events are accepted as separate events: a seat
spinner's same-instant ``/hold`` burst is a run of identical requests,
and the burst is the attack.  A resent batch is caught by ``seq``.

One read per event: :func:`parse_events` reads each event dict's
fields once, into the event's entry and its row (the arguments of
:meth:`~repro.trace.format.TraceWriter.write_row`), and the writer
encodes each row once: the strings the entry defines and the entry
itself go out as one buffer.  The three stages still run in order over
the whole batch — every event's shape, then time order, then what a
record can hold — so a batch with faults in more than one stage is
refused for the earliest stage."""

from __future__ import annotations

import io
import math
from collections.abc import Mapping, Sequence
from operator import itemgetter
from typing import Dict, Iterable, Optional, Tuple

from ..common import LEGIT, ClientRef
from ..trace.format import Row, TraceError, TraceWriter, entry_row
from ..web.logs import LogEntry

_REQUIRED = ("time", "method", "path", "status", "ip_address",
             "fingerprint_id")
_REQUIRED_SET = frozenset(_REQUIRED)

#: The eleven string fields, in RPTR record order.
_TEXT_NAMES = (
    "method", "path", "blocked_by", "outcome", "ip_address", "ip_country",
    "fingerprint_id", "user_agent", "profile_id", "actor", "actor_class",
)
_FIELDS = frozenset(("time", "status", "ip_residential") + _TEXT_NAMES)

_entry_of = itemgetter(0)
_row_of = itemgetter(1)


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


def _decode(data: object) -> Tuple[LogEntry, Row]:
    """One event dict as its entry and its :meth:`TraceWriter.write_row`
    arguments, each field read once; raises :class:`CodecError` on bad
    shape."""
    # ``type() is dict`` first: every JSON object is one, and the ABC
    # check costs several times as much.
    if type(data) is not dict and not isinstance(data, Mapping):
        raise CodecError(f"event must be an object, got {type(data).__name__}")
    keys = data.keys()
    if not keys >= _REQUIRED_SET:
        missing = [name for name in _REQUIRED if name not in keys]
        raise CodecError(f"event missing required fields: {missing}")
    if not keys <= _FIELDS:
        unknown = sorted(set(keys) - _FIELDS)
        raise CodecError(f"event has unknown fields: {unknown}")
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
    # In _TEXT_NAMES order; the required ones are known to be present.
    texts = (
        data["method"],
        data["path"],
        data.get("blocked_by", ""),
        data.get("outcome", ""),
        data["ip_address"],
        data.get("ip_country", ""),
        data["fingerprint_id"],
        data.get("user_agent", ""),
        data.get("profile_id", ""),
        data.get("actor", ""),
        data.get("actor_class", LEGIT),
    )
    for text in texts:
        if type(text) is not str:
            name, text = next(
                (name, text) for name, text in zip(_TEXT_NAMES, texts)
                if type(text) is not str
            )
            raise _mistyped(name, text, "a string")
    (method, path, blocked_by, outcome, ip_address, ip_country,
     fingerprint_id, user_agent, profile_id, actor, actor_class) = texts
    try:
        time = float(time)
    except OverflowError as error:  # an integer past the double range
        raise CodecError(f"field 'time': {error}")
    entry = LogEntry(
        time,
        method,
        path,
        status,
        ClientRef(
            ip_address,
            ip_country,
            residential,
            fingerprint_id,
            user_agent,
            profile_id,
            actor,
            actor_class,
        ),
        blocked_by,
        outcome,
    )
    return entry, (time, status, residential, texts)


def entry_from_dict(data: Mapping[str, object]) -> LogEntry:
    """Parse one flat event dict; raises :class:`CodecError` on bad
    shape so the ingest endpoint can reject the batch *before* any of
    it touches pipeline or journal."""
    return _decode(data)[0]


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


def _encode(rows: Iterable[Row], first_seq: int) -> bytes:
    """The journal record of ``rows`` (:meth:`TraceWriter.write_row`
    arguments) as seqs ``first_seq`` on: one RPTR trace with
    ``{"first_seq": first_seq}`` as its metadata.  A row the RPTR
    writer refuses raises :class:`CodecError` naming its index."""
    buffer = io.BytesIO()
    writer = TraceWriter(buffer, meta={"first_seq": first_seq})
    write_row = writer.write_row
    for row in rows:
        try:
            write_row(*row)
        except TraceError as error:
            raise CodecError(f"event {writer.entries_written}: {error}")
    writer.close()
    return buffer.getvalue()


def encode_record(entries: Sequence[LogEntry], first_seq: int) -> bytes:
    """The journal record of ``entries`` as seqs ``first_seq`` on."""
    return _encode(map(entry_row, entries), first_seq)


def parse_events(
    payload: object, last_time: Optional[float], first_seq: int
) -> Tuple[Tuple[LogEntry, ...], bytes]:
    """Validate a full ingest batch up front and encode it as seqs
    ``first_seq`` on: the shape of every event, :func:`check_order`
    against ``last_time``, then what an RPTR record can hold.  Returns
    the entries and their journal record."""
    if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
        raise CodecError("events must be a list of event objects")
    decoded = list(map(_decode, payload))
    entries = tuple(map(_entry_of, decoded))
    check_order(entries, last_time)
    return entries, _encode(map(_row_of, decoded), first_seq)
