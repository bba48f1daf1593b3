"""The ingest codec's contract: every refusal and its exact message,
entries and journal records equal to per-event construction and the
per-entry reference encoder, and capture files that stay byte-stable.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ClientRef
from repro.serve.codec import (
    CodecError,
    encode_record,
    entry_from_dict,
    entry_to_dict,
    parse_events,
)
from repro.web.logs import LogEntry

from tests import rptr_oracle
from tests.serve_util import campaign_entries, make_entry, write_trace

_DROP = object()
_TEXT_NAMES = (
    "method", "path", "blocked_by", "outcome", "ip_address", "ip_country",
    "fingerprint_id", "user_agent", "profile_id", "actor", "actor_class",
)


def _event(time_=1.0, **changes):
    """A valid event dict with ``changes`` applied (``_DROP`` removes
    the field)."""
    data = entry_to_dict(make_entry(time_))
    for name, value in changes.items():
        if value is _DROP:
            del data[name]
        else:
            data[name] = value
    return data


def _refusals():
    """``(id, payload, last_time, message)``, each message pinned
    exactly: a client reads them, and a change to one is a change to
    the wire contract."""
    yield ("missing-field", [_event(fingerprint_id=_DROP)], None,
           "event missing required fields: ['fingerprint_id']")
    yield ("missing-fields", [_event(time=_DROP, path=_DROP, status=_DROP)],
           None, "event missing required fields: ['time', 'path', 'status']")
    yield ("unknown-field", [_event(user_agnet="UA")], None,
           "event has unknown fields: ['user_agnet']")
    yield ("unknown-fields", [_event(zeta=1, alpha=2)], None,
           "event has unknown fields: ['alpha', 'zeta']")
    yield ("missing-before-unknown", [_event(path=_DROP, pth="/x")], None,
           "event missing required fields: ['path']")
    yield ("event-a-string", ["nope"], None,
           "event must be an object, got str")
    yield ("event-a-list", [[1.0, "GET"]], None,
           "event must be an object, got list")
    for value, kind in (("5.0", "str"), (True, "bool"), (None, "NoneType"),
                        ([1.0], "list")):
        yield (f"time-{kind}", [_event(time=value)], None,
               f"field 'time' must be a number, got {kind}")
    for value, kind in ((200.0, "float"), (True, "bool"), ("200", "str"),
                        (None, "NoneType")):
        yield (f"status-{kind}", [_event(status=value)], None,
               f"field 'status' must be an integer, got {kind}")
    for value, kind in (("false", "str"), (0, "int"), (None, "NoneType")):
        yield (f"residential-{kind}", [_event(ip_residential=value)], None,
               f"field 'ip_residential' must be a bool, got {kind}")
    for name in _TEXT_NAMES:
        yield (f"{name}-int", [_event(**{name: 5})], None,
               f"field {name!r} must be a string, got int")
    yield ("fingerprint-null", [_event(fingerprint_id=None)], None,
           "field 'fingerprint_id' must be a string, got NoneType")
    yield ("user-agent-list", [_event(user_agent=["UA"])], None,
           "field 'user_agent' must be a string, got list")
    yield ("status-before-path", [_event(status="200", path=5)], None,
           "field 'status' must be an integer, got str")
    yield ("time-past-double", [_event(time=10 ** 400)], None,
           "field 'time': int too large to convert to float")
    yield ("time-inf", [_event(float("inf"))], None, "event 0 has time inf")
    yield ("time-minus-inf", [_event(float("-inf"))], None,
           "event 0 has time -inf")
    yield ("time-nan", [_event(1.0), _event(float("nan"))], None,
           "event 1 has time nan")
    yield ("order-within-batch", [_event(2.0), _event(3.0), _event(1.0)],
           None,
           "events must be time-ordered: event 2 at 1.0 arrives before 3.0")
    yield ("order-against-last-time", [_event(5.0)], 10.0,
           "events must be time-ordered: event 0 at 5.0 arrives before 10.0")
    yield ("status-negative", [_event(status=-1)], None,
           "event 0: status -1 outside 0..65535")
    yield ("status-65536",
           [_event(1.0), _event(2.0), _event(3.0, status=65_536)], None,
           "event 2: status 65536 outside 0..65535")
    yield ("string-surrogate", [_event(path="/search\ud800")], None,
           "event 0: string not encodable as UTF-8: 'utf-8' codec can't "
           "encode character '\\ud800' in position 7: surrogates not allowed")
    yield ("string-65536-bytes",
           [_event(1.0), _event(2.0, user_agent="é" * 32_768)], None,
           "event 1: string of 65536 UTF-8 bytes (at most 65535)")
    for payload, kind in (({"time": 1.0}, "dict"), ("[]", "str"),
                          (b"[]", "bytes"), (None, "null"), (7, "int")):
        yield (f"payload-{kind}", payload, None,
               "events must be a list of event objects")
    # The stages keep their order across events: every event's shape,
    # then time order, then what a record can hold.
    yield ("order-then-unknown",
           [_event(5.0)] + [_event(6.0 + i) for i in range(4)]
           + [_event(10.0, user_agnet="UA")], 11.0,
           "event has unknown fields: ['user_agnet']")
    yield ("status-then-order", [_event(1.0, status=70_000), _event(0.5)],
           None,
           "events must be time-ordered: event 1 at 0.5 arrives before 1.0")
    yield ("string-then-status",
           [_event(1.0, user_agent="é" * 32_768), _event(2.0, status=-3)],
           None, "event 0: string of 65536 UTF-8 bytes (at most 65535)")


_REFUSALS = list(_refusals())


@pytest.mark.parametrize(
    "payload, last_time, message",
    [case[1:] for case in _REFUSALS],
    ids=[case[0] for case in _REFUSALS],
)
def test_parse_events_refusal_message(payload, last_time, message):
    with pytest.raises(CodecError) as exc_info:
        parse_events(payload, last_time, 1)
    assert str(exc_info.value) == message


# -- random valid batches against per-event construction ------------------

_OPTIONAL_DEFAULTS = {
    "blocked_by": "", "outcome": "", "ip_country": "", "user_agent": "",
    "profile_id": "", "actor": "", "actor_class": "legit",
    "ip_residential": False,
}
_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_times = st.one_of(
    st.integers(-(2 ** 62), 2 ** 62),
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
)
_statuses = st.one_of(st.sampled_from([0, 65_535]), st.integers(0, 65_535))


@st.composite
def _batches(draw):
    """A time-ordered batch of valid events drawn from a small pool of
    strings, so batches repeat strings within and across events."""
    pool = draw(st.lists(_words, min_size=1, max_size=6, unique=True))
    times = sorted(draw(st.lists(_times, max_size=12)))
    events = []
    for time_ in times:
        event = {"time": time_, "status": draw(_statuses)}
        for name in _TEXT_NAMES:
            if name in _OPTIONAL_DEFAULTS and draw(st.booleans()):
                continue  # omitted: the default applies
            event[name] = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            event["ip_residential"] = draw(st.booleans())
        events.append(event)
    return events


def _constructed(event):
    """The entry an event describes, built field by field."""
    field = {**_OPTIONAL_DEFAULTS, **event}.__getitem__
    return LogEntry(
        time=float(field("time")),
        method=field("method"),
        path=field("path"),
        status=field("status"),
        client=ClientRef(
            ip_address=field("ip_address"),
            ip_country=field("ip_country"),
            ip_residential=field("ip_residential"),
            fingerprint_id=field("fingerprint_id"),
            user_agent=field("user_agent"),
            profile_id=field("profile_id"),
            actor=field("actor"),
            actor_class=field("actor_class"),
        ),
        blocked_by=field("blocked_by"),
        outcome=field("outcome"),
    )


@settings(max_examples=200, deadline=None)
@given(events=_batches(), first_seq=st.integers(1, 2 ** 40))
def test_parse_events_matches_per_event_construction(events, first_seq):
    expected = tuple(_constructed(event) for event in events)
    last_time = expected[0].time if expected else None
    entries, record = parse_events(events, last_time, first_seq)
    assert entries == expected
    assert all(type(entry.time) is float for entry in entries)
    assert tuple(map(entry_from_dict, events)) == expected
    assert record == rptr_oracle.encode_record(expected, first_seq)
    assert encode_record(expected, first_seq) == record


# -- capture files at rest ------------------------------------------------

def test_capture_file_pinned(tmp_path):
    """The SHA-256 of a capture file, pinned: traces on disk written
    by an earlier version must read the same, and new ones must match
    them byte for byte."""
    entries = campaign_entries(rotations=2, legit_visitors=2)
    end = entries[-1].time
    entries += [
        make_entry(end + 1.0, status=0, path="/søk"),
        make_entry(end + 1.0, status=65_535, fingerprint="fp-✈-ü"),
        make_entry(end + 2.5, ip="2001:db8::7", path="/hold"),
    ]
    path = write_trace(tmp_path / "capture.rptr", entries,
                       meta={"scenario": "capture-pin", "seed": 3})
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == (
        "28cd1fd92ad4f505e0de7b1b78652a7f0e3bbbe52438f7d1bcf8707c8380d76a"
    )
