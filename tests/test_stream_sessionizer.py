"""Tests for repro.stream.sessionizer — incremental == batch."""

import random

import pytest

from repro.common import ClientRef, LEGIT
from repro.stream import StreamSessionizer
from repro.web.logs import LogEntry, WebLog
from tests.session_oracle import sessionize


def make_entry(time, ip="1.1.1.1", fingerprint="fp1", path="/search"):
    return LogEntry(
        time=time,
        method="GET",
        path=path,
        status=200,
        client=ClientRef(
            ip_address=ip,
            ip_country="US",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA",
            actor_class=LEGIT,
        ),
    )


def random_entries(seed, count=400, clients=12, max_step=600.0):
    """A deterministic, time-ordered stream with idle gaps both above
    and below the sessionization threshold."""
    rng = random.Random(seed)
    now = 0.0
    entries = []
    for _ in range(count):
        now += rng.uniform(0.0, max_step) * (
            10.0 if rng.random() < 0.05 else 1.0
        )
        client = rng.randrange(clients)
        entries.append(
            make_entry(now, ip=f"ip{client % 5}", fingerprint=f"fp{client}")
        )
    return entries


def stream_all(entries, **kwargs):
    """Feed every entry, collecting incrementally-closed sessions plus
    the final flush."""
    sessionizer = StreamSessionizer(**kwargs)
    sessions = []
    for entry in entries:
        sessions.extend(sessionizer.observe(entry))
    sessions.extend(sessionizer.flush())
    return sessionizer, sessions


def as_comparable(sessions):
    return sorted(
        (s.session_id, s.ip_address, s.fingerprint_id,
         tuple(e.time for e in s.entries))
        for s in sessions
    )


class TestStreamSessionizer:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equivalent_to_batch_sessionize(self, seed):
        entries = random_entries(seed)
        log = WebLog()
        for entry in entries:
            log.append(entry)
        batch = sessionize(log)
        _, stream = stream_all(entries)
        assert as_comparable(stream) == as_comparable(batch)

    def test_close_idle_does_not_change_the_result(self):
        entries = random_entries(7)
        sessionizer = StreamSessionizer()
        sessions = []
        for i, entry in enumerate(entries):
            sessions.extend(sessionizer.observe(entry))
            if i % 10 == 0:
                sessions.extend(sessionizer.close_idle())
        sessions.extend(sessionizer.flush())
        log = WebLog()
        for entry in entries:
            log.append(entry)
        assert as_comparable(sessions) == as_comparable(sessionize(log))

    def test_close_idle_bounds_open_sessions(self):
        sessionizer = StreamSessionizer(idle_gap=10.0)
        for i in range(100):
            sessionizer.observe(make_entry(float(i * 100), ip=f"ip{i}"))
            sessionizer.close_idle()
        assert sessionizer.open_sessions == 1
        assert sessionizer.peak_open_sessions <= 2

    def test_idle_gap_boundary_matches_batch(self):
        # Exactly at the gap stays in-session (batch semantics).
        entries = [make_entry(0.0), make_entry(30 * 60.0)]
        _, sessions = stream_all(entries)
        assert len(sessions) == 1
        # One tick past the gap splits.
        entries = [make_entry(0.0), make_entry(30 * 60.0 + 1)]
        _, sessions = stream_all(entries)
        assert len(sessions) == 2

    def test_out_of_order_entry_rejected_like_weblog(self):
        sessionizer = StreamSessionizer()
        sessionizer.observe(make_entry(5.0))
        with pytest.raises(ValueError, match=r"time-ordered: 4\.0 < 5\.0"):
            sessionizer.observe(make_entry(4.0))

    def test_session_ids_match_batch_assignment(self):
        entries = [
            make_entry(0.0, ip="a"),
            make_entry(1.0, ip="b"),
            make_entry(2.0, ip="a"),
        ]
        _, stream = stream_all(entries)
        by_ip = {s.ip_address: s.session_id for s in stream}
        assert by_ip == {"a": "S0000001", "b": "S0000002"}

    def test_max_open_sessions_forces_oldest_closed(self):
        sessionizer = StreamSessionizer(max_open_sessions=2)
        closed = []
        for i in range(4):
            closed.extend(
                sessionizer.observe(make_entry(float(i), ip=f"ip{i}"))
            )
        assert sessionizer.forced_closes == 2
        assert sessionizer.open_sessions == 2
        assert [s.ip_address for s in closed] == ["ip0", "ip1"]

    def test_invalid_idle_gap(self):
        with pytest.raises(ValueError):
            StreamSessionizer(idle_gap=0.0)

    def test_open_session_for(self):
        sessionizer = StreamSessionizer()
        entry = make_entry(1.0)
        sessionizer.observe(entry)
        key = (entry.client.ip_address, entry.client.fingerprint_id)
        assert sessionizer.open_session_for(key).entries == [entry]
        assert sessionizer.open_session_for(("x", "y")) is None

    def test_hot_session_never_idle_evicted(self):
        """Regression for the KeyedStore read-path fix: a session whose
        entries arrive steadily (each within the idle gap of the last)
        must survive close_idle indefinitely — observe() is a touching
        read, so event-time progress counts as activity."""
        sessionizer = StreamSessionizer(idle_gap=10.0)
        now = 0.0
        for _ in range(50):
            sessionizer.observe(make_entry(now))
            assert sessionizer.close_idle(now) == []
            now += 9.0
        assert sessionizer.open_sessions == 1
        [session] = sessionizer.flush()
        assert len(session.entries) == 50

    def test_open_session_for_does_not_keep_session_alive(self):
        """Introspection is deliberately non-touching: peeking at an
        open session must not postpone its idle eviction."""
        sessionizer = StreamSessionizer(idle_gap=10.0)
        entry = make_entry(0.0)
        sessionizer.observe(entry)
        key = (entry.client.ip_address, entry.client.fingerprint_id)
        assert sessionizer.open_session_for(key) is not None
        closed = sessionizer.close_idle(now=100.0)
        assert [s.ip_address for s in closed] == [entry.client.ip_address]
        assert sessionizer.open_session_for(key) is None
