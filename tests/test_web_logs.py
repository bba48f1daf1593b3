"""Tests for repro.web.logs (web log + sessionization)."""

import pytest

from repro.common import ClientRef, LEGIT, SEAT_SPINNER
from repro.web.logs import LogEntry, WebLog
from tests.session_oracle import sessionize


def make_entry(time, ip="1.1.1.1", fingerprint="fp1", actor_class=LEGIT,
               path="/search", status=200):
    return LogEntry(
        time=time,
        method="GET",
        path=path,
        status=status,
        client=ClientRef(
            ip_address=ip,
            ip_country="US",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA",
            actor_class=actor_class,
        ),
    )


class TestWebLog:
    def test_append_and_read(self):
        log = WebLog()
        log.append(make_entry(1.0))
        log.append(make_entry(2.0))
        assert len(log) == 2
        assert [e.time for e in log.entries()] == [1.0, 2.0]

    def test_time_ordering_enforced(self):
        log = WebLog()
        log.append(make_entry(5.0))
        with pytest.raises(ValueError):
            log.append(make_entry(4.0))

    def test_entries_between(self):
        log = WebLog()
        for t in (0.0, 5.0, 10.0, 15.0):
            log.append(make_entry(t))
        assert [e.time for e in log.entries_between(5.0, 15.0)] == [
            5.0,
            10.0,
        ]

    def test_out_of_order_rejection_names_both_times(self):
        log = WebLog()
        log.append(make_entry(5.0))
        with pytest.raises(ValueError, match=r"time-ordered: 4\.0 < 5\.0"):
            log.append(make_entry(4.0))

    def test_entries_returns_defensive_copy(self):
        log = WebLog()
        log.append(make_entry(1.0))
        log.entries().clear()
        assert len(log) == 1

    def test_iter_entries_matches_entries_without_copy(self):
        log = WebLog()
        for t in (1.0, 2.0, 3.0):
            log.append(make_entry(t))
        assert list(log.iter_entries()) == log.entries()


class TestWebLogSubscribe:
    def test_observer_sees_each_entry_in_order(self):
        log = WebLog()
        seen = []
        log.subscribe(seen.append)
        for t in (1.0, 2.0, 3.0):
            log.append(make_entry(t))
        assert [e.time for e in seen] == [1.0, 2.0, 3.0]

    def test_observer_only_sees_entries_after_subscription(self):
        log = WebLog()
        log.append(make_entry(1.0))
        seen = []
        log.subscribe(seen.append)
        log.append(make_entry(2.0))
        assert [e.time for e in seen] == [2.0]

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        log = WebLog()
        seen = []
        unsubscribe = log.subscribe(seen.append)
        log.append(make_entry(1.0))
        unsubscribe()
        unsubscribe()  # second call is a no-op
        log.append(make_entry(2.0))
        assert [e.time for e in seen] == [1.0]
        assert log.observer_count == 0

    def test_entry_committed_before_observers_run(self):
        log = WebLog()
        lengths = []
        log.subscribe(lambda entry: lengths.append(len(log)))
        log.append(make_entry(1.0))
        assert lengths == [1]

    def test_reentrant_append_raises(self):
        log = WebLog()
        log.subscribe(lambda entry: log.append(make_entry(entry.time)))
        with pytest.raises(RuntimeError, match="re-entrant"):
            log.append(make_entry(1.0))
        # The original entry stayed committed; the log still works.
        assert len(log) == 1

    def test_observer_exception_does_not_wedge_the_log(self):
        log = WebLog()

        def boom(entry):
            raise RuntimeError("observer failure")

        unsubscribe = log.subscribe(boom)
        with pytest.raises(RuntimeError, match="observer failure"):
            log.append(make_entry(1.0))
        unsubscribe()
        log.append(make_entry(2.0))  # no lingering re-entrancy latch
        assert len(log) == 2

    def test_reentrant_error_names_the_offending_observer(self):
        log = WebLog()

        def misbehaving_observer(entry):
            log.append(make_entry(entry.time))

        log.subscribe(misbehaving_observer)
        with pytest.raises(RuntimeError, match="misbehaving_observer"):
            log.append(make_entry(1.0))

    def test_reentrant_error_names_bound_method_owner(self):
        class Consumer:
            def __init__(self, log):
                self.log = log

            def on_entry(self, entry):
                self.log.append(make_entry(entry.time))

            def __repr__(self):
                return "<Consumer under test>"

        log = WebLog()
        consumer = Consumer(log)
        log.subscribe(consumer.on_entry)
        with pytest.raises(
            RuntimeError,
            match=r"Consumer\.on_entry of <Consumer under test>",
        ):
            log.append(make_entry(1.0))

    def test_unsubscribe_method_by_observer(self):
        log = WebLog()
        seen = []
        log.subscribe(seen.append)
        assert log.unsubscribe(seen.append) is True
        assert log.unsubscribe(seen.append) is False  # idempotent
        log.append(make_entry(1.0))
        assert seen == []

    def test_unsubscribe_self_during_dispatch(self):
        # An observer removing itself mid-dispatch still receives the
        # in-flight entry and nothing after — clean service teardown.
        log = WebLog()
        seen = []

        def one_shot(entry):
            seen.append(entry.time)
            assert log.unsubscribe(one_shot) is True

        log.subscribe(one_shot)
        log.append(make_entry(1.0))
        log.append(make_entry(2.0))
        assert seen == [1.0]
        assert log.observer_count == 0

    def test_unsubscribe_peer_during_dispatch_no_skips(self):
        # First observer removes the second mid-dispatch: the second
        # still sees the entry being dispatched (snapshot iteration),
        # then stops receiving.
        log = WebLog()
        second_seen = []

        def second(entry):
            second_seen.append(entry.time)

        def first(entry):
            log.unsubscribe(second)

        log.subscribe(first)
        log.subscribe(second)
        log.append(make_entry(1.0))
        log.append(make_entry(2.0))
        assert second_seen == [1.0]
        assert log.observer_count == 1


class TestSessionize:
    def test_groups_by_ip_and_fingerprint(self):
        log = WebLog()
        log.append(make_entry(0.0, ip="1.1.1.1", fingerprint="a"))
        log.append(make_entry(1.0, ip="2.2.2.2", fingerprint="a"))
        log.append(make_entry(2.0, ip="1.1.1.1", fingerprint="a"))
        sessions = sessionize(log)
        assert len(sessions) == 2

    def test_idle_gap_splits_sessions(self):
        log = WebLog()
        log.append(make_entry(0.0))
        log.append(make_entry(100.0))
        log.append(make_entry(100.0 + 31 * 60))  # past the 30-min gap
        sessions = sessionize(log)
        assert len(sessions) == 2
        assert sessions[0].request_count == 2

    def test_gap_exactly_at_threshold_keeps_session(self):
        log = WebLog()
        log.append(make_entry(0.0))
        log.append(make_entry(30 * 60.0))
        assert len(sessionize(log)) == 1

    def test_rotation_shreds_sessions(self):
        """A client changing fingerprint per request produces one
        session per request — the sessionization blind spot rotation
        exploits."""
        log = WebLog()
        for i in range(5):
            log.append(make_entry(float(i), fingerprint=f"fp{i}"))
        assert len(sessionize(log)) == 5

    def test_session_properties(self):
        log = WebLog()
        log.append(make_entry(10.0))
        log.append(make_entry(40.0))
        session = sessionize(log)[0]
        assert session.start == 10.0
        assert session.end == 40.0
        assert session.duration == 30.0
        assert session.request_count == 2

    def test_actor_class_majority(self):
        log = WebLog()
        log.append(make_entry(0.0, actor_class=SEAT_SPINNER))
        log.append(make_entry(1.0, actor_class=SEAT_SPINNER))
        log.append(make_entry(2.0, actor_class=LEGIT))
        session = sessionize(log)[0]
        assert session.actor_class == SEAT_SPINNER
        assert session.is_attacker

    def test_sessions_sorted_by_start(self):
        log = WebLog()
        log.append(make_entry(5.0, ip="b"))
        log.append(make_entry(6.0, ip="a"))
        log.append(make_entry(7.0, ip="b"))
        sessions = sessionize(log)
        assert [s.start for s in sessions] == [5.0, 6.0]

    def test_invalid_idle_gap(self):
        with pytest.raises(ValueError):
            sessionize(WebLog(), idle_gap=0.0)

    def test_single_entry_sessions(self):
        log = WebLog()
        log.append(make_entry(0.0))
        log.append(make_entry(31 * 60.0))
        sessions = sessionize(log)
        assert [s.request_count for s in sessions] == [1, 1]
        for session in sessions:
            assert session.start == session.end
            assert session.duration == 0.0

    def test_interleaved_clients_split_independently(self):
        """Client A's idle gap closes A's session without touching
        B's, even when their requests interleave in the log."""
        log = WebLog()
        log.append(make_entry(0.0, ip="a"))
        log.append(make_entry(60.0, ip="b"))
        log.append(make_entry(25 * 60.0, ip="b"))  # B gap is only 24 min
        log.append(make_entry(45 * 60.0, ip="a"))  # A idled past 30 min
        sessions = sessionize(log)
        by_ip = {}
        for session in sessions:
            by_ip.setdefault(session.ip_address, []).append(session)
        assert len(by_ip["a"]) == 2
        assert len(by_ip["b"]) == 1
        assert by_ip["b"][0].request_count == 2

    def test_session_ids_unique(self):
        log = WebLog()
        for i in range(10):
            log.append(make_entry(float(i), ip=f"ip{i}"))
        ids = {s.session_id for s in sessionize(log)}
        assert len(ids) == 10
