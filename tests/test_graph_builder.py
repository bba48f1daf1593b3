"""Tests for the entity graph and its incremental builder.

The load-bearing claims: edge insertion is idempotent (same records in
any order → equal snapshots), passenger-name linking is recurrence-
gated with bounded pending state, and SMS velocity counters accumulate
at fingerprint and booking-reference granularity.
"""

from collections import Counter

import pytest

from repro.booking.passengers import Passenger
from repro.booking.reservation import BookingRecord
from repro.common import ClientRef
from repro.graph.builder import (
    EDGE_FINGERPRINT_NAME,
    EDGE_SESSION_FINGERPRINT,
    EntityGraph,
    GraphBuilder,
    GraphBuilderConfig,
)
from repro.graph.entities import (
    EntityId,
    fingerprint_node,
    flight_node,
    ip_node,
    name_key_node,
    session_node,
    subnet_node,
)
from repro.sms.gateway import SmsRecord
from repro.sms.numbers import PhoneNumber
from repro.web.logs import LogEntry, Session

from tests.graph_oracle import neighbor_weights


def make_client(fp: str, ip: str) -> ClientRef:
    return ClientRef(
        ip_address=ip,
        ip_country="PL",
        ip_residential=True,
        fingerprint_id=fp,
        user_agent="test-agent",
    )


def make_entry(time: float, fp: str, ip: str, path="/search") -> LogEntry:
    return LogEntry(time, "GET", path, 200, make_client(fp, ip))


def make_session(sid: str, fp: str, ip: str, times) -> Session:
    return Session(
        session_id=sid,
        ip_address=ip,
        fingerprint_id=fp,
        entries=[make_entry(t, fp, ip) for t in times],
    )


def make_booking(
    time: float, fp: str, ip: str, names, flight="LO123"
) -> BookingRecord:
    return BookingRecord(
        time=time,
        flight_id=flight,
        nip=len(names),
        outcome="held",
        hold_id=f"H-{fp}-{time:.0f}",
        passengers=tuple(
            Passenger(first, last, "1990-01-01", "p@example.com")
            for first, last in names
        ),
        client=make_client(fp, ip),
        price_quoted=120.0,
        shadow=False,
    )


def make_sms(
    time: float, fp: str, ip: str, subscriber: str, ref: str = ""
) -> SmsRecord:
    return SmsRecord(
        time=time,
        number=PhoneNumber("PL", subscriber),
        kind="otp",
        booking_ref=ref,
        client=make_client(fp, ip),
        delivered=True,
        reject_reason="",
        settlement=None,
    )


class TestEntityGraph:
    def test_add_edge_idempotent_keeps_max_weight(self):
        graph = EntityGraph()
        a, b = fingerprint_node("f1"), ip_node("1.2.3.4")
        graph.add_edge(a, b, 0.3)
        graph.add_edge(a, b, 0.8)
        graph.add_edge(b, a, 0.5)
        assert graph.edge_count == 1
        assert neighbor_weights(graph, a) == {b: 0.8}
        assert neighbor_weights(graph, b) == {a: 0.8}

    def test_edge_validation(self):
        graph = EntityGraph()
        node = fingerprint_node("f1")
        with pytest.raises(ValueError):
            graph.add_edge(node, node, 0.5)
        with pytest.raises(ValueError):
            graph.add_edge(node, ip_node("1.1.1.1"), 0.0)
        with pytest.raises(ValueError):
            graph.add_edge(node, ip_node("1.1.1.1"), 1.5)

    def test_touch_extends_span(self):
        graph = EntityGraph()
        node = session_node("s1")
        graph.add_node(node, time=50.0)
        graph.touch(node, 10.0)
        graph.touch(node, 99.0)
        graph.touch(node, 60.0)
        assert graph.first_seen(node) == 10.0
        assert graph.last_seen(node) == 99.0
        assert graph.first_seen(session_node("missing")) is None

    def test_components_respect_induced_subgraph(self):
        """fp1 - name - fp2 is one component on the full graph but two
        singletons when the name node is excluded — the property that
        stops hub kinds gluing campaigns together."""
        graph = EntityGraph()
        fp1, fp2 = fingerprint_node("f1"), fingerprint_node("f2")
        name = name_key_node(("anna", "nowak"))
        graph.add_edge(fp1, name, 0.9)
        graph.add_edge(fp2, name, 0.9)
        assert graph.components() == [[fp1, fp2, name]]
        assert graph.components([fp1, fp2]) == [[fp1], [fp2]]
        # Unknown nodes in the filter are ignored.
        assert graph.components([fp1, fingerprint_node("ghost")]) == [
            [fp1]
        ]

    def test_snapshot_and_kind_counts(self):
        graph = EntityGraph()
        graph.add_edge(session_node("s1"), fingerprint_node("f1"), 1.0)
        graph.add_edge(fingerprint_node("f1"), ip_node("1.1.1.1"), 0.8)
        counts = Counter(node.kind for node in graph.nodes())
        assert counts == {"session": 1, "fp": 1, "ip": 1}
        assert graph.nodes(kind="fp") == [fingerprint_node("f1")]
        snap = graph.snapshot()
        assert len(snap["nodes"]) == 3
        assert len(snap["edges"]) == 2


class TestGraphBuilder:
    def _records(self):
        sessions = [
            make_session("s1", "f1", "10.0.0.1", [0.0, 30.0]),
            make_session("s2", "f2", "10.0.0.2", [100.0, 160.0]),
            make_session("s3", "f1", "10.0.0.3", [200.0, 230.0]),
        ]
        bookings = [
            make_booking(40.0, "f1", "10.0.0.1", [("jan", "kowalski")]),
            make_booking(170.0, "f2", "10.0.0.2", [("jan", "kowalski")]),
        ]
        sms = [
            make_sms(50.0, "f1", "10.0.0.1", "600100200", ref="REF01"),
            make_sms(180.0, "f2", "10.0.0.2", "600100201", ref="REF01"),
            make_sms(240.0, "f1", "10.0.0.3", "600100200"),
        ]
        return sessions, bookings, sms

    def test_feed_order_does_not_change_the_graph(self):
        sessions, bookings, sms = self._records()
        forward = GraphBuilder().observe_all(
            sessions=sessions, bookings=bookings, sms=sms
        ).graph
        backward = GraphBuilder().observe_all(
            sessions=list(reversed(sessions)),
            bookings=list(reversed(bookings)),
            sms=list(reversed(sms)),
        ).graph
        streamed = GraphBuilder()
        for record in sms:
            streamed.observe_sms(record)
        for session in sessions:
            streamed.observe_session(session)
        for record in bookings:
            streamed.observe_booking(record)
        assert forward.snapshot() == backward.snapshot()
        assert forward.snapshot() == streamed.graph.snapshot()

    def test_name_linking_is_recurrence_gated(self):
        builder = GraphBuilder()
        name = name_key_node(("jan", "kowalski"))
        builder.observe_booking(
            make_booking(0.0, "f1", "10.0.0.1", [("jan", "kowalski")])
        )
        assert name not in builder.graph
        # The second sighting opens the gate and flushes the pending
        # fingerprint, so both ends are linked.
        builder.observe_booking(
            make_booking(10.0, "f2", "10.0.0.2", [("jan", "kowalski")])
        )
        neighbors = neighbor_weights(builder.graph, name)
        assert neighbors == {
            fingerprint_node("f1"): EDGE_FINGERPRINT_NAME,
            fingerprint_node("f2"): EDGE_FINGERPRINT_NAME,
        }
        # Once active, further fingerprints link immediately.
        builder.observe_booking(
            make_booking(20.0, "f3", "10.0.0.3", [("jan", "kowalski")])
        )
        assert fingerprint_node("f3") in neighbor_weights(
            builder.graph, name
        )

    def test_min_name_repeats_one_links_immediately(self):
        builder = GraphBuilder(GraphBuilderConfig(min_name_repeats=1))
        builder.observe_booking(
            make_booking(0.0, "f1", "10.0.0.1", [("eva", "lis")])
        )
        assert name_key_node(("eva", "lis")) in builder.graph

    def test_pending_name_state_is_bounded(self):
        builder = GraphBuilder(
            GraphBuilderConfig(max_pending_names=5)
        )
        for index in range(20):
            builder.observe_booking(
                make_booking(
                    float(index), "f1", "10.0.0.1",
                    [("guest", f"n{index:02d}")],
                )
            )
        assert builder.pending_names <= 5
        assert builder.peak_pending_names <= 5

    def test_evicted_pending_name_loses_its_sighting(self):
        builder = GraphBuilder()
        builder.observe_booking(
            make_booking(0.0, "f1", "10.0.0.1", [("ola", "maj")])
        )
        assert builder.evict_idle_names(now=10_000.0, idle_gap=3600.0) == 1
        # The recurrence counter restarted: one more booking is again a
        # first sighting, so no link yet.
        builder.observe_booking(
            make_booking(10_100.0, "f2", "10.0.0.2", [("ola", "maj")])
        )
        assert name_key_node(("ola", "maj")) not in builder.graph

    def test_evicted_active_name_keeps_its_edges(self):
        builder = GraphBuilder()
        name = name_key_node(("ula", "kot"))
        for index, fp in enumerate(["f1", "f2"]):
            builder.observe_booking(
                make_booking(
                    float(index), fp, "10.0.0.1", [("ula", "kot")]
                )
            )
        assert len(neighbor_weights(builder.graph, name)) == 2
        builder.evict_idle_names(now=10_000.0, idle_gap=3600.0)
        assert len(neighbor_weights(builder.graph, name)) == 2

    def test_sms_velocity_counters(self):
        builder = GraphBuilder()
        _, _, sms = self._records()
        for record in sms:
            builder.observe_sms(record)
        assert builder.sms_by_fingerprint == {"f1": 2, "f2": 1}
        assert builder.sms_by_ref == {"REF01": 2}
        assert builder.sms_observed == 3

    def test_session_links_identity_chain(self):
        builder = GraphBuilder()
        builder.observe_session(
            make_session("s1", "f1", "10.0.0.1", [5.0, 25.0])
        )
        session, fp = session_node("s1"), fingerprint_node("f1")
        ip, subnet = ip_node("10.0.0.1"), subnet_node("10.0.0.1")
        assert neighbor_weights(builder.graph, session) == {
            fp: EDGE_SESSION_FINGERPRINT,
            ip: 0.7,
        }
        assert subnet in neighbor_weights(builder.graph, ip)
        assert builder.graph.first_seen(session) == 5.0
        assert builder.graph.last_seen(session) == 25.0

    def test_subnet_and_flight_links_can_be_disabled(self):
        config = GraphBuilderConfig(
            include_subnets=False, link_flights=False
        )
        builder = GraphBuilder(config)
        builder.observe_session(
            make_session("s1", "f1", "10.0.0.1", [0.0])
        )
        builder.observe_booking(
            make_booking(1.0, "f1", "10.0.0.1", [("jan", "lis")])
        )
        assert builder.graph.nodes(kind="subnet") == []
        assert builder.graph.nodes(kind="flight") == []
        with_links = GraphBuilder()
        with_links.observe_session(
            make_session("s1", "f1", "10.0.0.1", [0.0])
        )
        with_links.observe_booking(
            make_booking(1.0, "f1", "10.0.0.1", [("jan", "lis")])
        )
        assert with_links.graph.nodes(kind="subnet") == [
            subnet_node("10.0.0.1")
        ]
        assert with_links.graph.nodes(kind="flight") == [
            flight_node("LO123")
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphBuilderConfig(min_name_repeats=0)
