"""Tests for repro.core.detection.rotation (union-find + linkers)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.booking.passengers import Passenger
from repro.booking.reservation import BookingRecord
from repro.common import ClientRef
from repro.core.detection.rotation import (
    link_booking_records,
    link_sms_records,
)
from repro.sms.gateway import SmsRecord
from repro.sms.numbers import PhoneNumber
from tests.graph_oracle import UnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        union = UnionFind(4)
        assert len(union.groups()) == 4

    def test_union_merges(self):
        union = UnionFind(4)
        union.union(0, 1)
        union.union(2, 3)
        groups = union.groups()
        assert sorted(map(sorted, groups)) == [[0, 1], [2, 3]]

    def test_transitivity(self):
        union = UnionFind(5)
        union.union(0, 1)
        union.union(1, 2)
        union.union(3, 4)
        assert union.find(0) == union.find(2)
        assert union.find(0) != union.find(3)

    def test_self_union_noop(self):
        union = UnionFind(3)
        union.union(1, 1)
        assert len(union.groups()) == 3

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @settings(max_examples=50)
    @given(
        size=st.integers(min_value=1, max_value=30),
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=29),
                st.integers(min_value=0, max_value=29),
            ),
            max_size=60,
        ),
    )
    def test_groups_partition_everything(self, size, pairs):
        union = UnionFind(size)
        for a, b in pairs:
            if a < size and b < size:
                union.union(a, b)
        groups = union.groups()
        members = sorted(m for group in groups for m in group)
        assert members == list(range(size))


def booking(time, fingerprint, ip, names, hold_id):
    client = ClientRef(
        ip_address=ip,
        ip_country="US",
        ip_residential=True,
        fingerprint_id=fingerprint,
        user_agent="UA",
    )
    passengers = tuple(
        Passenger(first, last, "1990-01-01", "x@y.z")
        for first, last in names
    )
    return BookingRecord(
        time=time,
        flight_id="F1",
        nip=len(passengers),
        outcome="held",
        hold_id=hold_id,
        passengers=passengers,
        client=client,
        price_quoted=100.0,
        shadow=False,
    )


class TestLinkBookingRecords:
    def test_fingerprint_links_records(self):
        records = [
            booking(float(i), "fpA", f"ip{i}", [("A", str(i))], f"H{i}")
            for i in range(4)
        ]
        entities = link_booking_records(records, min_cluster=3)
        assert len(entities) == 1
        assert entities[0].record_count == 4
        assert entities[0].distinct_ips == 4

    def test_repeated_name_bridges_rotation(self):
        """The Case B linkage: fixed passenger name across rotating
        fingerprints and IPs reunites the campaign."""
        records = [
            booking(
                float(i) * 3600,
                f"fp{i}",           # rotates every booking
                f"ip{i}",           # rotates every booking
                [("John", "Fixed")],  # ... but the name persists
                f"H{i}",
            )
            for i in range(6)
        ]
        entities = link_booking_records(records, min_cluster=3)
        assert len(entities) == 1
        entity = entities[0]
        assert entity.distinct_fingerprints == 6
        assert entity.rotates_identity
        assert entity.mean_rotation_interval == pytest.approx(3600.0)

    def test_one_off_shared_name_does_not_link(self):
        """Two strangers who happen to share a name key must not merge
        unless the full name pair recurs enough."""
        records = [
            booking(0.0, "fp1", "ip1", [("Ann", "One")], "H1"),
            booking(1.0, "fp2", "ip2", [("Bob", "Two")], "H2"),
            booking(2.0, "fp3", "ip3", [("Cal", "Three")], "H3"),
        ]
        assert link_booking_records(records, min_cluster=2) == []

    def test_min_cluster_filters(self):
        records = [
            booking(0.0, "fpA", "ip1", [("A", "B")], "H1"),
            booking(1.0, "fpA", "ip1", [("C", "D")], "H2"),
        ]
        assert link_booking_records(records, min_cluster=3) == []
        assert len(link_booking_records(records, min_cluster=2)) == 1

    def test_gibberish_rotating_attack_fragments(self):
        """Unique names + full identity rotation per booking defeats
        the linker — the defender-side blind spot the paper reports."""
        records = [
            booking(float(i), f"fp{i}", f"ip{i}", [(f"N{i}", f"S{i}")],
                    f"H{i}")
            for i in range(10)
        ]
        entities = link_booking_records(records, min_cluster=2)
        assert entities == []


def sms(time, fingerprint, ip, booking_ref, delivered=True):
    client = ClientRef(
        ip_address=ip,
        ip_country="UZ",
        ip_residential=True,
        fingerprint_id=fingerprint,
        user_agent="UA",
    )
    return SmsRecord(
        time=time,
        number=PhoneNumber("UZ", "123456789"),
        kind="boarding-pass",
        booking_ref=booking_ref,
        client=client,
        delivered=delivered,
        reject_reason="",
        settlement=None,
    )


class TestLinkSmsRecords:
    def test_booking_ref_anchors_rotating_pumper(self):
        """The Case C linkage: a handful of booking references anchor
        thousands of sends no matter how identities rotate."""
        records = [
            sms(float(i), f"fp{i}", f"ip{i}", f"REF{i % 2}")
            for i in range(10)
        ]
        entities = link_sms_records(records, min_cluster=3)
        assert len(entities) == 2
        assert all(e.rotates_identity for e in entities)

    def test_empty_booking_ref_not_a_key(self):
        records = [
            sms(float(i), f"fp{i}", f"ip{i}", "") for i in range(5)
        ]
        assert link_sms_records(records, min_cluster=2) == []

    def test_entities_sorted_by_size(self):
        records = [sms(float(i), "fpA", "ip1", "BIG") for i in range(6)]
        records += [sms(float(i), "fpB", "ip2", "SMALL") for i in range(3)]
        entities = link_sms_records(records, min_cluster=3)
        assert entities[0].record_count == 6
        assert entities[1].record_count == 3
