"""Linking rotating identities back into entities.

Fingerprint rotation defeats per-fingerprint verdicts (Section III-B),
but rotation cannot scrub *everything*: booking references, passenger
names and campaign targets persist across identity swaps.  This module
clusters records that share those stable side-channels using a
union-find, then measures each cluster's identity churn — which is how
the Case A analysis recovers the paper's "rotated ... within an average
of 5.3 hours" number from raw logs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from ...booking.reservation import BookingRecord
from ...graph.unionfind import UnionFind
from ...sms.gateway import SmsRecord

__all__ = [
    "LinkedEntity",
    "link_booking_records",
    "link_sms_records",
]


@dataclass(frozen=True)
class LinkedEntity:
    """One recovered entity: records linked by stable side-channels."""

    record_indices: Tuple[int, ...]
    distinct_fingerprints: int
    distinct_ips: int
    first_seen: float
    last_seen: float

    @property
    def record_count(self) -> int:
        return len(self.record_indices)

    @property
    def span(self) -> float:
        return self.last_seen - self.first_seen

    @property
    def rotates_identity(self) -> bool:
        """More than one fingerprint for one logical entity."""
        return self.distinct_fingerprints > 1

    @property
    def mean_rotation_interval(self) -> float:
        """Estimated time between fingerprint rotations (the 5.3 h
        statistic).  Infinity when no rotation was observed."""
        if self.distinct_fingerprints <= 1:
            return float("inf")
        return self.span / (self.distinct_fingerprints - 1)


def _link(
    items: Sequence,
    key_sets: Sequence[Sequence[Hashable]],
    times: Sequence[float],
    fingerprints: Sequence[str],
    ips: Sequence[str],
    min_cluster: int,
) -> List[LinkedEntity]:
    """Generic linker: union records sharing any key; summarise groups."""
    union = UnionFind(len(items))
    first_with_key: Dict[Hashable, int] = {}
    for index, keys in enumerate(key_sets):
        for key in keys:
            if key in first_with_key:
                union.union(first_with_key[key], index)
            else:
                first_with_key[key] = index
    entities = []
    for group in union.groups():
        if len(group) < min_cluster:
            continue
        group_times = [times[i] for i in group]
        entities.append(
            LinkedEntity(
                record_indices=tuple(group),
                distinct_fingerprints=len({fingerprints[i] for i in group}),
                distinct_ips=len({ips[i] for i in group}),
                first_seen=min(group_times),
                last_seen=max(group_times),
            )
        )
    entities.sort(key=lambda e: -e.record_count)
    return entities


def link_booking_records(
    records: Sequence[BookingRecord],
    min_cluster: int = 3,
    min_name_repeats: int = 2,
) -> List[LinkedEntity]:
    """Cluster booking records into entities.

    Records are linked when they share a fingerprint id, an IP address,
    or a passenger name that recurs across at least
    ``min_name_repeats`` bookings (one-off shared names — common
    surnames on different flights — never link on their own because the
    *pair* (first, last) must recur in full).
    """
    name_booking_count: Dict[Tuple[str, str], int] = defaultdict(int)
    for record in records:
        for key in {p.name_key for p in record.passengers}:
            name_booking_count[key] += 1

    key_sets: List[List[Hashable]] = []
    for record in records:
        keys: List[Hashable] = [
            ("fp", record.client.fingerprint_id),
            ("ip", record.client.ip_address),
        ]
        for passenger in record.passengers:
            if name_booking_count[passenger.name_key] >= min_name_repeats:
                keys.append(("name", passenger.name_key))
        key_sets.append(keys)

    return _link(
        records,
        key_sets,
        [record.time for record in records],
        [record.client.fingerprint_id for record in records],
        [record.client.ip_address for record in records],
        min_cluster,
    )


def link_sms_records(
    records: Sequence[SmsRecord],
    min_cluster: int = 3,
) -> List[LinkedEntity]:
    """Cluster SMS-send records into entities.

    Links on booking reference (the side-channel the Case C attacker
    could not rotate: a handful of purchased tickets anchor thousands
    of sends), fingerprint id and IP address.
    """
    key_sets: List[List[Hashable]] = []
    for record in records:
        keys: List[Hashable] = [
            ("fp", record.client.fingerprint_id),
            ("ip", record.client.ip_address),
        ]
        if record.booking_ref:
            keys.append(("ref", record.booking_ref))
        key_sets.append(keys)

    return _link(
        records,
        key_sets,
        [record.time for record in records],
        [record.client.fingerprint_id for record in records],
        [record.client.ip_address for record in records],
        min_cluster,
    )
