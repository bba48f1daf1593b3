"""The multipartite entity graph and its incremental builder.

:class:`EntityGraph` is a weighted undirected graph over
:class:`~repro.graph.entities.EntityId` nodes, stored as columns: each
node interned once to an int, first/last-seen times per node, and one
``(a, b, weight)`` slot per edge.  Edge insertion is idempotent (same
pair, max weight), so the graph a feed produces is independent of
observation order — the property the streaming-equals-batch
equivalence test pins.  The CSR view propagation sweeps is derived
from these columns (:func:`repro.graph.propagation.compile_graph`).

:class:`GraphBuilder` turns raw records into graph structure one
observation at a time:

* closed sessions — session ↔ fingerprint ↔ IP (↔ /24 subnet), the
  links *within* a rotation epoch.  Sessions are keyed by IP +
  fingerprint, so a session's close carries every identity link its
  entries could: batch and stream learn them at the same call;
* booking records — fingerprint ↔ target flight and, gated on
  recurrence, fingerprint ↔ passenger-name key: the side-channel that
  survives Case A/B identity rotation;
* SMS records — fingerprint ↔ phone number and fingerprint ↔ booking
  reference: the Case C anchors ("a handful of purchased tickets
  anchor thousands of sends").

Transient state (passenger-name recurrence gating) lives in a
:class:`~repro.stream.store.KeyedStore` with a hard key cap, so the
builder rides the streaming pipeline with bounded memory; the graph
itself grows like the log it summarises.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
)

import numpy as np

from ..stream.store import KeyedStore
from ..web.logs import Session
from .entities import (
    EntityId,
    booking_ref_node,
    fingerprint_node,
    flight_node,
    ip_node,
    name_key_node,
    phone_node,
    session_node,
    subnet_node,
)
from .unionfind import merge_labels

if TYPE_CHECKING:
    from ..booking.reservation import BookingRecord
    from ..sms.gateway import SmsRecord

#: Edge trust weights by link type.  Strong links are identities the
#: attacker must actively share (booking reference, recurring passenger
#: name); weak links are hubs legitimate traffic also touches (target
#: flight, /24 subnet) — propagation's source-side degree
#: normalization further attenuates those.
EDGE_SESSION_FINGERPRINT = 1.0
EDGE_SESSION_IP = 0.7
EDGE_FINGERPRINT_IP = 0.8
EDGE_FINGERPRINT_NAME = 0.9
EDGE_FINGERPRINT_REF = 0.95
EDGE_FINGERPRINT_PHONE = 0.7
EDGE_FINGERPRINT_FLIGHT = 0.25
EDGE_IP_SUBNET = 0.5


class EntityGraph:
    """Weighted undirected multipartite graph with node timestamps,
    stored as columns.

    ``index`` interns each :class:`EntityId` to its position in the
    node list, in first-insertion order, for the graph's lifetime.
    First/last-seen times are two float columns (``+inf``/``-inf``
    until touched).  Each undirected edge is one slot of the lower
    endpoint, higher endpoint and weight columns, found again through
    a pair->slot map for the max-weight merge.  ``version`` counts
    structural changes (new node, new edge, raised weight; never
    :meth:`touch`).  :func:`repro.graph.propagation.compile_graph`
    caches the derived CSR view in ``_view``; ``_raised`` lists the
    slots raised since.  The view and both maps are left out of
    pickles; unpickling rebuilds the maps from the columns.
    """

    def __init__(self) -> None:
        self._nodes: List[EntityId] = []
        self.index: Dict[EntityId, int] = {}
        self._first = array("d")
        self._last = array("d")
        self._lo = array("i")
        self._hi = array("i")
        self._weight = array("d")
        self._slots: Dict[int, int] = {}
        self.version = 0
        #: The last derived CSR view (a ``CompiledGraph``) and the
        #: slots whose weight was raised since it was derived.
        self._view: Optional[object] = None
        self._raised: List[int] = []

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["index"], state["_slots"]
        state["_view"] = None
        state["_raised"] = []
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.index = {node: i for i, node in enumerate(self._nodes)}
        self._slots = {
            (lo << 32) | hi: slot
            for slot, (lo, hi) in enumerate(zip(self._lo, self._hi))
        }

    # -- construction --------------------------------------------------------

    def _intern(self, node: EntityId, time: Optional[float] = None) -> int:
        """``node``'s index (assigned on first sight), its span
        extended to ``time`` when given."""
        i = self.index.get(node)
        if i is None:
            i = self.index[node] = len(self._nodes)
            self._nodes.append(node)
            self._first.append(math.inf)
            self._last.append(-math.inf)
            self.version += 1
        if time is not None:
            if time < self._first[i]:
                self._first[i] = time
            if time > self._last[i]:
                self._last[i] = time
        return i

    def add_node(
        self, node: EntityId, time: Optional[float] = None
    ) -> None:
        self._intern(node, time)

    def touch(self, node: EntityId, time: float) -> None:
        """Extend the node's observed [first_seen, last_seen] span."""
        self._intern(node, time)

    def add_edge(
        self,
        a: EntityId,
        b: EntityId,
        weight: float,
        time: Optional[float] = None,
    ) -> None:
        """Link ``a`` and ``b`` (idempotent; same pair keeps max weight)."""
        if a == b:
            raise ValueError(f"self-edge not allowed: {a}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"edge weight must be in (0, 1]: {weight}")
        i = self._intern(a, time)
        j = self._intern(b, time)
        if i > j:
            i, j = j, i
        key = (i << 32) | j
        slot = self._slots.get(key)
        if slot is None:
            self._slots[key] = len(self._weight)
            self._lo.append(i)
            self._hi.append(j)
            self._weight.append(weight)
        elif weight > self._weight[slot]:
            self._weight[slot] = weight
            if self._view is not None:
                self._raised.append(slot)
        else:
            return
        self.version += 1

    # -- reads ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._weight)

    def __contains__(self, node: EntityId) -> bool:
        return node in self.index

    def nodes(self, kind: Optional[str] = None) -> List[EntityId]:
        """All nodes (optionally one kind), in insertion order."""
        if kind is None:
            return list(self._nodes)
        return [node for node in self._nodes if node.kind == kind]

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, weight)`` per edge slot, as NumPy copies."""
        return (
            np.frombuffer(self._lo, dtype=np.intc).astype(np.int64),
            np.frombuffer(self._hi, dtype=np.intc).astype(np.int64),
            np.frombuffer(self._weight, dtype=np.float64).copy(),
        )

    def first_seen(self, node: EntityId) -> Optional[float]:
        i = self.index.get(node)
        if i is None or self._first[i] == math.inf:
            return None
        return self._first[i]

    def last_seen(self, node: EntityId) -> Optional[float]:
        i = self.index.get(node)
        if i is None or self._last[i] == -math.inf:
            return None
        return self._last[i]

    def components(
        self, nodes: Optional[Iterable[EntityId]] = None
    ) -> List[List[EntityId]]:
        """Connected components over ``nodes`` (default: every node).

        When ``nodes`` is given, components are computed on the induced
        subgraph: only edges with both endpoints inside the set count,
        and nodes not in the graph are ignored.  Components and their
        members are returned in deterministic sorted order.
        """
        n = len(self._nodes)
        inside = np.ones(n, dtype=bool)
        if nodes is not None:
            inside[:] = False
            picked = [self.index[node] for node in nodes if node in self]
            inside[np.array(picked, dtype=np.int64)] = True
        lo, hi, _ = self.edge_columns()
        joined = inside[lo] & inside[hi]
        labels = merge_labels(
            np.arange(n, dtype=np.int64), lo[joined], hi[joined]
        )
        members = np.flatnonzero(inside)
        groups: Dict[int, List[EntityId]] = {}
        for i, label in zip(members.tolist(), labels[members].tolist()):
            groups.setdefault(label, []).append(self._nodes[i])
        return sorted(
            (sorted(group) for group in groups.values()),
            key=lambda group: group[0],
        )

    def edges(self) -> List[Tuple[EntityId, EntityId, float]]:
        """Every edge once, endpoints ordered, sorted."""
        nodes = self._nodes
        found = []
        for i, j, weight in zip(self._lo, self._hi, self._weight):
            a, b = nodes[i], nodes[j]
            found.append((a, b, weight) if a < b else (b, a, weight))
        return sorted(found)

    def snapshot(self, include_spans: bool = False) -> Dict[str, object]:
        """Canonical plain-data view — two graphs built from the same
        records in any order produce equal snapshots.

        The view is JSON-able once the ``EntityId`` tuples are
        listified, and mergeable: shard worlds ship their graphs across
        the pickle boundary as snapshots and the parent folds them with
        :meth:`merge_snapshot`.  Observation spans are opt-in: span
        times record *when an edge rule fired*, which (unlike the node
        and edge sets) can depend on feed order — e.g. the passenger
        name gate touches nodes at gate-open time — so they are left
        out of the canonical equality view and included only where the
        extra state matters (cross-shard merges).
        """
        view: Dict[str, object] = {
            "nodes": sorted(self._nodes),
            "edges": self.edges(),
        }
        if include_spans:
            # A sorted triple list, not a node-keyed dict: tuple keys
            # would not survive the JSON result cache.
            view["spans"] = sorted(
                span
                for span in zip(self._nodes, self._first, self._last)
                if span[1] != math.inf
            )
        return view

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "EntityGraph":
        """Rebuild a graph from :meth:`snapshot` output (exact round-trip
        up to node insertion order, which the snapshot canonicalises)."""
        graph = cls()
        graph.merge_snapshot(data)
        return graph

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a snapshot into this graph (cross-shard merge).

        The fold is associative and commutative: node insertion is
        idempotent, same-pair edges keep the max weight, and spans keep
        the min first-seen / max last-seen — so shard snapshots merge
        to the identical graph in any order.  Nodes/edge endpoints may
        arrive as lists (JSON round-trip) and are re-tupled.
        """
        for raw in data.get("nodes", []):
            self.add_node(EntityId(*raw))
        for a, b, weight in data.get("edges", []):
            self.add_edge(EntityId(*a), EntityId(*b), float(weight))
        for raw, first, last in data.get("spans", []):
            node = EntityId(*raw)
            self.touch(node, float(first))
            self.touch(node, float(last))
@dataclass
class GraphBuilderConfig:
    """Knobs for the incremental builder.

    ``min_name_repeats`` mirrors the rotation linker's gating: a
    passenger-name key only links fingerprints once it has appeared in
    at least that many bookings (one-off shared surnames never link).
    ``max_pending_names`` caps the recurrence-gating state — the
    KeyedStore bound that keeps streaming memory finite.
    """

    min_name_repeats: int = 2
    max_pending_names: int = 50_000
    include_subnets: bool = True
    link_flights: bool = True

    def __post_init__(self) -> None:
        if self.min_name_repeats < 1:
            raise ValueError(
                f"min_name_repeats must be >= 1: {self.min_name_repeats}"
            )


@dataclass
class _NameState:
    """Recurrence gate for one passenger-name key."""

    bookings: int = 0
    fingerprints: Set[str] = field(default_factory=set)
    active: bool = False


class GraphBuilder:
    """Feeds records into an :class:`EntityGraph`, incrementally.

    The same instance serves batch construction (feed everything, read
    ``graph``) and streaming (one ``observe_*`` call per closed session
    or record as it lands) — both produce the identical graph for the
    same record set, in any interleaving, because every link rule is a
    pure function of the records seen so far and edge insertion is
    idempotent.
    """

    def __init__(self, config: Optional[GraphBuilderConfig] = None) -> None:
        self.config = config or GraphBuilderConfig()
        self.graph = EntityGraph()
        self._names: KeyedStore[str, _NameState] = KeyedStore(
            max_keys=self.config.max_pending_names
        )
        #: SMS sends per fingerprint id — the Case C velocity signature
        #: (sessions there are single-request, so per-session priors
        #: carry nothing; the fingerprint is the right granularity).
        self.sms_by_fingerprint: Dict[str, int] = {}
        #: SMS sends per booking reference — the paper's "a handful of
        #: purchased tickets anchor thousands of sends".  The shared
        #: refs are what glue a rotated pumper's fingerprints into one
        #: campaign.
        self.sms_by_ref: Dict[str, int] = {}
        self.sessions_observed = 0
        self.bookings_observed = 0
        self.sms_observed = 0

    # -- observations --------------------------------------------------------

    def observe_session(self, session: Session) -> None:
        """Add a closed session and its identity edges."""
        self.sessions_observed += 1
        node = session_node(session.session_id)
        fp = fingerprint_node(session.fingerprint_id)
        ip = ip_node(session.ip_address)
        self.graph.add_node(node, time=session.start)
        self.graph.touch(node, session.end)
        self.graph.add_edge(
            node, fp, EDGE_SESSION_FINGERPRINT, time=session.start
        )
        self.graph.add_edge(node, ip, EDGE_SESSION_IP, time=session.start)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=session.start)
        if self.config.include_subnets:
            self.graph.add_edge(
                ip, subnet_node(session.ip_address),
                EDGE_IP_SUBNET, time=session.start,
            )

    def observe_booking(self, record: BookingRecord) -> None:
        """Link the booking's client to its flight and passenger names."""
        self.bookings_observed += 1
        fp = fingerprint_node(record.client.fingerprint_id)
        ip = ip_node(record.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=record.time)
        if self.config.link_flights:
            self.graph.add_edge(
                fp, flight_node(record.flight_id),
                EDGE_FINGERPRINT_FLIGHT, time=record.time,
            )
        for key in sorted({p.name_key for p in record.passengers}):
            self._observe_name(key, record.client.fingerprint_id, record.time)

    def observe_sms(self, record: SmsRecord) -> None:
        """Link the send's client to its phone number and booking ref."""
        self.sms_observed += 1
        self.sms_by_fingerprint[record.client.fingerprint_id] = (
            self.sms_by_fingerprint.get(record.client.fingerprint_id, 0)
            + 1
        )
        fp = fingerprint_node(record.client.fingerprint_id)
        ip = ip_node(record.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=record.time)
        self.graph.add_edge(
            fp, phone_node(str(record.number)),
            EDGE_FINGERPRINT_PHONE, time=record.time,
        )
        if record.booking_ref:
            self.sms_by_ref[record.booking_ref] = (
                self.sms_by_ref.get(record.booking_ref, 0) + 1
            )
            self.graph.add_edge(
                fp, booking_ref_node(record.booking_ref),
                EDGE_FINGERPRINT_REF, time=record.time,
            )

    # -- name-recurrence gating ----------------------------------------------

    def _observe_name(
        self, key: Tuple[str, str], fingerprint_id: str, time: float
    ) -> None:
        node = name_key_node(key)
        state, _ = self._names.get_or_create(
            node.value, time, _NameState
        )
        state.bookings += 1
        state.fingerprints.add(fingerprint_id)
        if state.active:
            self.graph.add_edge(
                node, fingerprint_node(fingerprint_id),
                EDGE_FINGERPRINT_NAME, time=time,
            )
            return
        if state.bookings >= self.config.min_name_repeats:
            # The gate opens: flush every fingerprint recorded while
            # pending, so the final edge set does not depend on the
            # order bookings arrived in.
            state.active = True
            for pending in sorted(state.fingerprints):
                self.graph.add_edge(
                    node, fingerprint_node(pending),
                    EDGE_FINGERPRINT_NAME, time=time,
                )

    @property
    def pending_names(self) -> int:
        return len(self._names)

    @property
    def peak_pending_names(self) -> int:
        return self._names.peak_size

    def evict_idle_names(self, now: float, idle_gap: float) -> int:
        """Drop recurrence gates idle past ``idle_gap``; returns count.

        An evicted *pending* name loses its one-off sighting (by
        design: it did not recur within the window); an evicted
        *active* name keeps its edges — only the gate state goes.
        """
        return len(self._names.evict_idle(now, idle_gap))

    # -- batch helper --------------------------------------------------------

    def observe_all(
        self,
        sessions: Sequence[Session] = (),
        bookings: Sequence[BookingRecord] = (),
        sms: Sequence[SmsRecord] = (),
    ) -> "GraphBuilder":
        for session in sessions:
            self.observe_session(session)
        for record in bookings:
            self.observe_booking(record)
        for record in sms:
            self.observe_sms(record)
        return self
