"""The multipartite entity graph and its incremental builder.

:class:`EntityGraph` is a weighted undirected adjacency structure over
:class:`~repro.graph.entities.EntityId` nodes with first/last-seen
times per node.  Edge insertion is idempotent (same pair, max weight),
so the graph a feed produces is independent of observation order — the
property the streaming-equals-batch equivalence test pins.

:class:`GraphBuilder` turns raw records into graph structure one
observation at a time:

* web-log entries / closed sessions — session ↔ fingerprint ↔ IP
  (↔ /24 subnet), the links *within* a rotation epoch;
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

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..booking.reservation import BookingRecord
from ..sms.gateway import SmsRecord
from ..stream.store import KeyedStore
from ..web.logs import LogEntry, Session
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
from .unionfind import KeyedUnionFind

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
    """Weighted undirected multipartite graph with node timestamps."""

    def __init__(self) -> None:
        self._adjacency: Dict[EntityId, Dict[EntityId, float]] = {}
        self._first_seen: Dict[EntityId, float] = {}
        self._last_seen: Dict[EntityId, float] = {}
        self.edge_count = 0
        #: Structural version stamp: bumped on every node insertion,
        #: edge insertion and edge weight raise (never by :meth:`touch`
        #: — timestamps are not structure).  Consumers that compile the
        #: graph (:func:`repro.graph.propagation.compile_graph`) cache
        #: the compiled form keyed on this and recompile only when the
        #: structure changed — and then incrementally, from the nodes
        #: recorded below.
        self.version = 0
        #: Nodes whose adjacency changed (new edge or raised weight)
        #: since the compile stamped ``_compile_stamp``.  ``None`` until
        #: the first compile: with nothing to diff against, nothing is
        #: recorded.  Nodes are never removed, so a compile appends the
        #: new nodes and re-sorts only these nodes' neighbour groups.
        self._changed: Optional[Set[EntityId]] = None
        self._compile_stamp: Optional[object] = None

    # -- construction --------------------------------------------------------

    def add_node(
        self, node: EntityId, time: Optional[float] = None
    ) -> None:
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self.version += 1
        if time is not None:
            self.touch(node, time)

    def touch(self, node: EntityId, time: float) -> None:
        """Extend the node's observed [first_seen, last_seen] span."""
        first = self._first_seen.get(node)
        if first is None or time < first:
            self._first_seen[node] = time
        last = self._last_seen.get(node)
        if last is None or time > last:
            self._last_seen[node] = time

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
        self.add_node(a, time)
        self.add_node(b, time)
        existing = self._adjacency[a].get(b)
        if existing is None:
            self.edge_count += 1
        elif weight <= existing:
            return
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight
        self.version += 1
        if self._changed is not None:
            self._changed.add(a)
            self._changed.add(b)

    def drain_changes(
        self, since: Optional[object], stamp: object
    ) -> Optional[Set[EntityId]]:
        """Nodes whose adjacency changed since the compile ``since``.

        ``since`` is the stamp of the caller's previous compile; the
        answer is ``None`` (diff unknown: treat every node as changed)
        unless that compile is the last one taken from *this* graph.
        Tracking restarts under ``stamp``, the caller's new compile.
        """
        changed = (
            self._changed
            if since is not None and since is self._compile_stamp
            else None
        )
        self._changed = set()
        self._compile_stamp = stamp
        return changed

    # -- reads ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: EntityId) -> bool:
        return node in self._adjacency

    def nodes(self, kind: Optional[str] = None) -> List[EntityId]:
        """All nodes (optionally one kind), in insertion order."""
        if kind is None:
            return list(self._adjacency)
        return [node for node in self._adjacency if node.kind == kind]

    def neighbors(self, node: EntityId) -> Dict[EntityId, float]:
        return dict(self._adjacency.get(node, {}))

    _EMPTY_ADJACENCY: Dict[EntityId, float] = {}

    def neighbors_view(self, node: EntityId) -> Mapping[EntityId, float]:
        """The node's live adjacency dict — read-only by contract.

        :meth:`neighbors` returns a defensive copy, which is the right
        default but O(degree) allocation per call; hot analysis loops
        (graph compile, campaign corroboration/attachment scans) read
        this view instead and must not mutate it.
        """
        return self._adjacency.get(node, self._EMPTY_ADJACENCY)

    def weighted_degree(self, node: EntityId) -> float:
        return sum(self._adjacency.get(node, {}).values())

    def first_seen(self, node: EntityId) -> Optional[float]:
        return self._first_seen.get(node)

    def last_seen(self, node: EntityId) -> Optional[float]:
        return self._last_seen.get(node)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self._adjacency:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def components(
        self, nodes: Optional[Iterable[EntityId]] = None
    ) -> List[List[EntityId]]:
        """Connected components over ``nodes`` (default: every node).

        When ``nodes`` is given, components are computed on the induced
        subgraph: only edges with both endpoints inside the set count.
        Components and their members are returned in deterministic
        sorted order.
        """
        allowed: Optional[Set[EntityId]] = (
            None if nodes is None else set(nodes)
        )
        union: KeyedUnionFind[EntityId] = KeyedUnionFind()
        pool = self._adjacency if allowed is None else allowed
        for node in sorted(pool):
            if allowed is not None and node not in self._adjacency:
                continue
            union.add(node)
            for neighbor in self._adjacency.get(node, {}):
                if allowed is None or neighbor in allowed:
                    union.union(node, neighbor)
        return sorted(
            (sorted(group) for group in union.groups()),
            key=lambda group: group[0],
        )

    def edges(self) -> List[Tuple[EntityId, EntityId, float]]:
        """Every edge once, endpoints ordered, sorted."""
        found = []
        for a, neighbors in self._adjacency.items():
            for b, weight in neighbors.items():
                if a < b:
                    found.append((a, b, weight))
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
            "nodes": sorted(self.nodes()),
            "edges": self.edges(),
        }
        if include_spans:
            # A sorted triple list, not a node-keyed dict: tuple keys
            # would not survive the JSON result cache.
            view["spans"] = [
                (node, self._first_seen[node], self._last_seen[node])
                for node in sorted(self._first_seen)
            ]
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
    ``graph``) and streaming (one ``observe_*`` call per record as it
    lands) — both produce the identical graph for the same record set,
    in any interleaving, because every link rule is a pure function of
    the records seen so far and edge insertion is idempotent.
    """

    def __init__(
        self,
        config: Optional[GraphBuilderConfig] = None,
        obs: Optional[object] = None,
    ) -> None:
        self.config = config or GraphBuilderConfig()
        self.graph = EntityGraph()
        #: Optional duck-typed :class:`repro.obs.ObsRegistry`.
        self.obs = obs
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
        self.entries_observed = 0

    # -- observations --------------------------------------------------------

    def observe_entry(self, entry: LogEntry, now: float) -> None:
        """Link the entry's fingerprint and IP (intra-epoch identity)."""
        self.entries_observed += 1
        fp = fingerprint_node(entry.client.fingerprint_id)
        ip = ip_node(entry.client.ip_address)
        self.graph.add_edge(fp, ip, EDGE_FINGERPRINT_IP, time=entry.time)
        if self.config.include_subnets:
            self.graph.add_edge(
                ip, subnet_node(entry.client.ip_address),
                EDGE_IP_SUBNET, time=entry.time,
            )
        self._update_gauges()

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
        self._update_gauges()

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
        self._update_gauges()

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
        self._update_gauges()

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

    def _update_gauges(self) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.set_gauge("graph.nodes", float(self.graph.node_count))
        obs.set_gauge("graph.edges", float(self.graph.edge_count))


def build_batch_graph(
    sessions: Sequence[Session] = (),
    bookings: Sequence[BookingRecord] = (),
    sms: Sequence[SmsRecord] = (),
    config: Optional[GraphBuilderConfig] = None,
    obs: Optional[object] = None,
) -> EntityGraph:
    """One-shot batch construction (the reference the stream matches)."""
    return (
        GraphBuilder(config, obs=obs)
        .observe_all(sessions=sessions, bookings=bookings, sms=sms)
        .graph
    )
