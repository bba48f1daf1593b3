"""Weak-signal amplification: damped degree-normalized risk diffusion.

No single session of a rotated campaign looks abusive, but the
campaign's sessions share infrastructure nodes.  Propagation starts
from weak per-entity seed scores (existing detector verdicts, gentle
behavioural priors) and iterates a random-walk-with-restart style
update until nothing moves:

``s'(v) = seed(v) + d * sum_u (w(u,v) / deg(u)) * s(u)``

where ``d`` is the damping factor, ``w`` the edge weight and ``deg``
the *weighted* degree of the emitting side.  Scores are clamped into
[0, 1] only at read-out.  The asymmetry is the whole design:

* **emission is degree-normalized at the source** — a node re-emits
  at most ``d`` times its own risk, split across its edges by weight.
  That makes the update operator's spectral radius at most ``d < 1``:
  the fixed point exists, is unique, and *no* structure can blow up.
  It is also the hub safety: a flight with hundreds of customers or a
  /24 shared by a whole region splits its emission so thin that it
  heats no individual neighbour, no matter how hot it runs itself;
* **absorption is an unnormalized sum** — risk mass pouring in from
  *distinct* sources adds up, so a booking reference fed by 60 weakly
  suspicious fingerprints, or a fingerprint behind 100 near-innocent
  single-request sessions, accumulates far more mass than any one
  source carries.  That fan-in *is* the weak-signal amplification:
  risk mass is conserved up to ``d``, so a three-session household
  circulating ~0.1 total seed mass can never look like a campaign,
  while a hundred sessions of the same operation can.

Properties the test-suite pins:

* read-out scores stay in [0, 1] (clamped non-negative mass);
* isolated nodes keep exactly their seed (empty neighbour sum);
* updates are synchronous (Jacobi) and edge iteration is sorted, so
  the fixed point is deterministic and independent of graph feed
  order — no RNG anywhere;
* iteration starts at the seeds and every update is monotone
  nondecreasing, climbing geometrically (rate ``d``) to the Neumann
  fixed point; the loop stops when the largest per-node delta drops
  below tolerance.

The sweep itself runs on a :class:`CompiledGraph`, the int-indexed CSR
view derived from the graph's interned edge columns (nodes in
insertion order, incoming edges grouped by destination, sources sorted
by node id within each group), and every Jacobi round becomes three
NumPy operations — gather source mass, scale by the precomputed
coupling, ``np.bincount`` back onto destinations.  ``np.bincount``
accumulates each bin in array order, which within a group is the
sorted-neighbour order; where the group sits in the array does not
matter.  So the vectorized sweep is bit-identical to the historical
per-edge Python loop (kept in ``tests/propagation_oracle.py`` as
``propagate_dict``, the reference the property tests compare against).

A Jacobi update reads only a node's in-neighbours, so connected
components are separable.  Given a :class:`ComponentScope`,
:func:`propagate` sweeps only those components and freezes each one at
the first round where its *own* largest delta drops below tolerance,
which makes a component's scores a function of its own structure and
seeds alone.  The streaming adapter's periodic refresh relies on that
to re-sweep only the components that changed.  The whole-graph sweep
(batch detection, the stream's final analysis) is the same loop with
every node in one component, so every node runs until the slowest
component converges.

Derivation is seed-independent and incremental.  Node indices are
append-only and edge slots are append-only columns, so
:func:`compile_graph` caches the view on the graph and, when the graph
has changed, re-sorts only the groups of new nodes and of the endpoints
of slots appended or raised since: the result equals a cold derivation
array for array.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .builder import EntityGraph
from .entities import EntityId


@dataclass(frozen=True)
class PropagationConfig:
    """Diffusion knobs (defaults tuned on the Case A/C scenarios)."""

    damping: float = 0.85
    max_rounds: int = 100
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError(
                f"damping must be in (0, 1): {self.damping}"
            )
        if self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be >= 1: {self.max_rounds}"
            )
        if self.tolerance <= 0:
            raise ValueError(
                f"tolerance must be positive: {self.tolerance}"
            )


@dataclass
class PropagationResult:
    """Fixed-point scores plus convergence diagnostics."""

    scores: Dict[EntityId, float]
    rounds: int
    converged: bool

    def score(self, node: EntityId) -> float:
        return self.scores.get(node, 0.0)

    def top(self, count: int = 10) -> List[Tuple[EntityId, float]]:
        """Highest-risk nodes, score-descending then id-ascending."""
        if count <= 0:
            return []
        return [
            (node, -negated)
            for negated, node in heapq.nsmallest(
                count,
                ((-score, node) for node, score in self.scores.items()),
            )
        ]


@dataclass
class CompiledGraph:
    """Int-indexed CSR view of an :class:`EntityGraph`, derived from its
    columns.

    Node indices are the graph's interned indices (insertion order), so
    a node keeps its index across every later derivation.  Incoming
    edges are grouped by destination node (``indptr`` bounds node
    ``i``'s group at ``src[indptr[i]:indptr[i+1]]``) with sources
    *sorted by node id* inside each group — the only order
    ``np.bincount`` summation depends on, which is what keeps float
    accumulation bit-identical across build orders.  ``degree`` is the
    weighted degree summed in that order, and ``src_degree`` gathers it
    per edge so the damped coupling is one elementwise expression at
    propagate time.

    ``nodes`` is the first ``node_count`` interned ids; ``index`` is
    the graph's own interning map, which only ever grows.  ``version``
    is the graph's structural version the view was derived at, and
    ``base`` the version of the view it was spliced from (``-1`` when
    derived cold).
    """

    nodes: List[EntityId]
    index: Dict[EntityId, int]
    indptr: np.ndarray      # (n+1,) int64 — incoming-edge group bounds
    src: np.ndarray         # (e,) int64 — source node index per edge
    dst: np.ndarray         # (e,) int64 — destination node index per edge
    weights: np.ndarray     # (e,) float64 — edge weight per edge
    degree: np.ndarray      # (n,) float64 — weighted degree per node
    src_degree: np.ndarray  # (e,) float64 — degree[src] per edge
    version: int = 0
    base: int = -1
    #: Indices of the nodes whose groups this derivation re-sorted: the
    #: new nodes plus the endpoints of edge slots appended or raised
    #: since ``base`` (every node on a cold derivation).
    resorted: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64),
        repr=False,
        compare=False,
    )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Directed edge slots (2x the undirected edge count)."""
        return int(self.src.shape[0])

    def group_edges(self, nodes: np.ndarray) -> np.ndarray:
        """Edge positions of ``nodes``' incoming groups, group after
        group, each in its CSR (sorted-source) order."""
        lo = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - lo
        group_starts = np.cumsum(counts) - counts
        return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
            lo - group_starts, counts
        )

    def neighbors_of(self, node: EntityId) -> List[EntityId]:
        """The node's neighbours, sorted by id."""
        i = self.index.get(node)
        if i is None:
            return []
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return [self.nodes[j] for j in self.src[lo:hi]]


def compile_graph(
    graph: EntityGraph, obs: Optional[object] = None
) -> CompiledGraph:
    """The CSR view of ``graph`` (seed-independent), derived on demand.

    The graph caches its last view: while its structural version is
    unchanged the cached view is returned as is.  Otherwise only the
    neighbour groups of new nodes and of the endpoints of edge slots
    appended or raised since the cached view are gathered from the
    edge columns and re-sorted; every other group is copied from the
    cached view to its shifted offset.  Without a cached view (a fresh
    or unpickled graph) every group is re-sorted: the cold derivation
    is the same routine splicing into nothing.  Either way the arrays
    equal a cold derivation's exactly.  The result's ``resorted`` lists
    the re-sorted nodes, so a streaming caller learns what changed
    without tracking it twice.
    Each derivation sets the ``graph.nodes``/``graph.edges`` gauges
    (undirected edges) on ``obs``.
    """
    previous = graph._view
    if previous is not None and previous.version == graph.version:
        return previous
    span = obs.timer("graph.compile").time() if obs is not None else None
    if span is not None:
        span.__enter__()
    try:
        if previous is None:
            # Derive cold: splice into an empty view.
            none = np.empty(0, dtype=np.int64)
            previous = CompiledGraph(
                nodes=[], index={}, indptr=np.zeros(1, dtype=np.int64),
                src=none, dst=none, weights=none.astype(np.float64),
                degree=none, src_degree=none, version=-1,
            )
        nodes = graph.nodes()
        n = len(nodes)
        old_n = previous.node_count
        lo, hi, slot_weights = graph.edge_columns()
        # New nodes and the endpoints of slots appended or raised since
        # ``previous``: their groups are gathered and re-sorted.
        touched = np.concatenate([
            np.arange(previous.edge_count // 2, lo.shape[0]),
            np.array(graph._raised, dtype=np.int64),
        ])
        graph._raised = []
        is_dirty = np.zeros(n, dtype=bool)
        is_dirty[old_n:] = True
        is_dirty[lo[touched]] = True
        is_dirty[hi[touched]] = True
        dirty = np.flatnonzero(is_dirty)
        # Every directed edge into a dirty node, taken from both ends
        # of the undirected slots.
        ends = np.concatenate([lo, hi])
        starts = np.concatenate([hi, lo])
        picked = np.flatnonzero(is_dirty[ends])
        group_dst = ends[picked]
        group_src = starts[picked]
        # Rank the sources present by node id, then order the picked
        # edges by destination and, inside each group, by that rank.
        is_present = np.zeros(n, dtype=bool)
        is_present[group_src] = True
        present = np.flatnonzero(is_present).tolist()
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(present, key=nodes.__getitem__)] = np.arange(
            len(present), dtype=np.int64
        )
        order = np.lexsort((rank[group_src], group_dst))
        group_src = group_src[order]
        group_weights = np.concatenate([slot_weights, slot_weights])[
            picked[order]
        ]
        dirty_counts = np.bincount(group_dst, minlength=n)[dirty]
        counts = np.zeros(n, dtype=np.int64)
        counts[:old_n] = np.diff(previous.indptr)
        counts[dirty] = dirty_counts
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        src = np.empty(int(indptr[-1]), dtype=np.int64)
        weights = np.empty(src.shape[0], dtype=np.float64)
        # Unchanged groups keep their contents, shifted to new offsets.
        kept = np.flatnonzero(~is_dirty[previous.dst])
        kept_dst = previous.dst[kept]
        at = kept + (indptr[kept_dst] - previous.indptr[kept_dst])
        src[at] = previous.src[kept]
        weights[at] = previous.weights[kept]
        # Re-sorted groups land at their own new offsets.
        group_starts = np.zeros(dirty.shape[0], dtype=np.int64)
        np.cumsum(dirty_counts[:-1], out=group_starts[1:])
        at = np.arange(group_src.shape[0], dtype=np.int64) + np.repeat(
            indptr[dirty] - group_starts, dirty_counts
        )
        src[at] = group_src
        weights[at] = group_weights
        # Destination index per edge; bincount over it accumulates each
        # node's incoming sum in sorted-source order — the dict path's
        # exact summation order, wherever the group sits in the array.
        dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        degree = np.bincount(dst, weights=weights, minlength=n).astype(
            np.float64, copy=False
        )
        src_degree = degree[src]
        compiled = CompiledGraph(
            nodes=nodes,
            index=graph.index,
            indptr=indptr,
            src=src,
            dst=dst,
            weights=weights,
            degree=degree,
            src_degree=src_degree,
            version=graph.version,
            base=previous.version,
            resorted=dirty,
        )
        graph._view = compiled
    finally:
        if span is not None:
            span.__exit__(None, None, None)
    if obs is not None:
        obs.increment("graph.compile.nodes", float(n))
        obs.increment("graph.compile.edges", float(compiled.edge_count))
        obs.increment("graph.compile.resorted", float(dirty.shape[0]))
        obs.set_gauge("graph.nodes", float(n))
        obs.set_gauge("graph.edges", float(graph.edge_count))
    return compiled


@dataclass(frozen=True)
class ComponentScope:
    """Whole connected components of a compiled graph, swept together.

    ``nodes`` holds node indices in ascending order, ``components``
    each node's component numbered ``0, 1, ...``.  A Jacobi update
    reads only in-neighbours, so a set of whole components can be
    swept without the rest of the graph.
    """

    nodes: np.ndarray       # (m,) int64 — node indices
    components: np.ndarray  # (m,) int64 — each node's component number


def propagate(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: Optional[PropagationConfig] = None,
    obs: Optional[object] = None,
    compiled: Optional[CompiledGraph] = None,
    scope: Optional[ComponentScope] = None,
) -> PropagationResult:
    """Diffuse ``seeds`` over ``graph`` to the deterministic fixed point.

    Seed entries for nodes absent from the graph are kept as-is (they
    are isolated by definition); every graph node missing from
    ``seeds`` starts at 0.  Seeds are clipped into [0, 1] on the way
    in, and scores are clamped into [0, 1] on the way out, so a caller
    cannot push the diffusion out of range.

    ``compiled`` is the graph's :func:`compile_graph` view; it must
    match the graph's current structural version (a view derived
    before a later change is rejected).

    ``scope`` sweeps only the listed components, and stops each one at
    the first round where its *own* largest delta drops below
    tolerance.  A component's scores are then a function of its own
    structure and seeds alone, whatever is swept alongside it; the
    result's ``scores`` cover the scope's nodes only, ``rounds`` is the
    slowest component's count.  Without ``scope`` every node runs until
    the slowest component converges, so the two can differ within the
    tolerance.
    """
    config = config or PropagationConfig()
    if compiled is None:
        compiled = compile_graph(graph, obs=obs)
    elif compiled.version != graph.version:
        raise ValueError(
            f"stale CompiledGraph: compiled version {compiled.version} "
            f"!= graph version {graph.version}"
        )
    extras: Dict[EntityId, float] = {}
    if scope is None:
        # The whole graph, swept as one component: every node runs
        # until the slowest converges.  Seeded nodes absent from the
        # graph are isolated by definition: their read-out is exactly
        # the clipped seed, no sweep needed.
        n = compiled.node_count
        scope = ComponentScope(
            nodes=np.arange(n, dtype=np.int64),
            components=np.zeros(n, dtype=np.int64),
        )
        off_graph = [node for node in seeds if node not in compiled.index]
        clipped = np.clip(
            np.fromiter(
                map(seeds.__getitem__, off_graph),
                dtype=np.float64,
                count=len(off_graph),
            ),
            0.0,
            1.0,
        )
        extras = dict(zip(off_graph, clipped.tolist()))
    result = _sweep(compiled, seeds, config, scope, obs)
    result.scores.update(extras)
    return result


def _sweep(
    compiled: CompiledGraph,
    seeds: Mapping[EntityId, float],
    config: PropagationConfig,
    scope: ComponentScope,
    obs: Optional[object],
) -> PropagationResult:
    """The Jacobi sweep over ``scope``, freezing components one by one.

    Each scope node's incoming group is gathered in CSR order, so every
    node sums its neighbours in the same sorted order as the global
    sweep; a component that converges is written out and dropped from
    the working arrays, which keep their relative order.  The
    whole-graph sweep is this loop with every node in one component,
    which is exactly the global ``largest delta < tolerance`` stop.
    """
    nodes = scope.nodes
    m = int(nodes.shape[0])
    # Per-edge damped coupling, computed exactly as the dict reference
    # does per pair: (damping * weight) / degree[source].
    if m == compiled.node_count:
        # Every node, in index order: use the CSR arrays as they stand
        # rather than gathering edge-sized copies of them.
        ids = compiled.nodes
        src, dst = compiled.src, compiled.dst
        factor = config.damping * compiled.weights / compiled.src_degree
    else:
        ids = list(map(compiled.nodes.__getitem__, nodes.tolist()))
        edges = compiled.group_edges(nodes)
        local = np.empty(compiled.node_count, dtype=np.int64)
        local[nodes] = np.arange(m, dtype=np.int64)
        src = local[compiled.src[edges]]
        dst = local[compiled.dst[edges]]
        factor = (
            config.damping
            * compiled.weights[edges]
            / compiled.src_degree[edges]
        )
    seed_vec = np.clip(
        np.fromiter(
            map(seeds.get, ids, repeat(0.0, m)), dtype=np.float64, count=m
        ),
        0.0,
        1.0,
    )
    component = scope.components
    count = int(component.max(initial=-1)) + 1
    # ``where`` maps each working slot back to its position in ``nodes``.
    where = np.arange(m, dtype=np.int64)
    out = np.empty(m, dtype=np.float64)
    mass = seed_vec.copy()
    swept = 0
    rounds = 0
    converged = False
    timer = obs.timer("graph.propagation.round") if obs is not None else None
    for rounds in range(1, config.max_rounds + 1):
        span = timer.time() if timer is not None else None
        if span is not None:
            span.__enter__()
        absorbed = np.bincount(
            dst, weights=factor * mass[src], minlength=mass.shape[0]
        )
        updated = seed_vec + absorbed
        # A component is done once no node of it moved by tolerance:
        # its own largest delta is below tolerance.
        moved = updated - mass >= config.tolerance
        mass = updated
        swept += int(src.shape[0])
        if span is not None:
            span.__exit__(None, None, None)
        if not moved.any():
            out[where] = mass
            converged = True
            break
        if count == 1:
            continue
        done = np.ones(count, dtype=bool)
        done[component[moved]] = False
        if not done.any():
            continue
        finished = done[component]
        out[where[finished]] = mass[finished]
        keep = ~finished
        renumber = np.cumsum(keep) - 1
        kept_edges = keep[dst]
        src = renumber[src[kept_edges]]
        dst = renumber[dst[kept_edges]]
        factor = factor[kept_edges]
        seed_vec = seed_vec[keep]
        mass = mass[keep]
        where = where[keep]
        component = (np.cumsum(~done) - 1)[component[keep]]
        count -= int(np.count_nonzero(done))
    if not converged:
        out[where] = mass
    scores = dict(zip(ids, np.minimum(out, 1.0).tolist()))
    if obs is not None:
        obs.set_gauge("graph.propagation.rounds", float(rounds))
        obs.set_gauge(
            "graph.propagation.converged", 1.0 if converged else 0.0
        )
        obs.increment("graph.propagation.edge_sweeps", float(swept))
    return PropagationResult(
        scores=scores, rounds=rounds, converged=converged
    )
