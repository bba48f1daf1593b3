"""Per-edge Python reference for the CSR propagation kernel.

:func:`propagate_dict` is the historical dict-of-dicts Jacobi sweep
that :func:`repro.graph.propagation.propagate` replaced.  It stays here,
outside the package, as the executable specification the property
tests (``tests/test_propagation_csr.py``) and the analysis benchmark
compare the vectorized kernel against.
"""

from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph.entities import EntityId
from repro.graph.propagation import PropagationConfig, PropagationResult

from tests.graph_oracle import DictEntityGraph


def propagate_dict(
    graph,
    seeds: Mapping[EntityId, float],
    config: Optional[PropagationConfig] = None,
    obs: Optional[object] = None,
) -> PropagationResult:
    """Reference per-edge Python implementation of :func:`propagate`.

    Kept verbatim as the semantic specification the CSR kernel is
    property-tested against (`tests/test_propagation_csr.py`): same
    sorted-neighbour summation order, same monotone delta tracking,
    same clamping.  Production callers use :func:`propagate`.  A
    graph that is not already a :class:`DictEntityGraph` is copied
    into one first.
    """
    config = config or PropagationConfig()
    if not isinstance(graph, DictEntityGraph):
        graph = DictEntityGraph.copy_of(graph)

    nodes = sorted(set(graph.nodes()) | set(seeds))
    seed_of = {
        node: min(max(float(seeds.get(node, 0.0)), 0.0), 1.0)
        for node in nodes
    }
    # Precompute sorted incoming-edge lists with the source-side
    # normalized coupling, so each round is a flat scan over directed
    # edges; sorting makes float sums independent of the order records
    # fed the builder.
    # Degrees are summed over *sorted* neighbours (not the graph's
    # insertion-ordered adjacency): float addition is not associative,
    # so this is what makes two builds of the same record set — batch
    # vs streaming, any interleaving — produce bit-identical scores.
    degree = {
        node: sum(
            weight
            for _, weight in sorted(graph.neighbors(node).items())
        )
        for node in nodes
    }
    incoming: Dict[EntityId, List[Tuple[EntityId, float]]] = {}
    for node in nodes:
        pairs = []
        for neighbor, weight in sorted(graph.neighbors(node).items()):
            # The *source* (neighbor) side normalizes: a node re-emits
            # d times its mass, split across its edges by weight.
            pairs.append(
                (neighbor, config.damping * weight / degree[neighbor])
            )
        incoming[node] = pairs

    mass = dict(seed_of)
    rounds = 0
    converged = False
    timer = obs.timer("graph.propagation.round") if obs is not None else None
    for rounds in range(1, config.max_rounds + 1):
        span = timer.time() if timer is not None else None
        if span is not None:
            span.__enter__()
        delta = 0.0
        updated: Dict[EntityId, float] = {}
        for node in nodes:
            absorbed = 0.0
            for source, factor in incoming[node]:
                absorbed += factor * mass[source]
            value = seed_of[node] + absorbed
            updated[node] = value
            change = value - mass[node]
            if change > delta:
                delta = change
        mass = updated
        if span is not None:
            span.__exit__(None, None, None)
        if delta < config.tolerance:
            converged = True
            break
    scores = {
        node: min(1.0, value) for node, value in mass.items()
    }
    if obs is not None:
        obs.set_gauge("graph.propagation.rounds", float(rounds))
        obs.set_gauge(
            "graph.propagation.converged", 1.0 if converged else 0.0
        )
    return PropagationResult(
        scores=scores, rounds=rounds, converged=converged
    )
