"""The sweep/replication orchestrator.

:func:`run_sweep` expands a :class:`~repro.runner.spec.SweepSpec` into
cells, satisfies as many as possible from the on-disk
:class:`~repro.runner.cache.ResultCache`, and fans the misses out over
a backend:

* ``"serial"`` — run every cell in this process (the reference
  implementation, and the fallback where multiprocessing is unwanted);
* ``"process"`` — a ``concurrent.futures.ProcessPoolExecutor``.

Determinism does not depend on the backend: each cell's RNG seed is a
pure function of ``(master_seed, config_hash, replication)``, the cell
function is a pure function of its config, and results are reassembled
in spec order (``executor.map`` preserves input order), so a serial run
and an N-worker run produce bit-identical merged metrics.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.aggregate import SummaryStats, aggregate_metrics
from ..obs import ObsRegistry, merge_snapshots
from .cache import ResultCache
from .registry import get_scenario
from .spec import CellSpec, SweepSpec

SERIAL = "serial"
PROCESS = "process"


def execute_cell(cell: CellSpec) -> Dict[str, object]:
    """Run one sweep cell and return its plain-data payload.

    Module-level (hence picklable) so it can be the entry point of a
    worker process; also the serial backend's unit of work, so both
    backends share one code path.
    """
    entry = get_scenario(cell.scenario)
    config = entry.build_config(cell.params_dict(), cell.seed)
    return entry.cell_fn(config)


@dataclass(frozen=True)
class CellResult:
    """One completed cell: its identity plus the payload it produced."""

    scenario: str
    params: Tuple[Tuple[str, object], ...]
    replication: int
    config_hash: str
    seed: int
    metrics: Dict[str, float]
    info: Dict[str, object]
    recorder_snapshot: Dict[str, object]
    from_cache: bool
    #: Wall-clock observability snapshot (``repro.obs``); empty for
    #: cells whose scenario does not profile itself.
    obs_snapshot: Dict[str, object] = field(default_factory=dict)
    #: Entity-graph snapshot (``EntityGraph.snapshot``); empty for
    #: scenarios that build no graph.  For sharded cells this is the
    #: cross-shard union.
    graph_snapshot: Dict[str, object] = field(default_factory=dict)
    #: How many shards produced this cell (1 = unsharded).
    shards: int = 1

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def recorder(self) -> ObsRegistry:
        return ObsRegistry.from_snapshot(self.recorder_snapshot)

    def obs(self) -> ObsRegistry:
        return ObsRegistry.from_snapshot(self.obs_snapshot)


@dataclass
class SweepResult:
    """All cell results of one sweep, in spec order."""

    spec: SweepSpec
    cells: List[CellResult]
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    workers: int = 1
    backend: str = SERIAL
    shards: int = 1

    def points(self) -> List[Dict[str, object]]:
        return self.spec.points()

    def results_for(
        self, params: Dict[str, object]
    ) -> List[CellResult]:
        """This point's replications, in replication order."""
        key = tuple(sorted(params.items()))
        return [cell for cell in self.cells if cell.params == key]

    def merged_recorder(self, params: Dict[str, object]) -> ObsRegistry:
        """All replications' world registries folded in replication order.

        Counter merging is commutative and series merging
        order-independent, so this is identical however the cells were
        scheduled.
        """
        return merge_snapshots(
            cell.recorder_snapshot for cell in self.results_for(params)
        )

    def merged_obs(
        self, params: Optional[Dict[str, object]] = None
    ) -> ObsRegistry:
        """All cells' obs registries folded into one (worker merge).

        Counter/timer merging is commutative, so the fold is identical
        whichever worker process produced each cell.  ``params``
        restricts the fold to one grid point; default is every cell.
        """
        cells = self.cells if params is None else self.results_for(params)
        return merge_snapshots(cell.obs_snapshot for cell in cells)

    def aggregate(
        self, params: Dict[str, object], confidence: float = 0.95
    ) -> Dict[str, SummaryStats]:
        """Mean +/- CI of every scalar metric at one grid point."""
        return aggregate_metrics(
            [cell.metrics for cell in self.results_for(params)],
            confidence,
        )

    def aggregate_all(
        self, confidence: float = 0.95
    ) -> List[Tuple[Dict[str, object], Dict[str, SummaryStats]]]:
        """``(point params, per-metric stats)`` for every grid point."""
        return [
            (params, self.aggregate(params, confidence))
            for params in self.points()
        ]


def default_workers() -> int:
    """Worker count when the caller does not choose: all cores, max 4."""
    return min(4, os.cpu_count() or 1)


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    cache_dir: Optional[str] = None,
    shards: int = 1,
) -> SweepResult:
    """Run (or complete, via the cache) every cell of a sweep.

    ``workers=1`` or ``backend="serial"`` runs in-process; otherwise a
    process pool of ``workers`` (default :func:`default_workers`) is
    used.  With ``cache_dir`` set, cached cells are loaded instead of
    recomputed and fresh cells are persisted for next time.

    ``shards=K`` splits every cell into K independent sub-worlds (see
    :mod:`repro.shard`), runs them as ordinary work units on the same
    backend/cache machinery, and merges each cell's K payloads back
    into one :class:`CellResult`.  ``shards=1`` is a strict
    pass-through — same cells, same seeds, bit-identical results to
    not passing the argument at all.
    """
    started = time.perf_counter()
    cells = spec.cells()
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    if workers is None:
        workers = default_workers() if backend == PROCESS else 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if backend is None:
        backend = PROCESS if workers > 1 else SERIAL
    if backend not in (SERIAL, PROCESS):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == SERIAL:
        workers = 1

    # Expand cells into work units: each cell's shards are contiguous
    # in the work list, so spec order (and hence result order) is
    # preserved however the pool schedules them.
    if shards > 1:
        from ..shard.plan import shard_cell

        work: List[CellSpec] = []
        groups: List[Tuple[int, int]] = []
        for cell in cells:
            pieces = shard_cell(cell, spec.master_seed, shards)
            groups.append((len(work), len(work) + len(pieces)))
            work.extend(pieces)
    else:
        work = cells
        groups = [(index, index + 1) for index in range(len(cells))]

    cache = ResultCache(cache_dir) if cache_dir else None
    payloads: List[Optional[Dict[str, object]]] = [None] * len(work)
    pending: List[int] = []
    for index, unit in enumerate(work):
        if cache is not None:
            payloads[index] = cache.load(
                unit.scenario, unit.config_hash, unit.seed
            )
        if payloads[index] is None:
            pending.append(index)

    if pending:
        todo = [work[index] for index in pending]
        if backend == PROCESS and workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(execute_cell, todo))
        else:
            fresh = [execute_cell(unit) for unit in todo]
        for index, payload in zip(pending, fresh):
            payloads[index] = payload
            if cache is not None:
                unit = work[index]
                cache.store(
                    unit.scenario, unit.config_hash, unit.seed, payload
                )

    results = []
    pending_set = set(pending)
    for cell, (start, end) in zip(cells, groups):
        group = payloads[start:end]
        assert all(payload is not None for payload in group)
        if end - start > 1:
            from ..shard.merge import merge_payloads

            payload = merge_payloads(cell.scenario, group)
        else:
            payload = group[0]
        results.append(
            CellResult(
                scenario=cell.scenario,
                params=cell.params,
                replication=cell.replication,
                config_hash=cell.config_hash,
                seed=cell.seed,
                metrics={
                    name: float(value)
                    for name, value in dict(payload["metrics"]).items()
                },
                info=dict(payload.get("info", {})),
                recorder_snapshot=dict(payload.get("recorder", {})),
                from_cache=all(
                    index not in pending_set for index in range(start, end)
                ),
                obs_snapshot=dict(payload.get("obs", {})),
                graph_snapshot=dict(payload.get("graph", {})),
                shards=end - start,
            )
        )
    return SweepResult(
        spec=spec,
        cells=results,
        elapsed=time.perf_counter() - started,
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0,
        cache_corrupt=cache.corrupt if cache else 0,
        workers=workers,
        backend=backend,
        shards=shards,
    )
