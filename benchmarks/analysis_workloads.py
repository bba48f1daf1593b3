"""Shared measurement workloads for the columnar-analysis benchmark.

One module defines the timed workloads and the equivalence report so
the recorded object-path baseline
(``benchmarks/output/analysis_baseline.json``) and the live benchmark
(``test_bench_analysis.py``) measure exactly the same thing.

Both workloads time the per-object reference against the columnar
fast path in the same process, interleaved round by round, so the
committed speedups are same-machine, same-data, same-run comparisons:

* ``analysis_features`` — ``sessionize()`` + one
  ``extract_features()`` row per session (materialize every
  ``LogEntry``/``Session``, loop per session)
  versus one ``SessionIndex.from_log()`` pass over the columnar
  blocks.  Throughput is log rows per second.
* ``graph_propagation`` — ``propagate_dict()`` (per-edge Python
  Jacobi sweeps) versus ``compile_graph()`` + ``propagate()`` (CSR
  NumPy sweeps), on a synthetic rotated-campaign multipartite graph.
  Throughput is directed-edge visits per second (edges x rounds).

Every timed round asserts bit-identical outputs between the two paths
— the benchmark cannot quietly speed up by diverging.  Sizes scale
down ~10x under ``REPRO_BENCH_QUICK=1`` (the CI perf-smoke job).

:func:`equivalence_report` is the scenario-level half of the proof:
identical fused verdict lists on the compressed Cases A/B/C, identical
propagation scores + campaign extractions on graph-case-a/c, and
serial == ProcessPool bit-identity through the runner.
"""

from __future__ import annotations

import random
import statistics
import time
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

from kernel_workloads import peak_rss_mb, quick_mode

from repro.common import ClientRef
from repro.core.detection.clustering import ClusteringDetector
from repro.core.detection.features import FEATURE_NAMES, extract_features
from repro.core.detection.fusion import FusionDetector
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.volume import VolumeDetector
from repro.graph.builder import EntityGraph
from repro.graph.campaigns import campaign_verdicts, extract_campaigns
from repro.graph.entities import EntityId
from repro.graph.propagation import (
    compile_graph,
    propagate,
    propagate_dict,
)
from repro.obs.profile import PROFILED_CASES, short_overrides
from repro.runner import SweepSpec, run_sweep
from repro.scenarios.graph_case import GraphCaseConfig, run_graph_case
from repro.web.logs import WebLog, sessionize
from repro.web.request import (
    BOARDING_PASS_SMS,
    FLIGHT_DETAILS,
    HOLD,
    OTP_LOGIN,
    PAY,
    SEARCH,
    TRAP,
)


def _scaled(full: int, quick: int) -> int:
    return quick if quick_mode() else full


def default_rounds() -> int:
    """Timed rounds per path (median taken, interleaved A/B)."""
    return 3 if quick_mode() else 5


def _median(samples: List[float]) -> float:
    return statistics.median(samples)


# -- feature extraction ------------------------------------------------------

_PATHS = (
    SEARCH, FLIGHT_DETAILS, HOLD, PAY, OTP_LOGIN,
    BOARDING_PASS_SMS, TRAP, "/notify", "/misc/faq",
)
_CLASSES = ("legit", "legit", "legit", "scraper", "spinner")


def build_feature_log() -> WebLog:
    """A deterministic columnar log shaped like case traffic.

    Many interleaved clients, bursty within-session gaps plus
    idle-gap-crossing pauses, the full endpoint mix (so every
    path-bucket feature column is exercised), and a mix of actor
    classes so downstream label paths see both classes.
    """
    rows = _scaled(200_000, 20_000)
    rng = random.Random(0xC0FFEE)
    clients = [
        ClientRef(
            ip_address=f"198.51.{i % 97}.{i % 251}",
            fingerprint_id=f"fp-{i % 571:04d}",
            actor_class=_CLASSES[i % len(_CLASSES)],
            ip_country="US",
            ip_residential=i % 3 != 0,
            user_agent="bench-ua",
        )
        for i in range(rows // 25 or 1)
    ]
    log = WebLog()
    clock = 0.0
    emitted = 0
    while emitted < rows:
        # One burst = one client's visit: a handful of closely spaced
        # requests, so sessions average several rows like real traffic.
        client = rng.choice(clients)
        clock += rng.choice((2.0, 9.0, 40.0, 300.0, 2000.0))
        for _ in range(min(rng.randint(1, 12), rows - emitted)):
            clock += rng.choice((0.0, 0.4, 1.5, 6.0, 20.0))
            log.append_fields(
                clock,
                rng.choice(("GET", "GET", "GET", "POST")),
                rng.choice(_PATHS),
                rng.choice((200, 200, 200, 200, 403, 429)),
                client,
            )
            emitted += 1
    return log


def object_matrix(sessions) -> np.ndarray:
    """The per-object reference: one ``extract_features`` row per
    session, in session order."""
    matrix = np.zeros((len(sessions), len(FEATURE_NAMES)))
    for row, session in enumerate(sessions):
        matrix[row] = extract_features(session).vector()
    return matrix


def features_workload() -> Dict[str, float]:
    """Object path vs columnar index on the same log, interleaved."""
    log = build_feature_log()
    rows = len(log)
    object_seconds: List[float] = []
    columnar_seconds: List[float] = []
    reference = None
    for _ in range(default_rounds()):
        started = time.perf_counter()
        sessions = sessionize(log)
        matrix = object_matrix(sessions)
        object_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        index = SessionIndex.from_log(log)
        columnar_seconds.append(time.perf_counter() - started)

        # Equivalence is part of the measurement contract: a fast path
        # that diverges must fail the benchmark, not win it.
        if reference is None:
            reference = ([s.session_id for s in sessions], matrix)
        assert index.session_ids == reference[0]
        assert np.array_equal(index.matrix, reference[1])
    object_s = _median(object_seconds)
    columnar_s = _median(columnar_seconds)
    return {
        "rows": float(rows),
        "sessions": float(len(reference[0])),
        "rounds_timed": float(default_rounds()),
        "object_rows_per_sec": rows / object_s,
        "events_per_sec": rows / columnar_s,
        "speedup_in_run": object_s / columnar_s,
    }


# -- graph propagation -------------------------------------------------------


def build_propagation_graph() -> Tuple[EntityGraph, Dict[EntityId, float]]:
    """A rotated-campaign-shaped multipartite graph plus weak seeds.

    Sessions fan into shared fingerprints and IPs; fingerprints share
    booking references (the rotation glue).  Sized so the full graph
    carries ~170k directed edges — the same order as a sharded
    million-visitor world's entity graph.
    """
    sessions = _scaled(40_000, 4_000)
    fingerprints = max(sessions // 20, 4)
    ips = max(sessions // 27, 4)
    refs = max(fingerprints // 3, 2)
    rng = random.Random(0xBEEF)
    graph = EntityGraph()
    seeds: Dict[EntityId, float] = {}
    for i in range(sessions):
        session = EntityId("session", f"S{i:07d}")
        fingerprint = EntityId("fp", f"fp-{rng.randrange(fingerprints):05d}")
        ip = EntityId("ip", f"10.{i % 17}.{rng.randrange(ips) % 250}.9")
        graph.add_edge(session, fingerprint, 1.0)
        graph.add_edge(session, ip, 0.6)
        if i % 9 == 0:
            ref = EntityId("ref", f"R{rng.randrange(refs):04d}")
            graph.add_edge(session, ref, 0.9)
            graph.add_edge(fingerprint, ref, 0.8)
        if i % 50 == 0:
            seeds[session] = 0.05 + 0.4 * rng.random()
    for j in range(0, fingerprints, 11):
        seeds[EntityId("fp", f"fp-{j:05d}")] = 0.3
    return graph, seeds


def propagation_workload() -> Dict[str, float]:
    """Dict reference vs CSR kernel on the same graph, interleaved."""
    graph, seeds = build_propagation_graph()
    compiled = compile_graph(graph)
    dict_seconds: List[float] = []
    csr_seconds: List[float] = []
    reference = None
    for _ in range(default_rounds()):
        started = time.perf_counter()
        ref = propagate_dict(graph, seeds)
        dict_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        csr = propagate(graph, seeds, compiled=compiled)
        csr_seconds.append(time.perf_counter() - started)

        assert csr.scores == ref.scores
        assert (csr.rounds, csr.converged) == (ref.rounds, ref.converged)
        if reference is None:
            reference = ref
    edge_visits = compiled.edge_count * reference.rounds
    dict_s = _median(dict_seconds)
    csr_s = _median(csr_seconds)
    return {
        "directed_edges": float(compiled.edge_count),
        "propagation_rounds": float(reference.rounds),
        "rounds_timed": float(default_rounds()),
        "object_edges_per_sec": edge_visits / dict_s,
        "events_per_sec": edge_visits / csr_s,
        "speedup_in_run": dict_s / csr_s,
    }


def run_all_workloads() -> Dict[str, Dict[str, float]]:
    return {
        "analysis_features": features_workload(),
        "graph_propagation": propagation_workload(),
        "peak_rss_mb": {"value": peak_rss_mb()},
    }


# -- scenario-level equivalence ----------------------------------------------


def _case_world(case: str):
    """Stand up one compressed case study; return its world."""
    if case == "case-a":
        from repro.scenarios.case_a import CaseAConfig, run_case_a

        return run_case_a(CaseAConfig(**short_overrides(case))).world
    if case == "case-b":
        from repro.scenarios.case_b import CaseBConfig, run_case_b

        return run_case_b(CaseBConfig(**short_overrides(case))).world
    from repro.scenarios.case_c import CaseCConfig, run_case_c

    return run_case_c(CaseCConfig(**short_overrides(case))).world


def _case_fused_verdicts_identical(case: str) -> bool:
    """Columnar vs object path on one case's real log: bit-equal
    feature matrix and identical fused verdict lists."""
    world = _case_world(case)
    log = world.app.log
    sessions = sessionize(log)
    index = SessionIndex.from_log(log)
    if index.session_ids != [s.session_id for s in sessions]:
        return False
    matrix = object_matrix(sessions)
    if not np.array_equal(index.matrix, matrix):
        return False
    if index.sessions() != sessions:
        return False
    kmeans_seed = 20_250_808
    volume = VolumeDetector()
    object_index = SimpleNamespace(
        session_ids=[s.session_id for s in sessions], matrix=matrix
    )
    object_fused = FusionDetector().fuse([
        [volume.judge(session) for session in sessions],
        ClusteringDetector(
            np.random.default_rng(kmeans_seed)
        ).judge_index(object_index),
    ])
    columnar_fused = FusionDetector().fuse([
        VolumeDetector().judge_index(index),
        ClusteringDetector(
            np.random.default_rng(kmeans_seed)
        ).judge_index(index),
    ])
    return object_fused == columnar_fused


def _graph_case_campaigns_identical(case: str) -> bool:
    """Replay a graph case's CSR analysis through the dict reference:
    same propagation scores, same campaigns, same verdicts."""
    result = run_graph_case(GraphCaseConfig(ticks_short=True, case=case))
    analysis = result.detector.last_analysis
    if analysis is None:
        return False
    config = result.detector.config
    reference = propagate_dict(
        analysis.graph, analysis.seeds, config=config.propagation
    )
    if reference.scores != analysis.propagation.scores:
        return False
    if (reference.rounds, reference.converged) != (
        analysis.propagation.rounds, analysis.propagation.converged
    ):
        return False
    campaigns = extract_campaigns(
        analysis.graph,
        reference.scores,
        config=config.campaigns,
        seeds=analysis.seeds,
    )
    if campaigns != analysis.campaigns:
        return False
    return campaign_verdicts(
        campaigns, threshold=config.verdict_threshold
    ) == analysis.campaign_verdicts


def _serial_equals_process_pool() -> bool:
    """The same two-replication graph sweep, serial vs 2-worker pool."""
    spec = SweepSpec(
        scenario="graph-case-a",
        base={"ticks_short": True},
        replications=2,
        master_seed=11,
    )
    serial = run_sweep(spec, backend="serial")
    pooled = run_sweep(spec, workers=2, backend="process")
    return all(
        a.metrics == b.metrics
        and a.info == b.info
        and a.recorder_snapshot == b.recorder_snapshot
        and a.seed == b.seed
        for a, b in zip(serial.cells, pooled.cells)
    )


def equivalence_report() -> Dict[str, bool]:
    """Scenario-level columnar-vs-object equivalence, one flag each."""
    report = {
        f"{case}_fused_verdicts_identical":
            _case_fused_verdicts_identical(case)
        for case in PROFILED_CASES
    }
    for case in ("case-a", "case-c"):
        report[f"graph_{case}_campaigns_identical"] = (
            _graph_case_campaigns_identical(case)
        )
    report["serial_equals_process_pool"] = _serial_equals_process_pool()
    return report
