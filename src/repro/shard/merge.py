"""Merging K shard payloads back into one cell payload.

Every piece of a cell payload already has merge machinery or a
well-defined reduction:

* ``recorder`` and ``obs`` — :func:`repro.obs.merge_snapshots`, the
  one registry fold (counters and timers sum; series interleave
  order-independently);
* ``graph`` — :meth:`repro.graph.builder.EntityGraph.merge_snapshot`
  (union nodes, max-weight edges, min/max spans);
* ``metrics`` — scalar reduction per metric: *extensive* metrics
  (counts, totals, costs) sum across shards, *intensive* ones
  (fractions, rates, recalls, intervals) average.  Classification is
  by name convention with a per-scenario override table; negative
  values are the repo's "not measured" sentinel and are excluded from
  averages (a mean over sentinels stays ``-1.0``).

``info`` dicts are scenario-shaped free text, so they are kept
per-shard under ``info["shards"]`` rather than guessed at.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..graph.builder import EntityGraph
from ..obs.core import merge_snapshots

SUM = "sum"
MEAN = "mean"
MAX = "max"
MIN = "min"

#: Substrings that mark a metric as intensive (averaged, not summed).
_MEAN_MARKERS = (
    "fraction",
    "rate",
    "percent",
    "coverage",
    "recall",
    "precision",
    "share",
    "ratio",
    "interval",
    "latency",
    "fpr",
)

#: Per-scenario reduction overrides for names the convention misses.
_OVERRIDES: Dict[str, Dict[str, str]] = {
    "case-a": {
        # Final NiP is a per-attacker state, not a volume.
        "attacker_final_nip": MEAN,
    },
    "case-c": {
        # Country coverage is a union-like breadth measure and the
        # kill-switch flag is an "any shard" condition: both reduce
        # by max, not by sum.
        "countries_targeted": MAX,
        "feature_disabled": MAX,
    },
}
_OVERRIDES["profile-case-a"] = _OVERRIDES["case-a"]
_OVERRIDES["profile-case-c"] = _OVERRIDES["case-c"]


def _recompute_case_c(metrics: Dict[str, float]) -> Dict[str, float]:
    # A ratio of sums is not a mean of ratios: rebuild the global
    # surge from the summed window totals (mirrors
    # SmsSurgeMonitor.global_increase_percent).
    baseline = metrics.get("sms_baseline_total", 0.0)
    window = metrics.get("sms_window_total", 0.0)
    if baseline > 0.0:
        metrics["global_increase_percent"] = (
            (window - baseline) / baseline * 100.0
        )
    return metrics


#: Post-merge hooks: derived/ratio metrics that must be recomputed
#: from their summed extensive components after reduction.
_POSTMERGE: Dict[str, object] = {
    "case-c": _recompute_case_c,
    "profile-case-c": _recompute_case_c,
}


def reduction_for(scenario: str, name: str) -> str:
    """The reduction applied to metric ``name`` across shards."""
    override = _OVERRIDES.get(scenario, {}).get(name)
    if override is not None:
        return override
    if name.startswith("mean_"):
        return MEAN
    if any(marker in name for marker in _MEAN_MARKERS):
        return MEAN
    return SUM


def reduce_metric(reduction: str, values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot reduce an empty value list")
    if reduction == SUM:
        return float(sum(values))
    if reduction == MAX:
        return float(max(values))
    if reduction == MIN:
        return float(min(values))
    if reduction == MEAN:
        # Negative values are the "not measured" sentinel (-1.0 for
        # latencies/intervals that never happened); an average over
        # the shards that did measure is the meaningful one.
        present = [value for value in values if value >= 0.0]
        if not present:
            return -1.0
        return float(sum(present) / len(present))
    raise ValueError(f"unknown reduction {reduction!r}")


def merge_payloads(
    scenario: str, payloads: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Fold K shard payloads into one cell payload.

    Deterministic in shard order (payloads must be passed in shard-id
    order: gauges are last-write-wins, everything else is
    order-independent).
    """
    if not payloads:
        raise ValueError("cannot merge zero shard payloads")
    if len(payloads) == 1:
        return dict(payloads[0])

    metric_names = sorted(
        {name for payload in payloads for name in payload["metrics"]}
    )
    metrics = {}
    for name in metric_names:
        values = [
            float(payload["metrics"][name])
            for payload in payloads
            if name in payload["metrics"]
        ]
        metrics[name] = reduce_metric(reduction_for(scenario, name), values)
    postmerge = _POSTMERGE.get(scenario)
    if postmerge is not None:
        metrics = postmerge(metrics)

    merged: Dict[str, object] = {
        "metrics": metrics,
        "info": {
            "shard_count": len(payloads),
            "shards": [dict(payload.get("info", {})) for payload in payloads],
        },
        "recorder": merge_snapshots(
            payload.get("recorder", {}) for payload in payloads
        ).snapshot(),
    }

    obs_snapshots = [
        payload["obs"] for payload in payloads if payload.get("obs")
    ]
    if obs_snapshots:
        merged["obs"] = merge_snapshots(obs_snapshots).snapshot()

    graph_snapshots: List[Dict[str, object]] = [
        payload["graph"] for payload in payloads if payload.get("graph")
    ]
    if graph_snapshots:
        graph = EntityGraph()
        for snapshot in graph_snapshots:
            graph.merge_snapshot(snapshot)
        merged["graph"] = graph.snapshot(include_spans=True)

    return merged
