"""P10 — columnar analysis fast-path throughput, pinned.

Measures the analysis workloads defined in :mod:`analysis_workloads`
(median-of-N interleaved rounds) and emits a machine-readable
artifact, ``output/bench_analysis.json``, holding feature-extraction
rows/s, propagation edge-visits/s, the in-run speedups over the
per-object reference, and the speedups against the recorded
object-path baseline (``output/analysis_baseline.json``, medians on
the recording machine).

Three tiers of assertion:

* **Equivalence** — always: every timed round already asserts
  bit-identical outputs inside the workloads, and the scenario-level
  report must come back all-true (identical fused verdicts on Cases
  A/B/C, identical propagation scores + campaign extractions on
  graph-case-a/c, serial == ProcessPool bit-identity).  A fast path
  that diverges fails the benchmark; it cannot win it.
* **Absolute floors** — always: conservative throughput floors with
  roughly 5x headroom below the recording machine's medians, so they
  hold on slower CI runners while still catching order-of-magnitude
  regressions (an accidental per-session Python loop creeping back).
  Full-size runs additionally assert the in-run speedup — measured in
  the same process on the same data, so it is machine-independent.
* **Speedup floors** — only with ``REPRO_BENCH_VS_BASELINE=1``: the
  >=3x ratios against the recorded object-path baseline are only
  meaningful on the machine the baseline was recorded on, so
  cross-machine CI must not assert them.

``REPRO_BENCH_QUICK=1`` (the CI perf-smoke job) shrinks both
workloads ~10x and asserts only equivalence plus generous quick
floors.
"""

import json
import os
import platform

import pytest

from conftest import COMMITTED_DIR, OUTPUT_DIR, save_artifact

import analysis_workloads as aw

#: The baseline is a committed recording — always read from the
#: committed directory, never from the quick-mode scratch dir.
BASELINE_PATH = os.path.join(COMMITTED_DIR, "analysis_baseline.json")
ARTIFACT_PATH = os.path.join(OUTPUT_DIR, "bench_analysis.json")

#: Fast-path throughput floors for full-size workloads (~5x below the
#: recording machine's medians).  Units: rows/s for features,
#: directed-edge visits/s for propagation.
FULL_FLOORS = {
    "analysis_features": 400_000,
    "graph_propagation": 20_000_000,
}

#: Quick-mode workloads are ~10x smaller, so fixed costs weigh more;
#: floors are another 2x more generous.
QUICK_FLOORS = {
    "analysis_features": 200_000,
    "graph_propagation": 10_000_000,
}

#: In-run speedup floor (same process, same data — machine-independent;
#: asserted on every full-size run).  Recorded medians run well above
#: the 3x target on both workloads.
IN_RUN_SPEEDUP_FLOOR = 3.0

#: Same-machine speedup floors vs. the recorded object-path baseline.
SPEEDUP_FLOORS = {
    "analysis_features": 3.0,
    "graph_propagation": 3.0,
}


def test_analysis_throughput():
    if not os.path.exists(BASELINE_PATH):
        pytest.skip(
            "no recorded analysis baseline "
            "(benchmarks/output/analysis_baseline.json)"
        )
    quick = aw.quick_mode()
    results = aw.run_all_workloads()
    equivalence = aw.equivalence_report()

    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)

    speedups = {}
    if not quick:  # baseline was recorded full-size; quick is incomparable
        for name, base in baseline["workloads"].items():
            if name in results and "events_per_sec" in base:
                speedups[name] = (
                    results[name]["events_per_sec"] / base["events_per_sec"]
                )

    artifact = {
        "schema": "repro.bench.analysis/1",
        "quick_mode": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline_commit": baseline.get("commit"),
        "workloads": results,
        "equivalence": equivalence,
        "speedups_vs_baseline": speedups,
        "floors": QUICK_FLOORS if quick else FULL_FLOORS,
        "speedup_floors": SPEEDUP_FLOORS,
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        f"analysis fast path ({'quick' if quick else 'full'} mode, "
        f"median of {aw.default_rounds()} interleaved rounds)",
    ]
    for name in ("analysis_features", "graph_propagation"):
        res = results[name]
        unit = "rows/s" if name == "analysis_features" else "edges/s"
        ratio = (
            f"  {speedups[name]:.2f}x vs recorded baseline"
            if name in speedups
            else ""
        )
        lines.append(
            f"  {name:<20} {res['events_per_sec']:>14,.0f} {unit}"
            f"  {res['speedup_in_run']:6.2f}x vs object path in-run{ratio}"
        )
    lines.append(
        "  equivalence: "
        + (
            "all identical"
            if all(equivalence.values())
            else "DIVERGED: "
            + ", ".join(k for k, v in equivalence.items() if not v)
        )
    )
    save_artifact("bench_analysis", "\n".join(lines))

    # Equivalence is non-negotiable in every mode: the fast path must
    # be the object path, only faster.
    for check, identical in equivalence.items():
        assert identical, f"columnar path diverged from object path: {check}"

    floors = QUICK_FLOORS if quick else FULL_FLOORS
    for name, floor in floors.items():
        measured = results[name]["events_per_sec"]
        assert measured >= floor, (
            f"{name}: {measured:,.0f}/s below pinned floor {floor:,}"
        )
    if not quick:
        for name in FULL_FLOORS:
            in_run = results[name]["speedup_in_run"]
            assert in_run >= IN_RUN_SPEEDUP_FLOOR, (
                f"{name}: {in_run:.2f}x in-run speedup below "
                f"{IN_RUN_SPEEDUP_FLOOR}x floor"
            )

    if os.environ.get("REPRO_BENCH_VS_BASELINE") == "1" and not quick:
        for name, floor in SPEEDUP_FLOORS.items():
            assert speedups[name] >= floor, (
                f"{name}: {speedups[name]:.2f}x below speedup floor "
                f"{floor}x vs recorded baseline"
            )
