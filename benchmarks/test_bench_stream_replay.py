"""E8 — streaming detection: online mitigation + trace replay.

Three arms of the compressed Case A world (attacker holding 180 of 200
seats, no periodic controller in any arm):

* **off** — no online pipeline: the ablation baseline;
* **blocking** — streaming convictions deploy fingerprint blocks the
  moment the hold-velocity window fills: first block lands *inside the
  attacker's first burst* (the periodic controller would wait for its
  next tick), but rotate-on-block restarts the arms race and no
  inventory is saved — Section V's point that blocking alone fails;
* **honeypot** — the same convictions route the attacker into decoy
  inventory instead: no rotation, and legitimate customers get the
  seats back.

The blocking arm is also captured to a trace and replayed through a
fresh pipeline, asserting the acceptance criterion end-to-end: replayed
streaming session verdicts are *identical* to the batch pipeline's on
the rebuilt log — and both to the per-session reference encoder in
``tests/feature_oracle.py``, since stream and batch share one encoding
— and the replay reports events/sec with the simulation cost stripped
away.
"""

import os

import pytest
from conftest import save_artifact

from repro.analysis.reports import render_table
from repro.core.detection.volume import VolumeDetector
from repro.scenarios.streaming import (
    StreamCaseAConfig,
    build_stream_pipeline,
    run_stream_case_a,
)
from repro.sim.clock import format_duration
from repro.stream import SessionDetectorAdapter, batch_session_verdicts
from repro.trace import rebuild_log, replay_trace
from tests.feature_oracle import object_index
from tests.session_oracle import sessionize


def _arm(trace_path=None, **kwargs):
    return StreamCaseAConfig(trace_path=trace_path, **kwargs)


@pytest.fixture(scope="module")
def off_result():
    return run_stream_case_a(_arm(streaming=False))


@pytest.fixture(scope="module")
def blocking_result(tmp_path_factory):
    trace = str(tmp_path_factory.mktemp("traces") / "case_a_stream.rptr")
    return run_stream_case_a(_arm(trace_path=trace))


def _ttfb(result):
    ttfb = result.time_to_first_block
    return format_duration(ttfb) if ttfb is not None else "-"


def test_online_mitigation(benchmark, off_result, blocking_result):
    honeypot = benchmark.pedantic(
        run_stream_case_a,
        args=(_arm(honeypot_mode=True),),
        rounds=1,
        iterations=1,
    )
    off, blocking = off_result, blocking_result

    save_artifact(
        "stream_online_mitigation",
        render_table(
            ["Metric", "off", "blocking", "honeypot"],
            [
                [
                    "time to first block",
                    _ttfb(off), _ttfb(blocking), _ttfb(honeypot),
                ],
                [
                    "online mitigation actions",
                    off.online_actions,
                    blocking.online_actions,
                    honeypot.online_actions,
                ],
                [
                    "attacker rotations",
                    off.base.attacker_rotations,
                    blocking.base.attacker_rotations,
                    honeypot.base.attacker_rotations,
                ],
                [
                    "attacker holds created",
                    off.attacker_holds_created,
                    blocking.attacker_holds_created,
                    honeypot.attacker_holds_created,
                ],
                [
                    "legit seats sold (target flight)",
                    off.target_legit_confirmed_seats,
                    blocking.target_legit_confirmed_seats,
                    honeypot.target_legit_confirmed_seats,
                ],
                [
                    "events processed",
                    off.events_processed,
                    blocking.events_processed,
                    honeypot.events_processed,
                ],
                [
                    "peak open sessions",
                    off.peak_open_sessions,
                    blocking.peak_open_sessions,
                    honeypot.peak_open_sessions,
                ],
            ],
            title=(
                "Case A online mitigation: streaming off vs "
                "block-on-conviction vs honeypot routing"
            ),
        ),
    )

    # Streaming convicts inside the attacker's first hold burst — the
    # periodic controller's floor is its polling interval.
    assert blocking.time_to_first_block is not None
    assert blocking.time_to_first_block < 60.0
    assert honeypot.time_to_first_block is not None

    # Blocking restarts the arms race online (no inventory saved) …
    assert blocking.base.attacker_rotations > 20
    assert (
        blocking.target_legit_confirmed_seats
        <= off.target_legit_confirmed_seats + 5
    )
    # … honeypot routing ends it (zero rotations) and recovers real
    # inventory for customers.  The margin over the off arm depends on
    # how much legitimate demand arrives after the attacker is decoyed
    # — a seed-sensitive quantity — so the pin is strict improvement
    # over both other arms, not a fixed multiple.
    assert honeypot.base.attacker_rotations == 0
    assert (
        honeypot.target_legit_confirmed_seats
        > off.target_legit_confirmed_seats
    )
    assert (
        honeypot.target_legit_confirmed_seats
        > blocking.target_legit_confirmed_seats
    )


def test_trace_replay_throughput_and_equivalence(blocking_result):
    trace = blocking_result.config.trace_path
    assert blocking_result.trace_entries == blocking_result.events_processed

    report, stats = replay_trace(trace, build_stream_pipeline())
    trace_bytes = os.path.getsize(trace)

    # Batch pipeline on the rebuilt log, same detector set.
    detectors = [VolumeDetector()]
    log = rebuild_log(trace)
    batch = batch_session_verdicts(log, detectors)
    # The same detector on per-session reference features.
    oracle = detectors[0].judge_index(object_index(sessionize(log)))
    replayed = [
        v for v in report.session_verdicts
        if v.detector == detectors[0].name
    ]
    equivalent = set(replayed) == set(batch)

    save_artifact(
        "stream_replay_throughput",
        render_table(
            ["Metric", "Value"],
            [
                ["trace entries", stats.entries],
                ["trace size", f"{trace_bytes:,} bytes"],
                ["bytes/entry", f"{trace_bytes / stats.entries:.1f}"],
                ["replay throughput",
                 f"{stats.events_per_second:,.0f} events/sec"],
                ["sessions closed", report.sessions_closed],
                ["peak open sessions", report.peak_open_sessions],
                ["batch-equivalent session verdicts",
                 f"{'yes' if equivalent else 'NO'} ({len(replayed)})"],
            ],
            title="Trace capture/replay: cost and batch equivalence",
        ),
    )

    # Acceptance criterion: fixed-seed replay through repro.stream
    # yields verdicts identical to the batch pipeline.
    assert equivalent
    assert len(replayed) == len(batch)
    assert batch == oracle
    # Replay sees the identical entry stream the live run saw.
    assert stats.entries == blocking_result.events_processed
    # Interning keeps the format compact (raw repr is ~300+ bytes/entry).
    assert trace_bytes / stats.entries < 100
    # Single-thread replay clears a modest throughput floor.
    assert stats.events_per_second > 2_000
