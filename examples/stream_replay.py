"""Capture a live scenario to a trace, replay it, compare verdicts.

The streaming pipeline's promise is that *online* detection gives up
nothing relative to the batch pipeline it mirrors.  This walkthrough
proves it on Case A, end to end:

1. run Case A with a `TraceCapture` subscribed to the live web log —
   every request lands in a compact binary trace as it is served;
2. replay the trace through a fresh `StreamPipeline` (the pipeline
   cannot tell a replayed stream from a live one) and report the
   replay throughput with the simulation cost stripped away;
3. rebuild the full log from the trace, run the *batch* pipeline
   (`SessionIndex` + `judge_index`) on it, and check the streaming
   session verdicts are identical — same sessions, same scores, same
   convictions;
4. peek at the memory story: the streaming run held only the open
   sessions, never the whole log.

Run:  python examples/stream_replay.py
"""

import os
import tempfile

from repro.core.detection.volume import VolumeDetector
from repro.scenarios.case_a import CaseAConfig
from repro.scenarios.streaming import capture_case_a
from repro.sim.clock import DAY, HOUR
from repro.stream import (
    HoldVelocityAdapter,
    SessionDetectorAdapter,
    StreamPipeline,
    batch_session_verdicts,
)
from repro.trace import TraceReader, rebuild_log, replay_trace

# A compressed Case A: one quiet day, then the seat spinner until two
# days before departure.  Small enough to run in about a second.
CONFIG = CaseAConfig(
    seed=7,
    attack_start=1 * DAY,
    departure_time=7 * DAY,
    cap_at=None,
    controller_enabled=False,
)


def main() -> None:
    trace_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-trace-"), "case_a.rptr"
    )

    # -- 1. capture -----------------------------------------------------
    result, entries_written = capture_case_a(trace_path, CONFIG)
    size = os.path.getsize(trace_path)
    print(f"captured {entries_written} requests to {trace_path}")
    print(f"  {size:,} bytes ({size / entries_written:.1f} bytes/entry); "
          f"attacker created {result.attacker_holds_created} holds")

    with TraceReader(trace_path) as reader:
        print(f"  header meta: {reader.meta}")

    # -- 2. replay ------------------------------------------------------
    pipeline = StreamPipeline(
        adapters=[
            SessionDetectorAdapter(VolumeDetector()),
            HoldVelocityAdapter(threshold=5, window=6 * HOUR),
        ]
    )
    report, stats = replay_trace(trace_path, pipeline)
    print(f"\nreplayed {stats.entries} events in "
          f"{stats.elapsed_seconds:.2f}s "
          f"({stats.events_per_second:,.0f} events/sec)")
    print(f"  {report.sessions_closed} sessions closed, "
          f"peak {report.peak_open_sessions} open at once")

    # -- 3. batch comparison -------------------------------------------
    batch = batch_session_verdicts(
        rebuild_log(trace_path), [VolumeDetector()]
    )
    stream = report.session_verdicts
    assert set(stream) == set(batch), "stream diverged from batch!"
    assert len(stream) == len(batch)
    stream_bots = {v.subject_id for v in stream if v.is_bot}
    batch_bots = {v.subject_id for v in batch if v.is_bot}
    assert stream_bots == batch_bots
    print(f"\nbatch equivalence: {len(stream)} session verdicts "
          f"identical, {len(stream_bots)} bot sessions in both")

    # Section III-A's point, visible in the numbers: the seat spinner
    # never trips the session-level volume detector (low volume per
    # session), but the streaming entity fast path convicts its
    # fingerprint from the hold-velocity window alone.
    entity_bots = {v.subject_id for v in report.entity_verdicts if v.is_bot}
    print(f"  session-level volume detector: {len(stream_bots)} "
          f"convictions (the paper's DoI blind spot)")
    print(f"  hold-velocity entity fast path: convicted {entity_bots}")

    # -- 4. the memory story -------------------------------------------
    print(
        f"\nbounded state: the streaming pass kept at most "
        f"{report.peak_open_sessions} sessions in memory while the "
        f"batch pass materialises all {report.sessions_closed} "
        f"({report.sessions_closed // max(report.peak_open_sessions, 1)}x "
        f"more) plus the full {entries_written}-entry log."
    )


if __name__ == "__main__":
    main()
