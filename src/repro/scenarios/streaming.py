"""Stream-wired scenario variants: online detection during the run.

The batch case studies detect *after* the simulation: they sessionize
the finished log and judge it.  The variants here attach a
:class:`~repro.stream.pipeline.StreamPipeline` to the world's live log
(via the ``on_world`` hook every ``run_case_*`` exposes), so detection
— and, for Case A, mitigation through
:class:`~repro.core.mitigation.online.OnlineVerdictSink` — happens
while the attack is still in progress.  The headline metrics are the
two the periodic controller cannot improve past its polling interval:

* **time to first block** — seconds from attack start to the first
  streaming-deployed edge rule;
* **inventory saved** — legitimate confirmed seats on the target
  flight, streaming on vs off.

Case A can also be captured to a :mod:`repro.trace` file for offline
replay (``capture_case_a``).  The standard pipeline these variants
start from, :func:`~repro.stream.pipeline.build_stream_pipeline`, lives
in :mod:`repro.stream.pipeline` and is importable from here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.detection.volume import VolumeDetector
from ..core.mitigation.online import OnlineVerdictSink
from ..sim.clock import DAY, HOUR
from ..stream.adapters import HoldVelocityAdapter, SessionDetectorAdapter
from ..stream.pipeline import (
    StreamPipeline,
    StreamReport,
    build_stream_pipeline,
)
from ..trace.capture import TraceCapture
from ..web.logs import DEFAULT_IDLE_GAP
from .case_a import CaseAConfig, CaseAResult, run_case_a
from .world import World


@dataclass
class StreamCaseAConfig:
    """Case A with the online pipeline in place of the periodic
    controller.

    The timeline is compressed relative to the three-week Fig. 1
    ceremony — one quiet day, then the attack until two days before an
    early departure — because time-to-first-block is measured in
    minutes and does not need week-long context.  Both arms of the
    on/off comparison run with the scripted NiP cap and the periodic
    controller disabled, so the delta is attributable to streaming
    alone.
    """

    seed: int = 7
    #: Online pipeline + sink on/off (the ablation axis).
    streaming: bool = True
    honeypot_mode: bool = False
    #: Sliding-window frequency rule, mirroring the controller's
    #: ``holds_per_fingerprint_threshold`` over its evaluation window.
    hold_velocity_threshold: int = 5
    hold_velocity_window: float = 6 * HOUR
    idle_gap: float = DEFAULT_IDLE_GAP
    evict_every: int = 256
    #: Optional trace capture of the full run (``repro.trace`` file).
    trace_path: Optional[str] = None
    # -- compressed Case A timeline -----------------------------------
    visitor_rate_per_hour: float = 12.0
    hold_ttl: float = 5 * HOUR
    #: Higher than batch Case A's 120 so the denial-of-inventory
    #: constraint binds inside the one-week window: with 180 of 200
    #: seats held, legitimate demand outstrips what the attacker leaves
    #: free and "inventory saved" becomes measurable.
    attacker_target_seats: int = 180
    preferred_nip: int = 6
    attack_start: float = 1 * DAY
    departure_time: float = 7 * DAY
    stop_before_departure: float = 2 * DAY


@dataclass
class StreamCaseAResult:
    """Outcome of one streaming (or ablated) Case A run."""

    config: StreamCaseAConfig
    base: CaseAResult
    #: ``None`` when ``config.streaming`` is off.
    report: Optional[StreamReport]
    sink: Optional[OnlineVerdictSink]
    #: Seconds from attack start to the first online block (or
    #: honeypot routing); ``None`` if streaming never convicted.
    time_to_first_block: Optional[float]
    online_actions: int
    peak_open_sessions: int
    peak_tracked_clients: int
    events_processed: int
    trace_entries: int
    entity_convictions: List[str] = field(default_factory=list)

    @property
    def attacker_holds_created(self) -> int:
        return self.base.attacker_holds_created

    @property
    def target_legit_confirmed_seats(self) -> int:
        return self.base.target_legit_confirmed_seats


def _base_config(config: StreamCaseAConfig) -> CaseAConfig:
    return CaseAConfig(
        seed=config.seed,
        visitor_rate_per_hour=config.visitor_rate_per_hour,
        hold_ttl=config.hold_ttl,
        attacker_target_seats=config.attacker_target_seats,
        preferred_nip=config.preferred_nip,
        attack_start=config.attack_start,
        cap_at=None,
        controller_enabled=False,
        departure_time=config.departure_time,
        stop_before_departure=config.stop_before_departure,
        honeypot_mode=config.honeypot_mode,
    )


def run_stream_case_a(
    config: Optional[StreamCaseAConfig] = None,
) -> StreamCaseAResult:
    """Run Case A with (or, for the ablation, without) the online
    detection/mitigation pipeline attached to the live log."""
    config = config or StreamCaseAConfig()

    pipeline: Optional[StreamPipeline] = None
    sink: Optional[OnlineVerdictSink] = None
    capture: Optional[TraceCapture] = None
    hold_velocity = HoldVelocityAdapter(
        threshold=config.hold_velocity_threshold,
        window=config.hold_velocity_window,
    )

    def wire(world: World) -> None:
        nonlocal pipeline, sink, capture
        if config.trace_path is not None:
            capture = TraceCapture(
                config.trace_path,
                meta={
                    "scenario": "stream-case-a",
                    "seed": config.seed,
                    "streaming": config.streaming,
                },
            )
            capture.attach(world.app.log)
        if not config.streaming:
            return
        sink = OnlineVerdictSink(
            world.app, honeypot_mode=config.honeypot_mode
        )
        pipeline = build_stream_pipeline(
            adapters=[
                SessionDetectorAdapter(VolumeDetector()),
                hold_velocity,
            ],
            sink=sink,
            idle_gap=config.idle_gap,
            evict_every=config.evict_every,
        )
        pipeline.attach(world.app.log)

    try:
        base = run_case_a(_base_config(config), on_world=wire)
    finally:
        if capture is not None:
            capture.close()

    report = pipeline.finish() if pipeline is not None else None
    time_to_first_block: Optional[float] = None
    if sink is not None and sink.first_block_time is not None:
        time_to_first_block = (
            sink.first_block_time - config.attack_start
        )

    return StreamCaseAResult(
        config=config,
        base=base,
        report=report,
        sink=sink,
        time_to_first_block=time_to_first_block,
        online_actions=sink.actions_taken if sink is not None else 0,
        peak_open_sessions=(
            report.peak_open_sessions if report is not None else 0
        ),
        peak_tracked_clients=hold_velocity.peak_tracked_clients,
        events_processed=(
            report.events_processed if report is not None else 0
        ),
        trace_entries=(
            capture.entries_written if capture is not None else 0
        ),
        entity_convictions=(
            [v.subject_id for v in report.entity_verdicts]
            if report is not None
            else []
        ),
    )


def stream_case_a_cell(config: StreamCaseAConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for the streaming Case A
    variant (plain data only, like :func:`case_a_cell`)."""
    result = run_stream_case_a(config)
    ttfb = result.time_to_first_block
    return {
        "metrics": {
            "time_to_first_block": ttfb if ttfb is not None else -1.0,
            "online_actions": float(result.online_actions),
            "attacker_holds_created": float(
                result.attacker_holds_created
            ),
            "attacker_rotations": float(result.base.attacker_rotations),
            "attacker_blocks_encountered": float(
                result.base.attacker_blocks_encountered
            ),
            "target_legit_confirmed_seats": float(
                result.target_legit_confirmed_seats
            ),
            "legit_holds_total": float(result.base.legit_holds_total),
            "events_processed": float(result.events_processed),
            "peak_open_sessions": float(result.peak_open_sessions),
            "peak_tracked_clients": float(result.peak_tracked_clients),
            "sink_notifications": float(
                result.report.sink_notifications
                if result.report is not None
                else 0
            ),
        },
        "info": {
            "streaming": result.config.streaming,
            "entity_convictions": result.entity_convictions,
        },
        "recorder": result.base.world.metrics.snapshot(),
    }


# -- trace capture helpers ---------------------------------------------------


def capture_case_a(
    path: str, config: Optional[CaseAConfig] = None
) -> Tuple[CaseAResult, int]:
    """Run batch Case A while recording its log to ``path``."""
    config = config or CaseAConfig()
    with TraceCapture(
        path, meta={"scenario": "case-a", "seed": config.seed}
    ) as capture:
        result = run_case_a(
            config, on_world=lambda world: capture.attach(world.app.log)
        )
    return result, capture.entries_written
