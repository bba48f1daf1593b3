"""The whole-portfolio scenario: adaptive attacker vs layered defense.

One world hosts all four abuse channels (seat spinning, SMS pumping,
OTP number cycling, notification amplification) behind an
:class:`~repro.adversary.attacker.AdaptiveAttacker` that funds one at a
time from a shared budget and abandons channels whose windowed ROI
falls below threshold.  The ``defense`` axis selects what the platform
deploys:

* ``none`` — nothing;
* ``case-a`` — streaming hold-velocity with honeypot routing (shadow
  inventory absorbs convicted spinners);
* ``case-c`` — per-booking-ref and per-profile limits on the
  boarding-pass path;
* ``case-d`` — streaming number reputation with online blocking;
* ``case-e`` — streaming destination surge + the per-destination cap
  response;
* ``all`` — every layer at once.

The headline result the benchmark pins: under any **single** defense
the attacker finds an open channel and retains positive ROI; under the
**whole portfolio** every channel's return collapses, the attacker
retires, and the fixed infrastructure burn leaves the operation net
negative — the paper's closing argument about systemic (not
per-feature) fraud prevention, stated in the attacker's own currency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..adversary import (
    AdaptiveAttacker,
    AmplifyChannel,
    OtpAbuseChannel,
    SeatSpinChannel,
    SmsPumpChannel,
)
from ..analysis.evaluation import legit_collateral
from ..core.detection.numbers import NumberReputationScorer
from ..core.detection.surge import DestinationSurgeScorer
from ..core.mitigation.online import OnlineVerdictSink
from ..sim.clock import DAY, HOUR, MINUTE
from ..sms.countries import high_cost_codes
from ..sms.numbers import sample_number
from ..stream import HoldVelocityAdapter, RecordFeed, SmsRecordAdapter
from ..traffic.sms_baseline import BaselineSmsConfig, BaselineSmsTraffic
from ..web.ratelimit import (
    RateLimitRule,
    key_by_booking_ref,
    key_by_destination,
    key_by_profile,
)
from ..web.request import BOARDING_PASS_SMS, NOTIFY
from .streaming import build_stream_pipeline
from .world import FlightSpec, World, WorldConfig, build_world

SPIN_FLIGHT = "PORT-SPIN"
SETUP_FLIGHT = "PORT-SETUP"

# Defense axis values.
DEFENSE_NONE = "none"
DEFENSE_CASE_A = "case-a"
DEFENSE_CASE_C = "case-c"
DEFENSE_CASE_D = "case-d"
DEFENSE_CASE_E = "case-e"
DEFENSE_ALL = "all"

DEFENSES = (
    DEFENSE_NONE,
    DEFENSE_CASE_A,
    DEFENSE_CASE_C,
    DEFENSE_CASE_D,
    DEFENSE_CASE_E,
    DEFENSE_ALL,
)

#: The single-case arms the benchmark compares against ``all``.
SINGLE_DEFENSES = (
    DEFENSE_CASE_A,
    DEFENSE_CASE_C,
    DEFENSE_CASE_D,
    DEFENSE_CASE_E,
)


@dataclass
class PortfolioConfig:
    """Parameters for one adaptive-attacker portfolio run."""

    seed: int = 17
    defense: str = DEFENSE_NONE
    duration: float = 3 * DAY
    attack_start: float = 2 * HOUR
    # -- attacker -----------------------------------------------------
    budget: float = 500.0
    roi_threshold: float = 0.0
    reassess_interval: float = 2 * HOUR
    infrastructure_per_day: float = 5.0
    # -- channel knobs ------------------------------------------------
    value_per_seat_hour: float = 0.05
    spin_target_seats: int = 60
    pump_sms_per_hour: float = 80.0
    pump_tickets: int = 2
    otp_per_hour: float = 120.0
    otps_per_number: int = 16
    rental_cost_per_number: float = 0.40
    amplify_per_hour: float = 600.0
    value_per_delivered: float = 0.01
    victim_country: str = "GB"
    # -- legitimate background ----------------------------------------
    baseline_sms_per_hour: float = 60.0
    otp_fraction: float = 0.25
    notification_fraction: float = 0.20
    arrival_block_size: int = 256
    # -- defense knobs ------------------------------------------------
    hold_velocity_threshold: int = 5
    hold_velocity_window: float = 6 * HOUR
    per_ref_limit_per_day: int = 5
    per_profile_limit_per_day: int = 10
    reuse_threshold: int = 5
    reuse_window: float = 1 * HOUR
    surge_window: float = 600.0
    flood_threshold: int = 30
    destination_cap: int = 5
    response_poll: float = 5 * MINUTE

    def __post_init__(self) -> None:
        if self.defense not in DEFENSES:
            raise ValueError(
                f"unknown defense {self.defense!r}; expected {DEFENSES}"
            )
        if self.attack_start >= self.duration:
            raise ValueError(
                f"attack_start {self.attack_start} must precede "
                f"duration {self.duration}"
            )


@dataclass
class ChannelOutcome:
    """Final P&L of one channel."""

    name: str
    spent: float
    earned: float
    activations: int

    @property
    def net(self) -> float:
        return self.earned - self.spent

    @property
    def roi(self) -> float:
        return self.net / self.spent if self.spent > 0 else 0.0


@dataclass
class PortfolioResult:
    """Everything the portfolio tests and benchmark assert on."""

    config: PortfolioConfig
    attacker_spent: float
    attacker_earned: float
    attacker_net: float
    attacker_roi: float
    infrastructure_cost: float
    retired: bool
    decisions: List[Dict[str, object]]
    channels: List[ChannelOutcome]
    legit_requests_blocked: int
    legit_fp_conviction_rate: float
    world: World
    attacker: AdaptiveAttacker = field(repr=False, default=None)

    def channel(self, name: str) -> ChannelOutcome:
        for outcome in self.channels:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no channel outcome for {name!r}")


def run_portfolio(
    config: Optional[PortfolioConfig] = None,
    on_world: Optional[Callable[[World], None]] = None,
) -> PortfolioResult:
    """Run the adaptive attacker against the chosen defense posture."""
    config = config or PortfolioConfig()

    world = build_world(
        WorldConfig(
            seed=config.seed,
            flights=[
                FlightSpec(
                    flight_id=SPIN_FLIGHT,
                    departure_time=config.duration + 1 * HOUR,
                    capacity=200,
                    airline="AirlineP",
                ),
                FlightSpec(
                    flight_id=SETUP_FLIGHT,
                    departure_time=config.duration + 2 * DAY,
                    capacity=300,
                    airline="AirlineP",
                ),
            ],
            colluding_countries=tuple(high_cost_codes()),
        )
    )
    if on_world is not None:
        on_world(world)
    loop, rngs, app = world.loop, world.rngs, world.app

    # -- defense wiring -----------------------------------------------
    defense = config.defense
    pipelines = []
    record_scorers = []

    if defense in (DEFENSE_CASE_A, DEFENSE_ALL):
        # Honeypot routing: convicted spinners keep "winning" shadow
        # holds that displace nothing — their revenue model starves
        # without the feedback a hard block would give them.
        honeypot_sink = OnlineVerdictSink(app, honeypot_mode=True)
        hold_pipeline = build_stream_pipeline(
            adapters=[
                HoldVelocityAdapter(
                    threshold=config.hold_velocity_threshold,
                    window=config.hold_velocity_window,
                )
            ],
            sink=honeypot_sink,
        )
        hold_pipeline.attach(app.log)
        pipelines.append(hold_pipeline)

    if defense in (DEFENSE_CASE_C, DEFENSE_ALL):
        app.ratelimits.add_rule(
            RateLimitRule(
                rule_id="bp-sms-per-booking-ref",
                key_fn=key_by_booking_ref,
                limit=config.per_ref_limit_per_day,
                window=1 * DAY,
                paths=(BOARDING_PASS_SMS,),
            )
        )
        app.ratelimits.add_rule(
            RateLimitRule(
                rule_id="bp-sms-per-profile",
                key_fn=key_by_profile,
                limit=config.per_profile_limit_per_day,
                window=1 * DAY,
                paths=(BOARDING_PASS_SMS,),
            )
        )

    surge_scorer: Optional[DestinationSurgeScorer] = None
    if defense in (DEFENSE_CASE_D, DEFENSE_ALL):
        record_scorers.append(
            NumberReputationScorer(
                reuse_threshold=config.reuse_threshold,
                reuse_window=config.reuse_window,
            )
        )
    if defense in (DEFENSE_CASE_E, DEFENSE_ALL):
        surge_scorer = DestinationSurgeScorer(
            window=config.surge_window,
            flood_threshold=config.flood_threshold,
        )
        record_scorers.append(surge_scorer)
    if record_scorers:
        record_pipeline = build_stream_pipeline(
            adapters=[
                SmsRecordAdapter(scorer, RecordFeed(world.sms.records))
                for scorer in record_scorers
            ],
            sink=OnlineVerdictSink(app),
        )
        record_pipeline.attach(app.log)
        pipelines.append(record_pipeline)

    if surge_scorer is not None:

        def respond_to_surges() -> None:
            if surge_scorer.surging_destinations:
                app.ratelimits.add_rule(
                    RateLimitRule(
                        rule_id="notify-per-destination",
                        key_fn=key_by_destination,
                        limit=config.destination_cap,
                        window=1 * DAY,
                        paths=(NOTIFY,),
                    )
                )
                return
            loop.schedule_in(config.response_poll, respond_to_surges)

        loop.schedule_in(config.response_poll, respond_to_surges)

    # -- legitimate background ----------------------------------------
    baseline = BaselineSmsTraffic(
        loop,
        app,
        rngs.stream("traffic.sms-baseline"),
        BaselineSmsConfig(
            sms_per_hour=config.baseline_sms_per_hour,
            otp_fraction=config.otp_fraction,
            notification_fraction=config.notification_fraction,
            arrival_block_size=config.arrival_block_size,
        ),
        arrival_rng=rngs.numpy_stream("traffic.sms-baseline.arrivals"),
    )
    baseline.start(at=0.0)

    # -- the adversary ------------------------------------------------
    victim = sample_number(
        rngs.stream("portfolio.victim"), config.victim_country
    )
    channels = [
        SeatSpinChannel(
            world,
            SPIN_FLIGHT,
            value_per_seat_hour=config.value_per_seat_hour,
            target_seats=config.spin_target_seats,
        ),
        SmsPumpChannel(
            world,
            SETUP_FLIGHT,
            sms_per_hour=config.pump_sms_per_hour,
            tickets_to_buy=config.pump_tickets,
        ),
        OtpAbuseChannel(
            world,
            otp_per_hour=config.otp_per_hour,
            otps_per_number=config.otps_per_number,
            rental_cost_per_number=config.rental_cost_per_number,
        ),
        AmplifyChannel(
            world,
            [victim],
            notifications_per_hour=config.amplify_per_hour,
            value_per_delivered=config.value_per_delivered,
        ),
    ]
    attacker = AdaptiveAttacker(
        loop,
        channels,
        budget=config.budget,
        roi_threshold=config.roi_threshold,
        reassess_interval=config.reassess_interval,
        infrastructure_per_day=config.infrastructure_per_day,
    )
    attacker.start(at=config.attack_start)

    world.run_until(config.duration)
    for pipeline in pipelines:
        pipeline.finish()

    # -- harvest ------------------------------------------------------
    legit_blocked, legit_fp_rate = legit_collateral(
        app.log,
        set().union(*(scorer.convicted for scorer in record_scorers)),
    )

    return PortfolioResult(
        config=config,
        attacker_spent=attacker.total_spent(),
        attacker_earned=attacker.total_earned(),
        attacker_net=attacker.net,
        attacker_roi=attacker.roi(),
        infrastructure_cost=attacker.infrastructure_cost,
        retired=attacker.retired,
        decisions=[
            {
                "time": d.time,
                "action": d.action,
                "channel": d.channel,
                "window_roi": d.window_roi,
            }
            for d in attacker.decisions
        ],
        channels=[
            ChannelOutcome(
                name=c.name,
                spent=c.spent(),
                earned=c.earned(),
                activations=c.activations,
            )
            for c in channels
        ],
        legit_requests_blocked=legit_blocked,
        legit_fp_conviction_rate=legit_fp_rate,
        world=world,
        attacker=attacker,
    )


def portfolio_cell(config: PortfolioConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for the portfolio scenario."""
    result = run_portfolio(config)
    metrics: Dict[str, float] = {
        "attacker_spent": result.attacker_spent,
        "attacker_earned": result.attacker_earned,
        "attacker_net": result.attacker_net,
        "attacker_roi": result.attacker_roi,
        "infrastructure_cost": result.infrastructure_cost,
        "retired": 1.0 if result.retired else 0.0,
        "decision_count": float(len(result.decisions)),
        "legit_requests_blocked": float(result.legit_requests_blocked),
        "legit_fp_conviction_rate": result.legit_fp_conviction_rate,
    }
    for outcome in result.channels:
        key = outcome.name.replace("adv-", "").replace("-", "_")
        metrics[f"{key}_spent"] = outcome.spent
        metrics[f"{key}_earned"] = outcome.earned
        metrics[f"{key}_roi"] = outcome.roi
        metrics[f"{key}_activations"] = float(outcome.activations)
    return {
        "metrics": metrics,
        "info": {
            "defense": result.config.defense,
            "decisions": result.decisions,
        },
        "recorder": result.world.metrics.snapshot(),
    }
