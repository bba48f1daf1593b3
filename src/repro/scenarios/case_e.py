"""Case E — agent-based amplification against a victim destination.

A swarm of agents feeds the open ``/notify`` flight-status endpoint the
*victim's* phone number, converting the airline's SMS pipeline into a
harassment cannon (Jakobsson & Menczer's "cluster bomb", pointed the
other way: many requests through one service rather than one request
through many).  Nothing about any individual request is anomalous — the
flood only exists at the *destination* aggregation.

The defense is the **destination-surge family**
(:class:`~repro.core.detection.surge.DestinationSurgeScorer`) run
streaming: per-destination windowed counts with an absolute flood floor
plus EWMA baselines.  Sender convictions block each flooding identity,
and the operational response — the Section V-style surgical control —
installs a per-destination rate cap
(:func:`~repro.web.ratelimit.key_by_destination`) on the notify path
once a surge opens, strangling the flood at the one dimension the
attacker cannot rotate: the victim's number itself.

Collateral damage is a first-class output: legitimate notifications
ride the same endpoint, so the result reports how many legit requests
the defense blocked or capped and what fraction of legitimate
fingerprints it convicted (the fixed-FPR condition the benchmarks pin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..analysis.evaluation import legit_collateral
from ..common import AMPLIFIER, LEGIT
from ..core.detection.surge import DestinationSurgeScorer
from ..core.mitigation.online import OnlineVerdictSink
from ..economics.ledger import AMPLIFICATION_CONTRACT, Ledger
from ..economics.reports import build_attacker_ledger
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..sim.clock import DAY, HOUR, MINUTE
from ..sms.gateway import NOTIFICATION
from ..sms.numbers import PhoneNumber, sample_number
from ..stream import RecordFeed, SmsRecordAdapter, StreamReport
from ..traffic.amplifier import AmplifierBot, AmplifierConfig
from ..traffic.sms_baseline import BaselineSmsConfig, BaselineSmsTraffic
from ..web.ratelimit import RateLimitRule, key_by_destination
from ..web.request import NOTIFY
from .streaming import build_stream_pipeline
from .world import World, WorldConfig, build_world

# Protection variants.
UNPROTECTED = "unprotected"
DESTINATION_SURGE_DEFENSE = "destination-surge"

VARIANTS = (UNPROTECTED, DESTINATION_SURGE_DEFENSE)

DESTINATION_CAP_RULE = "notify-per-destination"


@dataclass
class CaseEConfig:
    """Scenario parameters for the amplification flood."""

    seed: int = 13
    variant: str = UNPROTECTED
    duration: float = 1 * DAY
    attack_start: float = 4 * HOUR
    # -- legitimate background ----------------------------------------
    baseline_sms_per_hour: float = 80.0
    otp_fraction: float = 0.25
    #: Legit flight-status notifications share the abused endpoint —
    #: they are the collateral the defense must not destroy.
    notification_fraction: float = 0.25
    arrival_block_size: int = 256
    # -- flood --------------------------------------------------------
    notifications_per_hour: float = 600.0
    #: What the flood's sponsor pays per message landed on the victim.
    value_per_delivered: float = 0.01
    victim_country: str = "GB"
    attack_enabled: bool = True
    # -- defense ------------------------------------------------------
    surge_window: float = 600.0
    flood_threshold: int = 30
    #: Messages per destination per day once the surge response
    #: installs the cap (legit destinations never come near it).
    destination_cap: int = 5
    #: How often the responder polls the scorer for open surges.
    response_poll: float = 5 * MINUTE

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected {VARIANTS}"
            )
        if self.attack_start >= self.duration:
            raise ValueError(
                f"attack_start {self.attack_start} must precede "
                f"duration {self.duration}"
            )


@dataclass
class CaseEResult:
    """Everything the Case E tests and benchmarks assert on."""

    config: CaseEConfig
    victim_number: PhoneNumber
    #: Flood messages actually landed on the victim.
    victim_messages_delivered: int
    amplifier_attempts: int
    amplifier_blocked: int
    amplifier_rate_limited: int
    attacker_ledger: Ledger
    legit_notifications_delivered: int
    legit_requests_blocked: int
    legit_fp_conviction_rate: float
    time_to_first_block: Optional[float]
    online_actions: int
    surge_events: int
    #: When the per-destination cap went in (None = never / unprotected).
    cap_installed_at: Optional[float]
    report: Optional[StreamReport]
    world: World
    bot: AmplifierBot

    @property
    def attacker_roi(self) -> float:
        return self.attacker_ledger.roi()


def run_case_e(
    config: Optional[CaseEConfig] = None,
    on_world: Optional[Callable[[World], None]] = None,
) -> CaseEResult:
    """Run the amplification flood in the chosen variant."""
    config = config or CaseEConfig()

    world = build_world(WorldConfig(seed=config.seed, flights=[]))
    if on_world is not None:
        on_world(world)
    loop, rngs, app = world.loop, world.rngs, world.app

    victim = sample_number(
        rngs.stream("case-e.victim"), config.victim_country
    )

    # -- defense wiring ----------------------------------------------
    pipeline = None
    sink: Optional[OnlineVerdictSink] = None
    scorer: Optional[DestinationSurgeScorer] = None
    cap_installed_at: List[float] = []
    if config.variant == DESTINATION_SURGE_DEFENSE:
        sink = OnlineVerdictSink(app)
        scorer = DestinationSurgeScorer(
            window=config.surge_window,
            flood_threshold=config.flood_threshold,
        )
        pipeline = build_stream_pipeline(
            adapters=[
                SmsRecordAdapter(scorer, RecordFeed(world.sms.records))
            ],
            sink=sink,
        )
        pipeline.attach(app.log)

        def respond_to_surges() -> None:
            # The operational loop: sender blocks come from the sink
            # instantly; the destination cap is the responder's call.
            if scorer.surging_destinations:
                app.ratelimits.add_rule(
                    RateLimitRule(
                        rule_id=DESTINATION_CAP_RULE,
                        key_fn=key_by_destination,
                        limit=config.destination_cap,
                        window=1 * DAY,
                        paths=(NOTIFY,),
                    )
                )
                cap_installed_at.append(loop.now)
                return  # installed; stop polling
            loop.schedule_in(config.response_poll, respond_to_surges)

        loop.schedule_in(config.response_poll, respond_to_surges)

    # -- traffic ------------------------------------------------------
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

    proxy_pool = ResidentialProxyPool()
    bot = AmplifierBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=None, rotate_on_block=True),
            rngs.stream("attacker.amplifier.identity"),
        ),
        proxy_pool,
        [victim],
        rngs.stream("attacker.amplifier"),
        AmplifierConfig(
            notifications_per_hour=config.notifications_per_hour,
        ),
    )
    if config.attack_enabled:
        bot.start(at=config.attack_start)

    world.run_until(config.duration)
    report = pipeline.finish() if pipeline is not None else None

    # -- harvest ------------------------------------------------------
    victim_delivered = sum(
        1
        for r in world.sms.records
        if r.kind == NOTIFICATION
        and r.delivered
        and r.number.e164 == victim.e164
        and r.client.actor_class == AMPLIFIER
    )
    legit_notify_delivered = sum(
        1
        for r in world.sms.records
        if r.kind == NOTIFICATION
        and r.delivered
        and r.client.actor_class == LEGIT
    )
    legit_blocked, legit_fp_rate = legit_collateral(
        app.log, scorer.convicted if scorer is not None else set()
    )

    # Victim numbers are not attacker-controlled, so no carrier
    # kickbacks flow; the income line is the amplification contract.
    ledger = build_attacker_ledger(
        app, proxy_pools=[proxy_pool], attacker_actors=[bot.name]
    )
    if victim_delivered > 0:
        ledger.income(
            AMPLIFICATION_CONTRACT,
            victim_delivered * config.value_per_delivered,
            memo=f"{victim_delivered} messages landed",
        )

    return CaseEResult(
        config=config,
        victim_number=victim,
        victim_messages_delivered=victim_delivered,
        amplifier_attempts=(
            bot.notifications_delivered
            + bot.blocks_encountered
            + bot.rate_limits_encountered
        ),
        amplifier_blocked=bot.blocks_encountered,
        amplifier_rate_limited=bot.rate_limits_encountered,
        attacker_ledger=ledger,
        legit_notifications_delivered=legit_notify_delivered,
        legit_requests_blocked=legit_blocked,
        legit_fp_conviction_rate=legit_fp_rate,
        time_to_first_block=(
            sink.first_block_time - config.attack_start
            if sink is not None and sink.first_block_time is not None
            else None
        ),
        online_actions=sink.actions_taken if sink is not None else 0,
        surge_events=(
            len(scorer.surge_events) if scorer is not None else 0
        ),
        cap_installed_at=(
            cap_installed_at[0] if cap_installed_at else None
        ),
        report=report,
        world=world,
        bot=bot,
    )


def case_e_cell(config: CaseEConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for Case E (plain data only)."""
    result = run_case_e(config)
    ttfb = result.time_to_first_block
    return {
        "metrics": {
            "victim_messages_delivered": float(
                result.victim_messages_delivered
            ),
            "amplifier_attempts": float(result.amplifier_attempts),
            "amplifier_blocked": float(result.amplifier_blocked),
            "amplifier_rate_limited": float(
                result.amplifier_rate_limited
            ),
            "attacker_net": result.attacker_ledger.net,
            "attacker_roi": result.attacker_roi,
            "legit_notifications_delivered": float(
                result.legit_notifications_delivered
            ),
            "legit_requests_blocked": float(
                result.legit_requests_blocked
            ),
            "legit_fp_conviction_rate": result.legit_fp_conviction_rate,
            "time_to_first_block": ttfb if ttfb is not None else -1.0,
            "online_actions": float(result.online_actions),
            "surge_events": float(result.surge_events),
            "cap_installed": (
                1.0 if result.cap_installed_at is not None else 0.0
            ),
        },
        "info": {
            "variant": result.config.variant,
            "victim": result.victim_number.e164,
        },
        "recorder": result.world.metrics.snapshot(),
    }
