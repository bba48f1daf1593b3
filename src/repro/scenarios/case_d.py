"""Case D — OTP abuse via disposable-number cycling.

The Case C pumper abused the boarding-pass feature with a handful of
long-lived identities; Case D models the next iteration the
disposable-number ecosystem enables: rent a virtual number in a
colluding high-termination-fee market, collect a batch of OTP
deliveries on it (the login endpoint texts any number, account or not),
discard it, rent the next — rotating the browser fingerprint with every
number so per-fingerprint velocity rules never accumulate evidence.

The defense is the **number-reputation family**
(:class:`~repro.core.detection.numbers.NumberReputationScorer`):
reuse-window detection on the destination number — the one artifact the
attacker cannot rotate away, because monetisation requires concentrating
deliveries on numbers they pay rent on.  Wired streaming
(the scorer in a :class:`~repro.stream.sms_records.SmsRecordAdapter`
→ fusion → :class:`~repro.core.mitigation.online.OnlineVerdictSink`), a
conviction lands after ``reuse_threshold`` deliveries and blocks the
identity mid-number.

The economics are the scenario's headline.  Each rental costs real
money up front and only amortises across the OTPs it survives to
receive: uncapped, ``otps_per_number`` deliveries comfortably clear the
rental; capped at ``reuse_threshold`` by the defense, the per-number
revenue falls below the rental price and the campaign ROI goes
negative — the defense wins by economics, not by perfect blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..analysis.evaluation import legit_collateral
from ..common import LEGIT, OTP_ABUSER
from ..core.detection.numbers import NumberReputationScorer
from ..core.mitigation.online import OnlineVerdictSink
from ..economics.ledger import Ledger, NUMBER_RENTAL
from ..economics.reports import build_attacker_ledger
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..sim.clock import DAY, HOUR
from ..sms.countries import high_cost_codes
from ..sms.gateway import OTP
from ..sms.rental import NumberRentalService
from ..stream import RecordFeed, SmsRecordAdapter, StreamReport
from ..stream.pipeline import build_stream_pipeline
from ..traffic.otp_abuser import OtpAbuseBot, OtpAbuserConfig
from ..traffic.sms_baseline import BaselineSmsConfig, BaselineSmsTraffic
from .world import World, WorldConfig, build_world

# Protection variants.
UNPROTECTED = "unprotected"
NUMBER_REPUTATION_DEFENSE = "number-reputation"

VARIANTS = (UNPROTECTED, NUMBER_REPUTATION_DEFENSE)


@dataclass
class CaseDConfig:
    """Scenario parameters for the number-cycling campaign."""

    seed: int = 11
    variant: str = UNPROTECTED
    duration: float = 2 * DAY
    attack_start: float = 6 * HOUR
    # -- legitimate background ----------------------------------------
    baseline_sms_per_hour: float = 60.0
    otp_fraction: float = 0.35
    arrival_block_size: int = 256
    # -- campaign -----------------------------------------------------
    otp_per_hour: float = 120.0
    #: Deliveries the attacker plans to amortise each rental across.
    otps_per_number: int = 16
    #: Rental price per disposable number.  Receive-capable numbers in
    #: premium markets are the expensive half of the supply chain —
    #: this is what the reuse-window cap turns into a losing trade.
    rental_cost_per_number: float = 0.40
    #: False runs the same world without the campaign (sharding arm).
    attack_enabled: bool = True
    # -- defense ------------------------------------------------------
    reuse_threshold: int = 5
    reuse_window: float = 1 * HOUR

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
class CaseDResult:
    """Everything the Case D tests and benchmarks assert on."""

    config: CaseDConfig
    attacker_otps_delivered: int
    numbers_rented: int
    rental_cost_total: float
    attacker_revenue: float
    attacker_ledger: Ledger
    #: Deliveries per rented number actually achieved — the quantity
    #: the reuse-window defense caps.
    mean_otps_per_number: float
    legit_otps_delivered: int
    legit_requests_blocked: int
    #: Legit fingerprints convicted / legit fingerprints seen.
    legit_fp_conviction_rate: float
    time_to_first_block: Optional[float]
    online_actions: int
    burned_numbers: int
    report: Optional[StreamReport]
    world: World
    bot: OtpAbuseBot

    @property
    def attacker_roi(self) -> float:
        return self.attacker_ledger.roi()


def run_case_d(
    config: Optional[CaseDConfig] = None,
    on_world: Optional[Callable[[World], None]] = None,
) -> CaseDResult:
    """Run the number-cycling campaign in the chosen variant."""
    config = config or CaseDConfig()

    world = build_world(
        WorldConfig(
            seed=config.seed,
            flights=[],
            colluding_countries=tuple(high_cost_codes()),
        )
    )
    if on_world is not None:
        on_world(world)
    loop, rngs, app = world.loop, world.rngs, world.app

    # -- defense wiring (before any traffic: the pipeline must see the
    # -- record stream from the first entry) --------------------------
    pipeline = None
    sink: Optional[OnlineVerdictSink] = None
    scorer: Optional[NumberReputationScorer] = None
    if config.variant == NUMBER_REPUTATION_DEFENSE:
        sink = OnlineVerdictSink(app)
        scorer = NumberReputationScorer(
            reuse_threshold=config.reuse_threshold,
            reuse_window=config.reuse_window,
        )
        pipeline = build_stream_pipeline(
            adapters=[
                SmsRecordAdapter(scorer, RecordFeed(world.sms.records))
            ],
            sink=sink,
        )
        pipeline.attach(app.log)

    # -- traffic ------------------------------------------------------
    baseline = BaselineSmsTraffic(
        loop,
        app,
        rngs.stream("traffic.sms-baseline"),
        BaselineSmsConfig(
            sms_per_hour=config.baseline_sms_per_hour,
            otp_fraction=config.otp_fraction,
            arrival_block_size=config.arrival_block_size,
        ),
        arrival_rng=rngs.numpy_stream("traffic.sms-baseline.arrivals"),
    )
    baseline.start(at=0.0)

    rental = NumberRentalService(
        cost_per_number=config.rental_cost_per_number
    )
    proxy_pool = ResidentialProxyPool()
    bot = OtpAbuseBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=None, rotate_on_block=True),
            rngs.stream("attacker.otp-abuser.identity"),
        ),
        proxy_pool,
        rental,
        rngs.stream("attacker.otp-abuser"),
        OtpAbuserConfig(
            otps_per_number=config.otps_per_number,
            otp_per_hour=config.otp_per_hour,
        ),
    )
    if config.attack_enabled:
        bot.start(at=config.attack_start)

    world.run_until(config.duration)
    report = pipeline.finish() if pipeline is not None else None

    # -- harvest ------------------------------------------------------
    attacker_otp = [
        r
        for r in world.sms.records
        if r.kind == OTP and r.client.actor_class == OTP_ABUSER
    ]
    delivered = sum(1 for r in attacker_otp if r.delivered)
    legit_otp_delivered = sum(
        1
        for r in world.sms.records
        if r.kind == OTP and r.delivered and r.client.actor_class == LEGIT
    )
    legit_blocked, legit_fp_rate = legit_collateral(
        app.log, scorer.convicted if scorer is not None else set()
    )

    ledger = build_attacker_ledger(
        app, proxy_pools=[proxy_pool], attacker_actors=[bot.name]
    )
    if rental.total_cost > 0:
        ledger.expense(
            NUMBER_RENTAL,
            rental.total_cost,
            memo=f"{rental.numbers_rented} numbers",
        )

    return CaseDResult(
        config=config,
        attacker_otps_delivered=delivered,
        numbers_rented=rental.numbers_rented,
        rental_cost_total=rental.total_cost,
        attacker_revenue=world.telco.total_attacker_revenue(),
        attacker_ledger=ledger,
        mean_otps_per_number=(
            delivered / rental.numbers_rented
            if rental.numbers_rented
            else 0.0
        ),
        legit_otps_delivered=legit_otp_delivered,
        legit_requests_blocked=legit_blocked,
        legit_fp_conviction_rate=legit_fp_rate,
        time_to_first_block=(
            sink.first_block_time - config.attack_start
            if sink is not None and sink.first_block_time is not None
            else None
        ),
        online_actions=sink.actions_taken if sink is not None else 0,
        burned_numbers=(
            len(scorer.flagged_numbers) if scorer is not None else 0
        ),
        report=report,
        world=world,
        bot=bot,
    )


def case_d_cell(config: CaseDConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for Case D (plain data only)."""
    result = run_case_d(config)
    ttfb = result.time_to_first_block
    return {
        "metrics": {
            "attacker_otps_delivered": float(
                result.attacker_otps_delivered
            ),
            "numbers_rented": float(result.numbers_rented),
            "rental_cost_total": result.rental_cost_total,
            "attacker_revenue": result.attacker_revenue,
            "attacker_net": result.attacker_ledger.net,
            "attacker_roi": result.attacker_roi,
            "mean_otps_per_number": result.mean_otps_per_number,
            "legit_otps_delivered": float(result.legit_otps_delivered),
            "legit_requests_blocked": float(
                result.legit_requests_blocked
            ),
            "legit_fp_conviction_rate": result.legit_fp_conviction_rate,
            "time_to_first_block": ttfb if ttfb is not None else -1.0,
            "online_actions": float(result.online_actions),
            "burned_numbers": float(result.burned_numbers),
        },
        "info": {
            "variant": result.config.variant,
            "rentals_by_country": dict(
                sorted(
                    result.bot.rental.rentals_by_country.items()
                )
            )
            if result.bot is not None
            else {},
        },
        "recorder": result.world.metrics.snapshot(),
    }
