"""Case B — automated vs manual Seat Spinning (paper Section IV-B).

Two campaigns against two flights in one world:

* **Airline B (October 2024 pattern)** — an automated bot whose first
  passenger keeps a fixed name and surname while the birthdate rotates
  systematically; companion passengers reuse a small overlapping name
  pool with varying birthdates.
* **Airline C (December 2024 pattern)** — a *manual* attacker reusing a
  fixed set of passenger names in different orders across bookings,
  with occasional misspellings, from many IPs but one or two genuine
  personal devices, at human cadence.

The question the case study answers: which signals catch which
campaign?  Behaviour-based volume detection fires on neither (both are
low-volume); the passenger-detail heuristics catch both — repeated
names + birthdate rotation for the bot, name-set permutation +
misspelling clusters for the human.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..common import LEGIT, MANUAL_SPINNER, SEAT_SPINNER
from ..core.detection.passenger_details import (
    AnalyzerConfig,
    PassengerDetailAnalyzer,
    PassengerFinding,
)
from ..core.detection.session_index import SessionIndex
from ..core.detection.volume import VolumeDetector
from ..identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from ..identity.ip import ResidentialProxyPool
from ..sim.clock import DAY, HOUR
from ..traffic.legitimate import LegitimateConfig, LegitimatePopulation
from ..traffic.manual_spinner import ManualSeatSpinner, ManualSpinnerConfig
from ..traffic.seat_spinner import (
    FIXED_NAME_ROTATING_DOB,
    SeatSpinnerBot,
    SeatSpinnerConfig,
)
from ..web.logs import Session
from .world import (
    FlightSpec,
    World,
    WorldConfig,
    build_world,
    default_flight_schedule,
)

AIRLINE_B_FLIGHT = "AirlineB-TARGET"
AIRLINE_C_FLIGHT = "AirlineC-TARGET"


@dataclass
class CaseBConfig:
    """Scenario parameters."""

    seed: int = 11
    duration: float = 10 * DAY
    visitor_rate_per_hour: float = 10.0
    #: Arrival-gap block size for the vectorized traffic generators;
    #: the run is bit-identical for any value (1 = scalar reference).
    arrival_block_size: int = 256
    hold_ttl: float = 4 * HOUR
    automated_attack_start: float = 2 * DAY
    automated_nip: int = 3
    automated_target_seats: int = 60
    manual_attack_start: float = 2 * DAY
    manual_name_pool: int = 6
    manual_misspell_probability: float = 0.12


@dataclass
class CaseBResult:
    """Detection outcomes for both campaigns."""

    config: CaseBConfig
    findings: List[PassengerFinding]
    finding_kinds: Set[str]
    #: Fraction of each campaign's holds covered by any finding.
    automated_coverage: float
    manual_coverage: float
    #: Fraction of *legitimate* holds swept into findings.
    legit_false_positive_rate: float
    #: Volume-detector session recall per ground-truth class.
    volume_recall: Dict[str, float]
    automated_holds: int
    manual_holds: int
    legit_holds: int
    sessions: List[Session]
    world: World


def _coverage(hold_ids: Set[str], flagged: Set[str]) -> float:
    if not hold_ids:
        return 0.0
    return len(hold_ids & flagged) / len(hold_ids)


def case_b_cell(config: CaseBConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point for Case B.

    Pure function of ``config`` returning plain data only (scalar
    metrics + recorder snapshot) so :mod:`repro.runner` workers can
    return it across the pickle boundary.
    """
    result = run_case_b(config)
    return {
        "metrics": {
            "automated_coverage": result.automated_coverage,
            "manual_coverage": result.manual_coverage,
            "legit_false_positive_rate": result.legit_false_positive_rate,
            "automated_holds": float(result.automated_holds),
            "manual_holds": float(result.manual_holds),
            "legit_holds": float(result.legit_holds),
            "findings": float(len(result.findings)),
            "sessions": float(len(result.sessions)),
            "volume_recall_automated": result.volume_recall.get(
                SEAT_SPINNER, 0.0
            ),
            "volume_recall_manual": result.volume_recall.get(
                MANUAL_SPINNER, 0.0
            ),
        },
        "info": {"finding_kinds": sorted(result.finding_kinds)},
        "recorder": result.world.metrics.snapshot(),
    }


def run_case_b(
    config: Optional[CaseBConfig] = None,
    on_world: Optional[Callable[[World], None]] = None,
) -> CaseBResult:
    """Run both campaigns and the passenger-detail analysis.

    ``on_world`` runs right after world construction, before any actor
    starts (streaming/trace wiring hook).
    """
    config = config or CaseBConfig()

    flights = default_flight_schedule(
        count=30, horizon=config.duration, capacity=200
    )
    flights.append(
        FlightSpec(
            flight_id=AIRLINE_B_FLIGHT,
            departure_time=config.duration + 2 * DAY,
            capacity=150,
            airline="AirlineB",
        )
    )
    flights.append(
        FlightSpec(
            flight_id=AIRLINE_C_FLIGHT,
            departure_time=config.duration + 2 * DAY,
            capacity=150,
            airline="AirlineC",
        )
    )
    world = build_world(
        WorldConfig(
            seed=config.seed, flights=flights, hold_ttl=config.hold_ttl
        )
    )
    if on_world is not None:
        on_world(world)
    loop, rngs, app = world.loop, world.rngs, world.app

    population = LegitimatePopulation(
        loop,
        app,
        rngs.stream("traffic.legit"),
        LegitimateConfig(
            visitor_rate_per_hour=config.visitor_rate_per_hour,
            arrival_block_size=config.arrival_block_size,
        ),
        arrival_rng=rngs.numpy_stream("traffic.legit.arrivals"),
    )
    population.start(at=0.0)

    automated = SeatSpinnerBot(
        loop,
        app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(mean_interval=6 * HOUR, rotate_on_block=True),
            rngs.stream("attacker.automated.identity"),
        ),
        ResidentialProxyPool(),
        rngs.stream("attacker.automated"),
        SeatSpinnerConfig(
            target_flight=AIRLINE_B_FLIGHT,
            preferred_nip=config.automated_nip,
            target_seats=config.automated_target_seats,
            passenger_style=FIXED_NAME_ROTATING_DOB,
            stop_before_departure=1 * DAY,
        ),
        name="airline-b-bot",
    )
    automated.start(at=config.automated_attack_start)

    manual = ManualSeatSpinner(
        loop,
        app,
        rngs.stream("attacker.manual"),
        ManualSpinnerConfig(
            target_flight=AIRLINE_C_FLIGHT,
            name_pool_size=config.manual_name_pool,
            misspell_probability=config.manual_misspell_probability,
        ),
        name="airline-c-manual",
    )
    manual.start(at=config.manual_attack_start)

    world.run_until(config.duration)

    # -- analysis -------------------------------------------------------------

    records = world.reservations.records
    held = [r for r in records if r.outcome == "held"]
    analyzer = PassengerDetailAnalyzer(AnalyzerConfig())
    findings = analyzer.analyze(held)
    flagged = analyzer.flagged_hold_ids(held)

    automated_ids = {
        r.hold_id for r in held if r.client.actor_class == SEAT_SPINNER
    }
    manual_ids = {
        r.hold_id for r in held if r.client.actor_class == MANUAL_SPINNER
    }
    legit_ids = {
        r.hold_id for r in held if r.client.actor_class == LEGIT
    }

    index = SessionIndex.from_log(app.log)
    sessions = index.sessions()
    verdicts = VolumeDetector().judge_index(index)
    from ..analysis.evaluation import recall_by_class

    return CaseBResult(
        config=config,
        findings=findings,
        finding_kinds={finding.kind for finding in findings},
        automated_coverage=_coverage(automated_ids, flagged),
        manual_coverage=_coverage(manual_ids, flagged),
        legit_false_positive_rate=_coverage(legit_ids, flagged),
        volume_recall=recall_by_class(sessions, verdicts),
        automated_holds=len(automated_ids),
        manual_holds=len(manual_ids),
        legit_holds=len(legit_ids),
        sessions=sessions,
        world=world,
    )
