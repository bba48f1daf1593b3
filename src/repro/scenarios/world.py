"""World construction: one airline platform wired end to end.

Every scenario and benchmark starts from :func:`build_world`, which
assembles the substrates around a single deterministic event loop:
reservation system, SMS gateway + telco network, and the web
application edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..booking.flight import Flight
from ..booking.reservation import ReservationSystem
from ..obs.core import ObsRegistry
from ..sim.clock import DAY, HOUR, WEEK
from ..sim.events import EventLoop
from ..sim.rng import RngRegistry
from ..sms.gateway import SmsGateway
from ..sms.telco import LocalCarrier, TelcoNetwork
from ..web.application import WebApplication


@dataclass(frozen=True)
class FlightSpec:
    """One flight to create in the world."""

    flight_id: str
    departure_time: float
    capacity: int = 180
    airline: str = "AirlineA"
    origin: str = "NCE"
    destination: str = "CDG"


def default_flight_schedule(
    count: int = 40,
    horizon: float = 4 * WEEK,
    capacity: int = 200,
    airline: str = "AirlineA",
) -> List[FlightSpec]:
    """An evenly spread schedule departing *after* the horizon, so
    background flights never sell out mid-scenario."""
    return [
        FlightSpec(
            flight_id=f"{airline}-{index:03d}",
            departure_time=horizon + DAY + index * (6 * HOUR),
            capacity=capacity,
            airline=airline,
        )
        for index in range(count)
    ]


@dataclass
class WorldConfig:
    """Everything needed to stand up one airline platform."""

    seed: int = 0
    flights: Optional[List[FlightSpec]] = None
    hold_ttl: float = 2 * HOUR
    max_nip: int = 9
    sms_weekly_quota: Optional[int] = None
    #: Countries whose terminating carrier colludes with attackers,
    #: with the revenue share kicked back per termination fee.
    colluding_countries: Tuple[str, ...] = ()
    attacker_revenue_share: float = 0.5


@dataclass
class World:
    """A fully wired platform plus its RNG registry."""

    loop: EventLoop
    rngs: RngRegistry
    metrics: ObsRegistry
    reservations: ReservationSystem
    telco: TelcoNetwork
    sms: SmsGateway
    app: WebApplication

    @property
    def now(self) -> float:
        return self.loop.now

    def run_until(self, until: float) -> None:
        self.loop.run_until(until)
        self.reservations.expire_due()


def build_world(config: WorldConfig) -> World:
    """Assemble all substrates around one event loop."""
    loop = EventLoop()
    rngs = RngRegistry(config.seed)
    metrics = ObsRegistry()

    reservations = ReservationSystem(
        loop.clock,
        metrics=metrics,
        hold_ttl=config.hold_ttl,
        max_nip=config.max_nip,
    )
    flights = (
        config.flights
        if config.flights is not None
        else default_flight_schedule()
    )
    for spec in flights:
        reservations.add_flight(
            Flight(
                flight_id=spec.flight_id,
                airline=spec.airline,
                origin=spec.origin,
                destination=spec.destination,
                departure_time=spec.departure_time,
                capacity=spec.capacity,
            )
        )

    telco = TelcoNetwork()
    for country in config.colluding_countries:
        telco.register_carrier(
            LocalCarrier(
                carrier_id=f"shady-{country.lower()}",
                country_code=country,
                colluding=True,
                attacker_revenue_share=config.attacker_revenue_share,
            )
        )
    sms = SmsGateway(
        loop.clock,
        telco=telco,
        metrics=metrics,
        weekly_quota=config.sms_weekly_quota,
    )
    app = WebApplication(
        loop.clock,
        reservations,
        sms,
        rngs.stream("web.app"),
        metrics=metrics,
    )
    return World(
        loop=loop,
        rngs=rngs,
        metrics=metrics,
        reservations=reservations,
        telco=telco,
        sms=sms,
        app=app,
    )
