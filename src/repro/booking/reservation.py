"""The reservation system: holds, confirmation, expiry, booking records.

:class:`ReservationSystem` is the substrate the Seat Spinning case
studies run against.  It exposes the abusable feature faithfully:
anyone can hold ``nip`` seats for ``hold_ttl`` seconds with nothing but
passenger details, and the hold silently returns to inventory when it
expires — at which point an attacker can immediately re-hold it
("each new request sent as soon as the temporary hold on the previous
one expired", Section IV-A).

Every attempt, successful or rejected, produces a :class:`BookingRecord`
so detection and analysis code sees exactly what production booking logs
would contain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import ClientRef
from ..obs.core import ObsRegistry
from ..sim.clock import Clock, HOUR
from .flight import Flight
from .holds import ACTIVE, CANCELLED, CONFIRMED, EXPIRED, Hold, HoldStore
from .passengers import Passenger
from .pricing import PricingEngine
from .seatmap import ANY as ANY_SEAT

# Rejection codes returned by create_hold.
REJECT_UNKNOWN_FLIGHT = "unknown-flight"
REJECT_NIP_CAP = "nip-exceeds-cap"
REJECT_NO_INVENTORY = "insufficient-inventory"
REJECT_INVALID_PARTY = "invalid-party"
REJECT_DEPARTED = "flight-departed"


@dataclass(frozen=True)
class BookingRecord:
    """One booking-funnel event as it would appear in booking logs."""

    time: float
    flight_id: str
    nip: int
    outcome: str  # "held" or a rejection code
    hold_id: str
    passengers: Tuple[Passenger, ...]
    client: ClientRef
    price_quoted: float
    shadow: bool


@dataclass(frozen=True)
class HoldResult:
    """Outcome of a hold attempt."""

    ok: bool
    hold: Optional[Hold]
    error: str = ""
    price_quoted: float = 0.0


class ReservationSystem:
    """Flight inventory plus the temporary-hold feature.

    Policy knobs (``hold_ttl``, ``max_nip``) are mutable at runtime
    because mitigations change them mid-attack — that is the whole
    Case A storyline.
    """

    def __init__(
        self,
        clock: Clock,
        metrics: Optional[ObsRegistry] = None,
        hold_ttl: float = 1.0 * HOUR,
        max_nip: int = 9,
        pricing: Optional[PricingEngine] = None,
    ) -> None:
        if hold_ttl <= 0:
            raise ValueError(f"hold_ttl must be positive: {hold_ttl}")
        if max_nip < 1:
            raise ValueError(f"max_nip must be >= 1: {max_nip}")
        self.clock = clock
        self.metrics = metrics if metrics is not None else ObsRegistry()
        self.hold_ttl = hold_ttl
        self.max_nip = max_nip
        self.pricing = pricing if pricing is not None else PricingEngine()
        self.holds = HoldStore()
        self._flights: Dict[str, Flight] = {}
        self.records: List[BookingRecord] = []
        self._record_times: List[float] = []

    # -- flights ------------------------------------------------------------

    def add_flight(self, flight: Flight) -> None:
        if flight.flight_id in self._flights:
            raise ValueError(f"duplicate flight id {flight.flight_id!r}")
        self._flights[flight.flight_id] = flight

    def flight(self, flight_id: str) -> Flight:
        try:
            return self._flights[flight_id]
        except KeyError:
            raise KeyError(f"unknown flight {flight_id!r}") from None

    def flights(self) -> List[Flight]:
        return list(self._flights.values())

    def availability(self, flight_id: str) -> int:
        """Real seats currently available (after lazy expiry)."""
        self.expire_due()
        return self.flight(flight_id).inventory.available

    # -- hold lifecycle -------------------------------------------------------

    def create_hold(
        self,
        flight_id: str,
        passengers: Sequence[Passenger],
        client: ClientRef,
        shadow: bool = False,
        seat_preference: str = ANY_SEAT,
    ) -> HoldResult:
        """Attempt to hold ``len(passengers)`` seats.

        ``shadow=True`` creates a honeypot hold: the caller receives a
        normal-looking success but no real inventory moves.

        ``seat_preference`` only matters on flights with a seat map:
        the hold then reserves *specific* seats picked to match.
        """
        self.expire_due()
        now = self.clock.now
        nip = len(passengers)

        error = self._validate(flight_id, nip, shadow)
        if error:
            self._record(
                now, flight_id, nip, error, "", tuple(passengers), client,
                0.0, shadow,
            )
            self.metrics.increment("booking.holds_rejected")
            self.metrics.increment(f"booking.reject.{error}")
            return HoldResult(ok=False, hold=None, error=error)

        flight = self._flights[flight_id]
        price = self.pricing.quote(flight, nip)
        seats: Tuple = ()
        if not shadow:
            flight.inventory.take_hold(nip)
            if flight.seat_map is not None:
                picked = flight.seat_map.pick(nip, seat_preference)
                flight.seat_map.hold(picked)
                seats = tuple(picked)

        hold = Hold(
            hold_id=self.holds.new_hold_id(),
            flight_id=flight_id,
            nip=nip,
            passengers=tuple(passengers),
            client=client,
            created_at=now,
            expires_at=now + self.hold_ttl,
            price_quoted=price,
            shadow=shadow,
            seats=seats,
        )
        self.holds.add(hold)
        self._record(
            now, flight_id, nip, "held", hold.hold_id, hold.passengers,
            client, price, shadow,
        )
        self.metrics.increment("booking.holds_created")
        self.metrics.record("booking.hold_nip", now, float(nip))
        if shadow:
            self.metrics.increment("booking.shadow_holds_created")
        return HoldResult(ok=True, hold=hold, price_quoted=price)

    def _validate(self, flight_id: str, nip: int, shadow: bool) -> str:
        if nip < 1:
            return REJECT_INVALID_PARTY
        if flight_id not in self._flights:
            return REJECT_UNKNOWN_FLIGHT
        if nip > self.max_nip:
            return REJECT_NIP_CAP
        flight = self._flights[flight_id]
        if self.clock.now >= flight.departure_time:
            return REJECT_DEPARTED
        if not shadow and nip > flight.inventory.available:
            return REJECT_NO_INVENTORY
        return ""

    def confirm(self, hold_id: str) -> Hold:
        """Complete payment on an active hold (seats become confirmed)."""
        self.expire_due()
        hold = self.holds.get(hold_id)
        if not hold.is_active:
            raise ValueError(
                f"hold {hold_id} is {hold.status}; cannot confirm"
            )
        if not hold.shadow:
            flight = self._flights[hold.flight_id]
            flight.inventory.confirm_hold(hold.nip)
            if flight.seat_map is not None and hold.seats:
                flight.seat_map.confirm(hold.seats)
        self.holds.close(hold_id, CONFIRMED, self.clock.now)
        self.metrics.increment("booking.holds_confirmed")
        self.metrics.increment("booking.revenue", hold.price_quoted)
        return hold

    def cancel(self, hold_id: str) -> Hold:
        """Voluntarily release an active hold."""
        hold = self.holds.get(hold_id)
        if not hold.is_active:
            raise ValueError(f"hold {hold_id} is {hold.status}; cannot cancel")
        if not hold.shadow:
            flight = self._flights[hold.flight_id]
            flight.inventory.release_hold(hold.nip)
            if flight.seat_map is not None and hold.seats:
                flight.seat_map.release(hold.seats)
        self.holds.close(hold_id, CANCELLED, self.clock.now)
        self.metrics.increment("booking.holds_cancelled")
        return hold

    def expire_due(self) -> List[Hold]:
        """Expire overdue holds, returning seats to inventory."""
        expired = self.holds.expire_due(self.clock.now)
        for hold in expired:
            if not hold.shadow:
                flight = self._flights[hold.flight_id]
                flight.inventory.release_hold(hold.nip)
                if flight.seat_map is not None and hold.seats:
                    flight.seat_map.release(hold.seats)
            self.metrics.increment("booking.holds_expired")
        return expired

    # -- policy knobs (driven by mitigations) --------------------------------

    def set_max_nip(self, max_nip: int) -> None:
        """Apply / change the NiP cap (the Fig. 1 mitigation)."""
        if max_nip < 1:
            raise ValueError(f"max_nip must be >= 1: {max_nip}")
        self.max_nip = max_nip
        self.metrics.record(
            "booking.max_nip_changes", self.clock.now, float(max_nip)
        )

    def set_hold_ttl(self, hold_ttl: float) -> None:
        """Change the hold TTL for *future* holds."""
        if hold_ttl <= 0:
            raise ValueError(f"hold_ttl must be positive: {hold_ttl}")
        self.hold_ttl = hold_ttl

    # -- internals -------------------------------------------------------------

    def _record(
        self,
        now: float,
        flight_id: str,
        nip: int,
        outcome: str,
        hold_id: str,
        passengers: Tuple[Passenger, ...],
        client: ClientRef,
        price: float,
        shadow: bool,
    ) -> None:
        self._record_times.append(now)
        self.records.append(
            BookingRecord(
                time=now,
                flight_id=flight_id,
                nip=nip,
                outcome=outcome,
                hold_id=hold_id,
                passengers=passengers,
                client=client,
                price_quoted=price,
                shadow=shadow,
            )
        )

    def held_records(self) -> List[BookingRecord]:
        """Only the attempts that produced a hold (what Fig. 1 counts)."""
        return [record for record in self.records if record.outcome == "held"]

    def records_since(self, start: float) -> List[BookingRecord]:
        """Records with ``time >= start`` (binary search; records are
        appended in time order so repeated window scans stay cheap)."""
        index = bisect.bisect_left(self._record_times, start)
        return self.records[index:]
