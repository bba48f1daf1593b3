"""The simulated airline web application.

:class:`WebApplication` is the front door every actor (legitimate or
not) talks to.  It wires the booking and SMS substrates behind an edge
pipeline that mirrors a production anti-bot deployment:

1. **block rules** — fingerprint/IP predicates deployed by mitigations,
2. **access policies** — feature restrictions (e.g. loyalty-only),
3. **rate limits** — the keyed rule engine,
4. **CAPTCHA gates** — on selected paths,
5. the endpoint handler itself.

Every request, whatever its fate, lands in the :class:`~repro.web.logs.WebLog`,
because that is all a behaviour-based detector gets to see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..booking.reservation import ReservationSystem
from ..identity.captcha import CaptchaGateModel
from ..identity.fingerprint import Fingerprint
from ..obs.core import ObsRegistry
from ..sim.clock import Clock
from ..sms.gateway import BOARDING_PASS, NOTIFICATION, OTP, SmsGateway
from .logs import WebLog
from .ratelimit import RateLimitEngine
from .request import (
    BAD_REQUEST,
    BLOCKED,
    BOARDING_PASS_SMS,
    CAPTCHA_FAILED,
    CAPTCHA_HUMAN,
    CAPTCHA_SOLVER,
    CONFLICT,
    FLIGHT_DETAILS,
    HOLD,
    NOT_FOUND,
    NOTIFY,
    OK,
    OTP_LOGIN,
    PAY,
    RATE_LIMITED,
    Request,
    Response,
    SEARCH,
    TRAP,
)

#: Predicate deciding whether a request is blocked (True = block).
BlockPredicate = Callable[[Request], bool]
#: Predicate deciding whether a request may use a restricted feature.
AccessPredicate = Callable[[Request], bool]
#: Router deciding whether a hold should be served from the honeypot.
HoneypotRouter = Callable[[Request], bool]


@dataclass
class BlockRule:
    """One deployed edge block rule with effectiveness bookkeeping.

    ``deployed_at``/``last_matched_at`` let the Case A benchmark measure
    how long each rule stayed effective before the attacker rotated
    around it (the paper's 5.3 h figure).
    """

    rule_id: str
    predicate: BlockPredicate = field(repr=False)
    deployed_at: float = 0.0
    matches: int = 0
    last_matched_at: Optional[float] = None


class WebApplication:
    """Application edge + endpoint handlers over the substrates."""

    def __init__(
        self,
        clock: Clock,
        reservations: ReservationSystem,
        sms: SmsGateway,
        rng: random.Random,
        metrics: Optional[ObsRegistry] = None,
    ) -> None:
        self.clock = clock
        self.reservations = reservations
        self.sms = sms
        self.metrics = metrics if metrics is not None else ObsRegistry()
        self.log = WebLog()
        self.ratelimits = RateLimitEngine()
        self._rng = rng
        self._block_rules: List[BlockRule] = []
        self._access_policies: Dict[str, AccessPredicate] = {}
        self._captcha_gates: Dict[str, CaptchaGateModel] = {}
        self.captcha_costs_by_actor: Dict[str, float] = {}
        self.honeypot_router: Optional[HoneypotRouter] = None
        # Optional wall-clock instrumentation (see the ``obs`` property).
        self._obs: Optional[object] = None
        # Per-path/status hot caches, rebuilt when ``obs`` is assigned:
        # path -> bound Histogram.observe, status -> counter name.
        self._obs_request_observers: Dict[str, Callable[[float], None]] = {}
        self._obs_edge_observe: Optional[Callable[[float], None]] = None
        self._obs_status_names: Dict[int, str] = {}
        #: Fingerprints collected at the edge, keyed by fingerprint id —
        #: what a client-side anti-bot script ships home.
        self.fingerprints_seen: Dict[str, "Fingerprint"] = {}
        #: The same fingerprints in first-seen order.  Periodic
        #: consumers (the controller's artifact rule) remember how far
        #: they have read and only judge the suffix — rescanning the
        #: whole ``fingerprints_seen`` table every evaluation is
        #: quadratic over a long run.
        self.fingerprint_arrivals: List[tuple] = []
        self._handlers: Dict[str, Callable[[Request], Response]] = {
            SEARCH: self._handle_search,
            FLIGHT_DETAILS: self._handle_flight_details,
            HOLD: self._handle_hold,
            PAY: self._handle_pay,
            OTP_LOGIN: self._handle_otp_login,
            BOARDING_PASS_SMS: self._handle_boarding_pass_sms,
            NOTIFY: self._handle_notify,
            TRAP: self._handle_trap,
        }

    # -- observability ---------------------------------------------------------

    @property
    def obs(self) -> Optional[object]:
        """Optional wall-clock instrumentation (duck-typed
        :class:`repro.obs.ObsRegistry`).  ``None`` keeps request
        handling on the zero-overhead path; when attached, every
        request records a per-endpoint latency timer
        (``web.request.<path>``), an edge-pipeline timer
        (``web.stage.edge``) and per-status counters."""
        return self._obs

    @obs.setter
    def obs(self, registry: Optional[object]) -> None:
        self._obs = registry
        self._obs_request_observers = {}
        self._obs_status_names = {}
        self._obs_edge_observe = (
            None
            if registry is None
            else registry.timer("web.stage.edge").histogram.observe
        )

    def _obs_request_observer(self, path: str) -> Callable[[float], None]:
        observe = self._obs_request_observers.get(path)
        if observe is None:
            observe = self._obs.timer(
                f"web.request.{path}"
            ).histogram.observe
            self._obs_request_observers[path] = observe
        return observe

    # -- edge configuration (driven by mitigations) ---------------------------

    def add_block_rule(self, rule_id: str, predicate: BlockPredicate) -> None:
        if any(rule.rule_id == rule_id for rule in self._block_rules):
            raise ValueError(f"duplicate block rule {rule_id!r}")
        self._block_rules.append(
            BlockRule(
                rule_id=rule_id,
                predicate=predicate,
                deployed_at=self.clock.now,
            )
        )

    def remove_block_rule(self, rule_id: str) -> None:
        self._block_rules = [
            rule for rule in self._block_rules if rule.rule_id != rule_id
        ]

    def block_rules(self) -> List[BlockRule]:
        return list(self._block_rules)

    def restrict_path(self, path: str, allowed: AccessPredicate) -> None:
        """Gate ``path`` behind an access predicate (loyalty-only etc.)."""
        self._access_policies[path] = allowed

    def unrestrict_path(self, path: str) -> None:
        self._access_policies.pop(path, None)

    def add_captcha(self, path: str, model: CaptchaGateModel) -> None:
        self._captcha_gates[path] = model

    def remove_captcha(self, path: str) -> None:
        self._captcha_gates.pop(path, None)

    # -- request processing -----------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Run one request through the edge pipeline and its handler."""
        now = self.clock.now
        obs = self._obs
        started = perf_counter() if obs is not None else 0.0
        fingerprint = request.fingerprint
        if fingerprint is not None:
            fingerprint_id = request.client.fingerprint_id
            if fingerprint_id not in self.fingerprints_seen:
                self.fingerprints_seen[fingerprint_id] = fingerprint
                self.fingerprint_arrivals.append(
                    (fingerprint_id, fingerprint)
                )
        if obs is None:
            response = self._edge_pipeline(request, now)
        else:
            edge_started = perf_counter()
            response = self._edge_pipeline(request, now)
            self._obs_edge_observe(perf_counter() - edge_started)
        if response is None:
            handler = self._handlers.get(request.path)
            if handler is None:
                response = Response(status=NOT_FOUND, outcome="no-such-path")
            else:
                response = handler(request)
        self._log(request, response, now)
        if obs is not None:
            observe = self._obs_request_observers.get(request.path)
            if observe is None:
                observe = self._obs_request_observer(request.path)
            observe(perf_counter() - started)
            status_name = self._obs_status_names.get(response.status)
            if status_name is None:
                status_name = f"web.response.{response.status}"
                self._obs_status_names[response.status] = status_name
            obs.increment(status_name)
        return response

    def _edge_pipeline(
        self, request: Request, now: float
    ) -> Optional[Response]:
        for rule in self._block_rules:
            if rule.predicate(request):
                rule.matches += 1
                rule.last_matched_at = now
                self.metrics.increment("web.blocked")
                return Response(
                    status=BLOCKED,
                    outcome="blocked",
                    blocked_by=rule.rule_id,
                )
        policy = self._access_policies.get(request.path)
        if policy is not None and not policy(request):
            self.metrics.increment("web.restricted")
            return Response(
                status=BLOCKED,
                outcome="restricted",
                blocked_by=f"restriction:{request.path}",
            )
        violated = self.ratelimits.check(request, now)
        if violated is not None:
            self.metrics.increment("web.rate_limited")
            return Response(
                status=RATE_LIMITED,
                outcome="rate-limited",
                blocked_by=violated,
            )
        gate = self._captcha_gates.get(request.path)
        if gate is not None:
            outcome = self._present_captcha(request, gate)
            if not outcome:
                self.metrics.increment("web.captcha_failed")
                return Response(
                    status=CAPTCHA_FAILED,
                    outcome="captcha-failed",
                    blocked_by=f"captcha:{request.path}",
                )
        return None

    def _present_captcha(
        self, request: Request, gate: CaptchaGateModel
    ) -> bool:
        ability = request.captcha_ability
        if ability == CAPTCHA_HUMAN:
            return gate.present_to_human(self._rng).passed
        uses_solver = ability == CAPTCHA_SOLVER
        outcome = gate.present_to_bot(self._rng, uses_solver)
        if outcome.cost_to_client > 0:
            actor = request.client.actor
            self.captcha_costs_by_actor[actor] = (
                self.captcha_costs_by_actor.get(actor, 0.0)
                + outcome.cost_to_client
            )
        return outcome.passed

    def _log(self, request: Request, response: Response, now: float) -> None:
        # append_fields writes straight into the columnar store — no
        # LogEntry object unless a live observer needs one.
        self.log.append_fields(
            time=now,
            method=request.method,
            path=request.path,
            status=response.status,
            client=request.client,
            blocked_by=response.blocked_by,
            outcome=response.outcome,
        )
        self.metrics.increment("web.requests")
        self.metrics.increment(f"web.requests.{request.path}")
        self.metrics.increment(f"web.status.{response.status}")

    # -- endpoint handlers --------------------------------------------------------

    def _handle_search(self, request: Request) -> Response:
        flights = [
            {
                "flight_id": flight.flight_id,
                "available": flight.inventory.available,
            }
            for flight in self.reservations.flights()
        ]
        return Response(status=OK, outcome="search", data=flights)

    def _handle_flight_details(self, request: Request) -> Response:
        flight_id = request.param("flight_id")
        try:
            flight = self.reservations.flight(flight_id)
        except KeyError:
            return Response(status=NOT_FOUND, outcome="unknown-flight")
        data = {
            "flight_id": flight.flight_id,
            "available": self.reservations.availability(flight_id),
            "price": self.reservations.pricing.quote(flight, 1),
        }
        return Response(status=OK, outcome="details", data=data)

    def _handle_hold(self, request: Request) -> Response:
        flight_id = request.param("flight_id")
        passengers = request.param("passengers")
        if not passengers:
            return Response(status=BAD_REQUEST, outcome="invalid-party")
        shadow = bool(
            self.honeypot_router is not None
            and self.honeypot_router(request)
        )
        result = self.reservations.create_hold(
            flight_id,
            passengers,
            request.client,
            shadow=shadow,
            seat_preference=request.params.get("seat_preference", "any"),
        )
        if not result.ok:
            return Response(status=CONFLICT, outcome=result.error)
        return Response(status=OK, outcome="held", data=result.hold)

    def _handle_pay(self, request: Request) -> Response:
        hold_id = request.param("hold_id")
        self.reservations.expire_due()
        if hold_id not in self.reservations.holds:
            return Response(status=NOT_FOUND, outcome="unknown-hold")
        hold = self.reservations.holds.get(hold_id)
        if not hold.is_active:
            return Response(status=CONFLICT, outcome=f"hold-{hold.status}")
        confirmed = self.reservations.confirm(hold_id)
        return Response(status=OK, outcome="paid", data=confirmed)

    def _handle_otp_login(self, request: Request) -> Response:
        phone = request.param("phone")
        record = self.sms.send(phone, OTP, request.client)
        if not record.delivered:
            return Response(status=CONFLICT, outcome=record.reject_reason)
        return Response(status=OK, outcome="otp-sent", data=record)

    def _handle_notify(self, request: Request) -> Response:
        """The open notification form: sends a flight-update SMS to any
        phone number the caller supplies, with no account or booking
        reference required — the amplification surface of Case E."""
        phone = request.param("phone")
        record = self.sms.send(phone, NOTIFICATION, request.client)
        if not record.delivered:
            return Response(status=CONFLICT, outcome=record.reject_reason)
        return Response(status=OK, outcome="notification-sent", data=record)

    def _handle_trap(self, request: Request) -> Response:
        """The hidden trap endpoint: serves an innocuous page and
        counts the visit — only automated link-followers land here."""
        self.metrics.increment("web.trap_hits")
        return Response(status=OK, outcome="trap", data=None)

    def _handle_boarding_pass_sms(self, request: Request) -> Response:
        booking_ref = request.param("booking_ref")
        phone = request.param("phone")
        record = self.sms.send(
            phone, BOARDING_PASS, request.client, booking_ref=booking_ref
        )
        if not record.delivered:
            return Response(status=CONFLICT, outcome=record.reject_reason)
        return Response(status=OK, outcome="boarding-pass-sent", data=record)
