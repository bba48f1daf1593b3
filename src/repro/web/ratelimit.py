"""Rate limiting primitives and the keyed rule engine.

Two classic algorithms — :class:`TokenBucket` and
:class:`SlidingWindowLimiter` — plus :class:`RateLimitEngine`, which
applies named rules keyed on arbitrary request attributes.  The keying
dimension is the interesting part for this paper: Case C was detected
late because only a *per-path* limit existed; per-booking-reference and
per-profile limits are the ad-hoc mitigations Section V recommends.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from .request import Request


class TokenBucket:
    """Token-bucket limiter: ``capacity`` burst, ``rate`` tokens/second."""

    def __init__(self, capacity: float, rate: float) -> None:
        if capacity <= 0 or rate <= 0:
            raise ValueError(
                f"capacity and rate must be positive: {capacity}, {rate}"
            )
        self.capacity = capacity
        self.rate = rate
        self._tokens = capacity
        self._last_refill = 0.0

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Consume ``cost`` tokens if available; refill lazily."""
        if now < self._last_refill:
            raise ValueError(
                f"time went backwards: {now} < {self._last_refill}"
            )
        elapsed = now - self._last_refill
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._last_refill = now
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


class SlidingWindowLimiter:
    """At most ``limit`` events in any trailing window of ``window`` s.

    The window is *closed at both ends*: an event at time ``t`` still
    occupies the window at ``t + window`` and only expires strictly
    after.  With ``limit=1`` a second attempt exactly ``window``
    seconds after the first is therefore rejected — the invariant "no
    closed interval of length ``window`` contains more than ``limit``
    allowed events" holds at the boundary, not just inside it.
    """

    def __init__(self, limit: int, window: float) -> None:
        if limit < 1 or window <= 0:
            raise ValueError(
                f"limit must be >= 1 and window positive: {limit}, {window}"
            )
        self.limit = limit
        self.window = window
        self._events: Deque[float] = deque()

    def allow(self, now: float) -> bool:
        """Record the event if under the limit; True = allowed."""
        # An event expires once ``when + window < now``.  Testing
        # ``when < now - window`` instead rounds differently and can
        # expire an event that ``when + window`` still covers.
        while self._events and self._events[0] + self.window < now:
            self._events.popleft()
        if len(self._events) >= self.limit:
            return False
        self._events.append(now)
        return True

    def count(self, now: float) -> int:
        """Events still occupying the window at ``now`` (read-only:
        unlike :meth:`allow`, this never mutates limiter state)."""
        return sum(1 for when in self._events if when + self.window >= now)


#: A key function maps a request to the string the rule buckets on, or
#: ``None`` when the rule does not apply to this request.
KeyFunction = Callable[[Request], Optional[str]]


def key_by_path(request: Request) -> str:
    """Global per-endpoint keying (one bucket per path)."""
    return request.path


def key_by_profile(request: Request) -> Optional[str]:
    """Per authenticated profile (None for anonymous requests)."""
    return request.client.profile_id or None


def key_by_ip(request: Request) -> str:
    return request.client.ip_address


def key_by_fingerprint(request: Request) -> str:
    return request.client.fingerprint_id


def key_by_booking_ref(request: Request) -> Optional[str]:
    """Per booking reference (None when the request has no booking)."""
    value = request.params.get("booking_ref")
    return str(value) if value else None


def key_by_destination(request: Request) -> Optional[str]:
    """Per destination phone number (None when no phone is attached).

    The Case E operational response: once a destination is surging, a
    per-destination cap strangles the flood at the *victim* dimension —
    the one key the amplifier cannot rotate — while legitimate
    destinations never come near the limit.
    """
    value = request.params.get("phone")
    if value is None:
        return None
    e164 = getattr(value, "e164", None)
    return e164 if e164 is not None else str(value)


@dataclass
class RateLimitRule:
    """One named sliding-window rule over a request key.

    ``paths`` restricts the rule to specific endpoints (empty = all).
    """

    rule_id: str
    key_fn: KeyFunction
    limit: int
    window: float
    paths: tuple = ()
    hits: int = field(default=0)
    rejections: int = field(default=0)

    def applies_to(self, request: Request) -> bool:
        return not self.paths or request.path in self.paths


class RateLimitEngine:
    """Evaluates every registered rule against each request.

    A request is rejected by the *first* rule it violates; the rule id
    is surfaced so logs and detectors can attribute the rejection
    ("the attack was detected only after ... the rate limit for the
    targeted path" — Case C).
    """

    def __init__(self) -> None:
        self._rules: List[RateLimitRule] = []
        self._windows: Dict[str, Dict[str, SlidingWindowLimiter]] = (
            defaultdict(dict)
        )

    def add_rule(self, rule: RateLimitRule) -> None:
        if any(existing.rule_id == rule.rule_id for existing in self._rules):
            raise ValueError(f"duplicate rate-limit rule {rule.rule_id!r}")
        self._rules.append(rule)

    def remove_rule(self, rule_id: str) -> None:
        self._rules = [r for r in self._rules if r.rule_id != rule_id]
        self._windows.pop(rule_id, None)

    def rules(self) -> List[RateLimitRule]:
        return list(self._rules)

    def check(self, request: Request, now: float) -> Optional[str]:
        """Return the id of the violated rule, or None if allowed.

        All applicable rules record the event, matching how production
        limiters count even requests that another rule later rejects.
        """
        violated: Optional[str] = None
        for rule in self._rules:
            if not rule.applies_to(request):
                continue
            key = rule.key_fn(request)
            if key is None:
                continue
            rule.hits += 1
            limiter = self._windows[rule.rule_id].get(key)
            if limiter is None:
                limiter = SlidingWindowLimiter(rule.limit, rule.window)
                self._windows[rule.rule_id][key] = limiter
            if not limiter.allow(now) and violated is None:
                rule.rejections += 1
                violated = rule.rule_id
        return violated
