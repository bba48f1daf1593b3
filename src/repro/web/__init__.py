"""Web application layer: requests, logs, sessions, rate limits, edge.

The surface every actor interacts with: HTTP-like requests and
responses (:mod:`repro.web.request`), the append-only web log and its
session record (:mod:`repro.web.logs`), rate-limiting primitives and the
keyed rule engine (:mod:`repro.web.ratelimit`), and the application edge
pipeline with block rules, access policies and CAPTCHA gates
(:mod:`repro.web.application`).
"""

from .application import BlockRule, WebApplication
from .logs import DEFAULT_IDLE_GAP, LogEntry, Session, WebLog
from .logstore import ColumnarLogStore
from .ratelimit import (
    RateLimitEngine,
    RateLimitRule,
    SlidingWindowLimiter,
    TokenBucket,
    key_by_booking_ref,
    key_by_fingerprint,
    key_by_ip,
    key_by_path,
    key_by_profile,
)
from .request import (
    ALL_PATHS,
    BAD_REQUEST,
    BLOCKED,
    BOARDING_PASS_SMS,
    CAPTCHA_FAILED,
    CAPTCHA_HUMAN,
    CAPTCHA_NONE,
    CAPTCHA_SOLVER,
    CONFLICT,
    FLIGHT_DETAILS,
    HOLD,
    NOT_FOUND,
    OK,
    OTP_LOGIN,
    PAY,
    RATE_LIMITED,
    Request,
    Response,
    SEARCH,
)

__all__ = [
    "BlockRule",
    "WebApplication",
    "ColumnarLogStore",
    "DEFAULT_IDLE_GAP",
    "LogEntry",
    "Session",
    "WebLog",
    "RateLimitEngine",
    "RateLimitRule",
    "SlidingWindowLimiter",
    "TokenBucket",
    "key_by_booking_ref",
    "key_by_fingerprint",
    "key_by_ip",
    "key_by_path",
    "key_by_profile",
    "ALL_PATHS",
    "BAD_REQUEST",
    "BLOCKED",
    "BOARDING_PASS_SMS",
    "CAPTCHA_FAILED",
    "CAPTCHA_HUMAN",
    "CAPTCHA_NONE",
    "CAPTCHA_SOLVER",
    "CONFLICT",
    "FLIGHT_DETAILS",
    "HOLD",
    "NOT_FOUND",
    "OK",
    "OTP_LOGIN",
    "PAY",
    "RATE_LIMITED",
    "Request",
    "Response",
    "SEARCH",
]
