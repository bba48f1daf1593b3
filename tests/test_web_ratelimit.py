"""Tests for repro.web.ratelimit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ClientRef
from repro.web.ratelimit import (
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
from repro.web.request import BOARDING_PASS_SMS, HOLD, Request


def make_request(path=HOLD, profile_id="", booking_ref=None, ip="1.1.1.1",
                 fingerprint_id="fp"):
    params = {}
    if booking_ref is not None:
        params["booking_ref"] = booking_ref
    return Request(
        method="POST",
        path=path,
        client=ClientRef(
            ip_address=ip,
            ip_country="US",
            ip_residential=True,
            fingerprint_id=fingerprint_id,
            user_agent="UA",
            profile_id=profile_id,
        ),
        params=params,
    )


class TestTokenBucket:
    def test_burst_up_to_capacity(self):
        bucket = TokenBucket(capacity=3, rate=1.0)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)

    def test_refill_over_time(self):
        bucket = TokenBucket(capacity=1, rate=0.5)  # 1 token / 2 s
        assert bucket.allow(0.0)
        assert not bucket.allow(1.0)
        assert bucket.allow(2.0)

    def test_refill_capped_at_capacity(self):
        bucket = TokenBucket(capacity=2, rate=10.0)
        bucket.allow(0.0)
        bucket.allow(100.0)
        assert bucket.tokens <= 2.0

    def test_time_backwards_rejected(self):
        bucket = TokenBucket(capacity=1, rate=1.0)
        bucket.allow(5.0)
        with pytest.raises(ValueError):
            bucket.allow(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, rate=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, rate=0.0)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=50,
        )
    )
    def test_never_exceeds_budget(self, deltas):
        """Property: allowed events never exceed capacity + rate*time."""
        bucket = TokenBucket(capacity=5, rate=2.0)
        now = 0.0
        allowed = 0
        for delta in deltas:
            now += delta
            if bucket.allow(now):
                allowed += 1
        assert allowed <= 5 + 2.0 * now + 1e-6


class TestSlidingWindow:
    def test_limit_enforced(self):
        limiter = SlidingWindowLimiter(limit=2, window=10.0)
        assert limiter.allow(0.0)
        assert limiter.allow(1.0)
        assert not limiter.allow(2.0)

    def test_window_slides(self):
        limiter = SlidingWindowLimiter(limit=2, window=10.0)
        limiter.allow(0.0)
        limiter.allow(1.0)
        assert limiter.allow(10.5)  # first event left the window

    def test_rejected_events_not_counted(self):
        limiter = SlidingWindowLimiter(limit=1, window=10.0)
        limiter.allow(0.0)
        for t in (1.0, 2.0, 3.0):
            limiter.allow(t)
        # Only the accepted event occupies the window.
        assert limiter.count(4.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowLimiter(limit=0, window=1.0)
        with pytest.raises(ValueError):
            SlidingWindowLimiter(limit=1, window=0.0)

    def test_exact_window_boundary_is_rejected(self):
        """Regression: the window is closed at both ends.  An event at
        t=0 still occupies the window at t=window exactly, so limit=1
        must reject the second attempt — pre-fix it was allowed,
        letting a client double its budget by timing the edge."""
        limiter = SlidingWindowLimiter(limit=1, window=10.0)
        assert limiter.allow(0.0)
        assert not limiter.allow(10.0)
        assert limiter.allow(10.0 + 1e-9)

    def test_boundary_event_still_counted(self):
        limiter = SlidingWindowLimiter(limit=5, window=10.0)
        limiter.allow(0.0)
        assert limiter.count(10.0) == 1
        assert limiter.count(10.0 + 1e-9) == 0

    def test_count_is_non_mutating(self):
        """Regression: count() used to expire events from the deque,
        so a monitoring read could change a later allow() decision."""
        limiter = SlidingWindowLimiter(limit=1, window=10.0)
        limiter.allow(0.0)
        for _ in range(3):
            assert limiter.count(10.0) == 1
        assert not limiter.allow(10.0)

    def test_window_edge_survives_float_rounding(self):
        """Regression (found by the property below): 1.5551836379290953
        + 5 + 5 lands exactly on ``first + window`` after rounding, but
        ``now - window`` rounded above ``first``, so the first event
        expired early and a second one was allowed."""
        limiter = SlidingWindowLimiter(limit=1, window=10.0)
        first = 1.5551836379290953
        assert limiter.allow(first)
        now = first + 5.0 + 5.0
        assert now == first + 10.0
        assert limiter.count(now) == 1
        assert not limiter.allow(now)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_no_closed_window_exceeds_limit(self, deltas, limit):
        """Property: no closed interval of length ``window`` ever
        contains more than ``limit`` allowed events — including
        intervals that start or end exactly on an event."""
        window = 10.0
        limiter = SlidingWindowLimiter(limit=limit, window=window)
        now = 0.0
        allowed = []
        for delta in deltas:
            now += delta
            if limiter.allow(now):
                allowed.append(now)
        for start in allowed:
            inside = [t for t in allowed if start <= t <= start + window]
            assert len(inside) <= limit


class TestKeyFunctions:
    def test_key_by_path(self):
        assert key_by_path(make_request(path=HOLD)) == HOLD

    def test_key_by_profile_anonymous_is_none(self):
        assert key_by_profile(make_request()) is None
        assert key_by_profile(make_request(profile_id="u1")) == "u1"

    def test_key_by_booking_ref(self):
        assert key_by_booking_ref(make_request()) is None
        assert key_by_booking_ref(make_request(booking_ref="R1")) == "R1"

    def test_key_by_ip_and_fingerprint(self):
        request = make_request(ip="2.2.2.2", fingerprint_id="fpX")
        assert key_by_ip(request) == "2.2.2.2"
        assert key_by_fingerprint(request) == "fpX"


class TestEngine:
    def test_rule_keys_independently(self):
        """Per-booking-ref rule: ref A's budget is separate from B's —
        the control that would have strangled Case C early."""
        engine = RateLimitEngine()
        engine.add_rule(
            RateLimitRule(
                rule_id="per-ref",
                key_fn=key_by_booking_ref,
                limit=2,
                window=100.0,
                paths=(BOARDING_PASS_SMS,),
            )
        )
        req_a = make_request(path=BOARDING_PASS_SMS, booking_ref="A")
        req_b = make_request(path=BOARDING_PASS_SMS, booking_ref="B")
        assert engine.check(req_a, 0.0) is None
        assert engine.check(req_a, 1.0) is None
        assert engine.check(req_a, 2.0) == "per-ref"
        assert engine.check(req_b, 3.0) is None

    def test_paths_scope_rules(self):
        engine = RateLimitEngine()
        engine.add_rule(
            RateLimitRule(
                rule_id="bp-only",
                key_fn=key_by_ip,
                limit=1,
                window=100.0,
                paths=(BOARDING_PASS_SMS,),
            )
        )
        assert engine.check(make_request(path=HOLD), 0.0) is None
        assert engine.check(make_request(path=HOLD), 1.0) is None

    def test_requests_without_key_skip_rule(self):
        engine = RateLimitEngine()
        engine.add_rule(
            RateLimitRule(
                rule_id="per-profile",
                key_fn=key_by_profile,
                limit=1,
                window=100.0,
            )
        )
        # Anonymous requests have no profile key; never limited here.
        for t in range(5):
            assert engine.check(make_request(), float(t)) is None

    def test_first_violated_rule_wins(self):
        engine = RateLimitEngine()
        engine.add_rule(
            RateLimitRule("tight", key_by_ip, limit=1, window=100.0)
        )
        engine.add_rule(
            RateLimitRule("loose", key_by_ip, limit=10, window=100.0)
        )
        engine.check(make_request(), 0.0)
        assert engine.check(make_request(), 1.0) == "tight"

    def test_duplicate_rule_id_rejected(self):
        engine = RateLimitEngine()
        engine.add_rule(RateLimitRule("r", key_by_ip, 1, 1.0))
        with pytest.raises(ValueError):
            engine.add_rule(RateLimitRule("r", key_by_ip, 2, 2.0))

    def test_remove_rule(self):
        engine = RateLimitEngine()
        engine.add_rule(RateLimitRule("r", key_by_ip, 1, 100.0))
        engine.check(make_request(), 0.0)
        engine.remove_rule("r")
        assert engine.check(make_request(), 1.0) is None

    def test_hit_and_rejection_counters(self):
        engine = RateLimitEngine()
        rule = RateLimitRule("r", key_by_ip, 1, 100.0)
        engine.add_rule(rule)
        engine.check(make_request(), 0.0)
        engine.check(make_request(), 1.0)
        assert rule.hits == 2
        assert rule.rejections == 1
