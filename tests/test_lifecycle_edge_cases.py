"""Edge cases across substrate lifecycles: mitigations deployed
mid-attack, policies reverted with state in flight, sessionization
conservation properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.booking.flight import Flight
from repro.booking.passengers import sample_genuine_party
from repro.booking.reservation import ReservationSystem
from repro.common import ClientRef
from repro.core.mitigation.honeypot import HoneypotManager
from repro.core.mitigation.policies import NipCapPolicy, RateLimitPolicy
from repro.identity.fingerprint import FingerprintPopulation
from repro.sim.clock import Clock, HOUR
from repro.sms.gateway import SmsGateway
from repro.web.application import WebApplication
from repro.web.logs import LogEntry, WebLog
from repro.web.ratelimit import key_by_ip
from repro.web.request import Request, SEARCH
from tests.session_oracle import sessionize


def make_client(ip="1.1.1.1", fingerprint_id="fp"):
    return ClientRef(
        ip_address=ip,
        ip_country="US",
        ip_residential=True,
        fingerprint_id=fingerprint_id,
        user_agent="UA",
    )


@pytest.fixture
def app():
    clock = Clock()
    reservations = ReservationSystem(clock, hold_ttl=1 * HOUR, max_nip=9)
    reservations.add_flight(Flight("F1", "A", "X", "Y", 1000 * HOUR, 60))
    return WebApplication(
        clock, reservations, SmsGateway(clock), random.Random(1)
    )


class TestMitigationMidFlight:
    def test_cap_below_existing_holds_is_fine(self, app):
        """Lowering the NiP cap must not disturb already-active holds
        above the new cap — only future attempts are constrained."""
        party = sample_genuine_party(random.Random(1), 6)
        result = app.reservations.create_hold("F1", party, make_client())
        NipCapPolicy(4).apply(app)
        # The big hold lives on and can still be confirmed.
        confirmed = app.reservations.confirm(result.hold.hold_id)
        assert confirmed.nip == 6
        # But a new identical attempt is rejected.
        rejected = app.reservations.create_hold(
            "F1", sample_genuine_party(random.Random(2), 6), make_client()
        )
        assert rejected.error == "nip-exceeds-cap"

    def test_rate_limit_revert_forgets_windows(self, app):
        policy = RateLimitPolicy("per-ip", key_by_ip, limit=1, window=1e6)
        policy.apply(app)
        request = Request(
            method="GET", path=SEARCH, client=make_client(), params={}
        )
        assert app.handle(request).ok
        assert app.handle(request).status == 429
        policy.revert(app)
        # Re-applying a fresh policy starts with clean windows.
        RateLimitPolicy("per-ip", key_by_ip, limit=1, window=1e6).apply(app)
        assert app.handle(request).ok

    def test_honeypot_uninstall_leaves_shadow_holds_harmless(self, app):
        manager = HoneypotManager(app)
        manager.add_suspect_ip("6.6.6.6")
        manager.install()
        party = sample_genuine_party(random.Random(3), 3)
        response = app.handle(
            Request(
                method="POST",
                path="/hold",
                client=make_client(ip="6.6.6.6"),
                params={"flight_id": "F1", "passengers": party},
            )
        )
        assert response.data.shadow
        manager.uninstall()
        # Shadow holds expire without touching real inventory.
        app.clock.advance_to(2 * HOUR)
        app.reservations.expire_due()
        assert app.reservations.availability("F1") == 60

    def test_block_rule_added_while_requests_in_flight(self, app):
        """Block rules appearing between requests of one client take
        effect on the very next request."""
        client = make_client(fingerprint_id="fp-live")
        request = Request(
            method="GET", path=SEARCH, client=client, params={}
        )
        assert app.handle(request).ok
        app.add_block_rule(
            "live", lambda r: r.client.fingerprint_id == "fp-live"
        )
        assert app.handle(request).status == 403


class TestSessionizeConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100_000.0),
                st.integers(min_value=0, max_value=4),  # ip index
                st.integers(min_value=0, max_value=4),  # fp index
            ),
            max_size=60,
        )
    )
    def test_every_entry_lands_in_exactly_one_session(self, events):
        """Property: sessionization partitions the log — no entry is
        lost or duplicated, whatever the interleaving."""
        log = WebLog()
        for time, ip_index, fp_index in sorted(events):
            log.append(
                LogEntry(
                    time=time,
                    method="GET",
                    path=SEARCH,
                    status=200,
                    client=make_client(
                        ip=f"10.0.0.{ip_index}",
                        fingerprint_id=f"fp{fp_index}",
                    ),
                )
            )
        sessions = sessionize(log)
        assert sum(s.request_count for s in sessions) == len(log)
        # Entries within each session share the identity key and are
        # time-ordered with no over-gap jumps.
        for session in sessions:
            for entry in session.entries:
                assert entry.client.ip_address == session.ip_address
                assert (
                    entry.client.fingerprint_id == session.fingerprint_id
                )
            times = [e.time for e in session.entries]
            assert times == sorted(times)

    def test_empty_log_gives_no_sessions(self):
        assert sessionize(WebLog()) == []
