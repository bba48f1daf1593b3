"""Honeypot / decoy-inventory mitigation (Section V's proposal).

Instead of blocking a suspected Denial-of-Inventory client — which
teaches the attacker to rotate — the application silently serves their
hold requests from a *shadow* inventory: the response is
indistinguishable from success, no real seat moves, and legitimate
customers keep buying.  "Attackers waste resources believing to hold
items in a false environment while legitimate users remain unaffected
... their need to rotate fingerprints or adjust tactics diminishes."

:class:`HoneypotManager` owns the suspect lists and installs the
routing decision on the application.
"""

from __future__ import annotations

from typing import Set

from ...web.application import WebApplication
from ...web.request import Request


class HoneypotManager:
    """Routes suspect clients' holds into the shadow inventory."""

    def __init__(self, app: WebApplication) -> None:
        self.app = app
        self._suspect_fingerprints: Set[str] = set()
        self._suspect_ips: Set[str] = set()
        self.redirected_requests = 0
        self._installed = False

    # -- suspect management -------------------------------------------------

    def add_suspect_fingerprint(self, fingerprint_id: str) -> bool:
        """Route ``fingerprint_id`` here; False if it already was."""
        if fingerprint_id in self._suspect_fingerprints:
            return False
        self._suspect_fingerprints.add(fingerprint_id)
        return True

    def add_suspect_ip(self, ip_address: str) -> None:
        self._suspect_ips.add(ip_address)

    def is_suspect(self, request: Request) -> bool:
        return (
            request.client.fingerprint_id in self._suspect_fingerprints
            or request.client.ip_address in self._suspect_ips
        )

    @property
    def suspect_count(self) -> int:
        return len(self._suspect_fingerprints) + len(self._suspect_ips)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Install the honeypot router on the application."""
        if self._installed:
            raise RuntimeError("honeypot already installed")

        def router(request: Request) -> bool:
            if self.is_suspect(request):
                self.redirected_requests += 1
                return True
            return False

        self.app.honeypot_router = router
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            raise RuntimeError("honeypot is not installed")
        self.app.honeypot_router = None
        self._installed = False

    # -- audit -------------------------------------------------------------------

    def shadow_hold_count(self) -> int:
        """Holds currently recorded against the shadow inventory."""
        return sum(
            1
            for hold in self.app.reservations.holds.all_holds()
            if hold.shadow
        )

    def shadow_seats_absorbed(self) -> int:
        """Seat-count the honeypot absorbed instead of real inventory."""
        return sum(
            hold.nip
            for hold in self.app.reservations.holds.all_holds()
            if hold.shadow
        )
