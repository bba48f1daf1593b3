"""Mitigation core: policies, block rules, honeypot, controller.

* :mod:`~repro.core.mitigation.policies` — reversible defensive
  changes (NiP cap, rate limits, restrictions, CAPTCHA, SMS toggles),
* :mod:`~repro.core.mitigation.blocking` — fingerprint/IP block rules
  with effectiveness auditing,
* :mod:`~repro.core.mitigation.honeypot` — decoy-inventory routing,
* :mod:`~repro.core.mitigation.controller` — the closed detect-and-
  respond loop driving the arms race scenarios,
* :mod:`~repro.core.mitigation.online` — streaming verdict intake that
  deploys mitigations mid-simulation.
"""
