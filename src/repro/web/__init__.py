"""Web application layer: requests, logs, sessions, rate limits, edge.

The surface every actor interacts with: HTTP-like requests and
responses (:mod:`repro.web.request`), the append-only web log and its
session record (:mod:`repro.web.logs`), rate-limiting primitives and the
keyed rule engine (:mod:`repro.web.ratelimit`), and the application edge
pipeline with block rules, access policies and CAPTCHA gates
(:mod:`repro.web.application`).
"""
