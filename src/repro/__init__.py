"""repro — functional-abuse fraud simulation and detection library.

A from-scratch reproduction of *"When Features Gets Exploited:
Functional Abuse and the Future of Industrial Fraud Prevention"*
(Chiapponi et al., DSN 2025): an airline web platform substrate, the
SMS-Pumping and Denial-of-Inventory attacks the paper documents, and
the full detection/mitigation stack it evaluates.

Quick start::

    from repro.scenarios.world import WorldConfig, build_world
    world = build_world(WorldConfig(seed=7))

Most package ``__init__``s hold only a docstring and import nothing,
so import each name from the module that defines it.

Subpackages
-----------
``repro.sim``        discrete-event kernel (clock, loop, RNG streams)
``repro.booking``    flights, seat holds, passengers, pricing
``repro.sms``        SMS gateway, countries, telco revenue share
``repro.web``        requests, web logs, sessions, rate limits, edge
``repro.identity``   fingerprints, rotation, IP pools, CAPTCHA
``repro.traffic``    legitimate population and attacker automata
``repro.core``       detection and mitigation (the paper's core)
``repro.economics``  attacker/defender ledgers and deterrence analysis
``repro.analysis``   distributions, evaluation, report rendering
``repro.scenarios``  pre-wired Case A/B/C and benchmark scenarios
``repro.stream``     online sessionizer, adapters and fusion pipeline
``repro.graph``      campaign entity graph and propagation
``repro.serve``      the persistent HTTP detection service
``repro.runner``     parallel sweep/replication orchestrator
"""

__version__ = "1.0.0"
