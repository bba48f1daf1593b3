"""Discrete-event simulation kernel.

Provides the deterministic foundations every other subpackage builds on:

* :class:`~repro.sim.clock.Clock` and duration constants,
* :class:`~repro.sim.events.EventLoop` (the discrete-event scheduler),
* :class:`~repro.sim.rng.RngRegistry` (named reproducible random streams),
* :class:`~repro.sim.process.Process` (actor base class).

What the world records (counters, gauges, simulated-clock series) goes
into a :class:`repro.obs.ObsRegistry`, the repo's one metrics registry.
"""
