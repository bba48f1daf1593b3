"""The scale world: a lean, high-throughput background population.

``scale-world`` exists to answer one question — *how many visitors per
second, in how much memory* — so it carries no attacker, no
mitigation controller and no detection: just Poisson booking funnels
hammering the web edge, with the columnar log store soaking up the
requests.  The ``bench_scale`` workload drives it to a million
visitors (sharded via ``run_sweep(shards=K)``), pins events/sec and
peak-RSS floors, and the ``scale-smoke`` CI job runs a reduced tick
count at K∈{1,4}.

Parameters are phrased in *totals* (``visitors`` over ``duration``),
not rates, so the sharder can split the population exactly: K shards
at ``visitors/K`` arrivals superpose to the same expected load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.clock import DAY, HOUR
from ..traffic.legitimate import LegitimateConfig, LegitimatePopulation
from .world import FlightSpec, WorldConfig, build_world

#: Drain margin after the arrival window: lets in-flight funnels (pay
#: delays, boarding passes) finish so the log captures whole visits.
DRAIN = 4 * HOUR


@dataclass
class ScaleConfig:
    """Parameters for one scale world (or one shard of it)."""

    seed: int = 0
    #: Expected visitor arrivals over ``duration``.
    visitors: int = 50_000
    duration: float = 7 * DAY
    arrival_block_size: int = 4096
    #: Background flights available to book.
    flights: int = 8
    flight_capacity: int = 100_000
    hold_ttl: float = 2 * HOUR

    def __post_init__(self) -> None:
        if self.visitors < 1:
            raise ValueError(f"visitors must be >= 1: {self.visitors}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.flights < 1:
            raise ValueError(f"flights must be >= 1: {self.flights}")

    @property
    def visitor_rate_per_hour(self) -> float:
        return self.visitors / (self.duration / HOUR)


@dataclass
class ScaleResult:
    """What one scale run produced (see cell metrics for the digest)."""

    config: ScaleConfig
    visitors_spawned: int
    log_entries: int
    events_processed: int
    log_store_bytes: int
    world: object


def run_scale(config: ScaleConfig) -> ScaleResult:
    """Run the population for ``duration`` plus a drain margin."""
    world = build_world(
        WorldConfig(
            seed=config.seed,
            flights=[
                FlightSpec(
                    flight_id=f"SC-{index:03d}",
                    departure_time=config.duration + DRAIN + DAY,
                    capacity=config.flight_capacity,
                )
                for index in range(config.flights)
            ],
            hold_ttl=config.hold_ttl,
        )
    )
    population = LegitimatePopulation(
        world.loop,
        world.app,
        world.rngs.stream("traffic.legit"),
        LegitimateConfig(
            visitor_rate_per_hour=config.visitor_rate_per_hour,
            arrival_block_size=config.arrival_block_size,
        ),
        arrival_rng=world.rngs.numpy_stream("traffic.legit.arrivals"),
    )
    population.start(at=0.0)
    world.run_until(config.duration)
    population.stop()
    world.run_until(config.duration + DRAIN)

    log = world.app.log
    store = getattr(log, "_store", None)
    return ScaleResult(
        config=config,
        visitors_spawned=population.visitors_spawned,
        log_entries=len(log),
        events_processed=world.loop.events_processed,
        log_store_bytes=store.nbytes() if store is not None else 0,
        world=world,
    )


def scale_cell(config: ScaleConfig) -> Dict[str, object]:
    """Picklable sweep-cell entry point (plain data only)."""
    result = run_scale(config)
    return {
        "metrics": {
            "visitors_spawned": float(result.visitors_spawned),
            "log_entries": float(result.log_entries),
            "events_processed": float(result.events_processed),
            "log_store_bytes": float(result.log_store_bytes),
            "holds_created": result.world.metrics.counter(
                "booking.holds_created"
            ),
            "web_requests": result.world.metrics.counter("web.requests"),
        },
        "info": {
            "visitor_rate_per_hour": result.config.visitor_rate_per_hour,
        },
        # The full recorder would ship one series point per request;
        # at millions of visitors that defeats the columnar store's
        # purpose, so scale cells return counters/gauges only.
        "recorder": {
            "counters": result.world.metrics.counters(),
            "gauges": result.world.metrics.gauges(),
            "series": {},
        },
    }
