"""Quickstart: stand up an airline platform, attack it, detect it.

Builds a small world, runs two days of legitimate booking traffic with
a Seat Spinning bot hiding inside it, then walks the paper's detection
ladder:

1. session-volume detection (fails — the bot is low-volume),
2. NiP distribution anomaly (fires — the bot's party size sticks out),
3. passenger-detail heuristics (pinpoint the bot's bookings),

and finally deploys a NiP cap and watches the attacker adapt.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro.analysis.reports import render_distribution, render_table
from repro.common import SEAT_SPINNER
from repro.core.detection.anomaly import NipDistributionMonitor
from repro.core.detection.passenger_details import PassengerDetailAnalyzer
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.volume import VolumeDetector
from repro.core.mitigation.policies import NipCapPolicy
from repro.identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RotationPolicy,
)
from repro.identity.ip import ResidentialProxyPool
from repro.scenarios.world import FlightSpec, WorldConfig, build_world
from repro.sim.clock import DAY, HOUR
from repro.traffic.legitimate import (
    AVERAGE_WEEK_NIP_MIXTURE,
    LegitimateConfig,
    LegitimatePopulation,
)
from repro.traffic.seat_spinner import SeatSpinnerBot, SeatSpinnerConfig


def main() -> None:
    # -- 1. build the platform ------------------------------------------------
    flights = [FlightSpec(f"FL-{i:02d}", 10 * DAY, capacity=200)
               for i in range(8)]
    world = build_world(
        WorldConfig(seed=42, flights=flights, hold_ttl=2 * HOUR)
    )

    # -- 2. legitimate traffic + the attacker ---------------------------------
    LegitimatePopulation(
        world.loop,
        world.app,
        world.rngs.stream("legit"),
        LegitimateConfig(visitor_rate_per_hour=25),
    ).start(at=0.0)

    bot = SeatSpinnerBot(
        world.loop,
        world.app,
        BotIdentity(
            FingerprintForge(MIMICRY),           # indistinguishable FP
            RotationPolicy(mean_interval=5.3 * HOUR),
            world.rngs.stream("bot.identity"),
        ),
        ResidentialProxyPool(),                  # residential exits
        world.rngs.stream("bot"),
        SeatSpinnerConfig(
            target_flight="FL-00", preferred_nip=6, target_seats=120
        ),
    )
    bot.start(at=6 * HOUR)

    world.run_until(2 * DAY)
    print(f"simulated 2 days: {len(world.app.log)} requests, "
          f"{world.metrics.counter('booking.holds_created'):.0f} holds\n")

    # -- 3. the detection ladder ------------------------------------------------
    index = SessionIndex.from_log(world.app.log)
    volume_verdicts = VolumeDetector().judge_index(index)
    bot_sessions = [
        session_id
        for session_id, actor_class in zip(
            index.session_ids, index.actor_classes
        )
        if actor_class == SEAT_SPINNER
    ]
    flagged = {v.subject_id for v in volume_verdicts if v.is_bot}
    caught = sum(1 for session_id in bot_sessions if session_id in flagged)
    print(f"[volume detection]    bot sessions: {len(bot_sessions)}, "
          f"flagged: {caught}  <- low-volume DoI evades it")

    counts = Counter(r.nip for r in world.reservations.held_records())
    monitor = NipDistributionMonitor(baseline=AVERAGE_WEEK_NIP_MIXTURE)
    anomaly = monitor.evaluate(counts)
    print(f"[NiP anomaly]         alarm={anomaly.alarm} "
          f"jsd={anomaly.jsd:.4f} surging={list(anomaly.surging_nips)}")

    analyzer = PassengerDetailAnalyzer()
    findings = analyzer.analyze(world.reservations.held_records())
    print(f"[passenger details]   {len(findings)} findings; top: "
          f"{findings[0].kind} — {findings[0].evidence}"
          if findings else "[passenger details]   nothing found")

    print()
    print(render_distribution(
        {n: c / sum(counts.values()) for n, c in sorted(counts.items())},
        title="Observed NiP distribution (note the NiP-6 bar):",
    ))

    # -- 4. mitigate and watch the attacker adapt -------------------------------
    print("\ndeploying NiP cap = 4 ...")
    NipCapPolicy(4).apply(world.app)
    world.run_until(3 * DAY)
    print(f"attacker adapted to NiP {bot.current_nip} within "
          f"{len(bot.nip_adaptations)} probes; still holding "
          f"{bot.seats_currently_held} seats — mitigation is a race, "
          "not a wall.")

    print()
    print(render_table(
        ["Metric", "Value"],
        [
            ["bot holds created", bot.holds_created],
            ["bot fingerprint rotations", bot.identity.rotations],
            ["target flight seats available",
             world.reservations.availability("FL-00")],
            ["legit holds",
             sum(1 for r in world.reservations.held_records()
                 if not r.client.is_attacker)],
        ],
        title="Final state",
    ))


if __name__ == "__main__":
    main()
