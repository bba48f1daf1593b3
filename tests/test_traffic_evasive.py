"""Tests for the evasive scraper and the trap endpoint."""

import pytest

from repro.common import SCRAPER
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.volume import VolumeDetector
from repro.identity.forge import (
    BotIdentity,
    FingerprintForge,
    MIMICRY,
    RAW_HEADLESS,
    RotationPolicy,
)
from repro.scenarios.world import FlightSpec, WorldConfig, build_world
from repro.sim.clock import DAY, HOUR
from repro.traffic.evasive_scraper import (
    EvasiveScraperBot,
    EvasiveScraperConfig,
)
from repro.traffic.scraper import ScraperBot, ScraperConfig
from repro.web.request import TRAP
from tests.feature_oracle import extract_features
from tests.session_oracle import sessionize


def make_world(seed=1):
    return build_world(
        WorldConfig(
            seed=seed,
            flights=[FlightSpec(f"F{i}", 30 * DAY, 200) for i in range(4)],
        )
    )


def evasive_bot(world, **overrides):
    config = dict(duration=8 * HOUR)
    config.update(overrides)
    return EvasiveScraperBot(
        world.loop,
        world.app,
        BotIdentity(
            FingerprintForge(MIMICRY),
            RotationPolicy(),
            world.rngs.stream("evasive.identity"),
        ),
        world.rngs.stream("evasive"),
        EvasiveScraperConfig(**config),
    )


class TestTrapEndpoint:
    def test_naive_scraper_hits_trap(self):
        world = make_world()
        bot = ScraperBot(
            world.loop,
            world.app,
            BotIdentity(
                FingerprintForge(RAW_HEADLESS),
                RotationPolicy(),
                world.rngs.stream("scraper.identity"),
            ),
            world.rngs.stream("scraper"),
            ScraperConfig(
                requests_per_hour=800, duration=6 * HOUR,
                trap_probability=0.05,
            ),
        )
        bot.start(at=0.0)
        world.run_until(6 * HOUR)
        assert world.metrics.counter("web.trap_hits") > 10
        sessions = sessionize(world.app.log)
        scraper_sessions = [
            s for s in sessions if s.actor_class == SCRAPER
        ]
        assert any(
            extract_features(s).trap_hits > 0 for s in scraper_sessions
        )

    def test_evasive_scraper_never_hits_trap(self):
        world = make_world()
        bot = evasive_bot(world)
        bot.start(at=0.0)
        world.run_until(8 * HOUR)
        assert world.metrics.counter("web.trap_hits") == 0


class TestEvasiveScraper:
    def test_scrapes_pages_slowly(self):
        world = make_world()
        bot = evasive_bot(world)
        bot.start(at=0.0)
        world.run_until(8 * HOUR)
        assert bot.pages_scraped > 50
        # An order of magnitude below the naive scraper's throughput.
        assert bot.requests_made < 3000

    def test_sessions_stay_under_budget(self):
        world = make_world()
        bot = evasive_bot(world, session_budget=10)
        bot.start(at=0.0)
        world.run_until(8 * HOUR)
        sessions = [
            s
            for s in sessionize(world.app.log)
            if s.actor_class == SCRAPER
        ]
        assert sessions
        assert max(s.request_count for s in sessions) <= 10
        assert bot.sessions_used > 5

    def test_evades_volume_detection(self):
        """The Section III-A evasion result: human-paced, budget-
        rotated scraping produces zero volume verdicts."""
        world = make_world()
        bot = evasive_bot(world)
        bot.start(at=0.0)
        world.run_until(8 * HOUR)
        sessions = [
            s
            for s in sessionize(world.app.log)
            if s.actor_class == SCRAPER
        ]
        detector = VolumeDetector()
        verdicts = detector.judge_index(
            SessionIndex.from_sessions(sessions)
        )
        assert not any(v.is_bot for v in verdicts)

    def test_backs_off_after_blocks(self):
        world = make_world()
        bot = evasive_bot(world)
        # Block every residential exit the bot could use: all requests
        # from its current identity are denied until it rotates.
        blocked_ids = set()

        def ban_current(request):
            return request.client.fingerprint_id in blocked_ids

        world.app.add_block_rule("ban-list", ban_current)
        blocked_ids.add(bot.identity.fingerprint.fingerprint_id)
        bot.start(at=0.0)
        world.run_until(2 * HOUR)
        assert bot.blocks_encountered >= 1
        assert bot.sessions_used >= 2  # rotated away from the ban

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvasiveScraperConfig(median_think_time=0)
        with pytest.raises(ValueError):
            EvasiveScraperConfig(session_budget=0)
        with pytest.raises(ValueError):
            EvasiveScraperConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            ScraperConfig(trap_probability=1.5)
