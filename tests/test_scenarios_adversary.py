"""Cases D/E, the adaptive attacker, and the whole-portfolio scenario.

Three layers of coverage for the :mod:`repro.adversary` additions:

* the :class:`~repro.adversary.attacker.AdaptiveAttacker` policy in
  isolation, driven by scripted channels with known P&L trajectories;
* the Case D / Case E end-to-end economics (the defense wins by
  pushing ROI negative, not by perfect blocking), plus the
  stream-equivalence property of both new record-scoring families;
* the portfolio headline: every single-case defense leaves the
  adaptive attacker an open profitable channel; the layered posture
  collapses every channel and the operation retires net negative.
"""

import pytest

from repro.adversary import AdaptiveAttacker
from repro.core.detection.numbers import (
    NumberReputationScorer,
    score_sms_records,
)
from repro.core.detection.surge import DestinationSurgeScorer
from repro.scenarios.case_d import (
    CaseDConfig,
    NUMBER_REPUTATION_DEFENSE,
    run_case_d,
)
from repro.scenarios.case_e import (
    CaseEConfig,
    DESTINATION_SURGE_DEFENSE,
    run_case_e,
)
from repro.scenarios.portfolio import (
    DEFENSE_ALL,
    DEFENSE_CASE_D,
    DEFENSE_NONE,
    PortfolioConfig,
    run_portfolio,
)
from repro.sim.clock import HOUR
from repro.sim.events import EventLoop
from repro.stream import RecordFeed, SmsRecordAdapter


# --------------------------------------------------------------------------
# The adaptive attacker policy, on scripted channels.
# --------------------------------------------------------------------------

class ScriptedChannel:
    """A channel whose P&L accrues at fixed hourly rates while active."""

    def __init__(self, loop, name, earn_per_hour, spend_per_hour):
        self.loop = loop
        self.name = name
        self.earn_per_hour = earn_per_hour
        self.spend_per_hour = spend_per_hour
        self.activations = 0
        self._active_since = None
        self._spent = 0.0
        self._earned = 0.0

    def _settle(self):
        if self._active_since is not None:
            hours = (self.loop.now - self._active_since) / HOUR
            self._spent += hours * self.spend_per_hour
            self._earned += hours * self.earn_per_hour
            self._active_since = self.loop.now

    def activate(self, at=None):
        self.activations += 1
        self._active_since = self.loop.now

    def deactivate(self):
        self._settle()
        self._active_since = None

    def spent(self):
        self._settle()
        return self._spent

    def earned(self):
        self._settle()
        return self._earned


class TestAdaptiveAttacker:
    def _run(self, channels_spec, until=48 * HOUR, **kwargs):
        loop = EventLoop()
        channels = [
            ScriptedChannel(loop, name, earn, spend)
            for name, earn, spend in channels_spec
        ]
        attacker = AdaptiveAttacker(loop, channels, **kwargs)
        attacker.start(at=0.0)
        loop.run_until(until)
        return attacker

    def test_profitable_channel_is_kept(self):
        attacker = self._run([("gold", 10.0, 1.0)], budget=10_000.0)
        assert not attacker.retired
        assert attacker.active_channel == "gold"
        assert [d.action for d in attacker.decisions] == ["activate"]

    def test_losing_channels_tried_in_order_then_retire(self):
        attacker = self._run(
            [("first", 0.0, 1.0), ("second", 0.0, 1.0)],
            budget=10_000.0,
            max_activations=1,
        )
        assert attacker.retired
        assert [
            (d.action, d.channel) for d in attacker.decisions
        ] == [
            ("activate", "first"),
            ("bench", "first"),
            ("activate", "second"),
            ("bench", "second"),
            ("retire", ""),
        ]

    def test_attacker_moves_to_the_open_channel(self):
        attacker = self._run(
            [("closed", 0.0, 1.0), ("open", 5.0, 1.0)], budget=10_000.0
        )
        assert not attacker.retired
        assert attacker.active_channel == "open"
        assert attacker.total_earned() > attacker.total_spent()

    def test_zero_spend_earner_is_not_benched(self):
        # Regression: a channel whose marginal window spend is zero but
        # which still earns (seat spinning between proxy rotations) must
        # read as infinitely good, not dead.
        attacker = self._run([("free", 2.0, 0.0)], budget=100.0)
        assert not attacker.retired
        assert attacker.active_channel == "free"

    def test_budget_exhaustion_stops_the_operation(self):
        # Profitable per window, so the policy never benches it — the
        # shared budget is what finally stops the spend.
        attacker = self._run(
            [("burner", 150.0, 100.0)], budget=300.0, until=96 * HOUR
        )
        assert attacker.retired
        assert attacker.decisions[-1].action == "budget-exhausted"
        # Spend may overshoot by at most one reassessment window.
        assert attacker.total_spent() >= 300.0

    def test_infrastructure_accrues_even_while_losing(self):
        attacker = self._run(
            [("dud", 0.0, 1.0)],
            budget=10_000.0,
            max_activations=1,
            infrastructure_per_day=24.0,
        )
        assert attacker.retired
        assert attacker.infrastructure_cost > 0.0
        assert attacker.net < 0.0

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="at least one channel"):
            AdaptiveAttacker(loop, [])
        channel = ScriptedChannel(loop, "x", 1.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            AdaptiveAttacker(loop, [channel], budget=0.0)
        with pytest.raises(ValueError, match="reassess_interval"):
            AdaptiveAttacker(loop, [channel], reassess_interval=0.0)


# --------------------------------------------------------------------------
# Case D: OTP abuse via disposable-number cycling.
# --------------------------------------------------------------------------

class TestCaseD:
    @pytest.fixture(scope="class")
    def unprotected(self):
        return run_case_d(CaseDConfig())

    @pytest.fixture(scope="class")
    def defended(self):
        return run_case_d(CaseDConfig(variant=NUMBER_REPUTATION_DEFENSE))

    def test_unprotected_campaign_is_profitable(self, unprotected):
        assert unprotected.attacker_roi > 0.0
        assert unprotected.attacker_ledger.net > 0.0
        # Each rental amortises over roughly the planned batch size.
        assert unprotected.mean_otps_per_number > 10.0

    def test_defense_caps_reuse_at_threshold(self, defended):
        config = defended.config
        assert defended.mean_otps_per_number <= config.reuse_threshold + 0.5
        assert defended.burned_numbers > 0

    def test_defense_turns_roi_negative(self, unprotected, defended):
        assert defended.attacker_roi < 0.0
        assert defended.attacker_ledger.net < 0.0
        assert defended.attacker_otps_delivered < (
            unprotected.attacker_otps_delivered
        )

    def test_defense_reacts_quickly(self, defended):
        assert defended.time_to_first_block is not None
        assert defended.time_to_first_block < 1 * HOUR
        assert defended.online_actions > 0

    def test_legit_traffic_survives(self, unprotected, defended):
        assert defended.legit_fp_conviction_rate < 0.01
        # The defense costs the legitimate OTP flow almost nothing.
        assert defended.legit_otps_delivered > (
            0.95 * unprotected.legit_otps_delivered
        )

    def test_rentals_concentrate_in_colluding_markets(self, unprotected):
        by_country = unprotected.bot.rental.rentals_by_country
        assert by_country
        assert all(count > 0 for count in by_country.values())

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="unknown variant"):
            CaseDConfig(variant="nope")
        with pytest.raises(ValueError, match="attack_start"):
            CaseDConfig(attack_start=10.0, duration=5.0)


# --------------------------------------------------------------------------
# Case E: agent-based notification amplification.
# --------------------------------------------------------------------------

class TestCaseE:
    @pytest.fixture(scope="class")
    def unprotected(self):
        return run_case_e(CaseEConfig())

    @pytest.fixture(scope="class")
    def defended(self):
        return run_case_e(CaseEConfig(variant=DESTINATION_SURGE_DEFENSE))

    def test_unprotected_flood_lands(self, unprotected):
        assert unprotected.victim_messages_delivered > 1_000
        assert unprotected.attacker_roi > 0.0

    def test_defense_suppresses_the_flood(self, unprotected, defended):
        assert defended.victim_messages_delivered < (
            0.05 * unprotected.victim_messages_delivered
        )
        assert defended.attacker_roi < 0.0

    def test_surge_detected_and_cap_installed(self, defended):
        assert defended.surge_events > 0
        assert defended.time_to_first_block is not None
        assert defended.cap_installed_at is not None
        assert defended.cap_installed_at < defended.config.duration

    def test_collateral_damage_is_accounted_and_small(
        self, unprotected, defended
    ):
        assert defended.legit_fp_conviction_rate < 0.01
        assert defended.legit_notifications_delivered > (
            0.95 * unprotected.legit_notifications_delivered
        )

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="unknown variant"):
            CaseEConfig(variant="nope")


# --------------------------------------------------------------------------
# Stream/batch equivalence of the two new record families.
# --------------------------------------------------------------------------

class TestRecordFamilyStreamEquivalence:
    """Draining records entry-by-entry through the adapter must produce
    exactly the verdicts of batch-scoring the finished record log."""

    def _incremental(self, records, adapter):
        growing = []
        feed = RecordFeed(growing)
        adapter.attach(feed)
        verdicts = []
        for record in records:
            growing.append(record)
            verdicts.extend(adapter.on_entry(None, now=record.time))
        verdicts.extend(adapter.end_of_stream())
        return verdicts

    def test_number_reputation_stream_equals_batch(self):
        result = run_case_d(CaseDConfig())
        records = list(result.world.sms.records)
        batch = score_sms_records(
            records, NumberReputationScorer(reuse_threshold=5)
        )
        adapter = SmsRecordAdapter(NumberReputationScorer(reuse_threshold=5))
        stream = self._incremental(records, adapter)
        assert stream == batch
        assert batch  # the unprotected campaign does trip the family

    def test_destination_surge_stream_equals_batch(self):
        result = run_case_e(CaseEConfig())
        records = list(result.world.sms.records)
        batch_scorer = DestinationSurgeScorer(
            window=600.0, flood_threshold=30
        )
        batch = score_sms_records(records, batch_scorer)
        adapter = SmsRecordAdapter(
            DestinationSurgeScorer(window=600.0, flood_threshold=30)
        )
        stream = self._incremental(records, adapter)
        assert stream == batch
        assert batch
        assert (
            adapter.scorer.convicted_fingerprints
            == batch_scorer.convicted_fingerprints
        )


# --------------------------------------------------------------------------
# The portfolio: adaptive attacker vs defense postures.
# --------------------------------------------------------------------------

class TestPortfolio:
    @pytest.fixture(scope="class")
    def undefended(self):
        return run_portfolio(PortfolioConfig(defense=DEFENSE_NONE))

    @pytest.fixture(scope="class")
    def single_defense(self):
        return run_portfolio(PortfolioConfig(defense=DEFENSE_CASE_D))

    @pytest.fixture(scope="class")
    def layered(self):
        return run_portfolio(PortfolioConfig(defense=DEFENSE_ALL))

    def test_undefended_attacker_profits(self, undefended):
        assert undefended.attacker_net > 0.0
        assert undefended.attacker_roi > 0.0
        assert not undefended.retired

    def test_single_defense_leaves_an_open_channel(self, single_defense):
        # Case D's number reputation closes OTP cycling, but the
        # attacker simply keeps funding a channel it does not touch.
        assert single_defense.attacker_net > 0.0
        assert not single_defense.retired

    def test_layered_defense_forces_retirement(self, layered):
        assert layered.retired
        assert layered.attacker_net < 0.0
        assert layered.attacker_roi < 0.0

    def test_layered_defense_tries_every_channel_first(self, layered):
        activated = {
            d["channel"]
            for d in layered.decisions
            if d["action"] == "activate"
        }
        assert activated == {c.name for c in layered.channels}

    def test_infrastructure_burn_is_on_the_books(self, layered):
        assert layered.infrastructure_cost > 0.0
        assert layered.attacker_spent >= layered.infrastructure_cost

    def test_no_collateral_on_legit_traffic(self, layered):
        assert layered.legit_fp_conviction_rate < 0.01

    def test_defense_validation(self):
        with pytest.raises(ValueError, match="unknown defense"):
            PortfolioConfig(defense="case-z")
