"""Tests for the batch graph detector and its seeding helpers.

Seeding is where the graph pipeline meets the rest of the detection
stack: weak behavioural priors per session, SMS-velocity priors per
fingerprint/booking-reference, and other families' verdicts folded in
noisy-OR style under per-detector trust weights.
"""

import pytest

from repro.core.detection.verdict import Verdict
from repro.graph.builder import GraphBuilder
from repro.graph.campaigns import CAMPAIGN_DETECTOR
from repro.graph.detector import (
    GraphDetector,
    GraphDetectorConfig,
    accumulate_seed,
    merged_seeds,
    seed_from_verdicts,
    session_prior,
    sms_velocity_seeds,
)
from repro.graph.entities import (
    booking_ref_node,
    fingerprint_node,
    session_node,
)
from repro.core.detection.subjects import entity_subject
from repro.web.request import BOARDING_PASS_SMS, HOLD

from tests.test_graph_builder import (
    make_booking,
    make_entry,
    make_session,
    make_sms,
)


class TestSeeding:
    def test_session_prior_is_weak_and_capped(self):
        config = GraphDetectorConfig()
        quiet = make_session("s1", "f1", "10.0.0.1", [0.0, 10.0])
        assert session_prior(quiet, config) == 0.0

        grabby = make_session("s2", "f1", "10.0.0.1", [0.0])
        grabby.entries.extend(
            make_entry(float(i + 1), "f1", "10.0.0.1", path=HOLD)
            for i in range(50)
        )
        prior = session_prior(grabby, config)
        # Saturates at the hold cap: sub-threshold by construction.
        assert prior == pytest.approx(config.hold_seed_cap)

        pumping = make_session("s3", "f1", "10.0.0.1", [0.0])
        pumping.entries.extend(
            make_entry(
                float(i + 1), "f1", "10.0.0.1", path=BOARDING_PASS_SMS
            )
            for i in range(50)
        )
        # Both channels maxed combine noisy-OR, still far below 1.
        pumping.entries.extend(
            make_entry(float(i + 60), "f1", "10.0.0.1", path=HOLD)
            for i in range(50)
        )
        combined = session_prior(pumping, config)
        assert combined == pytest.approx(
            1.0
            - (1.0 - config.hold_seed_cap)
            * (1.0 - config.sms_seed_cap)
        )
        assert combined < 0.7

    def test_accumulate_seed_is_noisy_or(self):
        seeds = {}
        node = session_node("s1")
        accumulate_seed(seeds, node, 0.5)
        accumulate_seed(seeds, node, 0.5)
        assert seeds[node] == pytest.approx(0.75)
        accumulate_seed(seeds, node, 0.0)
        accumulate_seed(seeds, node, 0.9, weight=0.0)
        assert seeds[node] == pytest.approx(0.75)
        accumulate_seed(seeds, node, 1.0, weight=2.0)  # clamped
        assert seeds[node] == 1.0

    def test_sms_velocity_seeds_recomputed_from_builder(self):
        config = GraphDetectorConfig()
        builder = GraphBuilder()
        for index in range(100):
            builder.observe_sms(
                make_sms(
                    float(index), "pump-fp", "10.0.0.1",
                    f"6001002{index:02d}", ref="REFXX",
                )
            )
        seeds = sms_velocity_seeds(builder, config)
        assert seeds[fingerprint_node("pump-fp")] == pytest.approx(
            config.fp_sms_seed_cap
        )
        assert seeds[booking_ref_node("REFXX")] == pytest.approx(
            config.ref_sms_seed_cap
        )
        # merged_seeds never mutates the accumulated dict — the
        # recompute-from-builder-state property streaming relies on.
        accumulated = {session_node("s1"): 0.2}
        merged = merged_seeds(accumulated, builder, config)
        assert accumulated == {session_node("s1"): 0.2}
        assert merged[session_node("s1")] == 0.2
        assert fingerprint_node("pump-fp") in merged

    def test_seed_from_verdicts_routes_subjects(self):
        config = GraphDetectorConfig(
            seed_weights={"volume-threshold": 0.9}
        )
        seeds = {}
        seed_from_verdicts(
            seeds,
            [
                Verdict("s1", "volume-threshold", 1.0, True),
                Verdict(entity_subject("f9"), "fingerprint", 0.8, True),
                # Campaign-graph verdicts must never re-seed the graph.
                Verdict("s1", CAMPAIGN_DETECTOR, 1.0, True),
            ],
            config,
        )
        assert seeds[session_node("s1")] == pytest.approx(0.9)
        # Unknown detector falls back to default_seed_weight.
        assert seeds[fingerprint_node("f9")] == pytest.approx(
            config.default_seed_weight * 0.8
        )


class TestGraphDetector:
    def _campaign_records(self):
        """Three rotated fingerprints, one recurring passenger name,
        plus an unrelated clean visitor."""
        sessions, bookings = [], []
        for index, fp in enumerate(["r1", "r2", "r3"]):
            ip = f"10.1.{index}.1"
            base = index * 1000.0
            sessions.append(
                make_session(
                    f"s-{fp}", fp, ip, [base, base + 60.0, base + 120.0]
                )
            )
            bookings.append(
                make_booking(
                    base + 30.0, fp, ip, [("anna", "nowak")]
                )
            )
        sessions.append(
            make_session("s-clean", "visitor", "10.9.9.9", [50.0, 80.0])
        )
        return sessions, bookings

    def test_rotated_campaign_is_convicted_clean_visitor_is_not(self):
        sessions, bookings = self._campaign_records()
        detector = GraphDetector(
            GraphDetectorConfig(
                seed_weights={"volume-threshold": 0.9}
            )
        )
        verdicts = detector.judge_all(
            sessions,
            bookings=bookings,
            seed_verdicts=[
                Verdict(f"s-{fp}", "volume-threshold", 1.0, True)
                for fp in ["r1", "r2", "r3"]
            ],
        )
        assert detector.name == CAMPAIGN_DETECTOR
        assert [v.subject_id for v in verdicts] == [
            s.session_id for s in sessions
        ]
        by_subject = {v.subject_id: v for v in verdicts}
        for fp in ["r1", "r2", "r3"]:
            assert by_subject[f"s-{fp}"].is_bot
        assert not by_subject["s-clean"].is_bot
        assert by_subject["s-clean"].score == 0.0

        campaigns = detector.campaigns
        assert len(campaigns) == 1
        assert set(campaigns[0].fingerprint_ids) == {"r1", "r2", "r3"}
        assert campaigns[0].rotates_identity

    def test_no_evidence_means_no_campaigns(self):
        sessions, bookings = self._campaign_records()
        detector = GraphDetector()
        verdicts = detector.judge_all(sessions, bookings=bookings)
        assert all(not v.is_bot for v in verdicts)
        assert detector.campaigns == []

    def test_fresh_detector_has_no_campaigns(self):
        assert GraphDetector().campaigns == []
