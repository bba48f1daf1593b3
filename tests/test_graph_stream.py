"""Tests for the streaming graph adapter.

The headline property: with periodic refresh disabled, the adapter's
end-of-stream analysis is *identical* to the batch detector's on the
same records — same propagation scores bit-for-bit, same campaigns.
Periodic refresh then only changes *when* convictions are emitted,
never the final analysis.
"""

import pytest

from repro.core.detection.verdict import Verdict
from repro.core.mitigation.online import OnlineVerdictSink
from repro.graph.campaigns import CAMPAIGN_DETECTOR
from repro.graph.detector import GraphDetector, GraphDetectorConfig
from repro.graph.stream import GraphStreamAdapter
from repro.stream import RecordFeed
from repro.stream.adapters import FP_SUBJECT_PREFIX

from tests.test_graph_builder import (
    make_booking,
    make_session,
    make_sms,
)


def _config() -> GraphDetectorConfig:
    return GraphDetectorConfig(
        seed_weights={"volume-threshold": 0.9}
    )


def _campaign_records():
    """Rotated fingerprints glued by a recurring name and a shared
    booking reference, plus a clean visitor."""
    sessions, bookings, sms = [], [], []
    for index, fp in enumerate(["r1", "r2", "r3"]):
        ip = f"10.1.{index}.1"
        base = index * 1000.0
        sessions.append(
            make_session(
                f"s-{fp}", fp, ip, [base, base + 60.0, base + 120.0]
            )
        )
        bookings.append(
            make_booking(base + 30.0, fp, ip, [("anna", "nowak")])
        )
        for send in range(30):
            sms.append(
                make_sms(
                    base + 40.0 + send, fp, ip,
                    f"60010{index:02d}{send:02d}", ref="REFSHARED",
                )
            )
    sessions.append(
        make_session("s-clean", "visitor", "10.9.9.9", [50.0, 80.0])
    )
    return sessions, bookings, sms


def _seed_verdicts():
    return [
        Verdict(f"s-{fp}", "volume-threshold", 1.0, True)
        for fp in ["r1", "r2", "r3"]
    ]


def _run_stream(refresh_every=None, campaign_sink=None):
    sessions, bookings, sms = _campaign_records()
    adapter = GraphStreamAdapter(
        config=_config(),
        booking_feed=RecordFeed(bookings),
        sms_feed=RecordFeed(sms),
        refresh_every=refresh_every,
        campaign_sink=campaign_sink,
    )
    verdicts = []
    for session in sessions:
        for entry in session.entries:
            verdicts.extend(adapter.on_entry(entry, entry.time))
        verdicts.extend(adapter.on_session_closed(session, session.end))
    # Fold the other families' convictions in the way the pipeline's
    # fusion stage would hand them over: as accumulated seeds.
    from repro.graph.detector import accumulate_seed, seed_from_verdicts

    seed_from_verdicts(adapter._seeds, _seed_verdicts(), adapter.config)
    verdicts.extend(adapter.end_of_stream())
    return adapter, verdicts


def _run_batch():
    sessions, bookings, sms = _campaign_records()
    detector = GraphDetector(_config())
    detector.judge_all(
        sessions,
        bookings=bookings,
        sms=sms,
        seed_verdicts=_seed_verdicts(),
    )
    return detector


class TestStreamingEqualsBatch:
    def test_final_analysis_matches_batch_exactly(self):
        adapter, _ = _run_stream(refresh_every=None)
        batch = _run_batch()
        streaming = adapter.final_analysis
        assert streaming is not None
        assert (
            streaming.graph.snapshot()
            == batch.last_analysis.graph.snapshot()
        )
        # Bit-identical scores: same graph, same seeds, same sweep.
        assert (
            streaming.propagation.scores
            == batch.last_analysis.propagation.scores
        )
        assert [
            (c.campaign_id, c.members, c.risk)
            for c in streaming.campaigns
        ] == [
            (c.campaign_id, c.members, c.risk)
            for c in batch.last_analysis.campaigns
        ]

    def test_periodic_refresh_does_not_change_final_analysis(self):
        lazy, _ = _run_stream(refresh_every=None)
        eager, _ = _run_stream(refresh_every=1)
        assert eager.refreshes > lazy.refreshes
        assert (
            eager.final_analysis.propagation.scores
            == lazy.final_analysis.propagation.scores
        )
        assert [
            c.members for c in eager.final_campaigns
        ] == [c.members for c in lazy.final_campaigns]


class TestStreamConvictions:
    def test_cluster_conviction_covers_every_member_fingerprint(self):
        adapter, verdicts = _run_stream()
        campaign_fps = {
            fp
            for campaign in adapter.final_campaigns
            for fp in campaign.fingerprint_ids
        }
        assert campaign_fps == {"r1", "r2", "r3"}
        assert adapter.convicted_fingerprints == ["r1", "r2", "r3"]
        subjects = {v.subject_id for v in verdicts}
        assert subjects == {
            f"{FP_SUBJECT_PREFIX}{fp}" for fp in campaign_fps
        }
        for verdict in verdicts:
            assert verdict.detector == CAMPAIGN_DETECTOR
            assert verdict.is_bot

    def test_each_fingerprint_convicted_at_most_once(self):
        adapter, verdicts = _run_stream(refresh_every=1)
        subjects = [v.subject_id for v in verdicts]
        assert len(subjects) == len(set(subjects))
        assert adapter.convicted_fingerprints == ["r1", "r2", "r3"]

    def test_campaign_sink_receives_the_campaign(self):
        received = []
        _run_stream(
            campaign_sink=lambda campaign, now: received.append(
                (campaign, now)
            )
        )
        assert len(received) == 1
        campaign, now = received[0]
        assert set(campaign.fingerprint_ids) == {"r1", "r2", "r3"}
        assert now >= campaign.last_seen

    def test_refresh_every_validation(self):
        with pytest.raises(ValueError):
            GraphStreamAdapter(refresh_every=0)

    def test_record_feed_drains_only_the_tail(self):
        source = [1, 2]
        feed = RecordFeed(source)
        assert list(feed.drain()) == [1, 2]
        assert list(feed.drain()) == []
        source.extend([3, 4])
        assert list(feed.drain()) == [3, 4]
        assert feed.consumed == 4


class TestCampaignMitigation:
    def test_handle_campaign_blocks_every_member_fingerprint(self):
        from repro.scenarios.world import (
            WorldConfig,
            build_world,
            default_flight_schedule,
        )
        from repro.sim.clock import DAY

        world = build_world(
            WorldConfig(
                seed=1, flights=default_flight_schedule(2, DAY)
            )
        )
        sink = OnlineVerdictSink(world.app)
        adapter, _ = _run_stream(
            campaign_sink=sink.handle_campaign
        )
        assert sink.actions_taken == 1
        assert sink.timeline[0].kind == "stream-campaign-block"
        assert sink.first_block_time is not None
        for fp in ["r1", "r2", "r3"]:
            assert sink.blocks.is_blocked(fp)
        # A second identical campaign is a no-op: every member is
        # already blocked, so no duplicate action lands.
        sink.handle_campaign(adapter.final_campaigns[0], now=1e9)
        assert sink.actions_taken == 1
