"""Tests for repro.stream: pipeline, fusion, adapters, online sink."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ClientRef, LEGIT
from repro.core.detection.fusion import FusionDetector
from repro.core.detection.verdict import Verdict
from repro.core.detection.volume import VolumeDetector
from repro.core.mitigation.online import OnlineVerdictSink
from repro.scenarios.case_a import CaseAConfig, run_case_a
from repro.scenarios.streaming import (
    StreamCaseAConfig,
    run_stream_case_a,
)
from repro.sim.clock import DAY, HOUR
from repro.stream import (
    HoldVelocityAdapter,
    IncrementalFusion,
    SessionDetectorAdapter,
    StreamAdapter,
    StreamPipeline,
    batch_session_verdicts,
    entity_subject,
)
from repro.web.logs import LogEntry, sessionize
from repro.web.request import HOLD


class SessionRecorder(StreamAdapter):
    """Keeps every session the pipeline closes, in close order."""

    name = "session-recorder"

    def __init__(self):
        self.sessions = []

    def on_session_closed(self, session):
        self.sessions.append(session)
        return ()


def make_entry(time, ip="1.1.1.1", fingerprint="fp1", path="/search"):
    return LogEntry(
        time=time,
        method="GET",
        path=path,
        status=200,
        client=ClientRef(
            ip_address=ip,
            ip_country="US",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA",
            actor_class=LEGIT,
        ),
    )


@pytest.fixture(scope="module")
def case_a_log():
    """A real (small) Case A log: legit population + seat spinner."""
    result = run_case_a(
        CaseAConfig(
            seed=3,
            visitor_rate_per_hour=8.0,
            attacker_target_seats=48,
            attack_start=1 * DAY,
            cap_at=None,
            controller_enabled=False,
            departure_time=4 * DAY,
            stop_before_departure=1 * DAY,
        )
    )
    return result.world.app.log


#: Listed at different weights, listed at 1.0 and 0.0, and unlisted
#: (falls back to ``default_weight``).
FUSION_DETECTORS = ["volume-threshold", "navigation-graph", "x", "y", "new"]
FUSION_WEIGHTS = {"volume-threshold": 0.9, "navigation-graph": 0.6,
                  "x": 1.0, "y": 0.0}

fusion_verdicts = st.builds(
    Verdict,
    subject_id=st.sampled_from(["s0", "s1", "s2", "s3"]),
    detector=st.sampled_from(FUSION_DETECTORS),
    score=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
    ),
    is_bot=st.booleans(),
    reasons=st.just(("synthetic",)),
)


class TestIncrementalFusion:
    def _random_verdicts(self, seed, subjects=6, count=60):
        rng = random.Random(seed)
        detectors = [
            "volume-threshold", "navigation-graph", "unweighted-novel",
        ]
        verdicts = []
        for _ in range(count):
            score = rng.random()
            verdicts.append(
                Verdict(
                    subject_id=f"s{rng.randrange(subjects)}",
                    detector=rng.choice(detectors),
                    score=score,
                    is_bot=score > 0.6,
                    reasons=("synthetic",),
                )
            )
        return verdicts

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_batch_fuse(self, seed):
        verdicts = self._random_verdicts(seed)
        incremental = IncrementalFusion()
        for verdict in verdicts:
            incremental.update(verdict)
        batch = FusionDetector().fuse([verdicts])
        assert incremental.fused() == batch

    @settings(max_examples=200, deadline=None)
    @given(
        verdict_sets=st.lists(
            st.lists(fusion_verdicts, max_size=12), max_size=5
        ),
        default_weight=st.sampled_from([0.0, 0.5, 1.0]),
        threshold=st.sampled_from([0.3, 0.5, 0.9]),
    )
    def test_fold_matches_batch_fuse(
        self, verdict_sets, default_weight, threshold
    ):
        """Batch fusion of any grouping equals an arrival-order fold of
        the same verdicts through the stream's ``update``."""
        fusion = FusionDetector(
            weights=dict(FUSION_WEIGHTS),
            default_weight=default_weight,
            threshold=threshold,
        )
        incremental = IncrementalFusion(fusion)
        running = {}
        for verdicts in verdict_sets:
            for verdict in verdicts:
                running[verdict.subject_id] = incremental.update(verdict)
        batch = fusion.fuse(verdict_sets)
        assert incremental.fused() == batch
        assert batch == [running[subject] for subject in sorted(running)]
        assert incremental.updates == sum(map(len, verdict_sets))

    def test_update_returns_running_fused_verdict(self):
        fusion = IncrementalFusion(FusionDetector(threshold=0.5))
        first = fusion.update(
            Verdict("s1", "volume-threshold", 0.4, False, ())
        )
        assert not first.is_bot
        second = fusion.update(
            Verdict("s1", "navigation-graph", 0.9, True, ())
        )
        assert second.is_bot
        assert second.score > first.score
        assert fusion.current("s1") == second
        assert fusion.current("never-seen") is None

    def test_subjects_tracked(self):
        fusion = IncrementalFusion()
        fusion.update(Verdict("a", "volume-threshold", 0.1, False, ()))
        fusion.update(Verdict("b", "volume-threshold", 0.1, False, ()))
        fusion.update(Verdict("a", "navigation-graph", 0.1, False, ()))
        assert fusion.subjects_tracked == 2


class TestBatchEquivalence:
    def test_session_verdicts_identical_to_batch(self, case_a_log):
        detectors = [VolumeDetector()]
        pipeline = StreamPipeline(
            adapters=[SessionDetectorAdapter(detectors[0])]
        )
        for entry in case_a_log.iter_entries():
            pipeline.process(entry)
        report = pipeline.finish()
        batch = batch_session_verdicts(case_a_log, detectors)
        assert set(report.session_verdicts) == set(batch)
        assert len(report.session_verdicts) == len(batch)

    def test_sessions_identical_to_batch(self, case_a_log):
        recorder = SessionRecorder()
        pipeline = StreamPipeline(adapters=[recorder])
        for entry in case_a_log.iter_entries():
            pipeline.process(entry)
        report = pipeline.finish()
        sessions = sorted(recorder.sessions, key=lambda s: s.start)
        batch = sessionize(case_a_log)
        assert report.sessions_closed == len(sessions)
        assert [s.session_id for s in sessions] == [
            s.session_id for s in batch
        ]
        assert [tuple(e.time for e in s.entries) for s in sessions] == [
            tuple(e.time for e in s.entries) for s in batch
        ]

    def test_bounded_memory_on_real_log(self, case_a_log):
        pipeline = StreamPipeline(adapters=[])
        for entry in case_a_log.iter_entries():
            pipeline.process(entry)
        report = pipeline.finish()
        # The streaming working set stays far below the batch total.
        assert report.sessions_closed > 500
        assert report.peak_open_sessions < report.sessions_closed / 5


class TestStreamPipeline:
    def test_live_attach_sees_appended_entries(self):
        from repro.web.logs import WebLog

        log = WebLog()
        pipeline = StreamPipeline(adapters=[])
        unsubscribe = pipeline.attach(log)
        log.append(make_entry(1.0))
        log.append(make_entry(2.0))
        unsubscribe()
        log.append(make_entry(3.0))
        assert pipeline.events_processed == 2

    def test_sink_notified_once_per_subject(self):
        notified = []

        class Sink:
            def handle(self, verdict, now):
                notified.append((verdict.subject_id, now))

        pipeline = StreamPipeline(
            adapters=[HoldVelocityAdapter(threshold=2, window=HOUR)],
            fusion=FusionDetector(weights={"hold-velocity": 0.9}),
            sink=Sink(),
        )
        for i in range(5):
            pipeline.process(
                make_entry(float(i), path=HOLD, fingerprint="bot")
            )
        report = pipeline.finish()
        assert [subject for subject, _ in notified] == [
            entity_subject("bot")
        ]
        assert notified[0][1] == 1.0  # convicted at the second hold
        assert report.sink_notifications == 1

    def test_entity_and_session_subjects_do_not_collide(self):
        pipeline = StreamPipeline(
            adapters=[
                SessionDetectorAdapter(VolumeDetector()),
                HoldVelocityAdapter(threshold=2, window=HOUR),
            ],
        )
        for i in range(4):
            pipeline.process(make_entry(float(i), path=HOLD))
        report = pipeline.finish()
        subjects = {v.subject_id for v in report.fused}
        assert entity_subject("fp1") in subjects
        assert "S0000001" in subjects

    def test_finish_twice_raises(self):
        pipeline = StreamPipeline(adapters=[])
        pipeline.finish()
        with pytest.raises(RuntimeError):
            pipeline.finish()
        with pytest.raises(RuntimeError):
            pipeline.process(make_entry(1.0))

    def test_invalid_evict_every(self):
        with pytest.raises(ValueError):
            StreamPipeline(adapters=[], evict_every=0)


class TestVelocityAdapters:
    def test_convicts_at_threshold_within_window(self):
        adapter = HoldVelocityAdapter(threshold=3, window=100.0)
        verdicts = []
        for i in range(3):
            verdicts.extend(
                adapter.on_entry(make_entry(float(i), path=HOLD), float(i))
            )
        assert len(verdicts) == 1
        assert verdicts[0].subject_id == entity_subject("fp1")
        assert verdicts[0].is_bot
        assert adapter.convictions == 1

    def test_window_slides(self):
        adapter = HoldVelocityAdapter(threshold=3, window=10.0)
        for t in (0.0, 5.0, 20.0, 25.0):
            assert not list(
                adapter.on_entry(make_entry(t, path=HOLD), t)
            )

    def test_ignores_other_paths_and_convicts_once(self):
        adapter = HoldVelocityAdapter(threshold=2, window=100.0)
        assert not list(
            adapter.on_entry(make_entry(0.0, path="/search"), 0.0)
        )
        verdicts = []
        for t in (1.0, 2.0, 3.0, 4.0):
            verdicts.extend(
                adapter.on_entry(make_entry(t, path=HOLD), t)
            )
        assert len(verdicts) == 1  # no re-conviction spam
        assert adapter.tracked_clients == 0  # tally dropped on conviction

    def test_evict_idle_bounds_tracked_clients(self):
        adapter = HoldVelocityAdapter(threshold=5, window=50.0)
        for i in range(200):
            t = float(i * 100)
            adapter.on_entry(
                make_entry(t, path=HOLD, fingerprint=f"fp{i}"), t
            )
            adapter.evict_idle(t, idle_gap=50.0)
        assert adapter.tracked_clients <= 2
        assert adapter.peak_tracked_clients <= 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HoldVelocityAdapter(threshold=0, window=10.0)
        with pytest.raises(ValueError):
            HoldVelocityAdapter(threshold=1, window=0.0)


def _fast_config(**kwargs):
    return StreamCaseAConfig(
        seed=5,
        visitor_rate_per_hour=6.0,
        attacker_target_seats=60,
        attack_start=1 * DAY,
        departure_time=3 * DAY,
        stop_before_departure=1 * DAY,
        **kwargs,
    )


class TestOnlineMitigation:
    def test_streaming_blocks_mid_run(self):
        result = run_stream_case_a(_fast_config())
        assert result.sink is not None
        # The attacker got blocked while the simulation was running …
        assert result.base.attacker_blocks_encountered > 0
        assert result.base.attacker_rotations > 0
        # … starting within the first hold burst.
        assert result.time_to_first_block is not None
        assert result.time_to_first_block < 1 * HOUR
        assert result.online_actions > 1  # chased through rotations

    def test_ablation_never_blocks(self):
        result = run_stream_case_a(_fast_config(streaming=False))
        assert result.report is None
        assert result.time_to_first_block is None
        assert result.online_actions == 0
        assert result.base.attacker_blocks_encountered == 0
        assert result.base.attacker_rotations == 0

    def test_honeypot_mode_routes_instead_of_blocking(self):
        result = run_stream_case_a(_fast_config(honeypot_mode=True))
        # Decoy inventory: the attacker never sees a block, never
        # rotates, and shadow seats absorb the holds.
        assert result.base.attacker_blocks_encountered == 0
        assert result.base.attacker_rotations == 0
        assert result.online_actions == 1
        assert result.sink.honeypot.shadow_seats_absorbed() > 0

    def test_sink_ignores_session_subjects(self):
        from repro.scenarios.world import WorldConfig, build_world
        from repro.scenarios.world import default_flight_schedule

        world = build_world(
            WorldConfig(seed=1, flights=default_flight_schedule(2, DAY))
        )
        sink = OnlineVerdictSink(world.app)
        sink.handle(
            Verdict("S0000001", "fusion", 0.9, True, ()), now=0.0
        )
        assert sink.actions_taken == 0
        assert sink.session_verdicts_ignored == 1
        sink.handle(
            Verdict(entity_subject("fpX"), "fusion", 0.9, True, ()),
            now=5.0,
        )
        assert sink.actions_taken == 1
        assert sink.first_block_time == 5.0


class TestBoundedMemoryAtScale:
    def test_ten_x_traffic_keeps_working_set_bounded(self):
        """Acceptance criterion: peak keyed-store sizes stay bounded on
        a 10x-traffic run (10x the streaming default visitor rate)."""
        result = run_stream_case_a(
            StreamCaseAConfig(
                seed=9,
                visitor_rate_per_hour=120.0,
                attacker_target_seats=60,
                attack_start=12 * HOUR,
                departure_time=2 * DAY,
                stop_before_departure=12 * HOUR,
            )
        )
        report = result.report
        assert report.events_processed > 10_000
        assert report.sessions_closed > 2_000
        # The open-session table tracks concurrency, not history: it
        # must stay around the number of clients active inside one
        # idle-gap window, orders of magnitude below the total.
        assert report.peak_open_sessions < 600
        assert report.peak_open_sessions < report.sessions_closed / 10
        assert result.peak_tracked_clients < 600
