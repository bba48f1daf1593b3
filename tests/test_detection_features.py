"""Tests for the session feature vector and volume detection."""

import pytest

from repro.common import ClientRef, LEGIT
from repro.core.detection.features import FEATURE_NAMES
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.volume import VolumeDetector, VolumeThresholds
from repro.web.logs import LogEntry, Session, WebLog
from repro.web.request import HOLD, PAY, SEARCH
from tests.feature_oracle import extract_features


def make_session(times_paths, session_id="S1", statuses=None):
    client = ClientRef(
        ip_address="1.1.1.1",
        ip_country="US",
        ip_residential=True,
        fingerprint_id="fp",
        user_agent="UA",
        actor_class=LEGIT,
    )
    entries = []
    for index, (time, path) in enumerate(times_paths):
        status = statuses[index] if statuses else 200
        method = "GET" if path == SEARCH else "POST"
        entries.append(
            LogEntry(
                time=time,
                method=method,
                path=path,
                status=status,
                client=client,
            )
        )
    return Session(
        session_id=session_id,
        ip_address="1.1.1.1",
        fingerprint_id="fp",
        entries=entries,
    )


def judge(detector, session):
    """``detector``'s verdict on one session, through the index of a
    one-session block."""
    return detector.judge_index(SessionIndex.from_sessions([session]))[0]


def one_request_per_client_log(clients):
    """A log of one search request from each of ``clients`` visitors."""
    log = WebLog()
    for i in range(clients):
        log.append_fields(
            float(i), "GET", SEARCH, 200,
            ClientRef(
                ip_address=f"1.1.1.{i}",
                ip_country="US",
                ip_residential=True,
                fingerprint_id=f"fp{i}",
                user_agent="UA",
                actor_class=LEGIT,
            ),
        )
    return log


class TestExtractFeatures:
    def test_counts(self):
        session = make_session(
            [(0.0, SEARCH), (10.0, HOLD), (20.0, HOLD), (30.0, PAY)]
        )
        features = extract_features(session)
        assert features.request_count == 4
        assert features.search_count == 1
        assert features.hold_count == 2
        assert features.pay_count == 1
        assert features.hold_to_pay_gap == 1
        assert features.get_fraction == 0.25
        assert features.post_fraction == 0.75

    def test_timing_statistics(self):
        session = make_session([(0.0, SEARCH), (10.0, SEARCH), (20.0, SEARCH)])
        features = extract_features(session)
        assert features.mean_interrequest == 10.0
        assert features.cv_interrequest == 0.0  # perfectly regular

    def test_irregular_timing_has_cv(self):
        session = make_session([(0.0, SEARCH), (1.0, SEARCH), (100.0, SEARCH)])
        assert extract_features(session).cv_interrequest > 0.5

    def test_single_request_session(self):
        features = extract_features(make_session([(5.0, SEARCH)]))
        assert features.request_count == 1
        assert features.duration_minutes == 0.0
        assert features.mean_interrequest == 0.0
        assert features.requests_per_minute == 1.0  # 1-minute floor

    def test_error_fraction(self):
        session = make_session(
            [(0.0, SEARCH), (1.0, SEARCH)], statuses=[200, 403]
        )
        assert extract_features(session).error_fraction == 0.5

    def test_vector_matches_names(self):
        features = extract_features(make_session([(0.0, SEARCH)]))
        vector = features.vector()
        assert len(vector) == len(FEATURE_NAMES)
        assert vector[FEATURE_NAMES.index("request_count")] == 1

    def test_feature_matrix_shape(self):
        index = SessionIndex.from_log(one_request_per_client_log(3))
        assert index.matrix.shape == (3, len(FEATURE_NAMES))

    def test_empty_matrix(self):
        index = SessionIndex.from_log(WebLog())
        assert index.matrix.shape == (0, len(FEATURE_NAMES))


class TestVolumeDetector:
    def test_low_volume_session_clean(self):
        detector = VolumeDetector()
        session = make_session([(0.0, SEARCH), (60.0, HOLD), (120.0, PAY)])
        verdict = judge(detector, session)
        assert not verdict.is_bot
        assert verdict.score < 0.5

    def test_scraper_volume_flagged(self):
        detector = VolumeDetector()
        entries = [(float(i), SEARCH) for i in range(500)]
        verdict = judge(detector, make_session(entries))
        assert verdict.is_bot
        assert "session-request-count" in verdict.reasons

    def test_high_rate_flagged(self):
        detector = VolumeDetector(
            VolumeThresholds(max_requests_per_minute=5.0)
        )
        # 100 requests in 5 minutes = 20/minute.
        entries = [(i * 3.0, SEARCH) for i in range(100)]
        verdict = judge(detector, make_session(entries))
        assert verdict.is_bot
        assert "request-rate" in verdict.reasons

    def test_short_burst_not_rate_flagged(self):
        """Three fast clicks are not a bot signature."""
        detector = VolumeDetector()
        entries = [(0.0, SEARCH), (0.5, SEARCH), (1.0, SEARCH)]
        assert not judge(detector, make_session(entries)).is_bot

    def test_low_volume_doi_evades(self):
        """The paper's core claim: a seat spinner's session volume is
        indistinguishable from a human shopper's."""
        detector = VolumeDetector()
        spinner_session = make_session(
            [(0.0, SEARCH), (30.0, HOLD), (3600.0, HOLD), (7200.0, HOLD)]
        )
        assert not judge(detector, spinner_session).is_bot

    def test_judge_all(self):
        detector = VolumeDetector()
        index = SessionIndex.from_log(one_request_per_client_log(4))
        verdicts = detector.judge_index(index)
        assert [v.subject_id for v in verdicts] == [
            "S0000001", "S0000002", "S0000003", "S0000004",
        ]
        assert verdicts == detector.judge_index(
            SessionIndex.from_sessions(index.sessions())
        )
