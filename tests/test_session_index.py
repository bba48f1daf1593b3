"""Columnar session index vs the object-path reference.

:class:`~repro.core.detection.session_index.SessionIndex` must
reproduce ``sessionize()`` + ``extract_features()`` *exactly* — same
session ids in the same order, bit-identical feature matrix, same
ground-truth classes, equal ``Session`` objects, identical ML
encodings.  These tests pin that equality on randomized logs
engineered to hit the nasty corners (equal start times, exact
idle-gap boundaries, key interleavings, majority-class ties) plus
hypothesis-generated schedules, and then pin the verdict-level
equality of every matrix detector family against the same detectors
fed per-session ``extract_features`` rows.  The block constructor
(:meth:`~repro.core.detection.session_index.SessionIndex.
from_sessions`) is held to the same oracle over the blocks a
``StreamSessionizer`` closes, with and without a forcing cap.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ClientRef
from repro.core.detection.clustering import ClusteringDetector
from repro.core.detection.features import FEATURE_NAMES
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.volume import VolumeDetector
from repro.ml.data import build_dataset_columnar
from repro.ml.models import LogisticHead
from repro.obs.core import ObsRegistry
from repro.stream.sessionizer import StreamSessionizer
from repro.web.logs import LogEntry, WebLog
from tests.feature_oracle import build_dataset, object_index, object_matrix
from tests.session_oracle import sessionize

PATHS = [
    "/search", "/flight", "/hold", "/pay", "/login/otp",
    "/boarding-pass/sms", "/internal/prefetch", "/notify", "/misc",
]
CLASSES = ["legit", "scraper", "spinner"]


def _clients(count: int, rng: random.Random):
    return [
        ClientRef(
            ip_address=f"10.0.{i % 7}.{i % 37}",
            fingerprint_id=f"fp{i % 23}",
            actor_class=rng.choice(CLASSES),
            ip_country="US",
            ip_residential=True,
            user_agent="ua",
        )
        for i in range(count)
    ]


def _random_rows(rng: random.Random, count: int):
    """A time-ordered row set dense in ties and gap-boundary cases."""
    clients = _clients(40, rng)
    time = 0.0
    rows = []
    for _ in range(count):
        time += rng.choice(
            [0.0, 0.0, 1.0, 5.0, 1800.0, 1800.0000001, 1801.0,
             3600.0, rng.random() * 100]
        )
        rows.append((
            time,
            rng.choice(["GET", "POST", "HEAD"]),
            rng.choice(PATHS),
            rng.choice([200, 200, 200, 403, 429, 500]),
            rng.choice(clients),
        ))
    return rows


def _log(rows) -> WebLog:
    log = WebLog()
    for time, method, path, status, client in rows:
        log.append_fields(time, method, path, status, client)
    return log


def _assert_index_matches(log: WebLog, idle_gap: float) -> SessionIndex:
    sessions = sessionize(log, idle_gap)
    reference = object_matrix(sessions)
    index = SessionIndex.from_log(log, idle_gap)
    assert index.session_ids == [s.session_id for s in sessions]
    assert np.array_equal(reference, index.matrix), "matrix not bit-equal"
    assert index.ips == [s.ip_address for s in sessions]
    assert index.fingerprints == [s.fingerprint_id for s in sessions]
    assert index.actor_classes == [s.actor_class for s in sessions]
    assert index.sessions() == sessions
    assert list(index.counts) == [s.request_count for s in sessions]
    assert list(index.starts) == [s.start for s in sessions]
    assert list(index.ends) == [s.end for s in sessions]
    return index


#: Test-id suffix naming the log storage the index reads.
STORAGE = pytest.mark.parametrize("storage", ["columnar"])


class TestSessionIndexEquality:
    @STORAGE
    @pytest.mark.parametrize("idle_gap", [1800.0, 100.0, 0.5])
    @pytest.mark.parametrize("trial", range(3))
    def test_randomized_logs_match_object_path(
        self, storage, idle_gap, trial
    ):
        rng = random.Random(1000 * trial + int(idle_gap))
        rows = _random_rows(rng, rng.randint(1, 2500))
        _assert_index_matches(_log(rows), idle_gap)

    @STORAGE
    def test_empty_log(self, storage):
        index = SessionIndex.from_log(WebLog())
        assert len(index) == 0
        assert index.matrix.shape == (0, len(FEATURE_NAMES))
        assert index.sessions() == []
        tokens, gaps = index.sequences()
        assert tokens.shape[0] == 0 and gaps.shape[0] == 0

    def test_single_entry_log(self):
        rng = random.Random(5)
        log = _log(_random_rows(rng, 1))
        index = _assert_index_matches(log, 1800.0)
        assert len(index) == 1
        assert index.matrix[0, FEATURE_NAMES.index("request_count")] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0.0, 1.0, 1800.0, 1800.5, 10.0, 7200.0]),
            min_size=1,
            max_size=60,
        ),
        keys=st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=1,
            max_size=60,
        ),
    )
    def test_hypothesis_schedules(self, gaps, keys):
        """Key/gap schedules chosen adversarially by hypothesis."""
        rng = random.Random(9)
        clients = _clients(4, rng)
        log = WebLog()
        time = 0.0
        for gap, key in zip(gaps, keys):
            time += gap
            log.append_fields(time, "GET", "/search", 200, clients[key])
        _assert_index_matches(log, 1800.0)

    def test_majority_class_tie_breaks_on_first_appearance(self):
        """A 50/50 session resolves to whichever class appeared first,
        matching dict-insertion-order ``max()`` semantics."""
        base = dict(
            ip_address="1.2.3.4", fingerprint_id="fp", ip_country="US",
            ip_residential=True, user_agent="ua",
        )
        scraper = ClientRef(actor_class="scraper", **base)
        legit = ClientRef(actor_class="legit", **base)
        for first, second in ((scraper, legit), (legit, scraper)):
            log = WebLog()
            log.append_fields(0.0, "GET", "/search", 200, first)
            log.append_fields(1.0, "GET", "/search", 200, second)
            sessions = sessionize(log)
            index = SessionIndex.from_log(log)
            assert index.actor_classes == [sessions[0].actor_class]
            assert index.actor_classes[0] == first.actor_class

    def test_rejects_nonpositive_idle_gap(self):
        with pytest.raises(ValueError, match="idle_gap"):
            SessionIndex.from_log(WebLog(), idle_gap=0.0)

    def test_obs_instrumentation(self):
        rng = random.Random(3)
        log = _log(_random_rows(rng, 500))
        registry = ObsRegistry()
        index = SessionIndex.from_log(log, obs=registry)
        assert registry.counter("detect.sessions") == float(len(index))
        assert registry.counter("detect.entries") == 500.0
        timers = registry.timers("detect.features")
        assert timers and sum(t.count for t in timers.values()) == 1


def _stream_blocks(rows, idle_gap, cap):
    """Every non-empty block of sessions a ``StreamSessionizer``
    closes over ``rows`` (observe, a periodic ``close_idle``, the
    final flush), and the sessionizer."""
    sessionizer = StreamSessionizer(
        idle_gap=idle_gap, max_open_sessions=cap
    )
    blocks = []
    for position, (time, method, path, status, client) in enumerate(rows):
        blocks.append(sessionizer.observe(
            LogEntry(time, method, path, status, client)
        ))
        if position % 16 == 15:
            blocks.append(sessionizer.close_idle(time))
    blocks.append(sessionizer.flush())
    return [block for block in blocks if block], sessionizer


def _assert_block_matches(sessions):
    """``from_sessions`` over one block equals the per-session oracle
    row for row, byte for byte."""
    index = SessionIndex.from_sessions(sessions)
    reference = build_dataset(sessions, with_truth=True)
    assert index.session_ids == [s.session_id for s in sessions]
    assert index.matrix.tobytes() == reference.features.tobytes()
    tokens, gaps = index.sequences()
    assert tokens.tobytes() == reference.tokens.tobytes()
    assert gaps.tobytes() == reference.gaps.tobytes()
    assert list(index.counts) == [s.request_count for s in sessions]
    assert list(index.starts) == [s.start for s in sessions]
    assert list(index.ends) == [s.end for s in sessions]
    assert index.ips == [s.ip_address for s in sessions]
    assert index.fingerprints == [s.fingerprint_id for s in sessions]
    assert index.actor_classes == reference.actor_classes
    assert index.sessions() == list(sessions)


def _same_key_block(blocks):
    """Every session of ``blocks`` as one block, same-key sessions
    next to each other in start order."""
    return sorted(
        (session for block in blocks for session in block),
        key=lambda s: (s.ip_address, s.fingerprint_id, s.start),
    )


class TestBlockIndex:
    """``SessionIndex.from_sessions`` over stream-closed blocks."""

    @pytest.mark.parametrize("cap", [None, 6])
    @pytest.mark.parametrize("trial", range(3))
    def test_stream_blocks_match_oracle(self, cap, trial):
        rng = random.Random(2000 * trial + (cap or 0))
        rows = _random_rows(rng, rng.randint(200, 1500))
        blocks, sessionizer = _stream_blocks(rows, 1800.0, cap)
        if cap is not None:
            assert sessionizer.forced_closes > 0
        for block in blocks:
            _assert_block_matches(block)
        _assert_block_matches(_same_key_block(blocks))

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0.0, 1.0, 1800.0, 1800.5, 10.0, 7200.0]),
            min_size=1,
            max_size=60,
        ),
        keys=st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=1,
            max_size=60,
        ),
        cap=st.sampled_from([None, 1, 2]),
    )
    def test_hypothesis_blocks(self, gaps, keys, cap):
        """Key/gap schedules and caps chosen adversarially: a cap of
        one or two force-closes sessions that the same key reopens
        moments later, so the same-key block holds sessions of one
        key with no idle gap between them."""
        rng = random.Random(9)
        clients = _clients(4, rng)
        time = 0.0
        rows = []
        for gap, key in zip(gaps, keys):
            time += gap
            rows.append((
                time, rng.choice(["GET", "POST"]), rng.choice(PATHS),
                rng.choice([200, 403]), clients[key],
            ))
        blocks, _ = _stream_blocks(rows, 1800.0, cap)
        for block in blocks:
            _assert_block_matches(block)
        _assert_block_matches(_same_key_block(blocks))

    def test_empty_block(self):
        index = SessionIndex.from_sessions([])
        assert len(index) == 0
        assert index.matrix.shape == (0, len(FEATURE_NAMES))
        tokens, gaps = index.sequences()
        assert tokens.shape[0] == 0 and gaps.shape[0] == 0


class TestDetectorEquivalence:
    def _fixture(self):
        rng = random.Random(77)
        log = _log(_random_rows(rng, 2000))
        return sessionize(log), SessionIndex.from_log(log)

    def test_volume_verdicts_identical(self):
        sessions, index = self._fixture()
        detector = VolumeDetector()
        assert detector.judge_index(SessionIndex.from_sessions(sessions)) == (
            detector.judge_index(index)
        )

    def test_kmeans_verdicts_identical(self):
        sessions, index = self._fixture()
        object_path = ClusteringDetector(
            np.random.default_rng(42)
        ).judge_index(object_index(sessions))
        columnar = ClusteringDetector(
            np.random.default_rng(42)
        ).judge_index(index)
        assert object_path == columnar

    def test_logistic_training_and_verdicts_identical(self):
        sessions, index = self._fixture()
        labels = [s.is_attacker for s in sessions]
        if len(set(labels)) < 2:
            pytest.skip("fixture produced single-class labels")
        object_path = build_dataset(sessions, labels=labels)
        columnar = build_dataset_columnar(index, labels=index.is_attacker)
        reports, probabilities = [], []
        for dataset in (object_path, columnar):
            model = LogisticHead(epochs=200, balanced=False, tolerance=1e-7)
            reports.append(model.fit(dataset, np.random.default_rng(0)))
            probabilities.append(model.predict_proba(dataset))
        assert reports[0] == reports[1]
        assert np.array_equal(probabilities[0], probabilities[1])

    def test_ml_dataset_identical(self):
        sessions, index = self._fixture()
        reference = build_dataset(sessions, with_truth=True)
        columnar = build_dataset_columnar(index, with_truth=True)
        assert reference.session_ids == columnar.session_ids
        assert np.array_equal(reference.features, columnar.features)
        assert np.array_equal(reference.tokens, columnar.tokens)
        assert np.array_equal(reference.gaps, columnar.gaps)
        assert np.array_equal(reference.labels, columnar.labels)
        assert reference.actor_classes == columnar.actor_classes

    def test_ml_dataset_explicit_labels_and_copies(self):
        sessions, index = self._fixture()
        labels = [bool(i % 2) for i in range(len(index))]
        reference = build_dataset(sessions, labels=labels)
        columnar = build_dataset_columnar(index, labels=labels)
        assert np.array_equal(reference.labels, columnar.labels)
        assert reference.actor_classes == columnar.actor_classes
        # The dataset owns copies: mutating it must not corrupt the
        # index's cached arrays.
        columnar.tokens[:] = 0
        columnar.features[:] = -1.0
        assert not np.array_equal(columnar.tokens, index.sequences()[0])
        assert not np.array_equal(columnar.features, index.matrix)
        with pytest.raises(ValueError, match="labels"):
            build_dataset_columnar(index, labels=labels[:-1])
