"""Tests for the logistic classifier and clustering detectors."""

import hashlib

import numpy as np
import pytest

from repro.common import ClientRef, LEGIT, SCRAPER
from repro.core.detection.clustering import (
    ClusteringConfig,
    ClusteringDetector,
    kmeans,
)
from repro.core.detection.session_index import SessionIndex
from repro.ml.detector import LearnedSessionDetector
from repro.ml.models import LogisticHead
from repro.web.logs import LogEntry, Session
from repro.web.request import SEARCH
from tests.feature_oracle import build_dataset, object_index


def make_session(session_id, request_count, spacing=10.0, actor=LEGIT):
    client = ClientRef(
        ip_address="1.1.1.1",
        ip_country="US",
        ip_residential=True,
        fingerprint_id="fp",
        user_agent="UA",
        actor_class=actor,
    )
    entries = [
        LogEntry(
            time=i * spacing,
            method="GET",
            path=SEARCH,
            status=200,
            client=client,
        )
        for i in range(request_count)
    ]
    return Session(
        session_id=session_id,
        ip_address="1.1.1.1",
        fingerprint_id="fp",
        entries=entries,
    )


def separable_dataset(humans=20, scrapers=20):
    """Human-ish sessions and scraper-ish sessions, labelled."""
    human_sessions = [
        make_session(f"H{i}", request_count=4 + i % 3, spacing=40.0)
        for i in range(humans)
    ]
    scraper_sessions = [
        make_session(
            f"B{i}", request_count=300 + i, spacing=1.0, actor=SCRAPER
        )
        for i in range(scrapers)
    ]
    sessions = human_sessions + scraper_sessions
    labels = [False] * humans + [True] * scrapers
    return sessions, labels


def uniform_head(**overrides):
    """The E6 ``logistic-behaviour`` family's training settings."""
    settings = dict(
        epochs=2000, balanced=False, tolerance=1e-7, threshold=0.5
    )
    settings.update(overrides)
    return LogisticHead(**settings)


def fit(model, sessions, labels):
    dataset = build_dataset(sessions, labels=labels)
    return model.fit(dataset, np.random.default_rng(0)), dataset


class TestLogisticClassifier:
    def test_learns_separable_data(self):
        sessions, labels = separable_dataset()
        model = uniform_head()
        report, dataset = fit(model, sessions, labels)
        assert report.training_accuracy == 1.0
        probabilities = model.predict_proba(dataset)
        assert probabilities[:20].max() < 0.5
        assert probabilities[20:].min() > 0.5

    def test_judge_all_threshold(self):
        sessions, labels = separable_dataset()
        model = uniform_head()
        fit(model, sessions, labels)
        detector = LearnedSessionDetector(model)
        verdicts = detector.judge_index(
            SessionIndex.from_sessions(sessions)
        )
        assert sum(v.is_bot for v in verdicts) == 20

    def test_unfitted_predict_raises(self):
        sessions, labels = separable_dataset()
        with pytest.raises(RuntimeError):
            uniform_head().predict_proba(build_dataset(sessions, labels))

    def test_label_mismatch_rejected(self):
        sessions, _ = separable_dataset()
        with pytest.raises(ValueError):
            fit(uniform_head(), sessions, [True])

    def test_single_class_rejected(self):
        sessions, _ = separable_dataset()
        with pytest.raises(ValueError):
            fit(uniform_head(), sessions, [True] * len(sessions))

    def test_bad_threshold(self):
        for threshold in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                LogisticHead(threshold=threshold)

    def test_deterministic_training(self):
        sessions, labels = separable_dataset()
        a, b = uniform_head(), uniform_head()
        _, dataset = fit(a, sessions, labels)
        fit(b, sessions, labels)
        assert np.array_equal(
            a.predict_proba(dataset), b.predict_proba(dataset)
        )

    def test_reproduces_retired_session_classifier(self):
        """Unit weights and the loss-change stop reproduce, bit for
        bit, the weights, bias and probabilities of the standalone
        session classifier this head replaced (digest recorded from
        that classifier on this fixture)."""
        sessions, labels = separable_dataset()
        model = uniform_head()
        report, dataset = fit(model, sessions, labels)
        digest = hashlib.sha256()
        digest.update(model.weights.tobytes())
        digest.update(np.array([model.bias]).tobytes())
        digest.update(model.predict_proba(dataset).tobytes())
        assert digest.hexdigest() == (
            "0c0525f9898c5bcf28f65aab166899c4064c43b490c4938394d248af1228252e"
        )
        assert report.epochs == 2000

    def test_tolerance_stops_early_and_reports_epochs_run(self):
        sessions, labels = separable_dataset()
        loose = uniform_head(tolerance=1e-3)
        report, _ = fit(loose, sessions, labels)
        assert 1 < report.epochs < loose.epochs
        unbounded = uniform_head(tolerance=None, epochs=report.epochs)
        fit(unbounded, sessions, labels)
        assert np.array_equal(loose.weights, unbounded.weights)
        assert loose.bias == unbounded.bias

    def test_balanced_weights_differ_from_uniform(self):
        sessions, labels = separable_dataset(humans=30, scrapers=5)
        balanced, uniform = LogisticHead(epochs=50), LogisticHead(
            epochs=50, balanced=False
        )
        fit(balanced, sessions, labels)
        fit(uniform, sessions, labels)
        assert not np.array_equal(balanced.weights, uniform.weights)


class TestKmeans:
    def test_separates_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0.0, 0.3, size=(30, 2))
        blob_b = rng.normal(5.0, 0.3, size=(30, 2))
        data = np.vstack([blob_a, blob_b])
        labels, centroids = kmeans(data, 2, np.random.default_rng(1))
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]
        assert centroids.shape == (2, 2)

    def test_k_validation(self):
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(data, 0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            kmeans(data, 4, np.random.default_rng(1))

    def test_k_equals_n(self):
        data = np.arange(6, dtype=float).reshape(3, 2)
        labels, _ = kmeans(data, 3, np.random.default_rng(1))
        assert len(set(labels)) == 3

    def test_empty_cluster_is_reseeded(self):
        """Regression: this input used to leave cluster 3 empty — two
        far-away outlier points capture the k-means++ seeds, the first
        Lloyd sweep moves every main-blob point onto one centroid, and
        the starved cluster's stale centroid silently reduced the
        effective k.  The repair re-seeds starved clusters at the point
        farthest from its assigned centroid."""
        g = np.random.default_rng(6869)
        data = np.vstack([
            g.uniform(0.0, 1.0, size=(int(g.integers(4, 15)), 2)),
            g.uniform(100.0, 101.0, size=(2, 2)),
        ])
        k = int(g.integers(3, min(8, len(data))))
        labels, centroids = kmeans(
            data, k, np.random.default_rng(6869 + len(data))
        )
        assert len(set(labels)) == k
        for cluster in range(k):
            assert (labels == cluster).sum() > 0
        assert centroids.shape == (k, data.shape[1])

    def test_duplicate_points_do_not_force_reseeding(self):
        """All-identical data cannot fill k clusters; the repair must
        not loop or fabricate spread from zero distances."""
        data = np.ones((5, 2))
        labels, centroids = kmeans(data, 3, np.random.default_rng(2))
        assert set(labels) == {labels[0]}
        assert np.allclose(centroids[labels[0]], 1.0)

    def test_fewer_distinct_rows_than_k_converges(self):
        """Regression: Case C's session matrix has two distinct rows.
        With k = 4, a member mean a rounding error off its rows gave
        the re-seed a positive distance every round, so two empty
        clusters pulled points back and forth until the iteration cap
        and the labels depended on ``max_iterations``.  Two distinct
        rows now make two clusters; the other two stay empty."""
        rows = np.random.default_rng(0).normal(size=(2, 3))
        data = np.repeat(rows, [53, 7], axis=0)
        labels, centroids = kmeans(
            data, 4, np.random.default_rng(0), max_iterations=100
        )
        longer, _ = kmeans(
            data, 4, np.random.default_rng(0), max_iterations=101
        )
        assert np.array_equal(labels, longer)
        assert sorted(np.bincount(labels, minlength=4)) == [0, 0, 7, 53]
        assert len(set(labels[:53])) == len(set(labels[53:])) == 1
        assert centroids.shape == (4, 3)
        assert np.isnan(centroids[2:]).all()


class TestClusteringDetector:
    def test_flags_extreme_cluster(self):
        # A realistic mix: bots are a small minority, so the population
        # median stays at the human level.
        sessions, _ = separable_dataset(humans=40, scrapers=5)
        detector = ClusteringDetector(
            np.random.default_rng(7), ClusteringConfig(k=2)
        )
        verdicts = {
            v.subject_id: v
            for v in detector.judge_index(object_index(sessions))
        }
        scraper_flagged = sum(verdicts[f"B{i}"].is_bot for i in range(5))
        human_flagged = sum(verdicts[f"H{i}"].is_bot for i in range(40))
        assert scraper_flagged == 5
        assert human_flagged == 0

    def test_small_input_returns_clean_verdicts(self):
        detector = ClusteringDetector(
            np.random.default_rng(7), ClusteringConfig(k=4)
        )
        sessions = [make_session("S1", 3)]
        verdicts = detector.judge_index(object_index(sessions))
        assert len(verdicts) == 1
        assert not verdicts[0].is_bot

    def test_homogeneous_population_unflagged(self):
        """Without an extreme cluster, nothing is labelled bot."""
        sessions = [
            make_session(f"S{i}", request_count=5 + i % 4, spacing=30.0)
            for i in range(30)
        ]
        detector = ClusteringDetector(np.random.default_rng(3))
        verdicts = detector.judge_index(object_index(sessions))
        assert not any(v.is_bot for v in verdicts)
