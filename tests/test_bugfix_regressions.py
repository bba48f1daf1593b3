"""Fails-on-pre-fix regressions for the three verdict/feature bugs.

Each test class pins one bug this PR fixed; every test here fails on
the pre-fix code:

* **verdict merge** — ``evaluate_verdicts`` resolved duplicate
  verdicts for one subject last-write-wins, so a benign verdict
  arriving after a bot verdict silently un-flagged the subject and the
  measured recall depended on detector order;
* **zero-entry sessions** — ``extract_features`` indexed
  ``entries[0]`` and ``session_actor`` called ``max()`` on an empty
  counter, so a session surfaced at a stream-eviction boundary before
  its first entry landed crashed the pipeline;
* **constant columns** — standardisation clamped zero-variance
  columns with an exact ``std == 0.0`` test, missing columns constant
  at a non-zero value whose float std is rounding residue (~1e-17);
  dividing by the residue amplified an information-free column into
  O(1e16) garbage.
"""

import numpy as np
import pytest

from repro.analysis.evaluation import (
    evaluate_verdicts,
    predicted_bot_map,
    recall_by_class,
    session_actor,
)
from repro.common import ClientRef, LEGIT, SCRAPER
from repro.core.detection.features import FEATURE_NAMES
from repro.core.detection.session_index import SessionIndex
from repro.core.detection.verdict import Verdict
from repro.ml.models import LogisticHead, MLPHead
from repro.ml.standardize import Standardiser
from repro.web.logs import LogEntry, Session
from repro.web.request import SEARCH
from tests.feature_oracle import build_dataset, extract_features


def make_session(session_id, actor=SCRAPER, entry_count=3):
    client = ClientRef(
        ip_address="9.9.9.9",
        ip_country="US",
        ip_residential=True,
        fingerprint_id=f"fp-{session_id}",
        user_agent="UA",
        actor="actor-1" if actor != LEGIT else "",
        actor_class=actor,
    )
    entries = [
        LogEntry(
            time=10.0 * i,
            method="GET",
            path=SEARCH,
            status=200,
            client=client,
        )
        for i in range(entry_count)
    ]
    return Session(
        session_id=session_id,
        ip_address=client.ip_address,
        fingerprint_id=client.fingerprint_id,
        entries=entries,
    )


def verdict(subject_id, is_bot, detector="volume"):
    return Verdict(
        subject_id=subject_id,
        detector=detector,
        score=0.9 if is_bot else 0.1,
        is_bot=is_bot,
        reasons=("flagged",) if is_bot else (),
    )


class TestVerdictMergeAnyBotWins:
    """A bot verdict must never be cancelled by a later benign one."""

    def test_benign_after_bot_keeps_subject_flagged(self):
        sessions = [make_session("S1")]
        verdicts = [
            verdict("S1", True, detector="volume"),
            verdict("S1", False, detector="clustering"),
        ]
        evaluation = evaluate_verdicts(sessions, verdicts)
        assert evaluation.true_positives == 1
        assert evaluation.false_negatives == 0
        assert evaluation.recall == 1.0

    def test_merge_is_order_independent(self):
        sessions = [
            make_session("S1"),
            make_session("S2", actor=LEGIT),
            make_session("S3"),
        ]
        verdicts = [
            verdict("S1", True, detector="a"),
            verdict("S1", False, detector="b"),
            verdict("S2", False, detector="a"),
            verdict("S3", False, detector="a"),
            verdict("S3", True, detector="b"),
        ]
        forward = evaluate_verdicts(sessions, verdicts)
        reverse = evaluate_verdicts(sessions, verdicts[::-1])
        assert forward == reverse
        assert forward.true_positives == 2
        assert predicted_bot_map(verdicts) == predicted_bot_map(
            verdicts[::-1]
        )

    def test_recall_by_class_uses_merged_flags(self):
        sessions = [make_session("S1", actor=SCRAPER)]
        verdicts = [
            verdict("S1", True, detector="a"),
            verdict("S1", False, detector="b"),
        ]
        assert recall_by_class(sessions, verdicts) == {SCRAPER: 1.0}

    def test_benign_only_subject_stays_benign(self):
        sessions = [make_session("S1", actor=LEGIT)]
        verdicts = [
            verdict("S1", False, detector="a"),
            verdict("S1", False, detector="b"),
        ]
        evaluation = evaluate_verdicts(sessions, verdicts)
        assert evaluation.false_positives == 0
        assert evaluation.true_negatives == 1


class TestZeroEntrySessionGuards:
    """Zero-entry sessions must not crash features or attribution."""

    def empty_session(self):
        return Session(
            session_id="empty",
            ip_address="1.2.3.4",
            fingerprint_id="fp-empty",
            entries=[],
        )

    def test_extract_features_returns_all_zeros(self):
        features = extract_features(self.empty_session())
        assert features.session_id == "empty"
        assert features.vector().tolist() == [0.0] * len(FEATURE_NAMES)

    def test_block_index_row_is_all_zeros(self):
        index = SessionIndex.from_sessions(
            [self.empty_session(), make_session("S1")]
        )
        assert index.matrix[0].tolist() == [0.0] * len(FEATURE_NAMES)
        assert index.matrix[1].tobytes() == (
            extract_features(make_session("S1")).vector().tobytes()
        )
        assert index.actor_classes == [LEGIT, SCRAPER]

    def test_session_actor_is_unattributed(self):
        assert session_actor(self.empty_session()) == ""

    def test_ground_truth_counts_as_legit(self):
        session = self.empty_session()
        assert session.actor_class == LEGIT
        assert not session.is_attacker

    def test_evaluation_handles_empty_session(self):
        sessions = [self.empty_session(), make_session("S1")]
        evaluation = evaluate_verdicts(
            sessions, [verdict("S1", True)]
        )
        assert evaluation.true_negatives == 1
        assert evaluation.true_positives == 1

    def test_dataset_build_handles_empty_session(self):
        dataset = build_dataset([self.empty_session()], with_truth=True)
        assert dataset.features.tolist() == [[0.0] * len(FEATURE_NAMES)]
        assert dataset.labels.tolist() == [0.0]


class TestConstantColumnStandardisation:
    """Constant non-zero columns must transform to exactly 0.0."""

    def test_float_residue_column_clamps_to_zero(self):
        # Three identical doubles whose float mean is NOT the value
        # itself: np.std is rounding residue (~1e-17), not 0.0, so the
        # pre-fix exact ``std == 0.0`` clamp misses it and divides an
        # information-free column by ~1e-17.
        column = np.full(3, 0.1)
        assert np.std(column) != 0.0  # the residue the old code divided by
        matrix = np.column_stack([column, np.array([1.0, 2.0, 3.0])])
        standardiser = Standardiser.fit(matrix)
        transformed = standardiser.transform(matrix)
        assert (transformed[:, 0] == 0.0).all()
        # The varying column still standardises normally.
        assert transformed[:, 1] == pytest.approx(
            (matrix[:, 1] - 2.0) / np.std(matrix[:, 1])
        )

    def test_transform_of_nearby_value_stays_bounded(self):
        # Pre-fix, an inference input one ulp from the training
        # constant divided by the ~1e-17 residue std → O(1e16)
        # activations reaching the weights.
        column = np.full(5, 0.1)
        standardiser = Standardiser.fit(
            np.column_stack([column, np.arange(5.0)])
        )
        probe = np.array([[np.nextafter(0.1, 1.0), 2.0]])
        assert abs(standardiser.transform(probe)[0, 0]) < 1e-10

    def test_exact_zero_column_also_clamps(self):
        matrix = np.column_stack(
            [np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0])]
        )
        transformed = Standardiser.fit(matrix).transform(matrix)
        assert (transformed[:, 0] == 0.0).all()

    @pytest.mark.parametrize(
        "model",
        [LogisticHead(epochs=100), MLPHead(epochs=100)],
        ids=["logistic", "mlp"],
    )
    def test_training_with_constant_feature_stays_finite(self, model):
        """Every session here has identical duration/rate/path-mix, so
        most feature columns are constant at non-zero values — training
        must stay finite and still separate on the varying columns."""
        sessions = (
            [
                make_session(f"H{i}", actor=LEGIT, entry_count=3)
                for i in range(8)
            ]
            + [
                make_session(f"B{i}", actor=SCRAPER, entry_count=30)
                for i in range(8)
            ]
        )
        dataset = build_dataset(
            sessions, labels=[False] * 8 + [True] * 8
        )
        feature_std = dataset.features.std(axis=0)
        assert (feature_std[feature_std != 0.0] > 0).any()
        report = model.fit(dataset, np.random.default_rng(0))
        assert np.isfinite(report.final_loss)
        _, arrays = model.get_state()
        for name, array in arrays.items():
            assert np.isfinite(array).all(), name
        probabilities = model.predict_proba(dataset)
        assert np.isfinite(probabilities).all()
        assert report.training_accuracy == 1.0
