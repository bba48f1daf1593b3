"""The learned-vs-hand-tuned case study runs end to end.

Regression: the hand-tuned arm's fingerprint family reads the
evaluation world's :class:`~repro.core.detection.session_index.
SessionIndex`; the case once handed it a list of ``Session`` objects
and crashed with ``AttributeError`` before scoring either arm.
"""

from repro.ml.train import dataset_digest
from repro.scenarios.learned import (
    LearnedCaseConfig,
    build_training_dataset,
    learned_case_cell,
)


def test_quick_cell_completes_and_learned_arm_beats_hand_tuned():
    metrics = learned_case_cell(
        LearnedCaseConfig(
            ticks_short=True, model="logistic", training_worlds=1
        )
    )["metrics"]
    assert metrics["learned_recall"] > metrics["hand_recall"]


def test_quick_rotated_training_dataset_is_pinned():
    """The training rows — encoding and stream close order — of the
    quick rotated config are fixed; the digest covers session ids,
    features, tokens, gaps and labels in row order."""
    dataset = build_training_dataset(
        LearnedCaseConfig(variant="rotated", ticks_short=True)
    )
    assert len(dataset) == 850
    assert dataset_digest(dataset) == "f78199c3d6ca1c14"
