"""The learned-vs-hand-tuned case study runs end to end.

Regression: the hand-tuned arm's fingerprint family reads the
evaluation world's :class:`~repro.core.detection.session_index.
SessionIndex`; the case once handed it a list of ``Session`` objects
and crashed with ``AttributeError`` before scoring either arm.
"""

from repro.scenarios.learned import LearnedCaseConfig, learned_case_cell


def test_quick_cell_completes_and_learned_arm_beats_hand_tuned():
    metrics = learned_case_cell(
        LearnedCaseConfig(
            ticks_short=True, model="logistic", training_worlds=1
        )
    )["metrics"]
    assert metrics["learned_recall"] > metrics["hand_recall"]
