"""The learned arm as a detector family.

Wraps any fitted ladder rung behind the surface every other session
family exposes — ``judge_index(index)`` over a
:class:`~repro.core.detection.session_index.SessionIndex`, returning
:class:`~repro.core.detection.verdict.Verdict` — so the fusion layer,
the streaming :class:`~repro.stream.adapters.SessionDetectorAdapter`
(one index per block of closed sessions) and the benchmark harnesses
treat a trained model exactly like the hand-tuned detectors.  The
family name ``learned-sequence`` is the seventh entry in the fusion
weight table.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

from ..core.detection.verdict import Verdict
from .data import build_dataset_columnar
from .io import ModelType, load_model

#: Fusion-family name for learned-model verdicts.
LEARNED_DETECTOR = "learned-sequence"


class LearnedSessionDetector:
    """Scores sessions with a trained model from the ladder.

    ``threshold`` defaults to the model's own (usually FPR-calibrated
    at train time, see :mod:`repro.ml.train`); subjects are session
    ids, like every other session-level family.
    """

    name = LEARNED_DETECTOR

    def __init__(self, model: ModelType) -> None:
        if not model.fitted:
            raise ValueError("learned detector needs a fitted model")
        self.model = model

    @classmethod
    def from_file(
        cls, path: Union[str, Path]
    ) -> Tuple["LearnedSessionDetector", dict]:
        """Load a trained model and return ``(detector, meta)``."""
        model, meta = load_model(path)
        return cls(model), meta

    def _verdict(self, session_id: str, probability: float) -> Verdict:
        flagged = probability >= self.model.threshold
        return Verdict(
            subject_id=session_id,
            detector=self.name,
            score=float(probability),
            is_bot=bool(flagged),
            reasons=(f"{self.model.kind}-probability",) if flagged else (),
        )

    def judge_index(self, index) -> List[Verdict]:
        """Judge every session in a :class:`~repro.core.detection.
        session_index.SessionIndex` via the columnar dataset builder;
        reads the sessions' entries only, never their ground truth.
        Frozen weights make a session's probability independent of
        the batch it is scored in, up to float round-off in the
        matrix products."""
        if not len(index):
            return []
        dataset = build_dataset_columnar(index)
        probabilities = self.model.predict_proba(dataset)
        return [
            self._verdict(session_id, float(probability))
            for session_id, probability in zip(
                index.session_ids, probabilities
            )
        ]
