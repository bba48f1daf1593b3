"""Logistic-regression session classifier (from scratch, NumPy).

The supervised end of the behaviour-based spectrum (Section III-A):
train on labelled sessions, predict bot probability from the session
feature vector.  Implemented directly — standardisation, L2-regularised
cross-entropy, batch gradient descent — so the library has no ML
dependencies and the training procedure is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ...ml.models import sigmoid
from ...ml.standardize import Standardiser
from .verdict import Verdict


@dataclass
class TrainingReport:
    """Convergence summary returned by
    :meth:`LogisticSessionClassifier.fit_matrix`."""

    iterations: int
    final_loss: float
    training_accuracy: float


class LogisticSessionClassifier:
    """L2-regularised logistic regression over session features.

    Subjects are session ids.  ``threshold`` converts probability to the
    binary ``is_bot`` verdict.
    """

    name = "logistic-behaviour"

    def __init__(
        self,
        learning_rate: float = 0.1,
        l2: float = 1e-3,
        max_iterations: int = 2000,
        tolerance: float = 1e-7,
        threshold: float = 0.5,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1): {threshold}")
        self.learning_rate = learning_rate
        self.l2 = l2
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.threshold = threshold
        self._weights: Optional[np.ndarray] = None
        self._bias = 0.0
        self._standardiser: Optional[Standardiser] = None

    @property
    def fitted(self) -> bool:
        return self._weights is not None

    def _standardise(self, matrix: np.ndarray) -> np.ndarray:
        # Shared constant-column-safe standardisation (repro.ml); the
        # old per-model copy clamped only exact std == 0.0 and turned
        # constant non-zero columns into amplified rounding noise.
        assert self._standardiser is not None
        return self._standardiser.transform(matrix)

    def fit_matrix(
        self, matrix: np.ndarray, labels: Sequence[bool]
    ) -> TrainingReport:
        """Train on a session feature matrix (True = bot), e.g. a
        :class:`~repro.core.detection.session_index.SessionIndex`'s
        ``matrix``."""
        if matrix.shape[0] != len(labels):
            raise ValueError(
                f"{matrix.shape[0]} feature rows but {len(labels)} labels"
            )
        if matrix.shape[0] < 2:
            raise ValueError("need at least two training sessions")
        target = np.asarray(labels, dtype=float)
        if len({bool(label) for label in labels}) < 2:
            raise ValueError("training labels must contain both classes")

        self._standardiser = Standardiser.fit(matrix)
        x = self._standardise(matrix)

        n_samples, n_features = x.shape
        weights = np.zeros(n_features)
        bias = 0.0
        previous_loss = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            probabilities = sigmoid(x @ weights + bias)
            gradient_w = (
                x.T @ (probabilities - target) / n_samples
                + self.l2 * weights
            )
            gradient_b = float(np.mean(probabilities - target))
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
            eps = 1e-12
            loss = float(
                -np.mean(
                    target * np.log(probabilities + eps)
                    + (1 - target) * np.log(1 - probabilities + eps)
                )
                + 0.5 * self.l2 * float(weights @ weights)
            )
            if abs(previous_loss - loss) < self.tolerance:
                break
            previous_loss = loss

        self._weights = weights
        self._bias = bias
        predictions = self.predict_proba_matrix(matrix) >= self.threshold
        accuracy = float(np.mean(predictions == (target >= 0.5)))
        return TrainingReport(
            iterations=iterations,
            final_loss=previous_loss,
            training_accuracy=accuracy,
        )

    def predict_proba_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Bot probability per feature-matrix row."""
        if not self.fitted:
            raise RuntimeError("classifier is not fitted")
        if matrix.shape[0] == 0:
            return np.zeros(0)
        x = self._standardise(matrix)
        assert self._weights is not None
        return sigmoid(x @ self._weights + self._bias)

    def _verdicts(
        self, session_ids: Sequence[str], probabilities: np.ndarray
    ) -> List[Verdict]:
        return [
            Verdict(
                subject_id=session_id,
                detector=self.name,
                score=float(probability),
                is_bot=bool(probability >= self.threshold),
                reasons=("model-probability",),
            )
            for session_id, probability in zip(session_ids, probabilities)
        ]

    def judge_index(self, index) -> List[Verdict]:
        """Judge every session in a :class:`~repro.core.detection.
        session_index.SessionIndex` from its feature matrix."""
        return self._verdicts(
            index.session_ids, self.predict_proba_matrix(index.matrix)
        )
