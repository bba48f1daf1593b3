"""Feature-vector rungs of the trainable model ladder.

Both models here read the standardised 16-feature session vector (see
:mod:`repro.core.detection.features`) and share one interface with the
sequence encoder in :mod:`repro.ml.encoder`:

``fit(dataset, rng)``
    deterministic full-batch gradient descent; all randomness comes
    from the caller's seeded generator, so the same ``(dataset, seed)``
    yields bit-identical weights;
``predict_proba(dataset)``
    bot probability per row;
``get_state()`` / ``from_state()``
    plain ``(header, arrays)`` pairs for the RPML on-disk format.

Training is class-weighted cross-entropy with L2: the worlds these
models train on are overwhelmingly legitimate, and unweighted CE lets
a model buy low loss by never convicting anyone.  The logistic rung
can also train with uniform weights, as the E6 ``logistic-behaviour``
family does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .data import Dataset
from .standardize import Standardiser


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Clipped logistic for numerical stability at extreme logits."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def class_weights(labels: np.ndarray) -> np.ndarray:
    """Per-row weights balancing bot/legit mass (mean weight 1.0)."""
    n = len(labels)
    positives = float(labels.sum())
    negatives = n - positives
    if positives == 0.0 or negatives == 0.0:
        return np.ones(n)
    return np.where(
        labels >= 0.5, n / (2.0 * positives), n / (2.0 * negatives)
    )


def weighted_cross_entropy(
    probabilities: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> float:
    eps = 1e-12
    return float(
        -np.mean(
            weights
            * (
                labels * np.log(probabilities + eps)
                + (1 - labels) * np.log(1 - probabilities + eps)
            )
        )
    )


@dataclass
class TrainReport:
    """Convergence summary shared by every ladder rung."""

    #: Epochs actually run (fewer than configured after an early stop).
    epochs: int
    final_loss: float
    training_accuracy: float


def _check_trainable(dataset: Dataset) -> np.ndarray:
    if not dataset.labelled:
        raise ValueError("training dataset must be fully labelled")
    labels = dataset.labels
    if len(set(labels.tolist())) < 2:
        raise ValueError("training labels must contain both classes")
    return labels


class LogisticHead:
    """The ladder's baseline and the batch ``logistic-behaviour``
    family (E6): L2-regularised logistic regression over the feature
    vector, on :class:`~repro.ml.data.Dataset` so it trains, saves and
    scores through the identical harness as the bigger rungs.

    Two settings shape training only and are not saved with the model:
    ``balanced`` picks class-balanced row weights (the ladder's
    default) or uniform ones (the E6 family), and ``tolerance`` stops
    gradient descent once the loss changes by less than it between
    epochs, so ``TrainReport.epochs`` counts the epochs actually run.
    """

    kind = "logistic"

    def __init__(
        self,
        learning_rate: float = 0.1,
        l2: float = 1e-3,
        epochs: int = 800,
        threshold: float = 0.5,
        balanced: bool = True,
        tolerance: Optional[float] = None,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1): {threshold}")
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.threshold = threshold
        self.balanced = balanced
        self.tolerance = tolerance
        self.weights: Optional[np.ndarray] = None
        self.bias = 0.0
        self.standardiser: Optional[Standardiser] = None

    @property
    def fitted(self) -> bool:
        return self.weights is not None

    def fit(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> TrainReport:
        labels = _check_trainable(dataset)
        self.standardiser = Standardiser.fit(dataset.features)
        x = self.standardiser.transform(dataset.features)
        n, d = x.shape
        row_weights = class_weights(labels) if self.balanced else np.ones(n)
        # Symmetry is fine for a linear model; the rng argument keeps
        # the ladder interface uniform.
        del rng
        weights = np.zeros(d)
        bias = 0.0
        previous = loss = float("inf")
        epochs = 0
        for epochs in range(1, self.epochs + 1):
            probabilities = sigmoid(x @ weights + bias)
            residual = row_weights * (probabilities - labels)
            weights -= self.learning_rate * (
                x.T @ residual / n + self.l2 * weights
            )
            bias -= self.learning_rate * float(residual.mean())
            loss = weighted_cross_entropy(
                probabilities, labels, row_weights
            ) + 0.5 * self.l2 * float(weights @ weights)
            if self.tolerance is not None and abs(previous - loss) < (
                self.tolerance
            ):
                break
            previous = loss
        self.weights = weights
        self.bias = bias
        accuracy = float(
            np.mean(
                (self.predict_proba(dataset) >= self.threshold)
                == (labels >= 0.5)
            )
        )
        return TrainReport(
            epochs=epochs,
            final_loss=loss,
            training_accuracy=accuracy,
        )

    def predict_proba(self, dataset: Dataset) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("model is not fitted")
        assert self.standardiser is not None and self.weights is not None
        x = self.standardiser.transform(dataset.features)
        return sigmoid(x @ self.weights + self.bias)

    def get_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        if not self.fitted:
            raise RuntimeError("model is not fitted")
        assert self.standardiser is not None and self.weights is not None
        header = {
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "epochs": self.epochs,
            "threshold": self.threshold,
        }
        arrays = {
            "weights": self.weights,
            "bias": np.array([self.bias]),
            "mean": self.standardiser.mean,
            "std": self.standardiser.std,
        }
        return header, arrays

    @classmethod
    def from_state(
        cls,
        header: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "LogisticHead":
        model = cls(
            learning_rate=float(header["learning_rate"]),
            l2=float(header["l2"]),
            epochs=int(header["epochs"]),
            threshold=float(header["threshold"]),
        )
        model.weights = arrays["weights"]
        model.bias = float(arrays["bias"][0])
        model.standardiser = Standardiser(
            mean=arrays["mean"], std=arrays["std"]
        )
        return model


class MLPHead:
    """One-hidden-layer tanh MLP over the standardised feature vector.

    Big enough to learn the feature interactions the linear baseline
    cannot (e.g. *low* volume combined with a zero hold-to-pay ratio),
    small enough that full-batch NumPy training takes well under a
    second on the case-study worlds.
    """

    kind = "mlp"

    def __init__(
        self,
        hidden: int = 32,
        learning_rate: float = 0.05,
        l2: float = 1e-4,
        epochs: int = 400,
        threshold: float = 0.5,
    ) -> None:
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.threshold = threshold
        self.params: Dict[str, np.ndarray] = {}
        self.standardiser: Optional[Standardiser] = None

    @property
    def fitted(self) -> bool:
        return bool(self.params)

    def _init_params(
        self, d: int, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        scale1 = 1.0 / np.sqrt(d)
        scale2 = 1.0 / np.sqrt(self.hidden)
        return {
            "w1": rng.normal(0.0, scale1, size=(d, self.hidden)),
            "b1": np.zeros(self.hidden),
            "w2": rng.normal(0.0, scale2, size=self.hidden),
            "b2": np.zeros(1),
        }

    def _forward(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self.params["w1"] + self.params["b1"])
        logits = hidden @ self.params["w2"] + self.params["b2"][0]
        return sigmoid(logits), hidden

    def fit(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> TrainReport:
        labels = _check_trainable(dataset)
        self.standardiser = Standardiser.fit(dataset.features)
        x = self.standardiser.transform(dataset.features)
        row_weights = class_weights(labels)
        n, d = x.shape
        self.params = self._init_params(d, rng)
        loss = float("inf")
        for _ in range(self.epochs):
            probabilities, hidden = self._forward(x)
            # dL/dlogit for weighted mean CE.
            dlogits = row_weights * (probabilities - labels) / n
            dw2 = hidden.T @ dlogits + self.l2 * self.params["w2"]
            db2 = float(dlogits.sum())
            dhidden = np.outer(dlogits, self.params["w2"]) * (
                1.0 - hidden**2
            )
            dw1 = x.T @ dhidden + self.l2 * self.params["w1"]
            db1 = dhidden.sum(axis=0)
            self.params["w1"] -= self.learning_rate * dw1
            self.params["b1"] -= self.learning_rate * db1
            self.params["w2"] -= self.learning_rate * dw2
            self.params["b2"][0] -= self.learning_rate * db2
            loss = weighted_cross_entropy(
                probabilities, labels, row_weights
            ) + 0.5 * self.l2 * (
                float((self.params["w1"] ** 2).sum())
                + float(self.params["w2"] @ self.params["w2"])
            )
        accuracy = float(
            np.mean(
                (self.predict_proba(dataset) >= self.threshold)
                == (labels >= 0.5)
            )
        )
        return TrainReport(
            epochs=self.epochs,
            final_loss=loss,
            training_accuracy=accuracy,
        )

    def predict_proba(self, dataset: Dataset) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("model is not fitted")
        assert self.standardiser is not None
        x = self.standardiser.transform(dataset.features)
        probabilities, _ = self._forward(x)
        return probabilities

    def get_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        if not self.fitted:
            raise RuntimeError("model is not fitted")
        assert self.standardiser is not None
        header = {
            "hidden": self.hidden,
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "epochs": self.epochs,
            "threshold": self.threshold,
        }
        arrays = dict(self.params)
        arrays["mean"] = self.standardiser.mean
        arrays["std"] = self.standardiser.std
        return header, arrays

    @classmethod
    def from_state(
        cls,
        header: Dict[str, object],
        arrays: Dict[str, np.ndarray],
    ) -> "MLPHead":
        model = cls(
            hidden=int(header["hidden"]),
            learning_rate=float(header["learning_rate"]),
            l2=float(header["l2"]),
            epochs=int(header["epochs"]),
            threshold=float(header["threshold"]),
        )
        model.params = {
            name: arrays[name] for name in ("w1", "b1", "w2", "b2")
        }
        model.standardiser = Standardiser(
            mean=arrays["mean"], std=arrays["std"]
        )
        return model
