"""Learned detection arm: datasets, model ladder, training.

``repro.ml`` holds everything trainable: the shared constant-column-safe
:class:`~repro.ml.standardize.Standardiser`, the
:class:`~repro.ml.data.Dataset` of feature vectors and event sequences
(built from a ``SessionIndex``, persisted as one ``.npz``), the model
ladder (logistic baseline, MLP head, attention encoder over
per-session event sequences), the versioned on-disk model format, and
the deterministic training loop behind ``repro train`` /
``repro predict``.
"""

from .data import Dataset, build_dataset_columnar
from .detector import LEARNED_DETECTOR, LearnedSessionDetector
from .encoder import SequenceEncoder
from .io import load_model, save_model
from .models import LogisticHead, MLPHead, TrainReport
from .standardize import Standardiser
from .train import (
    TrainConfig,
    TrainResult,
    config_hash,
    dataset_digest,
    train_model,
    weights_digest,
)

__all__ = [
    "Dataset",
    "LEARNED_DETECTOR",
    "LearnedSessionDetector",
    "LogisticHead",
    "MLPHead",
    "SequenceEncoder",
    "Standardiser",
    "TrainConfig",
    "TrainReport",
    "TrainResult",
    "build_dataset_columnar",
    "config_hash",
    "dataset_digest",
    "load_model",
    "save_model",
    "train_model",
    "weights_digest",
]
