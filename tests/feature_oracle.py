"""Per-session feature reference for the columnar detector paths.

Matrix detectors read only ``session_ids`` and ``matrix`` from a
:class:`~repro.core.detection.session_index.SessionIndex`; these
helpers build both from ``extract_features`` one session at a time, so
tests can judge hand-built sessions and compare the columnar pass
against the per-object reference.  :func:`build_dataset` does the same
for the learned arm's :class:`~repro.ml.data.Dataset`, encoding each
session with ``extract_features`` + ``encode_sequence`` — the
reference ``build_dataset_columnar`` is tested against.
"""

from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.detection.features import FEATURE_NAMES, extract_features
from repro.ml.data import (
    MAX_SEQUENCE_LENGTH,
    PAD_TOKEN,
    Dataset,
    encode_sequence,
)


def object_matrix(sessions) -> np.ndarray:
    """One ``extract_features`` vector per session, in session order."""
    matrix = np.zeros((len(sessions), len(FEATURE_NAMES)))
    for row, session in enumerate(sessions):
        matrix[row] = extract_features(session).vector()
    return matrix


def object_index(sessions) -> SimpleNamespace:
    """What ``judge_index`` reads of a ``SessionIndex``, built from
    :func:`object_matrix` instead of the columnar pass."""
    return SimpleNamespace(
        session_ids=[session.session_id for session in sessions],
        matrix=object_matrix(sessions),
    )


def build_dataset(
    sessions,
    labels: Optional[Sequence[bool]] = None,
    with_truth: bool = False,
) -> Dataset:
    """Encode sessions into a :class:`Dataset`, one at a time.

    ``labels`` supplies explicit ground truth; ``with_truth=True``
    reads it from the simulation labels instead.  With neither, the
    dataset is unlabelled.
    """
    sessions = list(sessions)
    if labels is not None and len(labels) != len(sessions):
        raise ValueError(
            f"{len(sessions)} sessions but {len(labels)} labels"
        )
    n = len(sessions)
    features = np.zeros((n, len(FEATURE_NAMES)))
    tokens = np.full(
        (n, MAX_SEQUENCE_LENGTH), PAD_TOKEN, dtype=np.int16
    )
    gaps = np.zeros((n, MAX_SEQUENCE_LENGTH))
    target = np.full(n, np.nan)
    actor_classes: List[str] = []
    for row, session in enumerate(sessions):
        features[row] = extract_features(session).vector()
        tokens[row], gaps[row] = encode_sequence(session)
        if labels is not None:
            target[row] = float(labels[row])
        elif with_truth:
            target[row] = float(session.is_attacker)
        actor_classes.append(
            session.actor_class if (with_truth or labels is None) else ""
        )
    return Dataset(
        session_ids=[s.session_id for s in sessions],
        features=features,
        tokens=tokens,
        gaps=gaps,
        labels=target,
        actor_classes=actor_classes,
    )
