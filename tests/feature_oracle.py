"""Per-session feature reference for the columnar detector paths.

Matrix detectors read only ``session_ids`` and ``matrix`` from a
:class:`~repro.core.detection.session_index.SessionIndex`; these
helpers build both from ``extract_features`` one session at a time, so
tests can judge hand-built sessions and compare the columnar pass
against the per-object reference.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.detection.features import FEATURE_NAMES, extract_features


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
