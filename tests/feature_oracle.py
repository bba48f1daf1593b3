"""Per-session feature reference for the columnar detector paths.

:func:`extract_features` and :func:`encode_sequence` are the
executable specification of the session encoding: each encodes one
``Session`` object at a time with plain Python loops.
:class:`~repro.core.detection.session_index.SessionIndex` — the one
encoding in ``src/``, for a whole log and for a block of closed stream
sessions — is tested against them.  :func:`object_matrix` and
:func:`object_index` build what matrix detectors read of an index from
``extract_features``, so tests can judge hand-built sessions and
compare the columnar pass against the per-object reference;
:func:`build_dataset` does the same for the learned arm's
:class:`~repro.ml.data.Dataset`.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detection.features import FEATURE_NAMES
from repro.core.detection.session_index import ENDPOINT_ORDER
from repro.ml.data import (
    MAX_SEQUENCE_LENGTH,
    OUTCOME_COUNT,
    PAD_TOKEN,
    Dataset,
)
from repro.web.logs import Session
from repro.web.request import (
    BOARDING_PASS_SMS,
    FLIGHT_DETAILS,
    HOLD,
    OTP_LOGIN,
    PAY,
    SEARCH,
    TRAP,
)


@dataclass(frozen=True)
class SessionFeatures:
    """Named feature bundle for one session."""

    session_id: str
    request_count: int
    duration_minutes: float
    requests_per_minute: float
    get_fraction: float
    post_fraction: float
    unique_paths: int
    search_count: int
    details_count: int
    hold_count: int
    pay_count: int
    sms_request_count: int
    hold_to_pay_gap: int
    mean_interrequest: float
    cv_interrequest: float
    error_fraction: float
    trap_hits: int

    def vector(self) -> np.ndarray:
        """The feature vector in :data:`FEATURE_NAMES` order."""
        return np.array(
            [getattr(self, name) for name in FEATURE_NAMES], dtype=float
        )


def extract_features(session: Session) -> SessionFeatures:
    """Compute the behaviour feature bundle for one session.

    A zero-entry session yields the all-zeros bundle instead of
    dividing by its zero request count.
    """
    entries = session.entries
    count = len(entries)
    if count == 0:
        return SessionFeatures(
            session.session_id, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0,
            0, 0, 0.0, 0.0, 0.0, 0,
        )
    duration_min = session.duration / 60.0
    # A single-request session has zero duration; rate uses a 1-minute
    # floor so it stays finite and comparable.
    rate = count / max(duration_min, 1.0)

    gets = sum(1 for e in entries if e.method == "GET")
    posts = sum(1 for e in entries if e.method == "POST")
    paths = {e.path for e in entries}
    by_path = {
        SEARCH: 0,
        FLIGHT_DETAILS: 0,
        HOLD: 0,
        PAY: 0,
        OTP_LOGIN: 0,
        BOARDING_PASS_SMS: 0,
        TRAP: 0,
    }
    for entry in entries:
        if entry.path in by_path:
            by_path[entry.path] += 1
    errors = sum(1 for e in entries if e.status != 200)

    times = [e.time for e in entries]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    if gaps:
        mean_gap = sum(gaps) / len(gaps)
        # Squared deviation via multiplication, not ``** 2``: CPython
        # lowers float ``**`` to libm pow, which rounds differently
        # from multiply for ~0.1% of inputs — and the columnar path
        # (NumPy squares via multiply) must be bit-identical to this
        # reference.
        deviations = [g - mean_gap for g in gaps]
        variance = sum(d * d for d in deviations) / len(gaps)
        cv = math.sqrt(variance) / mean_gap if mean_gap > 0 else 0.0
    else:
        mean_gap = 0.0
        cv = 0.0

    sms_requests = by_path[OTP_LOGIN] + by_path[BOARDING_PASS_SMS]
    return SessionFeatures(
        session_id=session.session_id,
        request_count=count,
        duration_minutes=duration_min,
        requests_per_minute=rate,
        get_fraction=gets / count,
        post_fraction=posts / count,
        unique_paths=len(paths),
        search_count=by_path[SEARCH],
        details_count=by_path[FLIGHT_DETAILS],
        hold_count=by_path[HOLD],
        pay_count=by_path[PAY],
        sms_request_count=sms_requests,
        hold_to_pay_gap=by_path[HOLD] - by_path[PAY],
        mean_interrequest=mean_gap,
        cv_interrequest=cv,
        error_fraction=errors / count,
        trap_hits=by_path[TRAP],
    )


def entry_token(path: str, status: int) -> int:
    """Token id for one log entry: endpoint bucket × outcome."""
    bucket = (
        ENDPOINT_ORDER.index(path)
        if path in ENDPOINT_ORDER
        else len(ENDPOINT_ORDER)
    )
    return bucket * OUTCOME_COUNT + (0 if status == 200 else 1)


def encode_sequence(session: Session) -> Tuple[np.ndarray, np.ndarray]:
    """``(tokens, gaps)`` arrays of length ``MAX_SEQUENCE_LENGTH``.

    ``tokens`` is int16 with ``PAD_TOKEN`` padding; ``gaps`` holds
    ``log1p(seconds since previous event)`` (0.0 for the first event
    and at padded positions).
    """
    tokens = np.full(MAX_SEQUENCE_LENGTH, PAD_TOKEN, dtype=np.int16)
    gaps = np.zeros(MAX_SEQUENCE_LENGTH, dtype=np.float64)
    previous: Optional[float] = None
    for position, entry in enumerate(
        session.entries[:MAX_SEQUENCE_LENGTH]
    ):
        tokens[position] = entry_token(entry.path, entry.status)
        if previous is not None:
            gaps[position] = np.log1p(max(entry.time - previous, 0.0))
        previous = entry.time
    return tokens, gaps


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
