"""Datasets for the learned detection arm.

The payoff of owning the traffic generator is labeled data: every
simulated session carries ground truth, so the learned arm can train on
synthetic traces instead of hand-labelled production samples.  This
module holds the two model inputs:

* the :data:`~repro.core.detection.features.FEATURE_NAMES` vector the
  whole behaviour-detection stack already shares, and
* a **per-event token sequence** — one discrete token per log entry
  (endpoint × outcome) plus the log-scaled inter-event gap — which is
  what the attention encoder reads.  Sequences keep the *order* and
  *cadence* information the aggregate vector throws away: a seat
  spinner's search→details→hold loop on a timer is invisible in
  endpoint counts but obvious as a sequence.

Token ids, paddings and sequence length are frozen constants so a
model trained today can score sequences encoded tomorrow.  Datasets
are built from a :class:`~repro.core.detection.session_index.
SessionIndex` by :func:`build_dataset_columnar` — from a whole log in
batch, from one block of closed sessions in the stream — and the
index's :meth:`~repro.core.detection.session_index.SessionIndex.
sequences` is the one sequence encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.detection.session_index import ENDPOINT_ORDER

#: Outcome buckets per endpoint: success vs anything else (errors,
#: blocks).
OUTCOME_COUNT = 2

#: Token = endpoint bucket (:data:`~repro.core.detection.session_index.
#: ENDPOINT_ORDER` + other) × outcome bucket; ids 0..VOCAB_SIZE-1 are
#: real events, PAD_TOKEN marks positions past the session's end.
VOCAB_SIZE = (len(ENDPOINT_ORDER) + 1) * OUTCOME_COUNT
PAD_TOKEN = VOCAB_SIZE

#: Fixed sequence length: long enough for the behavioural loop to show
#: several iterations, short enough that the tiny encoder stays tiny.
#: Longer sessions keep their *first* MAX_SEQUENCE_LENGTH events — the
#: funnel entry is where automation cadence is most regular.
MAX_SEQUENCE_LENGTH = 48


@dataclass
class Dataset:
    """Aligned model inputs for one batch of sessions.

    ``labels`` is float (1.0 = bot) and may be all-NaN for inference
    batches built without ground truth.
    """

    session_ids: List[str]
    features: np.ndarray        # (n, len(FEATURE_NAMES)) float64
    tokens: np.ndarray          # (n, MAX_SEQUENCE_LENGTH) int16
    gaps: np.ndarray            # (n, MAX_SEQUENCE_LENGTH) float64
    labels: np.ndarray          # (n,) float64, NaN when unknown
    #: Ground-truth actor class per session ("" when unknown) — kept
    #: for per-class recall reporting, never fed to a model.
    actor_classes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.session_ids)
        for name, rows in (
            ("features", self.features.shape[0]),
            ("tokens", self.tokens.shape[0]),
            ("gaps", self.gaps.shape[0]),
            ("labels", self.labels.shape[0]),
        ):
            if rows != n:
                raise ValueError(
                    f"{name} has {rows} rows for {n} sessions"
                )

    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def labelled(self) -> bool:
        return len(self) > 0 and not np.isnan(self.labels).any()

    def subset(self, indices: Sequence[int]) -> "Dataset":
        index = np.asarray(list(indices), dtype=int)
        return Dataset(
            session_ids=[self.session_ids[i] for i in index],
            features=self.features[index],
            tokens=self.tokens[index],
            gaps=self.gaps[index],
            labels=self.labels[index],
            actor_classes=(
                [self.actor_classes[i] for i in index]
                if self.actor_classes
                else []
            ),
        )

    def save(self, path: Union[str, Path]) -> str:
        """Persist as one compressed ``.npz`` (the ``--store`` file);
        returns the path written, which gains ``.npz`` if it lacked it."""
        written = str(path) if str(path).endswith(".npz") else f"{path}.npz"
        np.savez_compressed(
            written,
            session_ids=np.array(self.session_ids, dtype=np.str_),
            actor_classes=np.array(self.actor_classes, dtype=np.str_),
            features=self.features,
            tokens=self.tokens,
            gaps=self.gaps,
            labels=self.labels,
        )
        return written

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Dataset":
        with np.load(path, allow_pickle=False) as archive:
            return cls(
                session_ids=[str(s) for s in archive["session_ids"]],
                features=archive["features"],
                tokens=archive["tokens"],
                gaps=archive["gaps"],
                labels=archive["labels"],
                actor_classes=[str(s) for s in archive["actor_classes"]],
            )


def build_dataset_columnar(
    index,
    labels: Optional[Sequence[bool]] = None,
    with_truth: bool = False,
) -> Dataset:
    """Encode every session of a :class:`~repro.core.detection.
    session_index.SessionIndex` into a :class:`Dataset`, in index
    order, with no per-session encoding loop.

    ``labels`` supplies explicit ground truth; ``with_truth=True``
    reads it from the simulation labels instead (training on our own
    generator).  With neither, the dataset is unlabelled.

    Arrays are copied out of the index so a caller mutating the
    dataset cannot corrupt the index's caches.
    """
    n = len(index)
    if labels is not None and len(labels) != n:
        raise ValueError(f"{n} sessions but {len(labels)} labels")
    tokens, gaps = index.sequences()
    if labels is not None:
        target = np.asarray(labels, dtype=float).copy()
    elif with_truth:
        target = index.is_attacker.astype(float)
    else:
        target = np.full(n, np.nan)
    return Dataset(
        session_ids=list(index.session_ids),
        features=index.matrix.copy(),
        tokens=tokens.copy(),
        gaps=gaps.copy(),
        labels=target,
        actor_classes=(
            list(index.actor_classes)
            if (with_truth or labels is None)
            else [""] * n
        ),
    )
