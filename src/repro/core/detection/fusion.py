"""Verdict fusion across detector families.

Section V's conclusion is that no single signal class survives contact
with advanced functional abuse: fingerprinting, behaviour analysis and
anomaly detection have to be *combined*.  :class:`FusionDetector`
implements the standard noisy-OR combination: each detector family
contributes independent evidence, weighted by how much its verdicts are
trusted, and the fused bot-probability is

``1 - prod(1 - weight_d * score_d)``

so any single confident detector can convict, several weak signals
accumulate, and a detector that saw nothing contributes nothing.

The product is folded one verdict at a time by :class:`FusionFold`,
the single implementation behind both the batch :meth:`FusionDetector.
fuse` and the stream's :class:`~repro.stream.fusion.IncrementalFusion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .verdict import Verdict

#: Default trust weights per detector family.  Knowledge-based rules
#: are precise when they fire; volume thresholds are precise but narrow;
#: statistical detectors get partial trust.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "fingerprint-rules": 0.95,
    "volume-threshold": 0.9,
    "mouse-biometrics": 0.9,
    "navigation-graph": 0.6,
    "logistic-behaviour": 0.7,
    "kmeans-behaviour": 0.5,
    # The trained session-sequence arm (repro.ml): its threshold is
    # FPR-calibrated at train time, so a conviction is high-precision
    # evidence, but it stays below the knowledge-based rules.
    "learned-sequence": 0.85,
    # SMS-record families (Cases D/E): destination-keyed thresholds are
    # as precise as the velocity fast paths they mirror.
    "number-reputation": 0.9,
    "destination-surge": 0.9,
}


@dataclass
class FusionDetector:
    """Noisy-OR fusion of per-subject verdicts from many detectors."""

    weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS)
    )
    default_weight: float = 0.5
    threshold: float = 0.5

    name = "fusion"

    def __post_init__(self) -> None:
        for detector, weight in self.weights.items():
            if not 0.0 <= weight <= 1.0:
                raise ValueError(
                    f"weight for {detector!r} must be in [0, 1]: {weight}"
                )
        if not 0.0 <= self.default_weight <= 1.0:
            raise ValueError(
                f"default_weight must be in [0, 1]: {self.default_weight}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1): {self.threshold}"
            )

    def weight_for(self, detector: str) -> float:
        return self.weights.get(detector, self.default_weight)

    def fuse(
        self, verdict_sets: Sequence[Sequence[Verdict]]
    ) -> List[Verdict]:
        """Combine verdicts (grouped however the caller likes) into one
        fused verdict per subject id, sorted by subject id."""
        fold = FusionFold(self)
        for verdicts in verdict_sets:
            for verdict in verdicts:
                fold.add(verdict)
        return fold.fused()


class FusionFold:
    """Per-subject noisy-OR state folded one verdict at a time.

    Keeps each subject's survival product and the detectors that
    convicted it, in first-conviction order.  The product is
    commutative, so folding a verdict set in any grouping gives the
    verdicts :meth:`FusionDetector.fuse` returns for it.
    """

    def __init__(self, fusion: FusionDetector) -> None:
        self.fusion = fusion
        self._survival: Dict[str, float] = {}
        self._reasons: Dict[str, List[str]] = {}

    def add(self, verdict: Verdict) -> None:
        """Fold one verdict into its subject's state."""
        subject = verdict.subject_id
        weight = self.fusion.weight_for(verdict.detector)
        self._survival[subject] = self._survival.get(subject, 1.0) * (
            1.0 - weight * verdict.score
        )
        if verdict.is_bot:
            reasons = self._reasons.setdefault(subject, [])
            if verdict.detector not in reasons:
                reasons.append(verdict.detector)

    def current(self, subject_id: str) -> Optional[Verdict]:
        """The subject's fused verdict so far (None if never seen)."""
        if subject_id not in self._survival:
            return None
        return self._fused_for(subject_id)

    def fused(self) -> List[Verdict]:
        """Every subject's fused verdict, sorted by subject id."""
        return [
            self._fused_for(subject) for subject in sorted(self._survival)
        ]

    def _fused_for(self, subject_id: str) -> Verdict:
        score = 1.0 - self._survival[subject_id]
        return Verdict(
            subject_id=subject_id,
            detector=self.fusion.name,
            score=min(max(score, 0.0), 1.0),
            is_bot=score >= self.fusion.threshold,
            reasons=tuple(self._reasons.get(subject_id, ())),
        )

    @property
    def subjects_tracked(self) -> int:
        return len(self._survival)
