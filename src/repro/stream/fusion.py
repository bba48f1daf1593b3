"""Incremental noisy-OR verdict fusion.

:class:`~repro.core.detection.fusion.FusionDetector` combines verdict
*sets* after the fact; the stream needs the same combination updated
one verdict at a time.  Both run the one fold in
:class:`~repro.core.detection.fusion.FusionFold`, and the noisy-OR
survival product is commutative, so folding verdicts in arrival order
yields exactly the verdicts :meth:`FusionDetector.fuse` computes over
the accumulated set — the property the equivalence tests pin.
"""

from __future__ import annotations

from typing import Optional

from ..core.detection.fusion import FusionDetector, FusionFold
from ..core.detection.verdict import Verdict


class IncrementalFusion(FusionFold):
    """Per-subject noisy-OR state updated one verdict at a time."""

    def __init__(self, fusion: Optional[FusionDetector] = None) -> None:
        super().__init__(fusion if fusion is not None else FusionDetector())
        self.updates = 0

    def update(self, verdict: Verdict) -> Verdict:
        """Fold one verdict in; returns the subject's current fused
        verdict (same thresholding as the batch fusion)."""
        self.updates += 1
        self.add(verdict)
        return self._fused_for(verdict.subject_id)
