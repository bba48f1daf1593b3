"""Volume-threshold behaviour detection.

The simplest — and historically most common — behaviour-based bot
detector: flag sessions whose request volume or rate is inhuman.  The
paper's central claim about it (Section III-A) is that DoI and SMS
Pumping bots "do not require a high request volume within a single
session to achieve their objective", so this detector catches scrapers
and misses the paper's attacks.  The E6 benchmark demonstrates exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .features import FEATURE_NAMES
from .verdict import Verdict

#: Matrix columns :meth:`VolumeDetector.judge_index` reads, in
#: :meth:`VolumeDetector._verdict` argument order.
_COLUMNS = [
    FEATURE_NAMES.index(name)
    for name in ("request_count", "duration_minutes", "requests_per_minute")
]


@dataclass(frozen=True)
class VolumeThresholds:
    """Tunable thresholds; defaults are generous to keep false positives
    on legitimate power users near zero."""

    max_requests_per_session: int = 120
    max_requests_per_minute: float = 12.0
    #: Sessions shorter than this (minutes) are never rate-flagged,
    #: because a burst of 3 quick clicks is not a bot signature.
    min_duration_for_rate: float = 2.0


class VolumeDetector:
    """Threshold detector over session volume features.

    Subjects are session ids.
    """

    name = "volume-threshold"

    def __init__(self, thresholds: VolumeThresholds = VolumeThresholds()) -> None:
        self.thresholds = thresholds

    def judge_index(self, index) -> List[Verdict]:
        """Judge every session in a :class:`~repro.core.detection.
        session_index.SessionIndex` — a whole log's or one block of
        closed stream sessions — without materialising any."""
        counts, minutes, rates = index.matrix[:, _COLUMNS].T.tolist()
        return list(
            map(self._verdict, index.session_ids, counts, minutes, rates)
        )

    def _verdict(
        self, session_id: str, count: float, minutes: float, rate: float
    ) -> Verdict:
        thresholds = self.thresholds
        reasons: Tuple[str, ...] = ()
        if count > thresholds.max_requests_per_session:
            reasons = ("session-request-count",)
        # Score: how far past the worst-violated threshold we are.
        worst = count / thresholds.max_requests_per_session
        if minutes >= thresholds.min_duration_for_rate:
            if rate > thresholds.max_requests_per_minute:
                reasons += ("request-rate",)
            rate_ratio = rate / thresholds.max_requests_per_minute
            if rate_ratio > worst:
                worst = rate_ratio
        return Verdict(
            session_id, self.name, min(worst / 2.0, 1.0), bool(reasons),
            reasons,
        )
