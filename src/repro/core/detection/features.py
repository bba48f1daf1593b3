"""The session feature vector of behaviour-based detection.

A reconstructed session becomes the numeric vector the behaviour-based
literature uses (Section III-A): volume metrics, HTTP-method mix,
endpoint mix, timing statistics and error rates.  The same vector
feeds the threshold detector, the logistic-regression classifier and
the clustering detector, which is what makes the E6 comparison
apples-to-apples.  :class:`~repro.core.detection.session_index.
SessionIndex` computes it, for a whole log or for a block of closed
stream sessions.
"""

from __future__ import annotations

from typing import List

#: Order of features in the vector (kept stable for trained models).
FEATURE_NAMES: List[str] = [
    "request_count",
    "duration_minutes",
    "requests_per_minute",
    "get_fraction",
    "post_fraction",
    "unique_paths",
    "search_count",
    "details_count",
    "hold_count",
    "pay_count",
    "sms_request_count",
    "hold_to_pay_gap",        # holds minus pays (abandonment signal)
    "mean_interrequest",
    "cv_interrequest",        # coefficient of variation of gaps
    "error_fraction",         # non-200 responses
    "trap_hits",              # visits to the hidden trap endpoint
]
