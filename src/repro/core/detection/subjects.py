"""Verdict subject-id namespaces and the one ``fp:`` conviction fold.

Fusion treats subject ids as opaque, so detectors that judge different
things — sessions, fingerprint entities, phone numbers — need disjoint
namespaces to never collide inside one fusion pass.  Sessions use their
raw session id; entity detectors prefix fingerprint ids with ``fp:``
(the only namespace :class:`~repro.core.mitigation.online.
OnlineVerdictSink` acts on).  :func:`entity_subject` builds such a
subject and :func:`fingerprint_of` parses one back; no other module
spells the prefix.

Every entity detector — the number-reputation and destination-surge
scorers, the sliding velocity adapters, the campaign graph — convicts
a fingerprint through :func:`convict_once`: one verdict the first time
a fingerprint is convicted, none after.  Each keeps its own
``convicted`` set, so its hot-path "already convicted?" check is one
set lookup.

Batch detector families in :mod:`repro.core.detection` import this
module without importing the streaming layer (which imports this
package back).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from .verdict import Verdict

#: Namespace prefix for fingerprint-entity verdict subjects.
FP_SUBJECT_PREFIX = "fp:"


def entity_subject(fingerprint_id: str) -> str:
    """Fusion subject id for a fingerprint entity."""
    return f"{FP_SUBJECT_PREFIX}{fingerprint_id}"


def fingerprint_of(subject_id: str) -> Optional[str]:
    """The fingerprint id of an entity subject; ``None`` for any other
    subject (a session id, say)."""
    if subject_id.startswith(FP_SUBJECT_PREFIX):
        return subject_id[len(FP_SUBJECT_PREFIX):]
    return None


def convict_once(
    convicted: Set[str],
    fingerprint_ids: Iterable[str],
    detector: str,
    *reasons: str,
    score: float = 1.0,
) -> List[Verdict]:
    """Convict each of ``fingerprint_ids`` not yet in ``convicted``.

    Returns one bot-positive entity verdict per newly convicted
    fingerprint, in the given order, and adds those fingerprints to
    ``convicted``; fingerprints already there yield nothing.
    """
    verdicts: List[Verdict] = []
    for fingerprint_id in fingerprint_ids:
        if fingerprint_id in convicted:
            continue
        convicted.add(fingerprint_id)
        verdicts.append(
            Verdict(
                subject_id=entity_subject(fingerprint_id),
                detector=detector,
                score=score,
                is_bot=True,
                reasons=reasons,
            )
        )
    return verdicts
