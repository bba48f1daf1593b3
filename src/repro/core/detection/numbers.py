"""Number-reputation and reuse-window detection (Case D's defense).

A legitimate user asks for an OTP once, maybe twice if the first one
is slow.  A number-cycling attacker rents a disposable number and
pumps it for as many OTP deliveries as it can before discarding it —
so the telltale is the *destination number*, not the sender: the same
number receiving many OTP sends inside a short reuse window.

:class:`NumberReputationScorer` consumes the SMS gateway's records in
time order and keeps, per destination number, a sliding reuse window of
``(time, sender fingerprint)`` events.  When a number's window count
reaches the reuse threshold the number's reputation goes to zero and
every fingerprint that fed it inside the window is convicted as a
``fp:`` entity, once (:func:`~repro.core.detection.subjects.
convict_once`), the namespace the online mitigation sink acts on.
Once a number is flagged, reputation takes over from the window: any
*later* sender touching it is convicted on contact — numbers are
cheap for attackers to rent but expensive to un-burn.

The scorer is a pure function of the record sequence, so the batch
path (:func:`score_sms_records`) and the streaming
:class:`~repro.stream.sms_records.SmsRecordAdapter` draining a
:class:`~repro.stream.feed.RecordFeed` through it produce identical
verdicts by construction — the equivalence the test suite pins.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Set, Tuple

from ...sms.gateway import OTP, SmsRecord
from .subjects import convict_once
from .verdict import Verdict

NUMBER_REPUTATION = "number-reputation"


class NumberReputationScorer:
    """Incremental per-destination-number OTP reuse detection."""

    name = NUMBER_REPUTATION

    def __init__(
        self,
        reuse_threshold: int = 5,
        reuse_window: float = 3600.0,
        kinds: Tuple[str, ...] = (OTP,),
    ) -> None:
        if reuse_threshold < 2:
            raise ValueError(
                f"reuse_threshold must be >= 2: {reuse_threshold}"
            )
        if reuse_window <= 0:
            raise ValueError(
                f"reuse_window must be positive: {reuse_window}"
            )
        self.reuse_threshold = reuse_threshold
        self.reuse_window = reuse_window
        self.kinds = kinds
        #: Per-number sliding window of (time, sender fingerprint id).
        self._windows: Dict[str, Deque[Tuple[float, str]]] = {}
        #: Numbers whose reputation is burned, with the burn time.
        self.flagged_numbers: Dict[str, float] = {}
        #: Fingerprints convicted so far (each is convicted once).
        self.convicted: Set[str] = set()
        self.records_seen = 0

    def observe(self, record: SmsRecord) -> List[Verdict]:
        """Ingest one gateway record (in time order); returns any new
        entity convictions it triggers."""
        if record.kind not in self.kinds:
            return []
        self.records_seen += 1
        number = record.number.e164
        fingerprint_id = record.client.fingerprint_id

        if number in self.flagged_numbers:
            # Reputation path: the number is already burned; anyone
            # still feeding it is part of the cycling operation.
            return convict_once(
                self.convicted, (fingerprint_id,), self.name,
                f"burned-number:{number}",
            )

        window = self._windows.get(number)
        if window is None:
            window = deque()
            self._windows[number] = window
        window.append((record.time, fingerprint_id))
        while window and record.time - window[0][0] > self.reuse_window:
            window.popleft()
        if len(window) < self.reuse_threshold:
            return []

        # Reuse threshold crossed: burn the number, convict every
        # in-window contributor in first-seen order.
        self.flagged_numbers[number] = record.time
        contributors = list(
            dict.fromkeys(sender for _, sender in window)
        )
        del self._windows[number]
        return convict_once(
            self.convicted, contributors, self.name,
            f"number-reuse:{len(window)}-in-{self.reuse_window:.0f}s:"
            f"{number}",
        )

    def finish(self) -> List[Verdict]:
        """End of records: nothing is pending (convictions fire the
        moment a threshold crosses), but the hook keeps the scorer
        interchangeable with windowed families like destination
        surge."""
        return []

    @property
    def convicted_fingerprints(self) -> List[str]:
        return sorted(self.convicted)


def score_sms_records(
    records, scorer
) -> List[Verdict]:
    """Batch path: run a record scorer over a finished gateway log.

    Works for any scorer with the ``observe``/``finish`` protocol
    (number reputation, destination surge); the streaming adapters run
    the very same calls record by record, which is what makes the
    stream/batch verdict sets identical.
    """
    verdicts: List[Verdict] = []
    for record in records:
        verdicts.extend(scorer.observe(record))
    verdicts.extend(scorer.finish())
    return verdicts
