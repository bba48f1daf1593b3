"""Per-destination surge detection (Case E's defense).

Jakobsson & Menczer's cluster bomb points thousands of open
form/notification endpoints at one victim; from the application's side
the attack is a *destination* anomaly — one phone number suddenly
receiving orders of magnitude more notifications than any destination
ever does.  :class:`DestinationSurgeScorer` watches the SMS gateway's
notification records in fixed time windows and convicts the senders
feeding a surging destination, via two complementary triggers:

* an **absolute flood floor** — ``flood_threshold`` messages to one
  destination inside a single window is a flood no matter what history
  says (this is what catches a cold-start cluster bomb mid-window,
  before any baseline exists);
* a **per-destination EWMA baseline** (the
  :class:`~repro.core.detection.anomaly.EwmaMonitor` machinery) over
  per-window counts — a slow-ramp attacker who stays under the flood
  floor still z-scores out of its own destination's history.

Like the number-reputation family, the scorer is a pure function of
the record sequence: batch (:func:`~repro.core.detection.numbers.
score_sms_records`) and streaming (a :class:`~repro.stream.
sms_records.SmsRecordAdapter` draining a :class:`~repro.stream.feed.
RecordFeed` per log entry) produce identical verdicts.  Each
fingerprint is convicted once, through :func:`~repro.core.detection.
subjects.convict_once`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ...sms.gateway import NOTIFICATION, SmsRecord
from .anomaly import EwmaMonitor
from .subjects import convict_once
from .verdict import Verdict

DESTINATION_SURGE = "destination-surge"


@dataclass(frozen=True)
class SurgeEvent:
    """One destination crossing a surge trigger."""

    time: float
    destination: str
    window_count: int
    trigger: str  # "flood" or "ewma"


class DestinationSurgeScorer:
    """Incremental per-destination notification surge detection."""

    name = DESTINATION_SURGE

    def __init__(
        self,
        window: float = 600.0,
        flood_threshold: int = 30,
        ewma_alpha: float = 0.2,
        ewma_z_threshold: float = 4.0,
        ewma_warmup: int = 3,
        ewma_min_count: int = 10,
        kinds: Tuple[str, ...] = (NOTIFICATION,),
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if flood_threshold < 2:
            raise ValueError(
                f"flood_threshold must be >= 2: {flood_threshold}"
            )
        self.window = window
        self.flood_threshold = flood_threshold
        self.ewma_alpha = ewma_alpha
        self.ewma_z_threshold = ewma_z_threshold
        self.ewma_warmup = ewma_warmup
        self.ewma_min_count = ewma_min_count
        self.kinds = kinds
        self._window_index: int = -1
        #: Current-window state per destination: count + contributing
        #: fingerprints in first-seen order.
        self._counts: Dict[str, int] = {}
        self._contributors: Dict[str, Dict[str, None]] = {}
        self._monitors: Dict[str, EwmaMonitor] = {}
        #: Destinations currently under surge; senders touching them
        #: are convicted on contact.
        self._surging: set = set()
        #: Fingerprints convicted so far (each is convicted once).
        self.convicted: Set[str] = set()
        self.surge_events: List[SurgeEvent] = []
        self.records_seen = 0

    # -- record intake -------------------------------------------------------

    def observe(self, record: SmsRecord) -> List[Verdict]:
        """Ingest one gateway record (time order); returns any new
        entity convictions."""
        if record.kind not in self.kinds:
            return []
        self.records_seen += 1
        verdicts: List[Verdict] = []
        index = int(record.time // self.window)
        if index != self._window_index:
            verdicts.extend(self._close_window())
            self._window_index = index

        destination = record.number.e164
        fingerprint_id = record.client.fingerprint_id
        if destination in self._surging:
            verdicts.extend(
                convict_once(
                    self.convicted, (fingerprint_id,), self.name,
                    f"surging-destination:{destination}",
                )
            )
            return verdicts

        count = self._counts.get(destination, 0) + 1
        self._counts[destination] = count
        self._contributors.setdefault(destination, {})[
            fingerprint_id
        ] = None
        if count >= self.flood_threshold:
            # Mid-window flood: convict without waiting for the window
            # to close — this is the trigger fast enough for online
            # mitigation while the bomb is still falling.
            verdicts.extend(
                self._open_surge(record.time, destination, count, "flood")
            )
        return verdicts

    def finish(self) -> List[Verdict]:
        """End of records: evaluate the final (partial) window."""
        return self._close_window()

    # -- internals -----------------------------------------------------------

    def _close_window(self) -> List[Verdict]:
        """Feed the finished window's per-destination counts into their
        EWMA baselines and open surges on anomalous destinations."""
        verdicts: List[Verdict] = []
        window_end = (self._window_index + 1) * self.window
        for destination in sorted(self._counts):
            count = self._counts[destination]
            monitor = self._monitors.get(destination)
            if monitor is None:
                monitor = EwmaMonitor(
                    alpha=self.ewma_alpha,
                    z_threshold=self.ewma_z_threshold,
                    warmup=self.ewma_warmup,
                )
                self._monitors[destination] = monitor
            anomalous = monitor.update(float(count))
            if anomalous and count >= self.ewma_min_count:
                verdicts.extend(
                    self._open_surge(
                        window_end, destination, count, "ewma"
                    )
                )
        self._counts = {}
        self._contributors = {}
        return verdicts

    def _open_surge(
        self, time: float, destination: str, count: int, trigger: str
    ) -> List[Verdict]:
        self._surging.add(destination)
        self.surge_events.append(
            SurgeEvent(
                time=time,
                destination=destination,
                window_count=count,
                trigger=trigger,
            )
        )
        contributors = list(self._contributors.get(destination, {}))
        return convict_once(
            self.convicted, contributors, self.name,
            f"destination-surge:{trigger}:{count}-in-"
            f"{self.window:.0f}s:{destination}",
        )

    # -- introspection -------------------------------------------------------

    @property
    def convicted_fingerprints(self) -> List[str]:
        return sorted(self.convicted)

    @property
    def surging_destinations(self) -> List[str]:
        return sorted(self._surging)
