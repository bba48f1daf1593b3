"""Streaming adapters for the SMS-record detector families.

Phone numbers never appear in the web log — a :class:`~repro.web.logs.
LogEntry` records path and client, not request parameters — so the
Case D/E families (number reputation, destination surge) cannot ride
the entry stream directly.  Instead one :class:`SmsRecordAdapter`
wraps the family's scorer — ``SmsRecordAdapter(NumberReputationScorer(
...), feed)`` — and drains the new tail of a :class:`~repro.stream.
feed.RecordFeed` cursor over the live :class:`~repro.sms.gateway.
SmsGateway` record list through it on every log entry.  The gateway
appends the SMS record *before* the application logs the request, so
a conviction triggered by request N is already fused (and actioned by
the online sink) before request N+1 arrives.

Because the underlying scorers are pure functions of the record
sequence, draining per entry versus feeding the finished log in one go
(:func:`~repro.core.detection.numbers.score_sms_records`) produces
identical verdict sets — the stream-equivalence property the test
suite pins for both families.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.detection.verdict import Verdict
from ..web.logs import LogEntry
from .adapters import StreamAdapter
from .feed import RecordFeed


class SmsRecordAdapter(StreamAdapter):
    """Drains an SMS record feed through a record scorer."""

    def __init__(self, scorer, feed: Optional[RecordFeed] = None) -> None:
        self.scorer = scorer
        self.name = scorer.name
        self.feed = feed

    def attach(self, feed: RecordFeed) -> None:
        """Late-bind the record feed (worlds are built after adapters
        in some wiring orders)."""
        self.feed = feed

    def on_entry(self, entry: LogEntry, now: float) -> Iterable[Verdict]:
        return self._drain()

    def end_of_stream(self) -> Iterable[Verdict]:
        return self._drain() + self.scorer.finish()

    def _drain(self) -> List[Verdict]:
        verdicts: List[Verdict] = []
        if self.feed is not None:
            for record in self.feed.drain():
                verdicts.extend(self.scorer.observe(record))
        return verdicts
