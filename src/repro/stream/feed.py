"""Cursors over growing substrate record lists.

The simulation substrates (booking holds, SMS gateway) append records
to plain Python lists as the world runs.  Detectors that consume those
records incrementally — the campaign graph, the SMS-record detector
families — poll through a :class:`RecordFeed`: a cursor that remembers
how far it has read and returns only the new tail, O(new) per call, so
polling from the stream entry hot path stays cheap.

It lives here, not in :mod:`repro.graph`, so :mod:`repro.stream`
adapters can use it without a stream→graph import cycle.
"""

from __future__ import annotations

from typing import Sequence


class RecordFeed:
    """Cursor over a growing record list (booking or SMS logs)."""

    def __init__(self, source: Sequence) -> None:
        self._source = source
        self._cursor = 0

    def drain(self) -> Sequence:
        tail = self._source[self._cursor:]
        self._cursor += len(tail)
        return tail

    @property
    def consumed(self) -> int:
        return self._cursor
