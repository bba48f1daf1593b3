"""repro.stream — online streaming detection over live request logs.

The batch pipeline (``SessionIndex`` + detector families) only runs once
a scenario has finished writing its :class:`~repro.web.logs.WebLog`.
This package processes :class:`~repro.web.logs.LogEntry` events *as
they are emitted*, in bounded memory:

* :class:`~repro.stream.store.KeyedStore` — per-client keyed state
  with idle eviction and peak-size accounting;
* :class:`~repro.stream.sessionizer.StreamSessionizer` — incremental
  session reconstruction, exactly equivalent to the batch
  ``SessionIndex`` partition of the same entry stream;
* :mod:`~repro.stream.adapters` — incremental adapters feeding the
  existing detector families, plus fast-path entity detectors that can
  fire while the offending session is still open;
* :class:`~repro.stream.sms_records.SmsRecordAdapter` — drains an SMS
  record feed through a record scorer (number reputation, destination
  surge);
* :class:`~repro.stream.fusion.IncrementalFusion` — per-subject
  noisy-OR fusion updated one verdict at a time;
* :class:`~repro.stream.pipeline.StreamPipeline` — ties it together
  and pushes convictions into the online mitigation sink mid-run.
"""

from ..core.detection.subjects import entity_subject
from .adapters import (
    HoldVelocityAdapter,
    SessionDetectorAdapter,
    SmsVelocityAdapter,
    StreamAdapter,
)
from .feed import RecordFeed
from .fusion import IncrementalFusion
from .pipeline import StreamPipeline, StreamReport, batch_session_verdicts
from .sessionizer import StreamSessionizer
from .sms_records import SmsRecordAdapter
from .store import KeyedStore

__all__ = [
    "HoldVelocityAdapter",
    "IncrementalFusion",
    "KeyedStore",
    "RecordFeed",
    "SessionDetectorAdapter",
    "SmsRecordAdapter",
    "SmsVelocityAdapter",
    "StreamAdapter",
    "StreamPipeline",
    "StreamReport",
    "StreamSessionizer",
    "batch_session_verdicts",
    "entity_subject",
]
