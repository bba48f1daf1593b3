"""The application's SMS gateway.

Sends OTPs, boarding passes and notifications through the primary
operator, settling the telco money flow for every delivered message.
Models the two operational failure modes the paper highlights
(Section II-B):

* the application owner pays per message, so pumped traffic is a direct
  financial loss, and
* the contract carries a weekly quota — once an attack exhausts it,
  *legitimate* users can no longer receive OTPs or boarding passes.

The gateway also supports feature toggles (the Case C mitigation was
"the SMS option was then temporarily removed").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Set

from ..common import ClientRef
from ..obs.core import ObsRegistry
from ..sim.clock import Clock, WEEK
from .numbers import PhoneNumber
from .telco import Settlement, TelcoNetwork

# Message kinds.
OTP = "otp"
BOARDING_PASS = "boarding-pass"
NOTIFICATION = "notification"

KINDS = (OTP, BOARDING_PASS, NOTIFICATION)

# Rejection reasons.
REJECT_FEATURE_DISABLED = "feature-disabled"
REJECT_QUOTA_EXHAUSTED = "quota-exhausted"
REJECT_UNKNOWN_KIND = "unknown-kind"


@dataclass(frozen=True)
class SmsRecord:
    """One SMS send attempt as it would appear in the gateway log."""

    time: float
    number: PhoneNumber
    kind: str
    booking_ref: str
    client: ClientRef
    delivered: bool
    reject_reason: str
    settlement: Optional[Settlement]

    @property
    def country_code(self) -> str:
        return self.number.country_code


class SmsGateway:
    """Application-side SMS sending with quota and feature toggles."""

    def __init__(
        self,
        clock: Clock,
        telco: Optional[TelcoNetwork] = None,
        metrics: Optional[ObsRegistry] = None,
        weekly_quota: Optional[int] = None,
    ) -> None:
        if weekly_quota is not None and weekly_quota < 0:
            raise ValueError(f"weekly_quota must be >= 0: {weekly_quota}")
        self.clock = clock
        self.telco = telco if telco is not None else TelcoNetwork()
        self.metrics = metrics if metrics is not None else ObsRegistry()
        self.weekly_quota = weekly_quota
        self.records: List[SmsRecord] = []
        self._record_times: List[float] = []
        self._enabled_kinds: Set[str] = set(KINDS)
        self._quota_week_index = -1
        self._quota_used = 0

    # -- feature toggles -------------------------------------------------------

    def disable_kind(self, kind: str) -> None:
        """Turn an SMS feature off (e.g. remove boarding-pass-via-SMS)."""
        self._require_known(kind)
        self._enabled_kinds.discard(kind)
        self.metrics.increment(f"sms.feature_disabled.{kind}")

    def enable_kind(self, kind: str) -> None:
        self._require_known(kind)
        self._enabled_kinds.add(kind)

    def kind_enabled(self, kind: str) -> bool:
        self._require_known(kind)
        return kind in self._enabled_kinds

    @staticmethod
    def _require_known(kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown SMS kind {kind!r}; expected {KINDS}")

    # -- quota ------------------------------------------------------------------

    def _quota_remaining(self) -> Optional[int]:
        if self.weekly_quota is None:
            return None
        week_index = int(self.clock.now // WEEK)
        if week_index != self._quota_week_index:
            self._quota_week_index = week_index
            self._quota_used = 0
        return self.weekly_quota - self._quota_used

    @property
    def quota_used_this_week(self) -> int:
        self._quota_remaining()  # roll the window if needed
        return self._quota_used

    # -- sending -----------------------------------------------------------------

    def send(
        self,
        number: PhoneNumber,
        kind: str,
        client: ClientRef,
        booking_ref: str = "",
    ) -> SmsRecord:
        """Attempt to send one SMS; always returns a log record."""
        self._require_known(kind)
        now = self.clock.now

        reject = ""
        if kind not in self._enabled_kinds:
            reject = REJECT_FEATURE_DISABLED
        else:
            remaining = self._quota_remaining()
            if remaining is not None and remaining <= 0:
                reject = REJECT_QUOTA_EXHAUSTED

        if reject:
            record = SmsRecord(
                time=now,
                number=number,
                kind=kind,
                booking_ref=booking_ref,
                client=client,
                delivered=False,
                reject_reason=reject,
                settlement=None,
            )
            self._record_times.append(now)
            self.records.append(record)
            self.metrics.increment("sms.rejected")
            self.metrics.increment(f"sms.reject.{reject}")
            return record

        settlement = self.telco.settle(number)
        if self.weekly_quota is not None:
            self._quota_used += 1
        record = SmsRecord(
            time=now,
            number=number,
            kind=kind,
            booking_ref=booking_ref,
            client=client,
            delivered=True,
            reject_reason="",
            settlement=settlement,
        )
        self._record_times.append(now)
        self.records.append(record)
        self.metrics.increment("sms.sent")
        self.metrics.increment(f"sms.sent.{kind}")
        self.metrics.increment("sms.cost", settlement.app_owner_cost)
        self.metrics.record("sms.sent_events", now, 1.0)
        return record

    # -- log access ---------------------------------------------------------------

    def delivered_records(self) -> List[SmsRecord]:
        return [record for record in self.records if record.delivered]

    def records_between(self, start: float, end: float) -> List[SmsRecord]:
        """Delivered records with ``start <= time < end``.

        Records are appended in time order, so the window is located by
        binary search — repeated monitoring scans stay cheap even with
        hundreds of thousands of records.
        """
        low = bisect.bisect_left(self._record_times, start)
        high = bisect.bisect_left(self._record_times, end)
        return [
            record
            for record in self.records[low:high]
            if record.delivered
        ]
