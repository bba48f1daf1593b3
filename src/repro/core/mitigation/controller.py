"""The closed-loop mitigation controller.

Automates the defender's side of the paper's arms race: every
``interval`` it re-reads the booking and SMS logs, runs the anomaly
monitors, and deploys mitigations from its playbook.

The Case A loop it reproduces: NiP-distribution alarm → cap NiP; holds
concentrating on a few fingerprints → deploy fingerprint blocks; the
attacker rotates; the next evaluation finds the new fingerprints and
blocks again — "each new countermeasure was only effective for a
limited period before attackers adapted."

The Case C loop: per-country SMS surge alarm → per-booking-reference
rate limit → if the surge persists, remove the SMS feature.

With ``honeypot_mode`` the controller routes suspects into the decoy
inventory instead of blocking them (the Section V economic deterrent).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from ...sim.clock import HOUR, WEEK
from ...sim.events import EventLoop
from ...sms.gateway import BOARDING_PASS as BOARDING_PASS_KIND
from ...sim.process import Process
from ...web.application import WebApplication
from ...web.ratelimit import key_by_booking_ref, key_by_profile
from ...web.request import BOARDING_PASS_SMS
from ..detection.anomaly import NipDistributionMonitor, SmsSurgeMonitor
from ..detection.fingerprint_rules import (
    FingerprintDetector,
    block_by_booking_ref,
)
from ..detection.geo_velocity import GeoVelocityConfig, GeoVelocityDetector
from .blocking import BlockRuleManager
from .honeypot import HoneypotManager
from .policies import NipCapPolicy, RateLimitPolicy, SmsFeatureTogglePolicy


def block_or_route(
    blocks: BlockRuleManager,
    honeypot: HoneypotManager,
    honeypot_mode: bool,
    fingerprint_id: str,
) -> bool:
    """Act on one convicted fingerprint: route it to the honeypot in
    honeypot mode, block it otherwise.  False if it was already
    handled."""
    if honeypot_mode:
        return honeypot.add_suspect_fingerprint(fingerprint_id)
    return blocks.block_fingerprint_id(fingerprint_id) is not None


@dataclass(frozen=True)
class MitigationAction:
    """One timeline entry: what the controller did and why."""

    time: float
    kind: str
    detail: str


@dataclass
class ControllerConfig:
    """Playbook and cadence for the controller."""

    interval: float = 1.0 * HOUR
    window: float = 6.0 * HOUR

    # -- DoI playbook --
    baseline_nip: Optional[Mapping[int, float]] = None
    enable_nip_cap: bool = True
    nip_cap_value: int = 4
    enable_fingerprint_blocks: bool = True
    holds_per_fingerprint_threshold: int = 3
    max_blocks_per_step: int = 10
    enable_artifact_blocks: bool = True
    honeypot_mode: bool = False

    # -- SMS playbook --
    enable_sms_monitor: bool = False
    #: Expected *weekly* legitimate SMS counts per country.
    sms_weekly_baseline: Optional[Mapping[str, int]] = None
    sms_surge_alarm_percent: float = 500.0
    sms_min_window_count: int = 20
    #: Stage 1: per-booking-ref limit on boarding-pass SMS.
    sms_per_ref_limit: int = 5
    sms_per_ref_window: float = 24.0 * HOUR
    #: Stage 2: per-profile limit (the control the paper says was
    #: missing in Case C).
    enable_per_profile_limit: bool = False
    sms_per_profile_limit: int = 10
    #: Stage 3: consecutive alarming evaluations before removing the
    #: feature entirely.
    sms_disable_after_alarms: int = 3

    # -- geo-velocity playbook (baseline-free SMS pumping detection) --
    #: Block booking references exhibiting impossible travel.  Unlike
    #: the surge monitor this needs *no* per-country baseline — the
    #: physics violation is self-evident.
    enable_geo_velocity: bool = False
    geo_velocity: GeoVelocityConfig = field(
        default_factory=GeoVelocityConfig
    )


class MitigationController(Process):
    """Periodic detect-and-respond loop over one application."""

    def __init__(
        self,
        loop: EventLoop,
        app: WebApplication,
        config: ControllerConfig,
        name: str = "mitigation-controller",
    ) -> None:
        super().__init__(loop, name=name)
        self.app = app
        self.config = config
        self.blocks = BlockRuleManager(app)
        self.honeypot = HoneypotManager(app)
        if config.honeypot_mode:
            self.honeypot.install()
        self._fingerprint_detector = FingerprintDetector()
        self._nip_monitor = (
            NipDistributionMonitor(baseline=dict(config.baseline_nip))
            if config.baseline_nip is not None
            else None
        )
        self._sms_monitor = SmsSurgeMonitor(
            surge_alarm_percent=config.sms_surge_alarm_percent,
            min_window_count=config.sms_min_window_count,
        )
        self.timeline: List[MitigationAction] = []
        self._nip_cap_policy: Optional[NipCapPolicy] = None
        # Cursor into app.fingerprint_arrivals: everything before it has
        # been judged by the artifact rule already.
        self._artifact_cursor = 0
        self._sms_alarm_streak = 0
        self._sms_stage = 0  # 0=none, 1=rate limits, 2=feature disabled
        self._geo_detector = GeoVelocityDetector(config.geo_velocity)
        self._geo_blocked_refs: set = set()

    # -- helpers -----------------------------------------------------------

    def _act(self, kind: str, detail: str) -> None:
        self.timeline.append(
            MitigationAction(time=self.loop.now, kind=kind, detail=detail)
        )

    def actions(self, kind: Optional[str] = None) -> List[MitigationAction]:
        if kind is None:
            return list(self.timeline)
        return [action for action in self.timeline if action.kind == kind]

    # -- main loop ------------------------------------------------------------

    def step(self) -> Optional[float]:
        now = self.loop.now
        window_start = now - self.config.window
        self.app.reservations.expire_due()

        self._evaluate_nip(window_start)
        self._evaluate_fingerprints(window_start)
        if self.config.enable_sms_monitor:
            self._evaluate_sms(window_start)
        if self.config.enable_geo_velocity:
            self._evaluate_geo_velocity(window_start)
        return self.config.interval

    # -- DoI branch ---------------------------------------------------------------

    def _recent_holds(self, window_start: float):
        return [
            record
            for record in self.app.reservations.records_since(window_start)
            if record.outcome == "held"
        ]

    def _evaluate_nip(self, window_start: float) -> None:
        if self._nip_monitor is None or not self.config.enable_nip_cap:
            return
        if self._nip_cap_policy is not None:
            return  # cap already deployed
        counts = Counter(r.nip for r in self._recent_holds(window_start))
        anomaly = self._nip_monitor.evaluate(counts)
        if anomaly.alarm:
            self._nip_cap_policy = NipCapPolicy(self.config.nip_cap_value)
            self._nip_cap_policy.apply(self.app)
            self._act(
                "nip-cap",
                f"NiP anomaly (jsd={anomaly.jsd:.4f}, surging="
                f"{list(anomaly.surging_nips)}); capped at "
                f"{self.config.nip_cap_value}",
            )

    def _evaluate_fingerprints(self, window_start: float) -> None:
        if not self.config.enable_fingerprint_blocks:
            return
        honeypot_mode = self.config.honeypot_mode
        deployed = 0

        # Frequency rule: one browser identity creating many holds in a
        # short window is not a human shopper.
        holds_by_fingerprint = Counter(
            record.client.fingerprint_id
            for record in self._recent_holds(window_start)
        )
        for fingerprint_id, count in holds_by_fingerprint.most_common():
            if deployed >= self.config.max_blocks_per_step:
                break
            if count < self.config.holds_per_fingerprint_threshold:
                break
            if block_or_route(
                self.blocks, self.honeypot, honeypot_mode, fingerprint_id
            ):
                deployed += 1
                self._act(
                    "honeypot-suspect"
                    if honeypot_mode
                    else "fingerprint-block",
                    f"{fingerprint_id} made {count} holds in window",
                )

        # Artifact rule: anything tripping headless/inconsistency checks.
        # Each fingerprint is judged once, when first seen at the edge:
        # the cursor resumes where the previous evaluation stopped, so
        # each step only pays for fingerprints that arrived since.
        if self.config.enable_artifact_blocks:
            arrivals = self.app.fingerprint_arrivals
            judge = self._fingerprint_detector.judge
            for fingerprint_id, fingerprint in arrivals[
                self._artifact_cursor:
            ]:
                if not judge(fingerprint).is_bot:
                    continue
                if block_or_route(
                    self.blocks, self.honeypot, honeypot_mode, fingerprint_id
                ):
                    self._act(
                        "artifact-block",
                        f"{fingerprint_id} trips automation artifacts",
                    )
            self._artifact_cursor = len(arrivals)

    # -- SMS branch ------------------------------------------------------------------

    def _evaluate_sms(self, window_start: float) -> None:
        baseline_weekly = self.config.sms_weekly_baseline or {}
        window_length = self.loop.now - window_start
        scale = window_length / WEEK
        baseline_window = {
            country: max(int(round(count * scale)), 0)
            for country, count in baseline_weekly.items()
        }
        window_counts = Counter(
            record.country_code
            for record in self.app.sms.records_between(
                window_start, self.loop.now
            )
        )
        alarming = self._sms_monitor.alarming(baseline_window, window_counts)
        if not alarming:
            self._sms_alarm_streak = 0
            return
        self._sms_alarm_streak += 1
        top = alarming[0]
        detail = (
            f"{len(alarming)} countries surging; worst {top.country_code} "
            f"+{top.surge_percent:.0f}%"
        )

        if self._sms_stage == 0:
            RateLimitPolicy(
                rule_id="bp-sms-per-booking-ref",
                key_fn=key_by_booking_ref,
                limit=self.config.sms_per_ref_limit,
                window=self.config.sms_per_ref_window,
                paths=(BOARDING_PASS_SMS,),
            ).apply(self.app)
            if self.config.enable_per_profile_limit:
                RateLimitPolicy(
                    rule_id="bp-sms-per-profile",
                    key_fn=key_by_profile,
                    limit=self.config.sms_per_profile_limit,
                    window=self.config.sms_per_ref_window,
                    paths=(BOARDING_PASS_SMS,),
                ).apply(self.app)
            self._sms_stage = 1
            self._act("sms-rate-limit", detail)
            return

        if (
            self._sms_stage == 1
            and self._sms_alarm_streak >= self.config.sms_disable_after_alarms
        ):
            SmsFeatureTogglePolicy(BOARDING_PASS_KIND).apply(self.app)
            self._sms_stage = 2
            self._act("sms-feature-disabled", detail)

    def _evaluate_geo_velocity(self, window_start: float) -> None:
        """Baseline-free SMS pumping detection: block booking
        references whose request origins violate travel physics."""
        records = self.app.sms.records_between(window_start, self.loop.now)
        for key in self._geo_detector.flagged_keys(records):
            if key in self._geo_blocked_refs:
                continue
            self._geo_blocked_refs.add(key)
            rule_id = f"geo-ref-block-{len(self._geo_blocked_refs):04d}"
            self.app.add_block_rule(rule_id, block_by_booking_ref(key))
            self._act(
                "geo-velocity-block",
                f"booking ref {key} shows impossible travel",
            )
