"""Online verdict intake: mitigation while the attack is running.

The periodic :class:`~repro.core.mitigation.controller.MitigationController`
re-reads logs on a timer; this sink instead receives fused verdicts
from :class:`repro.stream.pipeline.StreamPipeline` the moment a subject
crosses the bot threshold, and deploys the block (or honeypot routing)
immediately — the paper's defenses all fired on live traffic, and
time-to-first-block is the metric the streaming scenario headline pins.

Only *entity* subjects (those :func:`~repro.core.detection.subjects.
fingerprint_of` parses) are actionable: a session verdict arrives
after its client has gone idle, so it is recorded but cannot be turned
into a useful edge rule.  Entity and campaign convictions act through
the same :func:`~repro.core.mitigation.controller.block_or_route` the
periodic controller uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ...web.application import WebApplication
from ..detection.subjects import fingerprint_of
from ..detection.verdict import Verdict
from .blocking import BlockRuleManager
from .controller import MitigationAction, block_or_route
from .honeypot import HoneypotManager

if TYPE_CHECKING:  # typing only: keep core free of a runtime graph dep
    from ...graph.campaigns import Campaign


class OnlineVerdictSink:
    """Turns streaming convictions into immediate edge mitigations."""

    def __init__(
        self,
        app: WebApplication,
        honeypot_mode: bool = False,
        max_actions: Optional[int] = None,
    ) -> None:
        self.app = app
        self.honeypot_mode = honeypot_mode
        self.max_actions = max_actions
        self.blocks = BlockRuleManager(app)
        self.honeypot = HoneypotManager(app)
        if honeypot_mode:
            self.honeypot.install()
        self.timeline: List[MitigationAction] = []
        self.first_block_time: Optional[float] = None
        self.session_verdicts_ignored = 0

    def handle(self, verdict: Verdict, now: float) -> None:
        """One fused bot verdict from the stream pipeline."""
        fingerprint_id = fingerprint_of(verdict.subject_id)
        if fingerprint_id is None:
            self.session_verdicts_ignored += 1
            return
        if self._at_capacity() or not block_or_route(
            self.blocks, self.honeypot, self.honeypot_mode, fingerprint_id
        ):
            return
        self._record(
            now,
            "stream-honeypot-suspect"
            if self.honeypot_mode
            else "stream-fingerprint-block",
            f"{fingerprint_id} fused score "
            f"{verdict.score:.3f} ({', '.join(verdict.reasons)})",
        )

    def handle_campaign(self, campaign: "Campaign", now: float) -> None:
        """Cluster-level mitigation: act on every member fingerprint.

        Campaign detection's whole advantage is convicting the
        identities a per-session view cannot tie together, so the
        response is cluster-wide — one action covering all member
        fingerprints at once, rather than waiting for each to earn an
        individual conviction.
        """
        if self._at_capacity():
            return
        acted = [
            fingerprint_id
            for fingerprint_id in campaign.fingerprint_ids
            if block_or_route(
                self.blocks, self.honeypot, self.honeypot_mode, fingerprint_id
            )
        ]
        if not acted:
            return
        self._record(
            now,
            "stream-campaign-honeypot"
            if self.honeypot_mode
            else "stream-campaign-block",
            f"{campaign.campaign_id} risk {campaign.risk:.3f}: "
            f"{len(acted)} fingerprint(s) ({', '.join(sorted(acted))})",
        )

    def _at_capacity(self) -> bool:
        return (
            self.max_actions is not None
            and len(self.timeline) >= self.max_actions
        )

    def _record(self, now: float, kind: str, detail: str) -> None:
        if self.first_block_time is None:
            self.first_block_time = now
        self.timeline.append(
            MitigationAction(time=now, kind=kind, detail=detail)
        )

    @property
    def actions_taken(self) -> int:
        return len(self.timeline)
