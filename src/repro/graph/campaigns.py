"""Campaign extraction over the risk-thresholded graph.

A *campaign* is what per-session detection cannot see: the set of
sessions, fingerprints and infrastructure one operation spreads its
traffic across.  Extraction works core-out:

1. the **core** is every infrastructure node (fingerprint, IP,
   passenger name, booking reference, phone) whose propagated risk
   clears ``risk_threshold`` — these are where diffusion concentrates,
   because one shared identity unions evidence from many sessions;
2. connected components run over the core *only* — never through hub
   kinds (target flights, /24 subnets), and never through sessions.
   Raw components would merge every legitimate customer of a targeted
   flight into the attacker's cluster through the shared flight node;
3. each component then **attaches** the sessions adjacent to its core
   (the traffic the infrastructure carried), and is kept if at least
   ``min_sessions`` attach.

The campaign's risk combines the core's evidence channels noisy-OR
style: for each infrastructure kind present in the core, take the
maximum propagated score, then combine across kinds — a cluster whose
fingerprints, IPs *and* recurring passenger names all amplified is
more damning than any one channel alone.  That combined risk is the
score member sessions inherit: a member is convicted for belonging to
a collectively damning operation, not for its own behaviour.

Each :class:`Campaign` carries the temporal-coherence and identity-
churn statistics that :class:`~repro.core.detection.rotation.LinkedEntity`
pioneered (distinct fingerprints/IPs, activity span, mean rotation
interval), generalised from booking records to the whole entity graph.

:class:`CampaignVerdict` bridges into the existing detection stack: a
campaign-level :class:`~repro.core.detection.verdict.Verdict`
(``campaign:<id>`` subject) for campaign-scale mitigation, plus one
per-member-session verdict that feeds
:class:`~repro.core.detection.fusion.FusionDetector` exactly like any
other detector family's output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.detection.verdict import Verdict
from .builder import EntityGraph
from .propagation import CompiledGraph, compile_graph
from .entities import (
    BOOKING_REF,
    FINGERPRINT,
    FLIGHT,
    IP,
    NAME_KEY,
    PHONE,
    SESSION,
    SUBNET,
    EntityId,
)

#: Detector name attached to campaign-derived verdicts.
CAMPAIGN_DETECTOR = "campaign-graph"

#: Subject-id namespace for campaign-level verdicts.
CAMPAIGN_SUBJECT_PREFIX = "campaign:"

#: Node kinds eligible for the campaign core (shared infrastructure).
CORE_KINDS: Tuple[str, ...] = (
    FINGERPRINT,
    IP,
    NAME_KEY,
    BOOKING_REF,
    PHONE,
)

#: Device/address kinds that need corroboration to enter the core: a
#: fingerprint or IP can inherit a hot score from a *single* shared
#: identity node (a passenger-name collision with the attacker's fixed
#: names, a NAT'd exit address), which is coincidence, not linkage.
DEVICE_KINDS: Tuple[str, ...] = (FINGERPRINT, IP)


@dataclass(frozen=True)
class CampaignConfig:
    """Extraction thresholds.

    ``risk_threshold`` gates which infrastructure nodes enter the
    core; ``hub_kinds`` (flights, subnets) exist for propagation only
    and are never members nor connectors; ``min_sessions`` drops cores
    whose attached traffic is too small to call a campaign.
    """

    risk_threshold: float = 0.25
    min_sessions: int = 3
    hub_kinds: Tuple[str, ...] = (FLIGHT, SUBNET)
    #: Risky neighbours a device node (fingerprint/IP) must have to
    #: enter the core when it carries no direct seed evidence of its
    #: own.  One hot neighbour means the device's score was relayed
    #: down a single channel — a name collision, a shared NAT exit —
    #: while real campaign devices tie together several risky nodes.
    min_device_corroboration: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.risk_threshold < 1.0:
            raise ValueError(
                f"risk_threshold must be in (0, 1): {self.risk_threshold}"
            )
        if self.min_sessions < 1:
            raise ValueError(
                f"min_sessions must be >= 1: {self.min_sessions}"
            )
        if self.min_device_corroboration < 1:
            raise ValueError(
                "min_device_corroboration must be >= 1: "
                f"{self.min_device_corroboration}"
            )


@dataclass(frozen=True)
class Campaign:
    """One recovered operation: a risky infrastructure core plus the
    sessions it carried."""

    campaign_id: str
    #: Core infrastructure nodes plus attached session nodes, sorted.
    members: Tuple[EntityId, ...]
    #: Noisy-OR over the core's per-kind maximum propagated scores.
    risk: float
    first_seen: float
    last_seen: float

    def _values(self, kind: str) -> Tuple[str, ...]:
        return tuple(
            member.value for member in self.members if member.kind == kind
        )

    @property
    def session_ids(self) -> Tuple[str, ...]:
        return self._values(SESSION)

    @property
    def fingerprint_ids(self) -> Tuple[str, ...]:
        return self._values(FINGERPRINT)

    @property
    def ip_addresses(self) -> Tuple[str, ...]:
        return self._values(IP)

    @property
    def name_keys(self) -> Tuple[str, ...]:
        return self._values(NAME_KEY)

    @property
    def booking_refs(self) -> Tuple[str, ...]:
        return self._values(BOOKING_REF)

    @property
    def phone_numbers(self) -> Tuple[str, ...]:
        return self._values(PHONE)

    @property
    def session_count(self) -> int:
        return len(self.session_ids)

    @property
    def distinct_fingerprints(self) -> int:
        return len(self.fingerprint_ids)

    @property
    def distinct_ips(self) -> int:
        return len(self.ip_addresses)

    @property
    def span(self) -> float:
        return self.last_seen - self.first_seen

    @property
    def rotates_identity(self) -> bool:
        """More than one fingerprint for one logical operation."""
        return self.distinct_fingerprints > 1

    @property
    def mean_rotation_interval(self) -> float:
        """Estimated time between fingerprint rotations (the paper's
        5.3 h statistic).  Infinity when no rotation was observed."""
        if self.distinct_fingerprints <= 1:
            return float("inf")
        return self.span / (self.distinct_fingerprints - 1)


@dataclass(frozen=True)
class CampaignVerdict:
    """A campaign plus its verdict forms.

    ``verdict`` judges the campaign itself (subject
    ``campaign:<id>``) — the input to campaign-level mitigation.
    ``member_verdicts`` judge each member session with the campaign's
    risk — the fan-out that feeds :class:`FusionDetector` so graph
    evidence combines with per-session detector families.
    """

    campaign: Campaign
    verdict: Verdict
    member_verdicts: Tuple[Verdict, ...]


def _campaign_risk(
    core: Sequence[EntityId], scores: Mapping[EntityId, float]
) -> float:
    """Noisy-OR across the core's evidence channels.

    Each infrastructure kind contributes its best-amplified node; the
    channels combine like independent evidence (fusion's convention).
    A rotated campaign whose fingerprints, IPs and recurring names all
    lit up scores far above any single channel.
    """
    per_kind: Dict[str, float] = {}
    for node in core:
        score = scores.get(node, 0.0)
        if score > per_kind.get(node.kind, 0.0):
            per_kind[node.kind] = score
    survival = 1.0
    for score in per_kind.values():
        survival *= 1.0 - min(max(score, 0.0), 1.0)
    return 1.0 - survival


def _corroborated(
    neighbors_of: Callable[[EntityId], Iterable[EntityId]],
    node: EntityId,
    scores: Mapping[EntityId, float],
    seeds: Mapping[EntityId, float],
    config: CampaignConfig,
) -> bool:
    """Whether a device node's risk is multi-channel, not one relay.

    Counts risky neighbours.  Hub kinds never corroborate (a hot
    target flight must not vouch for every device that touched it),
    and a session neighbour counts only on its *seed* evidence — its
    propagated score includes backflow from this very device, so a
    single name collision would otherwise vouch for itself through
    the device's own session.
    """
    hot = 0
    for neighbor in neighbors_of(node):
        if neighbor.kind in config.hub_kinds:
            continue
        evidence = (
            seeds.get(neighbor, 0.0)
            if neighbor.kind == SESSION
            else scores.get(neighbor, 0.0)
        )
        if evidence >= config.risk_threshold:
            hot += 1
            if hot >= config.min_device_corroboration:
                return True
    return False


def extract_campaigns(
    graph: EntityGraph,
    scores: Mapping[EntityId, float],
    config: Optional[CampaignConfig] = None,
    obs: Optional[object] = None,
    seeds: Optional[Mapping[EntityId, float]] = None,
    compiled: Optional[CompiledGraph] = None,
    nodes: Optional[Iterable[EntityId]] = None,
) -> List[Campaign]:
    """Core components plus their attached sessions.

    ``seeds`` (when given) exempts directly seeded device nodes from
    the corroboration gate: a fingerprint with its own evidence (an
    SMS-velocity prior, an entity-level verdict) is core on its own
    merits, while one that merely inherited heat from a single shared
    identity node needs ``min_device_corroboration`` risky neighbours.

    Neighbour scans read the graph's CSR view: ``compiled`` (the view
    propagation already swept) or, when not given,
    :func:`~repro.graph.propagation.compile_graph`'s.

    ``nodes`` (when given) restricts the core search to those nodes,
    which must be whole connected components of the graph: every read
    (scores, seeds, neighbours, session spans) then stays inside them,
    so each campaign found equals the one a whole-graph extraction
    finds there, up to its name.  A scoped call leaves the campaign
    gauges to its caller, which holds the full list
    (:func:`record_campaigns`).

    Campaigns are ordered and named by :func:`rank_campaigns`.
    """
    config = config or CampaignConfig()
    seeds = seeds or {}
    if compiled is None:
        compiled = compile_graph(graph, obs=obs)
    neighbors_of = compiled.neighbors_of
    core = [
        node
        for node in (graph.nodes() if nodes is None else nodes)
        if node.kind in CORE_KINDS
        and scores.get(node, 0.0) >= config.risk_threshold
        and (
            node.kind not in DEVICE_KINDS
            or seeds.get(node, 0.0) > 0.0
            or _corroborated(neighbors_of, node, scores, seeds, config)
        )
    ]
    components = graph.components(core)

    found: List[Campaign] = []
    for component in components:
        attached = sorted(
            {
                neighbor
                for node in component
                for neighbor in neighbors_of(node)
                if neighbor.kind == SESSION
            }
        )
        if len(attached) < config.min_sessions:
            continue
        times = [
            time
            for node in attached
            for time in (graph.first_seen(node), graph.last_seen(node))
            if time is not None
        ]
        first = min(times) if times else 0.0
        last = max(times) if times else 0.0
        found.append(
            Campaign(
                campaign_id="",
                members=tuple(sorted(set(component) | set(attached))),
                risk=_campaign_risk(component, scores),
                first_seen=first,
                last_seen=last,
            )
        )
    campaigns = rank_campaigns(found)
    if nodes is None:
        record_campaigns(obs, campaigns)
    return campaigns


def record_campaigns(
    obs: Optional[object], campaigns: Sequence[Campaign]
) -> None:
    """Set the campaign gauges from the graph's full campaign list."""
    if obs is None:
        return
    obs.set_gauge("graph.campaigns", float(len(campaigns)))
    obs.set_gauge(
        "graph.campaign_sessions",
        float(sum(c.session_count for c in campaigns)),
    )


def rank_campaigns(campaigns: Iterable[Campaign]) -> List[Campaign]:
    """Order campaigns largest-first and name them ``C001``, ``C002``...

    The order is session count descending, then first member id, which
    is unique because campaigns are disjoint.  A campaign that already
    carries its rank's name is kept as-is; the others are renamed
    copies.  Ranking the union of disjoint campaign lists gives the
    names a single extraction over all of them would.
    """
    ordered = sorted(
        campaigns,
        key=lambda campaign: (-campaign.session_count, campaign.members[0]),
    )
    ranked = []
    for index, campaign in enumerate(ordered):
        name = f"C{index + 1:03d}"
        ranked.append(
            campaign
            if campaign.campaign_id == name
            else replace(campaign, campaign_id=name)
        )
    return ranked


def campaign_subject(campaign_id: str) -> str:
    return f"{CAMPAIGN_SUBJECT_PREFIX}{campaign_id}"


def campaign_verdicts(
    campaigns: List[Campaign],
    threshold: float = 0.5,
    detector: str = CAMPAIGN_DETECTOR,
) -> List[CampaignVerdict]:
    """Verdict forms for every campaign.

    Member-session verdicts inherit the campaign's (core) risk — a
    member is judged for the operation it belongs to, which is the
    whole point of campaign-level detection — and are bot-positive
    when the campaign clears ``threshold``.
    """
    results = []
    for campaign in campaigns:
        is_bot = campaign.risk >= threshold
        score = min(max(campaign.risk, 0.0), 1.0)
        reasons = (
            f"campaign:{campaign.campaign_id}",
            f"fingerprints:{campaign.distinct_fingerprints}",
            f"sessions:{campaign.session_count}",
        )
        members = tuple(
            Verdict(
                subject_id=session_id,
                detector=detector,
                score=score,
                is_bot=is_bot,
                reasons=reasons if is_bot else (),
            )
            for session_id in campaign.session_ids
        )
        results.append(
            CampaignVerdict(
                campaign=campaign,
                verdict=Verdict(
                    subject_id=campaign_subject(campaign.campaign_id),
                    detector=detector,
                    score=min(max(campaign.risk, 0.0), 1.0),
                    is_bot=is_bot,
                    reasons=reasons,
                ),
                member_verdicts=members,
            )
        )
    return results
