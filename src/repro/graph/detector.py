"""Batch graph detection: seeds → diffusion → campaigns → verdicts.

:class:`GraphDetector` is the sixth detector family in the comparison
matrix.  It does not look for abusive *sessions* — it looks for
abusive *structure*: weak per-session evidence (other families'
sub-threshold scores, gentle behavioural priors) is seeded onto the
entity graph, amplified by propagation, and read back out as
campaigns.  A session conviction here means "this session belongs to
an operation that is collectively damning", which is exactly the
judgement per-session families cannot make about rotated campaigns.

The analysis core (:func:`analyze`, :func:`session_prior`,
:func:`accumulate_seed`) is shared verbatim with
:class:`~repro.graph.stream.GraphStreamAdapter`, so the streaming
end-of-stream result is the batch result by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.detection.subjects import fingerprint_of
from ..core.detection.verdict import Verdict
from ..web.logs import Session
from ..web.request import BOARDING_PASS_SMS, HOLD
from .builder import (
    EntityGraph,
    GraphBuilder,
    GraphBuilderConfig,
)
from .campaigns import (
    CAMPAIGN_DETECTOR,
    Campaign,
    CampaignConfig,
    CampaignVerdict,
    campaign_verdicts,
    extract_campaigns,
    rank_campaigns,
    record_campaigns,
)
from .entities import (
    BOOKING_REF,
    FINGERPRINT,
    EntityId,
    booking_ref_node,
    fingerprint_node,
    session_node,
)
from .propagation import (
    CompiledGraph,
    ComponentScope,
    PropagationConfig,
    PropagationResult,
    compile_graph,
    propagate,
)

if TYPE_CHECKING:
    from ..booking.reservation import BookingRecord
    from ..sms.gateway import SmsRecord


@dataclass
class GraphDetectorConfig:
    """End-to-end knobs for the graph detection pipeline.

    ``seed_weights`` maps detector names to trust weights applied when
    verdict scores are folded into node seeds (noisy-OR, like fusion).
    The behavioural priors are deliberately *weak*: a session holding
    seats a handful of times seeds well below any conviction threshold
    — only shared structure amplifies it past one.
    """

    builder: GraphBuilderConfig = field(default_factory=GraphBuilderConfig)
    propagation: PropagationConfig = field(
        default_factory=PropagationConfig
    )
    campaigns: CampaignConfig = field(default_factory=CampaignConfig)
    seed_weights: Dict[str, float] = field(default_factory=dict)
    default_seed_weight: float = 0.5
    #: Per-session hold-count prior: ``cap * min(1, holds / scale)``.
    hold_seed_scale: float = 10.0
    hold_seed_cap: float = 0.4
    #: Per-session SMS-request prior, same shape.
    sms_seed_scale: float = 25.0
    sms_seed_cap: float = 0.4
    #: Per-*fingerprint* SMS-velocity prior — the Case C signature.
    #: Geo-matched per-request proxies shred pumper traffic into
    #: single-request sessions whose session priors carry nothing, but
    #: the rotated fingerprint still accumulates the sends.
    fp_sms_seed_scale: float = 25.0
    fp_sms_seed_cap: float = 0.4
    #: Per-booking-reference SMS-velocity prior: "a handful of
    #: purchased tickets anchor thousands of sends".  The shared refs
    #: glue a rotated pumper's fingerprints into one campaign.
    ref_sms_seed_scale: float = 25.0
    ref_sms_seed_cap: float = 0.4
    #: Campaign verdict threshold (mirrors fusion's 0.5 convention).
    verdict_threshold: float = 0.5


def session_prior(session: Session, config: GraphDetectorConfig) -> float:
    """Weak behavioural seed for one session (always sub-threshold)."""
    holds = 0
    sms = 0
    for entry in session.entries:
        if entry.path == HOLD:
            holds += 1
        elif entry.path == BOARDING_PASS_SMS:
            sms += 1
    hold_seed = config.hold_seed_cap * min(
        1.0, holds / config.hold_seed_scale
    )
    sms_seed = config.sms_seed_cap * min(1.0, sms / config.sms_seed_scale)
    return 1.0 - (1.0 - hold_seed) * (1.0 - sms_seed)


def accumulate_seed(
    seeds: Dict[EntityId, float],
    node: EntityId,
    score: float,
    weight: float = 1.0,
) -> None:
    """Fold evidence into ``seeds[node]`` noisy-OR style."""
    if score <= 0.0 or weight <= 0.0:
        return
    contribution = min(weight * score, 1.0)
    current = seeds.get(node, 0.0)
    seeds[node] = 1.0 - (1.0 - current) * (1.0 - contribution)


def _sms_velocity(
    builder: GraphBuilder, config: GraphDetectorConfig, node: EntityId
) -> float:
    """``node``'s SMS-velocity prior (zero for other kinds)."""
    if node.kind == FINGERPRINT:
        return config.fp_sms_seed_cap * min(
            1.0,
            builder.sms_by_fingerprint.get(node.value, 0)
            / config.fp_sms_seed_scale,
        )
    if node.kind == BOOKING_REF:
        return config.ref_sms_seed_cap * min(
            1.0,
            builder.sms_by_ref.get(node.value, 0)
            / config.ref_sms_seed_scale,
        )
    return 0.0


def sms_velocity_seeds(
    builder: GraphBuilder, config: GraphDetectorConfig
) -> Dict[EntityId, float]:
    """SMS-velocity seeds from builder send counts.

    Both are capped-linear in the count, zero for a quiet entity —
    the per-fingerprint and per-booking-reference views of the same
    Case C signature.
    """
    seeds: Dict[EntityId, float] = {}
    for node in chain(
        map(fingerprint_node, builder.sms_by_fingerprint),
        map(booking_ref_node, builder.sms_by_ref),
    ):
        value = _sms_velocity(builder, config, node)
        if value > 0.0:
            seeds[node] = value
    return seeds


def merged_seeds(
    seeds: Mapping[EntityId, float],
    builder: GraphBuilder,
    config: GraphDetectorConfig,
) -> Dict[EntityId, float]:
    """Accumulated seeds plus priors derived from builder state.

    Builder-derived priors are recomputed from scratch at every
    analysis (never folded into the accumulated dict), so a streaming
    adapter that refreshes many times sees exactly the seeds a batch
    run computes once — the equivalence the test suite pins.
    """
    merged = dict(seeds)
    for node, value in sms_velocity_seeds(builder, config).items():
        accumulate_seed(merged, node, value)
    return merged


def merged_seed(
    seeds: Mapping[EntityId, float],
    builder: GraphBuilder,
    config: GraphDetectorConfig,
    node: EntityId,
) -> Optional[float]:
    """``merged_seeds(seeds, builder, config).get(node)``, for one node."""
    seed = seeds.get(node)
    velocity = _sms_velocity(builder, config, node)
    if velocity <= 0.0:
        return seed
    merged = {} if seed is None else {node: seed}
    accumulate_seed(merged, node, velocity)
    return merged[node]


def seed_from_verdicts(
    seeds: Dict[EntityId, float],
    verdicts: Sequence[Verdict],
    config: GraphDetectorConfig,
) -> List[EntityId]:
    """Map existing detector verdicts onto graph-node seeds.

    Session-subject verdicts seed session nodes; entity verdicts
    (:func:`~repro.core.detection.subjects.fingerprint_of` parses them)
    seed fingerprint nodes.  Campaign-graph verdicts
    are skipped so re-seeding from a previous round cannot self-amplify.
    Returns the nodes the verdicts were folded into.
    """
    seeded: List[EntityId] = []
    for verdict in verdicts:
        if verdict.detector == CAMPAIGN_DETECTOR:
            continue
        weight = config.seed_weights.get(
            verdict.detector, config.default_seed_weight
        )
        fingerprint_id = fingerprint_of(verdict.subject_id)
        node = (
            session_node(verdict.subject_id)
            if fingerprint_id is None
            else fingerprint_node(fingerprint_id)
        )
        accumulate_seed(seeds, node, verdict.score, weight)
        seeded.append(node)
    return seeded


@dataclass
class GraphAnalysis:
    """One full pass of the graph pipeline."""

    graph: EntityGraph
    propagation: PropagationResult
    campaigns: List[Campaign]
    campaign_verdicts: List[CampaignVerdict]
    #: The merged seed map the sweep started from — kept so equivalence
    #: harnesses can replay the exact analysis through the dict
    #: reference path (``tests/propagation_oracle.propagate_dict``).
    seeds: Dict[EntityId, float] = field(default_factory=dict)


def analyze(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: GraphDetectorConfig,
    obs: Optional[object] = None,
    compiled: Optional[CompiledGraph] = None,
) -> GraphAnalysis:
    """Propagate ``seeds`` and extract campaign verdicts (pure).

    The graph's CSR view (``compiled``, or :func:`compile_graph`'s
    when not given) is shared by both the propagation sweep and the
    campaign extraction's neighbour scans.
    """
    if compiled is None:
        compiled = compile_graph(graph, obs=obs)
    result = propagate(
        graph, seeds, config=config.propagation, obs=obs,
        compiled=compiled,
    )
    campaigns = extract_campaigns(
        graph, result.scores, config=config.campaigns, obs=obs,
        seeds=seeds, compiled=compiled,
    )
    return GraphAnalysis(
        graph=graph,
        propagation=result,
        campaigns=campaigns,
        campaign_verdicts=campaign_verdicts(
            campaigns, threshold=config.verdict_threshold
        ),
        seeds=dict(seeds),
    )


@dataclass
class ComponentRefresh:
    """A periodic re-analysis of a scope of whole components."""

    #: The scope's periodic scores, one per scope node.
    scores: Dict[EntityId, float]
    #: Every campaign of the graph, ranked and named over all of them.
    campaigns: List[Campaign]
    #: Verdict forms of the scope's new or changed campaigns, in rank
    #: order.
    campaign_verdicts: List[CampaignVerdict]


def refresh_components(
    graph: EntityGraph,
    seeds: Mapping[EntityId, float],
    config: GraphDetectorConfig,
    compiled: CompiledGraph,
    scope: ComponentScope,
    previous: Sequence[Campaign],
    obs: Optional[object] = None,
) -> ComponentRefresh:
    """:func:`analyze`, re-run on ``scope`` only.

    ``previous`` is the campaign list of the last refresh.  Each
    component is swept until its own scores converge, so a component's
    campaigns depend on nothing outside it: the previous campaigns
    outside the scope are kept, the scope's are extracted again, and
    all of them are ranked together, which names them as one
    extraction over the whole graph would.  A campaign with the same
    members and risk as before needs no new verdict.  The campaign
    gauges are set from the full ranked list.
    """
    in_scope = propagate(
        graph, seeds, config=config.propagation, obs=obs,
        compiled=compiled, scope=scope,
    ).scores
    found = extract_campaigns(
        graph, in_scope, config=config.campaigns, obs=obs,
        seeds=seeds, compiled=compiled, nodes=in_scope.keys(),
    )
    kept = []
    risks = {}
    for campaign in previous:
        if campaign.members[0] in in_scope:
            risks[campaign.members] = campaign.risk
        else:
            kept.append(campaign)
    campaigns = rank_campaigns([*kept, *found])
    record_campaigns(obs, campaigns)
    changed = {
        campaign.members
        for campaign in found
        if risks.get(campaign.members) != campaign.risk
    }
    return ComponentRefresh(
        scores=in_scope,
        campaigns=campaigns,
        campaign_verdicts=campaign_verdicts(
            [c for c in campaigns if c.members in changed],
            threshold=config.verdict_threshold,
        ),
    )


class GraphDetector:
    """Campaign detection over the batch-built entity graph.

    Subjects are session ids (like every session-family detector), so
    its output drops straight into :class:`FusionDetector`; the
    campaign-level verdicts and the campaigns themselves are kept on
    the instance for mitigation and reporting.
    """

    name = CAMPAIGN_DETECTOR

    def __init__(
        self,
        config: Optional[GraphDetectorConfig] = None,
        obs: Optional[object] = None,
    ) -> None:
        self.config = config or GraphDetectorConfig()
        self.obs = obs
        self.last_analysis: Optional[GraphAnalysis] = None

    def judge_all(
        self,
        sessions: Sequence[Session],
        bookings: Sequence[BookingRecord] = (),
        sms: Sequence[SmsRecord] = (),
        seed_verdicts: Sequence[Verdict] = (),
    ) -> List[Verdict]:
        """One verdict per session; campaign members carry their
        amplified score, everyone else scores zero."""
        sessions = list(sessions)
        builder = GraphBuilder(self.config.builder, obs=self.obs)
        builder.observe_all(sessions=sessions, bookings=bookings, sms=sms)

        seeds: Dict[EntityId, float] = {}
        for session in sessions:
            accumulate_seed(
                seeds,
                session_node(session.session_id),
                session_prior(session, self.config),
            )
        seed_from_verdicts(seeds, seed_verdicts, self.config)

        analysis = analyze(
            builder.graph,
            merged_seeds(seeds, builder, self.config),
            self.config,
            obs=self.obs,
        )
        self.last_analysis = analysis

        by_session: Dict[str, Verdict] = {}
        for campaign_verdict in analysis.campaign_verdicts:
            for member in campaign_verdict.member_verdicts:
                by_session[member.subject_id] = member
        return [
            by_session.get(
                session.session_id,
                Verdict(
                    subject_id=session.session_id,
                    detector=self.name,
                    score=0.0,
                    is_bot=False,
                ),
            )
            for session in sessions
        ]

    @property
    def campaigns(self) -> List[Campaign]:
        return (
            list(self.last_analysis.campaigns)
            if self.last_analysis is not None
            else []
        )
