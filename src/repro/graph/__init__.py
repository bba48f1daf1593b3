"""Entity risk graph: weak-signal amplification over shared infrastructure.

The paper's campaigns defeat per-session detection by spreading
low-and-slow traffic across rotated fingerprints and residential
proxies (Section III-B).  What rotation cannot scrub is *shared
infrastructure*: passenger name pools, booking references, phone
numbers and target flights persist across identity swaps.  This
package turns those side-channels into a first-class multipartite
graph and amplifies weak per-entity risk over it:

* :mod:`~repro.graph.entities` — typed node ids (session, fingerprint,
  IP, subnet, phone, booking reference, passenger-name key, flight);
* :mod:`~repro.graph.unionfind` — array component labelling, used by
  the graph and (as :func:`~repro.graph.unionfind.key_groups`) by the
  record linkers in :mod:`repro.core.detection`;
* :mod:`~repro.graph.builder` — :class:`EntityGraph` (interned nodes
  and columnar edges) plus the incremental :class:`GraphBuilder`
  (bounded transient state via :class:`~repro.stream.store.KeyedStore`);
* :mod:`~repro.graph.propagation` — the CSR view derived from the
  graph's columns, and damped, degree-normalized risk diffusion over
  it to a deterministic fixed point;
* :mod:`~repro.graph.campaigns` — campaign extraction over the
  risk-thresholded subgraph with churn/temporal statistics;
* :mod:`~repro.graph.detector` — the batch :class:`GraphDetector`;
* :mod:`~repro.graph.stream` — the :class:`GraphStreamAdapter` riding
  :class:`~repro.stream.pipeline.StreamPipeline`.
"""

from .builder import EntityGraph, GraphBuilder, GraphBuilderConfig
from .campaigns import (
    CAMPAIGN_DETECTOR,
    Campaign,
    CampaignConfig,
    CampaignVerdict,
    extract_campaigns,
)
from .detector import GraphAnalysis, GraphDetector, GraphDetectorConfig
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
from .propagation import PropagationConfig, PropagationResult, propagate
from .stream import GraphStreamAdapter
from .unionfind import key_groups

__all__ = [
    "BOOKING_REF",
    "CAMPAIGN_DETECTOR",
    "Campaign",
    "CampaignConfig",
    "CampaignVerdict",
    "EntityGraph",
    "EntityId",
    "FINGERPRINT",
    "FLIGHT",
    "GraphAnalysis",
    "GraphBuilder",
    "GraphBuilderConfig",
    "GraphDetector",
    "GraphDetectorConfig",
    "GraphStreamAdapter",
    "IP",
    "NAME_KEY",
    "PHONE",
    "PropagationConfig",
    "PropagationResult",
    "SESSION",
    "SUBNET",
    "extract_campaigns",
    "key_groups",
    "propagate",
]
