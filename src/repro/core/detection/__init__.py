"""Detection core: every signal family the paper discusses.

* behaviour-based — :mod:`~repro.core.detection.features`,
  :mod:`~repro.core.detection.volume`,
  :mod:`~repro.core.detection.clustering` (the supervised logistic
  family is :class:`repro.ml.LogisticHead`);
* knowledge-based — :mod:`~repro.core.detection.fingerprint_rules`;
* identity linking — :mod:`~repro.core.detection.rotation`;
* statistical anomaly — :mod:`~repro.core.detection.anomaly`;
* passenger-detail heuristics —
  :mod:`~repro.core.detection.passenger_details`.
"""

from .anomaly import (
    CountrySurge,
    EwmaMonitor,
    NipAnomaly,
    NipDistributionMonitor,
    SmsSurgeMonitor,
    chi_square_sf,
    jensen_shannon,
    regularized_gamma_q,
)
from .clustering import ClusteringConfig, ClusteringDetector, kmeans
from .features import FEATURE_NAMES, SessionFeatures, extract_features
from .fingerprint_rules import (
    FingerprintDetector,
    FingerprintWeights,
    block_by_attribute_combo,
    block_by_fingerprint_id,
    block_by_ip,
    block_datacenter_asns,
)
from .fusion import DEFAULT_WEIGHTS, FusionDetector
from .geo_velocity import GeoVelocityConfig, GeoVelocityDetector
from .seats import SeatHoardingConfig, SeatHoardingDetector
from .navigation import (
    NavigationDetector,
    NavigationDetectorConfig,
    NavigationModel,
    session_path,
)
from .passenger_details import (
    AUTOMATED_HINT,
    AnalyzerConfig,
    BIRTHDATE_ROTATION,
    EITHER_HINT,
    GIBBERISH_NAMES,
    MANUAL_HINT,
    MISSPELLING_CLUSTER,
    NAME_SET_PERMUTATION,
    PassengerDetailAnalyzer,
    PassengerFinding,
    REPEATED_NAME,
)
from .rotation import (
    LinkedEntity,
    UnionFind,
    link_booking_records,
    link_sms_records,
)
from .verdict import Verdict
from .volume import VolumeDetector, VolumeThresholds

__all__ = [
    "CountrySurge",
    "EwmaMonitor",
    "NipAnomaly",
    "NipDistributionMonitor",
    "SmsSurgeMonitor",
    "chi_square_sf",
    "jensen_shannon",
    "regularized_gamma_q",
    "ClusteringConfig",
    "ClusteringDetector",
    "kmeans",
    "FEATURE_NAMES",
    "SessionFeatures",
    "extract_features",
    "DEFAULT_WEIGHTS",
    "FusionDetector",
    "GeoVelocityConfig",
    "GeoVelocityDetector",
    "SeatHoardingConfig",
    "SeatHoardingDetector",
    "NavigationDetector",
    "NavigationDetectorConfig",
    "NavigationModel",
    "session_path",
    "FingerprintDetector",
    "FingerprintWeights",
    "block_by_attribute_combo",
    "block_by_fingerprint_id",
    "block_by_ip",
    "block_datacenter_asns",
    "AUTOMATED_HINT",
    "AnalyzerConfig",
    "BIRTHDATE_ROTATION",
    "EITHER_HINT",
    "GIBBERISH_NAMES",
    "MANUAL_HINT",
    "MISSPELLING_CLUSTER",
    "NAME_SET_PERMUTATION",
    "PassengerDetailAnalyzer",
    "PassengerFinding",
    "REPEATED_NAME",
    "LinkedEntity",
    "UnionFind",
    "link_booking_records",
    "link_sms_records",
    "Verdict",
    "VolumeDetector",
    "VolumeThresholds",
]
