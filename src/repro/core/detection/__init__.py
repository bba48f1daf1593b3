"""Detection core: every signal family the paper discusses.

* behaviour-based — :mod:`~repro.core.detection.features`,
  :mod:`~repro.core.detection.volume`,
  :mod:`~repro.core.detection.clustering` (the supervised logistic
  family is :class:`repro.ml.models.LogisticHead`);
* knowledge-based — :mod:`~repro.core.detection.fingerprint_rules`;
* identity linking — :mod:`~repro.core.detection.rotation`;
* statistical anomaly — :mod:`~repro.core.detection.anomaly`;
* passenger-detail heuristics —
  :mod:`~repro.core.detection.passenger_details`.
"""
