"""The paper's contribution area: detection and mitigation of
functional abuse.

* :mod:`repro.core.detection` — behaviour-based, knowledge-based,
  anomaly and passenger-detail detectors,
* :mod:`repro.core.mitigation` — deployable countermeasures and the
  closed-loop mitigation controller.
"""
