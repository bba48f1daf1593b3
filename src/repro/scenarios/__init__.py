"""Pre-wired scenarios reproducing the paper's case studies.

* :mod:`~repro.scenarios.world` — platform builder shared by all,
* :mod:`~repro.scenarios.case_a` — Seat Spinning / Fig. 1 / the 5.3 h
  fingerprint arms race (Section IV-A),
* :mod:`~repro.scenarios.case_b` — automated vs manual spinning and the
  passenger-detail heuristics (Section IV-B),
* :mod:`~repro.scenarios.case_c` — advanced SMS Pumping / Table I
  (Section IV-C),
* :mod:`~repro.scenarios.case_d` — OTP abuse via disposable-number
  cycling (number-reputation defense),
* :mod:`~repro.scenarios.case_e` — agent-based amplification against a
  victim destination (destination-surge defense),
* :mod:`~repro.scenarios.portfolio` — the adaptive attacker moving
  budget across all channels vs single-case and layered defenses,
* :mod:`~repro.scenarios.detectors` — detector-family comparison
  (Section III).
"""
