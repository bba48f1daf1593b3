"""Traffic generation: legitimate population and attacker automata.

* :mod:`repro.traffic.legitimate` — booking-funnel visitor population,
* :mod:`repro.traffic.sms_baseline` — global legitimate SMS stream,
* :mod:`repro.traffic.seat_spinner` — automated DoI bot (Case A/B),
* :mod:`repro.traffic.manual_spinner` — human seat spinner (Case B),
* :mod:`repro.traffic.sms_pumper` — advanced SMS Pumping bot (Case C),
* :mod:`repro.traffic.scraper` — classic scraping baseline.
"""
