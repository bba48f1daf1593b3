"""Airline reservation substrate.

Implements the abusable booking feature set the paper's DoI case
studies target: flights with finite seat inventory
(:mod:`repro.booking.flight`), temporary holds with TTL expiry
(:mod:`repro.booking.holds`), the reservation facade and booking log
(:mod:`repro.booking.reservation`), passenger records and name
generators (:mod:`repro.booking.passengers`) and dynamic load-factor
pricing (:mod:`repro.booking.pricing`).
"""
