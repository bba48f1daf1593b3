"""Client identity substrate: fingerprints, rotation, IPs, CAPTCHAs.

Models everything a website can observe about *who* is talking to it —
and everything an attacker can do to manipulate those observations:

* genuine fingerprint population and consistency rules
  (:mod:`repro.identity.fingerprint`),
* attacker fingerprint forging and rotation policies
  (:mod:`repro.identity.forge`),
* datacenter vs residential IP pools (:mod:`repro.identity.ip`),
* CAPTCHA and solver-service model (:mod:`repro.identity.captcha`).
"""
