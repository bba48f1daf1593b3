"""SMS substrate: gateway, destination countries, telco economics.

Implements the abusable SMS feature set of the paper's Case C: the
application-side gateway (:mod:`repro.sms.gateway`), the destination
country registry with per-route costs (:mod:`repro.sms.countries`),
phone numbers (:mod:`repro.sms.numbers`) and the operator/carrier
revenue-share chain that makes SMS Pumping profitable
(:mod:`repro.sms.telco`).
"""
