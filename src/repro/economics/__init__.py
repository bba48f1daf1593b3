"""Attacker/defender economics (Section V's deterrence analysis)."""
