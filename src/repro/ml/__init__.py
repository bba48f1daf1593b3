"""Learned detection arm: datasets, model ladder, training.

``repro.ml`` holds everything trainable: the shared constant-column-safe
:class:`~repro.ml.standardize.Standardiser`, the
:class:`~repro.ml.data.Dataset` of feature vectors and event sequences
(built from a ``SessionIndex``, persisted as one ``.npz``), the model
ladder (logistic baseline, MLP head, attention encoder over
per-session event sequences), the versioned on-disk model format, and
the deterministic training loop behind ``repro train`` /
``repro predict``.
"""
