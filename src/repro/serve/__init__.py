"""``repro.serve`` — the long-running detection service.

The operational layer the paper's closing argument calls for: the
streaming pipeline (:mod:`repro.stream`) plus incremental campaign
detection (:mod:`repro.graph.stream`) behind a stdlib/asyncio HTTP
API, with journal-first SQLite persistence so a killed server restores
to a state whose subsequent verdicts are bit-identical to an
uninterrupted run.

Layers, bottom up:

* :mod:`~repro.serve.codec` — LogEntry ⇄ JSON wire format;
* :mod:`~repro.serve.state` — SQLite snapshot + write-ahead journal
  of RPTR records;
* :mod:`~repro.serve.service` — journal-first event application over
  a persistent pipeline core, checkpointing, final-analysis digest;
* :mod:`~repro.serve.http` / :mod:`~repro.serve.app` — minimal
  HTTP/1.1 plumbing and the route table;
* :mod:`~repro.serve.server` — socket/signal lifecycle
  (``repro serve`` lands here);
* :mod:`~repro.serve.client` — stdlib client for tests/benchmarks/CI.
"""
