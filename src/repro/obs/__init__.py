"""repro.obs — the metrics registry and wall-clock observability.

The package the simulated world and the hot paths report into:

* :class:`~repro.obs.core.ObsRegistry` — the one metrics registry:
  hierarchical counters, gauges, simulated-clock series, timers and
  histograms with one snapshot/merge;
* :class:`~repro.obs.context.RunContext` — run-scoped registry plus
  the event-loop dispatch hook and coarse phase profiling;
* :mod:`~repro.obs.report` — canonical JSON and Prometheus-style
  renderings;
* :mod:`~repro.obs.profile` — the ``repro profile`` harness that runs
  a case study fully instrumented.

Instrumentation is opt-in everywhere: an un-attached hook costs one
``is None`` check, and the overhead benchmark pins the attached cost
below 5% of Case A wall-clock.
"""

from .context import RunContext
from .core import (
    DEFAULT_TIME_BOUNDS,
    Histogram,
    ObsRegistry,
    TimePoint,
    Timer,
    merge_snapshots,
)
from .report import (
    REPORT_SCHEMA,
    build_report,
    registry_report,
    render_json,
    render_prometheus,
    write_report,
)

__all__ = [
    "DEFAULT_TIME_BOUNDS",
    "Histogram",
    "ObsRegistry",
    "REPORT_SCHEMA",
    "RunContext",
    "TimePoint",
    "Timer",
    "build_report",
    "merge_snapshots",
    "registry_report",
    "render_json",
    "render_prometheus",
    "write_report",
]
