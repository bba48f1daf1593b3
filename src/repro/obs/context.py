"""Run-scoped observability: one :class:`RunContext` per profiled run.

A ``RunContext`` owns an :class:`~repro.obs.core.ObsRegistry` plus run
identity (scenario, seed, wall-clock start/finish) and two hot-path
hooks the instrumented subsystems call:

* :meth:`RunContext.record_event` — the event-loop dispatch hook
  (``EventLoop.profiler`` duck type): per-label wall time of every
  simulation callback, i.e. the sim kernel's phase breakdown by actor
  (``sim.event.SeatSpinnerBot.step`` etc.);
* :meth:`RunContext.phase` — coarse hierarchical phases of the run
  itself (``setup`` / ``simulate`` / ``harvest``), nested phases
  joining with ``/`` (``phase.simulate/stream-finish``).

Contexts merge like registries: :meth:`merge` folds another context's
registry in, which is how the parallel runner aggregates per-cell
profiles across worker processes.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from .core import ObsRegistry, Timer

#: Registry name prefixes the context writes under.
EVENT_PREFIX = "sim.event."
PHASE_PREFIX = "phase."
#: Label recorded for events scheduled without a label.
UNLABELLED = "unlabelled"


class RunContext:
    """Identity + registry + profiling hooks for one observed run."""

    def __init__(
        self,
        scenario: str = "",
        seed: Optional[int] = None,
        run_id: Optional[str] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.run_id = run_id or (
            f"{scenario or 'run'}-s{seed}" if seed is not None
            else (scenario or "run")
        )
        self.meta: Dict[str, object] = dict(meta or {})
        self.registry = ObsRegistry()
        self.started_at = _time.time()
        self.finished_at: Optional[float] = None
        self._started_clock = perf_counter()
        self._wall_seconds: Optional[float] = None
        self._phase_stack: List[str] = []
        # Label -> bound Histogram.observe cache: the per-event hook is
        # the hottest call in a profiled run (once per simulation
        # event), so after the first observation of a label it pays one
        # dict lookup and one call — no f-string, no registry lookup,
        # no Timer indirection.
        self._event_observers: Dict[str, object] = {}

    # -- hot-path hooks ------------------------------------------------------

    def record_event(self, label: str, duration: float) -> None:
        """Per-event dispatch hook (see ``EventLoop.profiler``)."""
        observe = self._event_observers.get(label)
        if observe is None:
            timer = self.registry.timer(
                f"{EVENT_PREFIX}{label or UNLABELLED}"
            )
            observe = timer.histogram.observe
            self._event_observers[label] = observe
        observe(duration)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a coarse run phase; nesting joins names with ``/``."""
        self._phase_stack.append(name)
        key = f"{PHASE_PREFIX}{'/'.join(self._phase_stack)}"
        started = perf_counter()
        try:
            yield
        finally:
            self.registry.timer(key).observe(perf_counter() - started)
            self._phase_stack.pop()

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> None:
        """Mark the run finished and stamp the total wall time."""
        if self.finished_at is None:
            self.finished_at = _time.time()
            self._wall_seconds = perf_counter() - self._started_clock
            self.registry.set_gauge("run.wall_seconds", self._wall_seconds)

    @property
    def wall_seconds(self) -> float:
        """Total observed wall time (live value until :meth:`finish`)."""
        if self._wall_seconds is not None:
            return self._wall_seconds
        return perf_counter() - self._started_clock

    def merge(self, other: "RunContext") -> None:
        """Fold another context's registry into this one (worker merge)."""
        self.registry.merge(other.registry)

    # -- serialisation -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view: run identity + full registry snapshot."""
        return {
            "run": {
                "run_id": self.run_id,
                "scenario": self.scenario,
                "seed": self.seed,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "wall_seconds": self.wall_seconds,
                "meta": dict(self.meta),
            },
            "registry": self.registry.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "RunContext":
        run = dict(data.get("run", {}))
        context = cls(
            scenario=str(run.get("scenario", "")),
            seed=run.get("seed"),
            run_id=run.get("run_id"),
            meta=dict(run.get("meta", {})),
        )
        context.started_at = float(run.get("started_at", 0.0))
        finished = run.get("finished_at")
        context.finished_at = None if finished is None else float(finished)
        wall = run.get("wall_seconds")
        context._wall_seconds = None if wall is None else float(wall)
        context.registry = ObsRegistry.from_snapshot(
            dict(data.get("registry", {}))
        )
        return context
