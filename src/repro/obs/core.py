"""The one metrics registry, plus its low-overhead timing primitives.

:class:`ObsRegistry` is the container every instrumented subsystem
writes into: flat counters and gauges, :class:`TimePoint` series on
the simulated clock, and :class:`Timer`/:class:`Histogram`
distributions under hierarchical dot-separated names
(``booking.holds_created``, ``sms.sent_events``,
``sim.event.SeatSpinnerBot.step``, ``web.request./hold``).

A run usually holds two instances.  The world's registry
(``world.metrics``) records what happened on the platform — holds,
SMS sent and their cost, blocked requests — on the simulated clock, so
it is deterministic and the runner can compare it across serial and
process-pool runs.  The optional wall-clock registry (``obs``) records
``perf_counter`` timings that answer "where does the run spend its
time" and can never match between runs.  Both fold through one
:meth:`ObsRegistry.merge` and :func:`merge_snapshots`.

Cost model: an un-instrumented hot path pays one ``is None`` check;
an instrumented one pays two ``perf_counter`` calls and one histogram
insert (a ``bisect`` over ~20 bucket bounds) per observation.  The
overhead benchmark (``benchmarks/test_bench_obs_overhead.py``) pins
the total below 5% of Case A wall-clock.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bounds for durations, in seconds: a 1-2.5-5
#: geometric ladder from 1 microsecond to 10 s.  Wide enough for any
#: single event callback or request; anything slower lands in the
#: overflow bucket and still counts toward ``total``.
DEFAULT_TIME_BOUNDS: Tuple[float, ...] = tuple(
    10.0**exponent * mantissa
    for exponent in range(-6, 1)
    for mantissa in (1.0, 2.5, 5.0)
) + (10.0,)


@dataclass(frozen=True)
class TimePoint:
    """One timestamped observation in a simulated-clock series."""

    time: float
    value: float


class Histogram:
    """Fixed-bound histogram with count/total/min/max side channels.

    Bounds are upper-inclusive bucket edges; one overflow bucket
    catches everything above the last bound.  Two histograms merge iff
    their bounds are identical (the registry guarantees this for
    same-named histograms).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BOUNDS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"bounds must be non-empty and strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket — edges are upper-inclusive, matching Prometheus "le".
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (conservative estimate).

        The exact observed maximum is returned for the overflow bucket,
        so ``quantile(1.0)`` never understates the tail.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                break
        return self.max if self.max is not None else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    # -- serialisation -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "Histogram":
        histogram = cls(bounds=tuple(data["bounds"]))
        counts = [int(value) for value in data["bucket_counts"]]
        if len(counts) != len(histogram.bucket_counts):
            raise ValueError(
                f"bucket count mismatch: {len(counts)} vs "
                f"{len(histogram.bucket_counts)}"
            )
        histogram.bucket_counts = counts
        histogram.count = int(data["count"])
        histogram.total = float(data["total"])
        histogram.min = None if data["min"] is None else float(data["min"])
        histogram.max = None if data["max"] is None else float(data["max"])
        return histogram

    def summary(self) -> Dict[str, float]:
        """The report-facing digest (no raw buckets)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timer:
    """A duration histogram with an explicit-observe and a with-block API."""

    __slots__ = ("histogram",)

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BOUNDS) -> None:
        self.histogram = Histogram(bounds)

    def observe(self, duration: float) -> None:
        self.histogram.observe(duration)

    def time(self) -> "_TimerSpan":
        """``with timer.time(): ...`` records the block's wall duration."""
        return _TimerSpan(self)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total(self) -> float:
        return self.histogram.total

    @property
    def mean(self) -> float:
        return self.histogram.mean


class _TimerSpan:
    __slots__ = ("_timer", "_started")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._started = 0.0

    def __enter__(self) -> "_TimerSpan":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(perf_counter() - self._started)


class ObsRegistry:
    """Hierarchically named counters, gauges, series, timers and histograms.

    Names are plain dot-separated strings; the registry imposes no
    schema beyond "same name, same kind".  :meth:`merge` is the one
    fold for worker, replication and shard pieces: counters and
    distributions sum (associative and commutative), series interleave
    order-independently, gauges are last-write-wins.
    """

    def __init__(self) -> None:
        # A defaultdict keeps ``increment`` to one ``+=``: the web edge
        # bumps three counters on every request.
        self._counters: Dict[str, float] = defaultdict(float)
        self._gauges: Dict[str, float] = {}
        self._series: Dict[str, List[TimePoint]] = defaultdict(list)
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- counters / gauges ---------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
        self._counters[name] += amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def gauges(self, prefix: str = "") -> Dict[str, float]:
        return {
            name: value
            for name, value in self._gauges.items()
            if name.startswith(prefix)
        }

    # -- simulated-clock series ----------------------------------------------

    def record(self, name: str, time: float, value: float) -> None:
        """Append a timestamped observation to series ``name``.

        Timestamps must be non-decreasing within a series; violations
        indicate the caller mixed up clocks and raise ``ValueError``.
        """
        series = self._series[name]
        if series and time < series[-1].time:
            raise ValueError(
                f"series {name!r}: time {time} precedes last point "
                f"{series[-1].time}"
            )
        series.append(TimePoint(time, value))

    def series(self, name: str) -> List[TimePoint]:
        """The recorded series (empty list if nothing was recorded)."""
        return list(self._series.get(name, []))

    def series_names(self, prefix: str = "") -> List[str]:
        return sorted(
            name for name in self._series if name.startswith(prefix)
        )

    # -- distributions -------------------------------------------------------

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer()
        return timer

    def timers(self, prefix: str = "") -> Dict[str, Timer]:
        return {
            name: timer
            for name, timer in self._timers.items()
            if name.startswith(prefix)
        }

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                bounds if bounds is not None else DEFAULT_TIME_BOUNDS
            )
        return histogram

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        return {
            name: histogram
            for name, histogram in self._histograms.items()
            if name.startswith(prefix)
        }

    def names(self) -> List[str]:
        """Every metric name in the registry, sorted."""
        return sorted(
            set(self._counters)
            | set(self._gauges)
            | set(self._series)
            | set(self._timers)
            | set(self._histograms)
        )

    # -- aggregation ---------------------------------------------------------

    def total_time(self, prefix: str) -> float:
        """Summed timer totals under ``prefix`` (e.g. ``"sim.event."``)."""
        return sum(
            timer.total
            for name, timer in self._timers.items()
            if name.startswith(prefix)
        )

    def merge(self, other: "ObsRegistry") -> None:
        """Fold ``other`` into this registry (worker/shard-merge semantics).

        Series merge by sorting on ``(time, value)``, so folding worker
        or shard pieces in any order yields the identical sequence.  (An
        earlier version broke ties by fold order, which made a shard
        merge depend on shard completion order; see
        ``tests/test_shard_merge.py`` for the regression.)  Gauges are
        only order-independent when no two pieces set the same gauge.

        Merging an empty registry — or one rebuilt from a snapshot that
        carries empty series lists — is an identity: it must not create
        empty series entries here (an empty merge used to perturb
        ``snapshot()`` equality).
        """
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, value in other._gauges.items():
            self._gauges[name] = value
        for name, points in other._series.items():
            if points:
                self._series[name] = sorted(
                    self._series[name] + points,
                    key=lambda point: (point.time, point.value),
                )
        for name, timer in other._timers.items():
            mine = self._timers.get(name)
            if mine is None:
                # Adopt the incoming timer's bounds: ``self.timer(name)``
                # would create a default-bounds timer, and merging a
                # custom-bounds histogram into it raises — which made
                # merging into a fresh registry (the shard/worker fold's
                # starting point) crash on any non-default timer.
                mine = self._timers[name] = Timer(
                    bounds=timer.histogram.bounds
                )
            mine.histogram.merge(timer.histogram)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

    # -- serialisation -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Lossless plain-data view (JSON-able, picklable, mergeable).

        Every section is always present, empty or not.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "series": {
                name: [[point.time, point.value] for point in points]
                for name, points in self._series.items()
            },
            "timers": {
                name: timer.histogram.snapshot()
                for name, timer in self._timers.items()
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "ObsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (exact
        round trip; missing sections read as empty)."""
        registry = cls()
        for name, value in dict(data.get("counters", {})).items():
            registry._counters[name] = float(value)
        for name, value in dict(data.get("gauges", {})).items():
            registry._gauges[name] = float(value)
        for name, points in dict(data.get("series", {})).items():
            registry._series[name] = [
                TimePoint(float(time), float(value))
                for time, value in points
            ]
        for name, snap in dict(data.get("timers", {})).items():
            timer = Timer(bounds=tuple(snap["bounds"]))
            timer.histogram = Histogram.from_snapshot(snap)
            registry._timers[name] = timer
        for name, snap in dict(data.get("histograms", {})).items():
            registry._histograms[name] = Histogram.from_snapshot(snap)
        return registry


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> ObsRegistry:
    """Fold many registry snapshots (e.g. one per worker) into one."""
    merged = ObsRegistry()
    for snapshot in snapshots:
        merged.merge(ObsRegistry.from_snapshot(snapshot))
    return merged
