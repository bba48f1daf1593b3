"""Tests for repro.obs core primitives, context, and report rendering."""

import json

import pytest

from repro.obs import (
    DEFAULT_TIME_BOUNDS,
    Histogram,
    ObsRegistry,
    REPORT_SCHEMA,
    RunContext,
    Timer,
    build_report,
    merge_snapshots,
    render_json,
    render_prometheus,
)


class TestHistogram:
    def test_observe_accumulates(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(55.5)
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.bucket_counts == [1, 1, 1]

    def test_bounds_are_upper_inclusive(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts == [1, 0, 0]
        histogram.observe(1.0 + 1e-12)
        assert histogram.bucket_counts == [1, 1, 0]

    def test_quantile_is_conservative(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for _ in range(99):
            histogram.observe(0.5)
        histogram.observe(50.0)
        # p50 is the upper bound of the bucket holding rank 50.
        assert histogram.quantile(0.50) == 1.0
        # The straggler lands in the (10, 100] bucket.
        assert histogram.quantile(1.0) == 100.0

    def test_quantile_overflow_bucket_uses_observed_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(7.5)
        assert histogram.quantile(1.0) == 7.5

    def test_quantile_empty_and_validation(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))

    def test_merge_sums_everything(self):
        left = Histogram(bounds=(1.0, 10.0))
        right = Histogram(bounds=(1.0, 10.0))
        left.observe(0.5)
        right.observe(5.0)
        right.observe(500.0)
        left.merge(right)
        assert left.count == 3
        assert left.total == pytest.approx(505.5)
        assert left.min == 0.5
        assert left.max == 500.0
        assert left.bucket_counts == [1, 1, 1]

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_snapshot_round_trip(self):
        histogram = Histogram()
        for value in (1e-7, 3e-4, 0.2, 42.0):
            histogram.observe(value)
        clone = Histogram.from_snapshot(histogram.snapshot())
        assert clone.snapshot() == histogram.snapshot()
        assert clone.summary() == histogram.summary()

    def test_snapshot_is_json_safe(self):
        histogram = Histogram()
        histogram.observe(0.5)
        restored = Histogram.from_snapshot(
            json.loads(json.dumps(histogram.snapshot()))
        )
        assert restored.snapshot() == histogram.snapshot()

    def test_default_bounds_span_microseconds_to_seconds(self):
        assert DEFAULT_TIME_BOUNDS[0] == pytest.approx(1e-6)
        assert DEFAULT_TIME_BOUNDS[-1] == 10.0
        assert list(DEFAULT_TIME_BOUNDS) == sorted(DEFAULT_TIME_BOUNDS)


class TestTimer:
    def test_observe_and_properties(self):
        timer = Timer()
        timer.observe(0.25)
        timer.observe(0.75)
        assert timer.count == 2
        assert timer.total == pytest.approx(1.0)
        assert timer.mean == pytest.approx(0.5)

    def test_time_block_records_a_duration(self):
        timer = Timer()
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0.0


class TestObsRegistry:
    def test_counters_and_gauges(self):
        registry = ObsRegistry()
        registry.increment("a.hits")
        registry.increment("a.hits", 2.0)
        registry.set_gauge("a.depth", 5.0)
        registry.set_gauge("a.depth", 7.0)
        assert registry.counter("a.hits") == 3.0
        assert registry.counter("missing") == 0.0
        assert registry.gauge("a.depth") == 7.0
        assert registry.gauge("missing", default=-1.0) == -1.0

    def test_prefix_filtering(self):
        registry = ObsRegistry()
        registry.increment("web.requests")
        registry.increment("stream.entries")
        registry.timer("web.request./hold").observe(0.1)
        registry.timer("sim.event.visitor").observe(0.2)
        assert set(registry.counters("web.")) == {"web.requests"}
        assert set(registry.timers("sim.event.")) == {"sim.event.visitor"}

    def test_timer_and_histogram_are_memoised(self):
        registry = ObsRegistry()
        assert registry.timer("t") is registry.timer("t")
        assert registry.histogram("h") is registry.histogram("h")

    def test_total_time_sums_prefix(self):
        registry = ObsRegistry()
        registry.timer("sim.event.a").observe(1.0)
        registry.timer("sim.event.b").observe(2.0)
        registry.timer("web.request./x").observe(4.0)
        assert registry.total_time("sim.event.") == pytest.approx(3.0)

    def test_merge_follows_recorder_contract(self):
        """Counters and distributions sum; gauges last-write-wins —
        the contract the world registry's shard and replication
        folds rely on."""
        left, right = ObsRegistry(), ObsRegistry()
        left.increment("n", 1.0)
        right.increment("n", 2.0)
        left.set_gauge("g", 1.0)
        right.set_gauge("g", 9.0)
        left.timer("t").observe(0.5)
        right.timer("t").observe(1.5)
        left.merge(right)
        assert left.counter("n") == 3.0
        assert left.gauge("g") == 9.0
        assert left.timer("t").count == 2
        assert left.timer("t").total == pytest.approx(2.0)

    def test_merge_is_commutative_on_sums(self):
        def build(values):
            registry = ObsRegistry()
            for value in values:
                registry.increment("n")
                registry.timer("t").observe(value)
            return registry

        ab = build([1.0, 2.0])
        ab.merge(build([4.0]))
        ba = build([4.0])
        ba.merge(build([1.0, 2.0]))
        assert ab.counter("n") == ba.counter("n")
        assert ab.timer("t").histogram.snapshot() == (
            ba.timer("t").histogram.snapshot()
        )

    def test_snapshot_round_trip(self):
        registry = ObsRegistry()
        registry.increment("c", 2.0)
        registry.set_gauge("g", 3.0)
        registry.timer("t").observe(0.01)
        registry.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        restored = ObsRegistry.from_snapshot(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert restored.snapshot() == registry.snapshot()
        assert restored.names() == registry.names()

    def test_merge_snapshots_folds_workers(self):
        snapshots = []
        for worker in range(3):
            registry = ObsRegistry()
            registry.increment("events", 10.0)
            registry.timer("t").observe(float(worker + 1))
            snapshots.append(registry.snapshot())
        merged = merge_snapshots(snapshots)
        assert merged.counter("events") == 30.0
        assert merged.timer("t").count == 3
        assert merged.timer("t").total == pytest.approx(6.0)


class TestRunContext:
    def test_record_event_namespaces_labels(self):
        context = RunContext(scenario="case-a", seed=7)
        context.record_event("visitor", 0.001)
        context.record_event("visitor", 0.002)
        context.record_event("", 0.003)
        timers = context.registry.timers("sim.event.")
        assert timers["sim.event.visitor"].count == 2
        assert timers["sim.event.unlabelled"].count == 1

    def test_nested_phases_join_with_slash(self):
        context = RunContext()
        with context.phase("simulate"):
            with context.phase("stream"):
                pass
        names = set(context.registry.timers("phase."))
        assert names == {"phase.simulate", "phase.simulate/stream"}

    def test_phase_records_even_on_exception(self):
        context = RunContext()
        with pytest.raises(RuntimeError):
            with context.phase("boom"):
                raise RuntimeError("x")
        assert context.registry.timer("phase.boom").count == 1

    def test_finish_stamps_wall_seconds_once(self):
        context = RunContext()
        context.finish()
        first = context.wall_seconds
        context.finish()
        assert context.wall_seconds == first
        assert context.registry.gauge("run.wall_seconds") == first

    def test_snapshot_round_trip(self):
        context = RunContext(scenario="case-a", seed=7, meta={"k": "v"})
        context.record_event("visitor", 0.001)
        context.finish()
        restored = RunContext.from_snapshot(
            json.loads(json.dumps(context.snapshot()))
        )
        assert restored.run_id == context.run_id
        assert restored.scenario == "case-a"
        assert restored.seed == 7
        assert restored.meta == {"k": "v"}
        assert restored.snapshot() == context.snapshot()

    def test_merge_folds_registries(self):
        a = RunContext(scenario="case-a", seed=1)
        b = RunContext(scenario="case-a", seed=2)
        a.record_event("visitor", 0.001)
        b.record_event("visitor", 0.002)
        a.merge(b)
        assert a.registry.timers()["sim.event.visitor"].count == 2


class TestReports:
    def build_context(self):
        context = RunContext(scenario="case-a", seed=7)
        context.record_event("visitor", 0.001)
        context.registry.increment("web.response.200", 5.0)
        context.registry.timer("web.request./hold").observe(0.002)
        context.finish()
        return context

    def test_json_report_shape(self):
        report = json.loads(render_json(self.build_context()))
        assert report["schema"] == REPORT_SCHEMA
        assert report["run"]["scenario"] == "case-a"
        assert report["run"]["seed"] == 7
        assert report["counters"]["web.response.200"] == 5.0
        digest = report["timers"]["sim.event.visitor"]
        assert set(digest) == {
            "count", "total", "mean", "min", "max", "p50", "p95", "p99",
        }
        assert digest["count"] == 1

    def test_json_report_is_deterministic(self):
        context = self.build_context()
        assert render_json(context) == render_json(context)

    def test_build_report_accepts_bare_registry_with_run_override(self):
        registry = ObsRegistry()
        registry.increment("n")
        report = build_report(registry, run={"run_id": "merged"})
        assert report["run"] == {"run_id": "merged"}
        assert report["counters"]["n"] == 1.0

    def test_prometheus_rendering(self):
        text = render_prometheus(self.build_context())
        lines = text.strip().splitlines()
        assert "repro_web_response_200_total 5" in lines
        assert any(
            line.startswith("repro_web_request_hold_seconds_sum")
            for line in lines
        )
        # Bucket series are cumulative and end with +Inf == _count.
        bucket_lines = [
            line for line in lines
            if line.startswith("repro_sim_event_visitor_seconds_bucket")
        ]
        assert bucket_lines[-1] == (
            'repro_sim_event_visitor_seconds_bucket{le="+Inf"} 1'
        )
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)

    def test_prometheus_names_are_legal(self):
        import re

        text = render_prometheus(self.build_context())
        name_re = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? ")
        for line in text.strip().splitlines():
            assert name_re.match(line), line
