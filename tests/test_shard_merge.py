"""Regression + property tests for the snapshot merges sharding uses.

The first three test classes pin bugs found while wiring the shard
merge — each failed against the pre-fix implementation:

* the world registry's merge created empty series entries when
  folding a snapshot that carried them, so merging an "empty" recorder
  was not an identity (snapshot equality broke);
* the world registry's merge broke equal-timestamp ties by fold order,
  so a shard fold's series depended on shard completion order;
* ``ObsRegistry.merge`` materialised missing timers with *default*
  bounds, so folding a custom-bounds timer into a fresh registry (the
  first step of every worker/shard fold) raised ``ValueError``.

The hypothesis classes then pin the algebra the shard fold needs:
merging payloads is associative and commutative up to gauge
last-write-wins, and the entity-graph snapshot fold is a commutative,
associative, idempotent union.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import EntityGraph
from repro.graph.entities import EntityId
from repro.obs.core import DEFAULT_TIME_BOUNDS, ObsRegistry, Timer
from repro.shard.merge import (
    MAX,
    MEAN,
    SUM,
    merge_payloads,
    reduce_metric,
    reduction_for,
)

from tests.graph_oracle import neighbor_weights


class TestEmptyMergeIsIdentity:
    def test_merging_fresh_recorder_preserves_snapshot(self):
        recorder = ObsRegistry()
        recorder.increment("holds", 3.0)
        recorder.record("rate", 1.0, 2.0)
        before = recorder.snapshot()
        recorder.merge(ObsRegistry())
        assert recorder.snapshot() == before

    def test_snapshot_with_empty_series_list_is_identity(self):
        # A snapshot can legitimately carry a series name with zero
        # points (e.g. rebuilt from JSON); folding it in must not
        # create an empty series entry on the target.
        recorder = ObsRegistry()
        recorder.increment("holds", 3.0)
        before = recorder.snapshot()
        hollow = ObsRegistry.from_snapshot(
            {"counters": {}, "gauges": {}, "series": {"ghost": []}}
        )
        recorder.merge(hollow)
        assert recorder.snapshot() == before
        assert "ghost" not in recorder.series_names()

    def test_merge_into_empty_recorder_copies_exactly(self):
        recorder = ObsRegistry()
        recorder.increment("holds", 3.0)
        recorder.set_gauge("open", 2.0)
        recorder.record("rate", 1.0, 2.0)
        target = ObsRegistry()
        target.merge(recorder)
        assert target.snapshot() == recorder.snapshot()


class TestSeriesMergeOrderIndependence:
    def test_equal_timestamp_ties_do_not_depend_on_fold_order(self):
        a = ObsRegistry()
        b = ObsRegistry()
        a.record("load", 5.0, 2.0)
        b.record("load", 5.0, 1.0)
        ab = ObsRegistry()
        ab.merge(a)
        ab.merge(b)
        ba = ObsRegistry()
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot()["series"] == ba.snapshot()["series"]

    def test_three_way_shard_fold_is_schedule_independent(self):
        shards = []
        for value in (3.0, 1.0, 2.0):
            shard = ObsRegistry()
            shard.record("events", 10.0, value)
            shard.record("events", 20.0, value)
            shards.append(shard)
        folds = []
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            fold = ObsRegistry()
            for index in order:
                fold.merge(shards[index])
            folds.append(fold.snapshot())
        assert folds[0] == folds[1] == folds[2]


class TestObsTimerMerge:
    def test_custom_bounds_timer_merges_into_fresh_registry(self):
        source = ObsRegistry()
        timer = source._timers["stage"] = Timer(bounds=(0.5, 1.0, 2.0))
        timer.observe(0.7)
        target = ObsRegistry()
        target.merge(source)  # pre-fix: ValueError (bounds mismatch)
        merged = target.timer("stage")
        assert merged.histogram.bounds == (0.5, 1.0, 2.0)
        assert merged.count == 1

    def test_default_bounds_still_default(self):
        source = ObsRegistry()
        source.timer("stage").observe(0.1)
        target = ObsRegistry()
        target.merge(source)
        assert target.timer("stage").histogram.bounds == DEFAULT_TIME_BOUNDS


def node(value):
    return EntityId("fp", value)


class TestGraphSnapshotMerge:
    def build(self, edges):
        graph = EntityGraph()
        for a, b, w, t in edges:
            graph.add_edge(node(a), node(b), w, time=t)
        return graph

    def test_round_trip(self):
        graph = self.build([("a", "b", 0.5, 1.0), ("b", "c", 0.9, 3.0)])
        clone = EntityGraph.from_snapshot(graph.snapshot(include_spans=True))
        assert clone.snapshot(include_spans=True) == graph.snapshot(
            include_spans=True
        )

    def test_merge_is_union_with_max_weight_and_span_envelope(self):
        left = self.build([("a", "b", 0.5, 1.0)])
        right = self.build([("a", "b", 0.8, 9.0), ("b", "c", 0.3, 4.0)])
        merged = EntityGraph.from_snapshot(
            left.snapshot(include_spans=True)
        )
        merged.merge_snapshot(right.snapshot(include_spans=True))
        assert neighbor_weights(merged, node("a"))[node("b")] == 0.8
        assert merged.first_seen(node("a")) == 1.0
        assert merged.last_seen(node("a")) == 9.0
        assert merged.edge_count == 2

    def test_json_round_trip_listifies_entity_ids(self):
        import json

        graph = self.build([("a", "b", 0.5, 1.0)])
        rehydrated = json.loads(
            json.dumps(graph.snapshot(include_spans=True))
        )
        clone = EntityGraph.from_snapshot(rehydrated)
        assert clone.snapshot(include_spans=True) == graph.snapshot(
            include_spans=True
        )

    edge_lists = st.lists(
        st.tuples(
            st.sampled_from("abcd"),
            st.sampled_from("efgh"),
            st.floats(min_value=0.1, max_value=1.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=8,
    )

    @settings(max_examples=60, deadline=None)
    @given(left=edge_lists, right=edge_lists)
    def test_merge_commutes(self, left, right):
        a, b = self.build(left), self.build(right)
        ab = EntityGraph()
        ab.merge_snapshot(a.snapshot(include_spans=True))
        ab.merge_snapshot(b.snapshot(include_spans=True))
        ba = EntityGraph()
        ba.merge_snapshot(b.snapshot(include_spans=True))
        ba.merge_snapshot(a.snapshot(include_spans=True))
        assert ab.snapshot(include_spans=True) == ba.snapshot(
            include_spans=True
        )

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(edge_lists, min_size=3, max_size=3))
    def test_merge_associates(self, parts):
        graphs = [
            self.build(part).snapshot(include_spans=True) for part in parts
        ]
        left = EntityGraph()
        left.merge_snapshot(graphs[0])
        left.merge_snapshot(graphs[1])
        left_then = EntityGraph.from_snapshot(
            left.snapshot(include_spans=True)
        )
        left_then.merge_snapshot(graphs[2])
        inner = EntityGraph()
        inner.merge_snapshot(graphs[1])
        inner.merge_snapshot(graphs[2])
        right_then = EntityGraph.from_snapshot(graphs[0])
        right_then.merge_snapshot(inner.snapshot(include_spans=True))
        assert left_then.snapshot(include_spans=True) == right_then.snapshot(
            include_spans=True
        )

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists)
    def test_merge_is_idempotent(self, edges):
        graph = self.build(edges)
        snap = graph.snapshot(include_spans=True)
        graph.merge_snapshot(snap)
        assert graph.snapshot(include_spans=True) == snap


class TestMetricReduction:
    def test_counts_sum_and_ratios_average(self):
        assert reduction_for("case-a", "attacker_holds_created") == SUM
        assert reduction_for("case-a", "blocked_fraction") == MEAN
        assert reduction_for("case-b", "legit_false_positive_rate") == MEAN
        assert reduction_for("case-c", "countries_targeted") == MAX
        assert reduction_for("case-c", "detection_latency") == MEAN

    def test_mean_skips_not_measured_sentinels(self):
        assert reduce_metric(MEAN, [-1.0, 4.0, 2.0]) == 3.0
        assert reduce_metric(MEAN, [-1.0, -1.0]) == -1.0

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            reduce_metric("median", [1.0])


def payload(counter, series_value, metric, gauge=None):
    recorder = ObsRegistry()
    recorder.increment("events", counter)
    recorder.record("load", 1.0, series_value)
    if gauge is not None:
        recorder.set_gauge("open", gauge)
    return {
        "metrics": {"web_requests": metric, "blocked_fraction": 0.5},
        "info": {"tag": counter},
        "recorder": recorder.snapshot(),
    }


class TestMergePayloads:
    def test_single_payload_passes_through(self):
        single = payload(1.0, 2.0, 3.0)
        assert merge_payloads("case-a", [single]) == single

    def test_extensive_sums_intensive_averages(self):
        merged = merge_payloads(
            "case-a", [payload(1.0, 2.0, 10.0), payload(2.0, 1.0, 30.0)]
        )
        assert merged["metrics"]["web_requests"] == 40.0
        assert merged["metrics"]["blocked_fraction"] == 0.5
        recorder = ObsRegistry.from_snapshot(merged["recorder"])
        assert recorder.counter("events") == 3.0
        assert merged["info"]["shard_count"] == 2

    def test_merge_commutes_up_to_gauges(self):
        a, b = payload(1.0, 2.0, 10.0), payload(2.0, 1.0, 30.0)
        ab = merge_payloads("case-a", [a, b])
        ba = merge_payloads("case-a", [b, a])
        assert ab["metrics"] == ba["metrics"]
        assert ab["recorder"]["counters"] == ba["recorder"]["counters"]
        assert ab["recorder"]["series"] == ba["recorder"]["series"]

    def test_case_c_ratio_recomputed_from_summed_components(self):
        shard0 = {
            "metrics": {
                "global_increase_percent": 300.0,
                "sms_baseline_total": 100.0,
                "sms_window_total": 400.0,
            },
            "info": {},
            "recorder": {},
        }
        shard1 = {
            "metrics": {
                "global_increase_percent": 0.0,
                "sms_baseline_total": 300.0,
                "sms_window_total": 300.0,
            },
            "info": {},
            "recorder": {},
        }
        merged = merge_payloads("case-c", [shard0, shard1])
        # (700 - 400) / 400, not mean(300%, 0%).
        assert merged["metrics"]["global_increase_percent"] == 75.0

    def test_zero_payloads_rejected(self):
        with pytest.raises(ValueError):
            merge_payloads("case-a", [])

    def test_graph_snapshots_union(self):
        left = EntityGraph()
        left.add_edge(node("a"), node("b"), 0.5, time=1.0)
        right = EntityGraph()
        right.add_edge(node("b"), node("c"), 0.9, time=2.0)
        merged = merge_payloads(
            "graph-case-a",
            [
                {
                    "metrics": {"campaigns_found": 1.0},
                    "recorder": {},
                    "graph": left.snapshot(include_spans=True),
                },
                {
                    "metrics": {"campaigns_found": 2.0},
                    "recorder": {},
                    "graph": right.snapshot(include_spans=True),
                },
            ],
        )
        union = EntityGraph.from_snapshot(merged["graph"])
        assert union.edge_count == 2
        assert union.node_count == 3
