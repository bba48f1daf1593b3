"""Property-based tests for replication seeding and metric merging.

Two invariants the parallel runner's correctness rests on:

* **seed disjointness** — distinct ``(config_hash, replication)`` pairs
  (under any master seed) never collide on derived seeds, so sweep
  cells draw from independent RNG streams;
* **merge algebra** — ``ObsRegistry.merge`` is associative and
  commutative on every section (counters, gauges with disjoint names,
  series, timers, histograms): series points stay time-sorted and
  equal-timestamp ties break on value, not fold order, so the merged
  result is independent of which worker or shard produced which piece.
  ``from_snapshot(snapshot())`` round-trips exactly, also through the
  JSON the result cache stores.
"""

import json
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.obs import ObsRegistry, merge_snapshots
from repro.runner import config_hash
from repro.sim.rng import derive_replication_seed

# -- seeding ----------------------------------------------------------------

hashes = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=64
)
replications = st.integers(min_value=0, max_value=10_000)


class TestReplicationSeeding:
    @settings(max_examples=200, deadline=None)
    @given(
        master=st.integers(min_value=0, max_value=2**32),
        pairs=st.lists(
            st.tuples(hashes, replications),
            min_size=2,
            max_size=30,
            unique=True,
        ),
    )
    def test_distinct_cells_never_collide(self, master, pairs):
        seeds = [
            derive_replication_seed(master, digest, replication)
            for digest, replication in pairs
        ]
        assert len(set(seeds)) == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(master=st.integers(min_value=0, max_value=2**32),
           digest=hashes, replication=replications)
    def test_seed_is_deterministic(self, master, digest, replication):
        assert derive_replication_seed(
            master, digest, replication
        ) == derive_replication_seed(master, digest, replication)

    @settings(max_examples=100, deadline=None)
    @given(digest=hashes, replication=replications)
    def test_master_seed_separates_streams(self, digest, replication):
        assert derive_replication_seed(
            0, digest, replication
        ) != derive_replication_seed(1, digest, replication)


# -- config hashing ---------------------------------------------------------

param_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
param_dicts = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
    ),
    param_values,
    max_size=8,
)


class TestConfigHash:
    @settings(max_examples=100, deadline=None)
    @given(params=param_dicts)
    def test_insertion_order_is_irrelevant(self, params):
        shuffled = dict(reversed(list(params.items())))
        assert config_hash(params) == config_hash(shuffled)

    @settings(max_examples=100, deadline=None)
    @given(params=param_dicts, seed=st.integers())
    def test_seed_is_excluded(self, params, seed):
        params.pop("seed", None)
        assert config_hash(params) == config_hash(dict(params, seed=seed))


# -- merge algebra ----------------------------------------------------------

counter_dicts = st.dictionaries(
    st.sampled_from(["holds", "blocks", "sms", "visits"]),
    st.integers(min_value=0, max_value=1000).map(float),
    max_size=4,
)
series_points = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=100).map(float),
        st.integers(min_value=-50, max_value=50).map(float),
    ),
    max_size=12,
)
series_dicts = st.dictionaries(
    st.sampled_from(["rate", "load"]), series_points, max_size=2
)


#: Dyadic durations, so float sums are exact and associativity is
#: checked bit for bit.
durations = st.lists(
    st.integers(min_value=0, max_value=400).map(lambda n: n / 64), max_size=6
)
timer_dicts = st.dictionaries(
    st.sampled_from(["sim.step", "web.edge"]), durations, max_size=2
)
gauge_dicts = st.dictionaries(
    st.sampled_from(["nodes", "rounds"]),
    st.integers(min_value=0, max_value=1000).map(float),
    max_size=2,
)
#: Custom bounds: merging into a fresh registry must adopt them.
SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0)


def build_registry(tag, counters, series, gauges, timers, sizes) -> ObsRegistry:
    registry = ObsRegistry()
    for name, value in counters.items():
        registry.increment(name, value)
    for name, points in series.items():
        for time, value in sorted(points):
            registry.record(name, time, value)
    # Gauges are last-write-wins: each piece owns its own names.
    for name, value in gauges.items():
        registry.set_gauge(f"{tag}.{name}", value)
    for name, values in timers.items():
        for value in values:
            registry.timer(name).observe(value)
    for value in sizes:
        registry.histogram("size", SIZE_BOUNDS).observe(value)
    return registry


def registries(tag):
    return st.builds(
        partial(build_registry, tag),
        counter_dicts,
        series_dicts,
        gauge_dicts,
        timer_dicts,
        durations,
    )


def merged(*parts: ObsRegistry) -> ObsRegistry:
    out = ObsRegistry()
    for part in parts:
        out.merge(part)
    return out


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"), b=registries("b"))
    def test_counters_commute(self, a, b):
        ab, ba = merged(a, b).snapshot(), merged(b, a).snapshot()
        assert ab["counters"] == ba["counters"]
        # ...and so does every other section.
        assert ab == ba

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"), b=registries("b"), c=registries("c"))
    def test_merge_is_associative(self, a, b, c):
        left = merged(merged(a, b), c).snapshot()
        right = merged(a, merged(b, c)).snapshot()
        assert left["counters"] == right["counters"]
        assert left["series"] == right["series"]
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"), b=registries("b"))
    def test_snapshot_fold_equals_merge(self, a, b):
        # The runner and shard merge fold snapshots, not registries.
        folded = merge_snapshots([a.snapshot(), b.snapshot()])
        assert folded.snapshot() == merged(a, b).snapshot()

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"))
    def test_empty_merge_is_identity(self, a):
        assert merged(a, ObsRegistry()).snapshot() == a.snapshot()

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"), b=registries("b"))
    def test_series_stay_sorted_and_order_independent(self, a, b):
        combined = merged(a, b)
        for name in combined.series_names():
            points = combined.series(name)
            times = [point.time for point in points]
            assert times == sorted(times)
            # Order-independent: equal-timestamp ties break on value,
            # not on fold order, so merging b-then-a gives the same
            # sequence — the property shard merges rely on.
            expected = sorted(
                a.series(name) + b.series(name),
                key=lambda p: (p.time, p.value),
            )
            assert points == expected
            assert merged(b, a).series(name) == points

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"))
    def test_snapshot_round_trips(self, a):
        clone = ObsRegistry.from_snapshot(a.snapshot())
        assert clone.snapshot() == a.snapshot()

    @settings(max_examples=100, deadline=None)
    @given(a=registries("a"))
    def test_snapshot_round_trips_through_json(self, a):
        # The sweep result cache stores snapshots as JSON.
        text = json.dumps(a.snapshot())
        clone = ObsRegistry.from_snapshot(json.loads(text))
        assert json.dumps(clone.snapshot()) == text
