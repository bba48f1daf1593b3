"""The world's metrics: counters, gauges and simulated-clock series.

The simulated world records into :class:`repro.obs.ObsRegistry`, the
repo's one metrics registry; these cases pin the parts of its API the
substrates use.
"""

import pytest

from repro.obs import ObsRegistry


class TestCounters:
    def test_default_zero(self):
        assert ObsRegistry().counter("missing") == 0.0

    def test_increment_accumulates(self):
        metrics = ObsRegistry()
        metrics.increment("hits")
        metrics.increment("hits", 2.5)
        assert metrics.counter("hits") == 3.5

    def test_prefix_filter(self):
        metrics = ObsRegistry()
        metrics.increment("sms.sent")
        metrics.increment("sms.rejected")
        metrics.increment("web.requests")
        assert set(metrics.counters("sms.")) == {"sms.sent", "sms.rejected"}


class TestGauges:
    def test_last_write_wins(self):
        metrics = ObsRegistry()
        metrics.set_gauge("load", 0.4)
        metrics.set_gauge("load", 0.9)
        assert metrics.gauge("load") == 0.9

    def test_default(self):
        assert ObsRegistry().gauge("none", default=1.5) == 1.5


class TestSeries:
    def test_record_and_read(self):
        metrics = ObsRegistry()
        metrics.record("nip", 1.0, 2.0)
        metrics.record("nip", 3.0, 6.0)
        assert [point.value for point in metrics.series("nip")] == [2.0, 6.0]

    def test_time_must_be_nondecreasing(self):
        metrics = ObsRegistry()
        metrics.record("nip", 5.0, 1.0)
        with pytest.raises(ValueError):
            metrics.record("nip", 4.0, 1.0)

    def test_equal_times_allowed(self):
        metrics = ObsRegistry()
        metrics.record("nip", 5.0, 1.0)
        metrics.record("nip", 5.0, 2.0)
        assert len(metrics.series("nip")) == 2

    def test_series_names_prefix(self):
        metrics = ObsRegistry()
        metrics.record("a.x", 0.0, 1.0)
        metrics.record("a.y", 0.0, 1.0)
        metrics.record("b.z", 0.0, 1.0)
        assert metrics.series_names("a.") == ["a.x", "a.y"]

    def test_empty_series(self):
        metrics = ObsRegistry()
        assert metrics.series("nothing") == []
        # Reading a series must not create it.
        assert metrics.series_names() == []


class TestMerge:
    def test_merge_counters_and_series(self):
        a = ObsRegistry()
        b = ObsRegistry()
        a.increment("hits", 2)
        b.increment("hits", 3)
        a.record("s", 1.0, 1.0)
        b.record("s", 0.5, 2.0)
        a.merge(b)
        assert a.counter("hits") == 5
        assert [p.time for p in a.series("s")] == [0.5, 1.0]
