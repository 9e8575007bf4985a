"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro import obs
from repro.network.topology import Topology
from repro.network.transport import Transport
from repro.obs.metrics import render_key, snapshot_delta
from repro.simulate.events import Simulator


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        c.inc(4)
        assert reg.counter("events") is c
        assert c.value == 5

    def test_gauge_set_inc_dec(self):
        reg = obs.MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_labels_make_distinct_series(self):
        reg = obs.MetricsRegistry()
        a = reg.counter("messages.query", protocol="DC")
        b = reg.counter("messages.query", protocol="APS")
        assert a is not b
        a.inc(3)
        snap = reg.snapshot()
        assert snap["counters"]['messages.query{protocol="DC"}'] == 3
        assert snap["counters"]['messages.query{protocol="APS"}'] == 0

    def test_label_order_is_canonical(self):
        reg = obs.MetricsRegistry()
        a = reg.counter("m", b="2", a="1")
        assert reg.counter("m", a="1", b="2") is a
        assert render_key(a.name, a.labels) == 'm{a="1",b="2"}'

    def test_type_clash_rejected(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)
        assert h.min == 0.5
        assert h.max == 50.0
        assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, +Inf
        snap = h.snapshot()
        assert snap["buckets"] == {"1": 1, "10": 1, "+Inf": 1}

    def test_time_context_manager_records_a_lap(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat")
        with h.time():
            sum(range(100))
        assert h.count == 1
        assert h.sum >= 0.0

    def test_quantile_of_empty_histogram_raises(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat")
        with pytest.raises(ValueError, match="empty"):
            h.quantile(0.5)

    def test_quantile_upper_edge_estimate(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            obs.MetricsRegistry().histogram("h", buckets=())


class TestTransportMetrics:
    def test_hop_latency_histogram_matches_configured_latency(self, obs_registry):
        sim = Simulator()
        topo = Topology.single_client()
        transport = Transport(sim, topo, latency=0.1)
        for node in topo.nodes:
            transport.register(node, lambda env: None)
        client = topo.clients[0]
        for __ in range(8):
            transport.send(client, topo.root, "query")
            transport.drain()
        hist = obs_registry.histogram("transport.hop_latency")
        assert hist.count == 8
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(0.1)
        assert hist.sum == pytest.approx(0.8)
        assert obs_registry.counter("transport.sent").value == 8
        assert obs_registry.counter("transport.delivered").value == 8


class TestRegistry:
    def test_snapshot_shape(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["c"] == 1
        assert snap["gauges"]["g"] == 2
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset_all_and_by_prefix(self):
        reg = obs.MetricsRegistry()
        reg.counter("swat.arrivals").inc()
        reg.counter("messages.query").inc()
        reg.reset(prefix="swat.")
        assert len(reg) == 1
        reg.reset()
        assert len(reg) == 0

    def test_global_enable_disable_roundtrip(self, obs_registry):
        from repro.obs import metrics as m

        assert m.ENABLED is True
        assert obs.get_registry() is obs_registry
        obs.counter("c").inc()
        assert obs.metrics_snapshot()["counters"]["c"] == 1

    def test_disabled_by_default(self, obs_disabled_guard):
        from repro.obs import metrics as m

        assert m.ENABLED is False


class TestSnapshotDelta:
    def test_counters_subtract_gauges_take_after(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(1)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.gauge("g").set(9)
        reg.counter("new").inc(2)
        delta = snapshot_delta(reg.snapshot(), before)
        assert delta["counters"]["c"] == 3
        assert delta["counters"]["new"] == 2
        assert delta["gauges"]["g"] == 9

    def test_histograms_subtract_counts_and_buckets(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        before = reg.snapshot()
        h.observe(1.5)
        h.observe(5.0)
        delta = snapshot_delta(reg.snapshot(), before)["histograms"]["h"]
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(6.5)
        assert delta["buckets"] == {"1": 0, "2": 1, "+Inf": 1}
