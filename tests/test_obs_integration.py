"""Integration tests: instrumentation on the paper-critical paths.

Covers the Swat update/answer hooks, MessageStats registry mirroring, and
the replication harness's warm-up exclusion (the post-warm-up reset must
clear the registry scope too).
"""

import numpy as np
import pytest

from repro import Swat, obs
from repro.core.queries import exponential_query, linear_query, point_query
from repro.network.messages import MessageKind, MessageStats
from repro.network.topology import Topology
from repro.obs.causal import CausalTracer
from repro.replication.asr import SwatAsr
from repro.replication.async_asr import AsyncSwatAsr
from repro.replication.harness import ReplicationConfig, run_replication


def _stream(n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, n)


class TestSwatInstrumentation:
    def test_update_and_answer_feed_the_registry(self, obs_registry):
        tree = Swat(32)
        for v in _stream(100):
            tree.update(v)
        ans = tree.answer(linear_query(8))
        snap = obs_registry.snapshot()
        assert snap["counters"]["swat.arrivals"] == 100
        assert snap["counters"]["swat.queries"] == 1
        # Every arrival refreshes at least level 0.
        assert snap["counters"]["swat.levels_shifted"] >= 100
        assert snap["histograms"]["swat.maintenance.latency"]["count"] == 100
        assert snap["histograms"]["swat.query.latency"]["count"] == 1
        cover = snap["histograms"]["swat.query.cover_size"]
        assert cover["count"] == 1
        assert cover["max"] == len(ans.nodes_used)

    def test_extrapolations_counted(self, obs_registry):
        tree = Swat(16, min_level=2)
        # 33 arrivals: the newest value postdates the coarsest maintained
        # segment, so a point query at index 0 must clamp-extrapolate.
        for v in _stream(33):
            tree.update(v)
        ans = tree.answer(point_query(0))
        assert ans.n_extrapolated > 0
        assert (
            obs_registry.counter("swat.extrapolations").value == ans.n_extrapolated
        )

    def test_metrics_off_records_nothing(self, obs_disabled_guard):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            tree = Swat(32)
            for v in _stream(200):
                tree.update(v)
            tree.answer(exponential_query(8))
            assert len(registry) == 0  # disabled path allocates no metrics
        finally:
            obs.set_registry(previous)

    def test_metrics_on_does_not_perturb_answers(self, obs_registry):
        data = _stream(300, seed=7)
        queries = [linear_query(8), exponential_query(16), point_query(3)]
        plain = Swat(64)
        obs.disable()
        for v in data:
            plain.update(v)
        plain_answers = [plain.answer(q) for q in queries]
        obs.enable()
        monitored = Swat(64)
        for v in data:
            monitored.update(v)
        for q, expected in zip(queries, plain_answers):
            got = monitored.answer(q)
            assert got.value == expected.value
            assert np.array_equal(got.estimates, expected.estimates)
            assert got.n_extrapolated == expected.n_extrapolated


class TestMessageStatsMirror:
    def test_mirrors_with_protocol_label(self, obs_registry):
        stats = MessageStats(protocol="SWAT-ASR")
        stats.record(MessageKind.QUERY, hops=3)
        stats.record(MessageKind.UPDATE)
        counter = obs_registry.counter("messages.query", protocol="SWAT-ASR")
        assert counter.value == 3
        assert obs_registry.counter("messages.update", protocol="SWAT-ASR").value == 1

    def test_unlabelled_without_protocol(self, obs_registry):
        MessageStats().record(MessageKind.RESPONSE)
        assert obs_registry.counter("messages.response").value == 1

    def test_reset_rewinds_only_own_contributions(self, obs_registry):
        a = MessageStats(protocol="DC")
        b = MessageStats(protocol="DC")
        a.record(MessageKind.QUERY, hops=5)
        b.record(MessageKind.QUERY, hops=2)
        a.reset()
        assert obs_registry.counter("messages.query", protocol="DC").value == 2
        assert a.total == 0 and b.total == 2

    def test_reset_ignores_hops_recorded_while_disabled(self, obs_registry):
        stats = MessageStats(protocol="DC")
        obs.disable()
        stats.record(MessageKind.QUERY, hops=10)  # not mirrored
        obs.enable()
        stats.record(MessageKind.QUERY, hops=1)
        stats.reset()
        # Only the mirrored hop is rewound; the counter never goes negative.
        assert obs_registry.counter("messages.query", protocol="DC").value == 0


class TestHarnessWarmupExclusion:
    CONFIG = ReplicationConfig(
        window_size=8,
        data_period=1.0,
        query_period=1.0,
        phase_period=10.0,
        warmup_time=20.0,
        measure_time=30.0,
        precision=(2.0, 10.0),
        seed=3,
    )

    def _run(self):
        protocol = SwatAsr(Topology.single_client(), self.CONFIG.window_size)
        return protocol, run_replication(protocol, _stream(400, seed=3), self.CONFIG)

    def test_reported_messages_exclude_warmup(self, obs_registry):
        protocol, result = self._run()
        metrics = result.meta["metrics"]
        for kind, measured in result.by_kind.items():
            key = 'messages.{}{{protocol="SWAT-ASR"}}'.format(kind)
            assert metrics["counters"].get(key, 0) == measured
        # The post-warm-up reset rewound the registry scope, so the global
        # registry agrees with the measured-phase counts too.
        snap = obs_registry.snapshot()
        for kind, measured in result.by_kind.items():
            key = 'messages.{}{{protocol="SWAT-ASR"}}'.format(kind)
            assert snap["counters"].get(key, 0) == measured

    def test_reported_arrivals_exclude_warmup(self, obs_registry):
        protocol, result = self._run()
        metrics = result.meta["metrics"]
        measured_arrivals = int(self.CONFIG.measure_time / self.CONFIG.data_period)
        assert metrics["counters"]["swat.arrivals"] == measured_arrivals
        # n_arrivals (seed behaviour) counts fill + warm-up too.
        assert result.n_arrivals > measured_arrivals

    def test_query_latency_histogram_counts_measured_queries_only(self, obs_registry):
        protocol, result = self._run()
        hist = result.meta["metrics"]["histograms"]['query.latency{protocol="SWAT-ASR"}']
        assert hist["count"] == result.n_queries
        hops = result.meta["metrics"]["histograms"]['query.hops{protocol="SWAT-ASR"}']
        assert hops["count"] == result.n_queries
        assert hops["sum"] == pytest.approx(result.mean_query_hops * result.n_queries)

    def test_meta_empty_when_disabled(self, obs_disabled_guard):
        protocol = SwatAsr(Topology.single_client(), self.CONFIG.window_size)
        result = run_replication(protocol, _stream(400, seed=3), self.CONFIG)
        assert "metrics" not in result.meta

    def test_source_summary_tree_always_maintained(self):
        # The paper's central site maintains the SWAT, which feeds the
        # swat.* metrics; ranges come from the raw window.
        asr = SwatAsr(Topology.single_client(), 8)
        asr.on_data(1.0)
        assert asr._summary.time == 1


class TestAsyncAsrTracing:
    def test_unknown_client_leaves_no_unfinished_span(self):
        tracer = CausalTracer()
        asr = AsyncSwatAsr(Topology.paper_example(), 16, causal=tracer)
        for __ in range(16):
            asr.on_data(35.0)
        with pytest.raises(KeyError, match="unknown site 'nope'"):
            asr.on_query("nope", point_query(0, precision=5.0))
        assert [s.name for s in tracer.spans if not s.finished] == []
