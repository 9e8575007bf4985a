"""Tests for the actor-based SWAT-ASR over the message transport.

The headline property: at zero latency the async execution is step-for-step
equivalent to the synchronous implementation — identical message counts by
kind, identical answers, identical cached state.  With positive latency it
measures real response times.
"""

import numpy as np
import pytest

from repro.core.queries import linear_query, point_query
from repro.network.messages import MessageKind
from repro.network.topology import SOURCE, Topology
from repro.network.transport import Transport
from repro.replication.asr import SwatAsr
from repro.replication.async_asr import AsyncSwatAsr
from repro.simulate.events import Simulator

N = 16

#: Per-kind message counts of the seed-1, 2000-step schedule on the 30-client
#: binary tree at N=64 (length-24 linear queries), recorded from the
#: synchronous runtime; both runtimes must reproduce them exactly.
BINARY30_COUNTS = {
    "query": 2928,
    "response": 2928,
    "update": 1447,
    "insert": 457,
    "unsubscribe": 457,
}


def make_pair(topology=None, window=N):
    topo = topology or Topology.paper_example()
    return SwatAsr(topo, window), AsyncSwatAsr(topo, window, latency=0.0), topo


def random_schedule(seed=0, steps=250, clients=4):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(steps):
        r = rng.random()
        if r < 0.45:
            out.append(("data", float(rng.uniform(0, 100)), None, None))
        elif r < 0.9:
            out.append(
                ("query", None, int(rng.integers(0, clients)), float(rng.uniform(1, 30)))
            )
        else:
            out.append(("phase", None, None, None))
    return out


class TestTransport:
    def test_adjacency_enforced(self):
        topo = Topology.paper_example()
        sim = Simulator()
        tr = Transport(sim, topo)
        tr.register("C3", lambda env: None)
        with pytest.raises(ValueError):
            tr.send(SOURCE, "C3", MessageKind.QUERY)  # two hops apart

    def test_unregistered_destination_rejected(self):
        topo = Topology.paper_example()
        tr = Transport(Simulator(), topo)
        with pytest.raises(KeyError):
            tr.send("C1", SOURCE, MessageKind.QUERY)

    def test_latency_delays_delivery(self):
        topo = Topology.single_client()
        sim = Simulator()
        tr = Transport(sim, topo, latency=5.0)
        seen = []
        tr.register("C1", lambda env: seen.append(sim.now))
        tr.send(SOURCE, "C1", MessageKind.UPDATE)
        assert tr.in_flight == 1
        sim.run_until(4.9)
        assert seen == []
        sim.run_until(5.0)
        assert seen == [5.0]
        assert tr.in_flight == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Transport(Simulator(), Topology.single_client(), latency=-1.0)

    def test_bad_kind_rejected(self):
        topo = Topology.single_client()
        tr = Transport(Simulator(), topo)
        tr.register("C1", lambda env: None)
        with pytest.raises(ValueError):
            tr.send(SOURCE, "C1", "smoke-signal")


class TestZeroLatencyEquivalence:
    @pytest.mark.parametrize(
        "seed, at_scale", [(0, False), (1, False), (2, False), (1, True)],
        ids=["0", "1", "2", "binary30-N64-1"],
    )
    def test_message_counts_answers_and_state_match(self, seed, at_scale):
        if at_scale:
            sync, async_, topo = make_pair(Topology.complete_binary_tree(30), 64)
            schedule, query_length = random_schedule(seed, steps=2000, clients=30), 24
        else:
            sync, async_, topo = make_pair()
            schedule, query_length = random_schedule(seed), 6
        clients = topo.clients
        for v in np.random.default_rng(99).uniform(0, 100, sync.window_size):
            sync.on_data(float(v))
            async_.on_data(float(v))
        for kind, value, client_idx, precision in schedule:
            if kind == "data":
                sync.on_data(value)
                async_.on_data(value)
            elif kind == "phase":
                sync.on_phase_end()
                async_.on_phase_end()
            else:
                client = clients[client_idx % len(clients)]
                q = linear_query(query_length, precision=precision)
                a = sync.on_query(client, q)
                b = async_.on_query(client, q)
                assert a == pytest.approx(b)
        assert sync.stats.snapshot() == async_.stats.snapshot()
        if at_scale:
            assert sync.stats.snapshot() == BINARY30_COUNTS
        for node in topo.nodes:
            for seg in sync.sites[SOURCE].segments:
                s_row = sync.sites[node].row(seg)
                a_row = async_.sites[node].directory.row(seg)
                assert s_row.approx == a_row.approx
                assert s_row.subscribed == a_row.subscribed

    def test_walkthrough_matches_sync(self):
        sync, async_, __ = make_pair()
        for impl in (sync, async_):
            for __unused in range(N):
                impl.on_data(35.0)
            impl.on_query("C3", point_query(3, precision=20.0))
            impl.on_phase_end()
        assert sync.stats.snapshot() == async_.stats.snapshot()
        assert async_.sites["C1"].directory.row(
            sync.sites[SOURCE].segments[1]
        ).is_cached == sync.sites["C1"].row(sync.sites[SOURCE].segments[1]).is_cached


class TestLatencyMeasurement:
    def test_cached_answers_have_zero_latency(self):
        async_ = AsyncSwatAsr(Topology.paper_example(), N, latency=0.5)
        for __ in range(N):
            async_.on_data(35.0)
        async_.on_query("C3", point_query(3, precision=20.0))
        # First query went to the source: 2 hops up, 2 back, 0.5 s per hop.
        assert async_.query_latencies[-1] == pytest.approx(2.0)
        async_.on_phase_end()
        async_.on_query("C3", point_query(3, precision=20.0))  # C1 satisfies
        assert async_.query_latencies[-1] == pytest.approx(1.0)
        async_.on_phase_end()
        async_.on_query("C3", point_query(3, precision=20.0))  # local now
        assert async_.query_latencies[-1] == pytest.approx(0.0)
        assert async_.mean_query_latency() == pytest.approx(1.0)

    def test_replication_cuts_measured_latency(self):
        """The paper's latency motivation, observed directly."""
        rng = np.random.default_rng(5)
        async_ = AsyncSwatAsr(Topology.complete_binary_tree(6), 32, latency=0.01)
        for v in rng.uniform(0, 100, 32):
            async_.on_data(float(v))
        early, late = [], []
        for step in range(300):
            async_.on_data(float(rng.uniform(0, 100)))
            q = linear_query(6, precision=25.0)
            lat_list = early if step < 50 else late
            async_.on_query("C6", q)
            lat_list.append(async_.query_latencies[-1])
            if step % 10 == 9:
                async_.on_phase_end()
        assert np.mean(late) <= np.mean(early) + 1e-9

    def test_mean_latency_requires_queries(self):
        async_ = AsyncSwatAsr(Topology.single_client(), N)
        with pytest.raises(ValueError):
            async_.mean_query_latency()

    def test_query_before_warm_rejected(self):
        async_ = AsyncSwatAsr(Topology.single_client(), N)
        with pytest.raises(RuntimeError):
            async_.on_query("C1", point_query(0))
