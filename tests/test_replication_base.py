"""Tests for repro.replication.base: tolerance allocation helpers and the
ingest gate every replication protocol shares."""

import numpy as np
import pytest

from repro.core.errors import MAX_STREAM_MAGNITUDE
from repro.core.queries import InnerProductQuery, linear_query, point_query
from repro.network.topology import Topology
from repro.replication.async_asr import AsyncSwatAsr
from repro.replication.base import per_index_tolerances, uniform_tolerance
from repro.replication.harness import make_protocol

N = 16

PROTOCOL_FACTORIES = {
    "SWAT-ASR": lambda topo: make_protocol("SWAT-ASR", topo, N),
    "SWAT-ASR (async)": lambda topo: AsyncSwatAsr(topo, N),
    "DC": lambda topo: make_protocol("DC", topo, N),
    "APS": lambda topo: make_protocol("APS", topo, N),
}


class TestUniformTolerance:
    def test_point_query_tolerance_is_delta(self):
        assert uniform_tolerance(point_query(3, precision=8.0)) == 8.0

    def test_weighted_sum_equals_delta(self):
        q = linear_query(8, precision=12.0)
        tol = uniform_tolerance(q)
        assert sum(w * tol for w in q.weights) == pytest.approx(12.0)

    def test_zero_weights_rejected(self):
        q = InnerProductQuery((0, 1), (0.0, 0.0), precision=1.0)
        with pytest.raises(ValueError):
            uniform_tolerance(q)


class TestPerIndexTolerances:
    def test_point_query(self):
        tols = per_index_tolerances(point_query(3, precision=8.0))
        assert tols == {3: 8.0}

    def test_weighted_sum_equals_delta(self):
        q = linear_query(8, precision=12.0)
        tols = per_index_tolerances(q)
        total = sum(w * tols[i] for i, w in zip(q.indices, q.weights))
        assert total == pytest.approx(12.0)

    def test_high_weight_items_get_tight_tolerance(self):
        q = linear_query(8, precision=12.0)
        tols = per_index_tolerances(q)
        assert tols[0] < tols[7]  # index 0 carries weight 1, index 7 weight 1/8

    def test_non_positive_weight_rejected(self):
        q = InnerProductQuery((0,), (0.0,), precision=1.0)
        # frozen dataclass allows 0 weight; the allocator must refuse it
        with pytest.raises(ValueError):
            per_index_tolerances(q)


class TestNonFiniteArrivals:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_rejected_before_any_state_changes(self, name, bad):
        topo = Topology.paper_example()
        protocol = PROTOCOL_FACTORIES[name](topo)
        twin = PROTOCOL_FACTORIES[name](topo)  # sees only the finite values
        for t, v in enumerate(np.random.default_rng(3).uniform(0, 100, N)):
            protocol.on_data(float(v), now=float(t))
            twin.on_data(float(v), now=float(t))
        with pytest.raises(ValueError, match="finite"):
            protocol.on_data(bad, now=float(N))
        protocol.on_data(42.0, now=N + 1.0)
        twin.on_data(42.0, now=N + 1.0)
        q = point_query(0, precision=5.0)
        assert protocol.on_query("C3", q, now=N + 2.0) == twin.on_query("C3", q, now=N + 2.0)
        assert protocol.stats.snapshot() == twin.stats.snapshot()


class TestStreamValueBound:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_bound_accepted_and_answers_finite(self, name):
        protocol = PROTOCOL_FACTORIES[name](Topology.paper_example())
        for t in range(2 * N):
            sign = 1.0 if t % 2 else -1.0
            protocol.on_data(sign * MAX_STREAM_MAGNITUDE, now=float(t))
        q = point_query(0, precision=5.0)
        assert np.isfinite(protocol.on_query("C3", q, now=2.0 * N))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_past_the_bound_rejected_before_any_state_changes(self, name, sign):
        past = sign * float(np.nextafter(MAX_STREAM_MAGNITUDE, np.inf))
        topo = Topology.paper_example()
        protocol = PROTOCOL_FACTORIES[name](topo)
        twin = PROTOCOL_FACTORIES[name](topo)
        for t, v in enumerate(np.random.default_rng(3).uniform(0, 100, N)):
            protocol.on_data(float(v), now=float(t))
            twin.on_data(float(v), now=float(t))
        with pytest.raises(ValueError, match=r"at most 1e\+138 in magnitude"):
            protocol.on_data(past, now=float(N))
        protocol.on_data(42.0, now=N + 1.0)
        twin.on_data(42.0, now=N + 1.0)
        q = point_query(0, precision=5.0)
        assert protocol.on_query("C3", q, now=N + 2.0) == twin.on_query("C3", q, now=N + 2.0)
        assert protocol.stats.snapshot() == twin.stats.snapshot()
