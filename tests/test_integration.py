"""End-to-end integration tests tying the subsystems together.

These are scaled-down versions of the paper's headline claims; the
full-scale numbers live in the benchmark suite.
"""

import numpy as np
import pytest

from repro import (
    HistogramSummary,
    Swat,
    Topology,
    exponential_query,
    make_protocol,
    run_replication,
)
from repro.data import FixedWorkload, make_query, santa_barbara_temps, uniform_stream
from repro.experiments import run_error_experiment
from repro.metrics import Stopwatch
from repro.replication import ReplicationConfig


class TestCentralizedClaims:
    """Section 2.7's comparison, scaled down."""

    def test_swat_beats_histogram_on_biased_queries_real_data(self):
        stream = santa_barbara_temps()
        N = 256
        workload = FixedWorkload(make_query("exponential", 32))
        swat = run_error_experiment(
            stream, N, Swat(N), workload, warmup=1000, query_every=48
        )
        hist = run_error_experiment(
            stream, N, HistogramSummary(N, 24, 0.1), workload,
            warmup=1000, query_every=48,
        )
        assert swat.mean < hist.mean

    def test_swat_query_time_orders_of_magnitude_faster(self):
        N = 512
        stream = uniform_stream(2 * N, seed=0)
        tree = Swat(N)
        hist = HistogramSummary(N, n_buckets=20, eps=0.1)
        tree.extend(stream)
        hist.extend(stream)
        q = exponential_query(32)
        sw_t, hi_t = Stopwatch(), Stopwatch()
        for __ in range(20):
            with sw_t:
                tree.answer(q)
        with hi_t:
            hist.answer(q)
        assert hi_t.mean / sw_t.mean > 30.0

    def test_swat_space_is_logarithmic(self):
        sizes = {}
        for N in (64, 256, 1024):
            tree = Swat(N)
            tree.extend(uniform_stream(3 * N, seed=1))
            sizes[N] = tree.memory_coefficients
        # 16x window growth -> only ~2x summary growth.
        assert sizes[1024] < 2.5 * sizes[64]

    def test_error_biased_toward_recent_values(self):
        stream = santa_barbara_temps()
        tree = Swat(256)
        tree.extend(stream)
        window = stream[-256:][::-1]
        rec = tree.reconstruct_window()
        err = np.abs(rec - window)
        assert err[:32].mean() < err[-32:].mean()


class TestDistributedClaims:
    """Section 5's comparison, scaled down."""

    @pytest.fixture(scope="class")
    def results(self):
        stream = santa_barbara_temps()
        vr = (float(stream.min()) - 1, float(stream.max()) + 1)
        topo = Topology.complete_binary_tree(6)
        config = ReplicationConfig(
            window_size=32,
            data_period=2.0,
            query_period=1.0,
            measure_time=200.0,
            precision=(2.0, 10.0),
            value_range=vr,
            seed=0,
        )
        out = {}
        for name in ("SWAT-ASR", "DC", "APS"):
            out[name] = run_replication(make_protocol(name, topo, 32, vr), stream, config)
        return out

    def test_asr_cheapest(self, results):
        assert results["SWAT-ASR"].total_messages < results["DC"].total_messages
        assert results["SWAT-ASR"].total_messages < results["APS"].total_messages

    def test_asr_within_headline_factors(self, results):
        """Paper: up to 5x better; allow a generous band around that."""
        asr = results["SWAT-ASR"].total_messages
        assert results["APS"].total_messages / asr > 2.0

    def test_all_protocols_accurate(self, results):
        for result in results.values():
            assert result.mean_abs_error <= 10.0  # max delta drawn

    def test_space_ordering(self, results):
        assert results["SWAT-ASR"].approximations < results["DC"].approximations
        assert results["DC"].approximations == results["APS"].approximations

    def test_identical_workloads(self, results):
        counts = {r.n_queries for r in results.values()}
        assert len(counts) == 1  # all protocols saw the same query load
