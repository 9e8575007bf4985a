"""Tests for repro.replication.divergence: the adapted Divergence Caching."""

import numpy as np
import pytest

from repro.core.queries import linear_query, point_query
from repro.network.messages import MessageKind
from repro.network.topology import Topology
from repro.replication.divergence import (
    CONTROL_COST,
    EVENT_WINDOW,
    DivergenceCaching,
    optimal_refresh_width,
)

N = 16
VR = (0.0, 100.0)


def make_dc(values=None, n_clients=1):
    topo = Topology.single_client() if n_clients == 1 else Topology.star(n_clients)
    dc = DivergenceCaching(topo, N, value_range=VR)
    stream = values if values is not None else [50.0] * N
    for i, v in enumerate(stream):
        dc.on_data(v, now=float(i))
    return dc


class TestOptimalWidthFormula:
    def test_no_reads_means_no_caching(self):
        """With zero read rate every positive-width cost beats transmission."""
        k = optimal_refresh_width(np.array([], dtype=np.int64), 0.0, 2.0, 100)
        assert k == 100  # k = M: never transmit, forward any (nonexistent) read

    def test_tight_reads_and_cheap_writes_mean_exact_caching(self):
        tols = np.zeros(10, dtype=np.int64)  # every read wants exactness
        k = optimal_refresh_width(tols, read_rate=10.0, write_rate=0.1, max_range=100)
        assert k == 0

    def test_heavy_writes_push_toward_wide_intervals(self):
        tols = np.zeros(10, dtype=np.int64)
        k_low_w = optimal_refresh_width(tols, 1.0, 0.01, 100)
        k_high_w = optimal_refresh_width(tols, 1.0, 100.0, 100)
        assert k_high_w >= k_low_w

    def test_boundary_formulas(self):
        """cost(0) = lambda_w and cost(M) = (w+1) * total read rate."""
        # Make interior k unattractive: every read tolerates only 0.
        tols = np.zeros(4, dtype=np.int64)
        # Very cheap writes: k = 0 should win over k = M when reads exist.
        k = optimal_refresh_width(tols, read_rate=5.0, write_rate=0.001, max_range=10)
        assert k == 0
        # Very expensive writes and almost no reads: k = M should win.
        k = optimal_refresh_width(tols, read_rate=0.0001, write_rate=50.0, max_range=10)
        assert k == 10

    def test_interior_optimum_possible(self):
        """Mixed tolerances can make an interior width optimal."""
        tols = np.array([2] * 8 + [60] * 2, dtype=np.int64)
        k = optimal_refresh_width(tols, read_rate=2.0, write_rate=0.5, max_range=100)
        assert 0 <= k <= 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_cost_formula_with_equal_prices(self, seed):
        # Section 4.1 prices control and data messages alike (w = 1).
        assert CONTROL_COST == 1.0
        rng = np.random.default_rng(seed)
        m = 20
        tols = rng.integers(0, m + 1, size=int(rng.integers(1, 12)))
        read_rate, write_rate = rng.uniform(0.1, 5.0, size=2)
        per_read = read_rate / tols.size

        def cost(k):
            if k == 0:
                return write_rate
            if k == m:
                return 2.0 * read_rate
            r = per_read * np.count_nonzero(tols < k)
            return r * 2.0 + (m - k) / m * (write_rate + r)

        want = int(np.argmin([cost(k) for k in range(m + 1)]))
        assert optimal_refresh_width(tols, read_rate, write_rate, m) == want

    def test_control_cost_is_not_an_option(self):
        with pytest.raises(TypeError):
            optimal_refresh_width(np.zeros(3, dtype=np.int64), 1.0, 1.0, 10, control_cost=0.5)
        with pytest.raises(TypeError):
            DivergenceCaching(Topology.single_client(), N, value_range=VR, control_cost=0.5)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            optimal_refresh_width(np.array([], dtype=np.int64), 0.0, 0.0, 0)


class TestProtocol:
    def test_first_read_misses_and_caches(self):
        dc = make_dc()
        q = point_query(3, precision=10.0)
        ans = dc.on_query("C1", q, now=20.0)
        assert ans == pytest.approx(50.0)
        assert dc.stats.count(MessageKind.QUERY) == 1
        assert dc.stats.count(MessageKind.RESPONSE) == 1

    def test_wide_tolerance_hits_initial_interval(self):
        """The initial width-M interval satisfies tolerance >= M."""
        dc = make_dc()
        q = point_query(3, precision=float(dc.max_range))
        dc.on_query("C1", q, now=20.0)
        assert dc.stats.total == 0

    def test_repeat_reads_eventually_cached(self):
        dc = make_dc()
        q = point_query(3, precision=4.0)
        for i in range(6):
            dc.on_query("C1", q, now=20.0 + i)
        first = dc.stats.count(MessageKind.QUERY)
        # With a constant stream and repeated tight reads, DC settles on a
        # narrow interval and later reads hit.
        for i in range(6):
            dc.on_query("C1", q, now=30.0 + i)
        assert dc.stats.count(MessageKind.QUERY) <= first + 6
        state = dc.clients["C1"]
        assert state.width(3) <= dc.max_range

    def test_unsolicited_refresh_on_escape(self):
        dc = make_dc()
        # Force exact caching of item 0 via tight repeated reads.
        for i in range(8):
            dc.on_query("C1", point_query(0, precision=0.5), now=20.0 + i)
        dc.stats.reset()
        dc.on_data(99.0, now=40.0)  # item 0 jumps to 99: escapes its interval
        assert dc.stats.count(MessageKind.UPDATE) >= 1

    def test_no_refresh_when_inside_interval(self):
        dc = make_dc()
        dc.stats.reset()
        dc.on_data(50.0, now=40.0)  # same value: every interval still holds
        assert dc.stats.count(MessageKind.UPDATE) == 0

    def test_answers_respect_precision(self):
        rng = np.random.default_rng(0)
        dc = make_dc(list(rng.uniform(0, 100, N)))
        t = float(N)
        for v in rng.uniform(0, 100, 150):
            dc.on_data(v, now=t)
            t += 1.0
            q = linear_query(8, precision=6.0)
            ans = dc.on_query("C1", q, now=t)
            truth = q.evaluate(dc.window.values_newest_first())
            assert abs(ans - truth) <= q.precision + 1e-9

    def test_messages_hop_weighted_in_deep_trees(self):
        deep = Topology({"S": None, "C1": "S", "C2": "C1"})
        dc = DivergenceCaching(deep, N, value_range=VR)
        for i in range(N):
            dc.on_data(50.0, now=float(i))
        dc.on_query("C2", point_query(0, precision=1.0), now=20.0)
        assert dc.stats.count(MessageKind.QUERY) == 2  # two hops to the source

    def test_space_is_items_times_clients(self):
        dc = make_dc(n_clients=3)
        assert dc.approximation_count() == 3 * N

    def test_event_window_bounded(self):
        dc = make_dc()
        for i in range(100):
            dc.on_query("C1", point_query(0, precision=1.0), now=20.0 + i)
        assert len(dc.clients["C1"].reads[0]) <= EVENT_WINDOW

    def test_query_before_warm_rejected(self):
        dc = DivergenceCaching(Topology.single_client(), N, value_range=VR)
        with pytest.raises(RuntimeError):
            dc.on_query("C1", point_query(0), now=0.0)
