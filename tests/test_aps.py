"""Tests for repro.replication.aps: Adaptive Precision Setting."""

import numpy as np
import pytest

from repro.core.queries import linear_query, point_query
from repro.network.messages import MessageKind
from repro.network.topology import Topology
from repro.replication.aps import ALPHA, TAU_0, AdaptivePrecision

N = 16
VR = (0.0, 100.0)


def make_aps(values=None, **kwargs):
    aps = AdaptivePrecision(Topology.single_client(), N, value_range=VR, **kwargs)
    stream = values if values is not None else [50.0] * N
    for i, v in enumerate(stream):
        aps.on_data(v, now=float(i))
    return aps


class TestRefreshDynamics:
    def test_query_initiated_refresh_halves_width(self):
        aps = make_aps()
        w0 = aps.hi["C1"][3] - aps.lo["C1"][3]
        aps.on_query("C1", point_query(3, precision=1.0), now=20.0)
        w1 = aps.hi["C1"][3] - aps.lo["C1"][3]
        assert w1 == pytest.approx(w0 / 2.0)
        assert aps.stats.count(MessageKind.QUERY) == 1

    def test_widths_snap_to_exact_below_tau0(self):
        aps = make_aps()
        for i in range(10):
            aps.on_query("C1", point_query(3, precision=0.1), now=20.0 + i)
        assert aps.hi["C1"][3] - aps.lo["C1"][3] == 0.0

    def test_value_initiated_refresh_doubles_width(self):
        aps = make_aps()
        # Shrink item 0 to a narrow interval first.
        for i in range(5):
            aps.on_query("C1", point_query(0, precision=2.0), now=20.0 + i)
        w_before = aps.hi["C1"][0] - aps.lo["C1"][0]
        aps.stats.reset()
        aps.on_data(99.0, now=40.0)  # escapes item 0's interval
        w_after = aps.hi["C1"][0] - aps.lo["C1"][0]
        assert aps.stats.count(MessageKind.UPDATE) >= 1
        assert w_after >= max(w_before, TAU_0)

    def test_growth_from_exact_cache_escapes_zero(self):
        aps = make_aps()
        for i in range(10):
            aps.on_query("C1", point_query(0, precision=0.1), now=20.0 + i)
        assert aps.hi["C1"][0] == aps.lo["C1"][0]  # exact
        aps.on_data(80.0, now=40.0)
        assert aps.hi["C1"][0] - aps.lo["C1"][0] == pytest.approx(TAU_0)

    def test_interval_growth_capped_at_range(self):
        aps = make_aps()
        rng = np.random.default_rng(1)
        t = 20.0
        for v in rng.choice([0.0, 100.0], size=60):
            aps.on_data(float(v), now=t)
            t += 1.0
        assert (aps.hi["C1"] - aps.lo["C1"]).max() <= aps.max_range + 1e-9

    def test_write_pressure_doubles_from_tau0_up_to_the_range(self):
        # tau_inf is infinite: only the value range caps the growth.
        aps = make_aps()
        for i in range(10):
            aps.on_query("C1", point_query(0, precision=0.1), now=20.0 + i)
        widths = []
        for i, v in enumerate([0.0, 100.0] * 4):
            aps.on_data(v, now=40.0 + i)
            widths.append(float(aps.hi["C1"][0] - aps.lo["C1"][0]))
        assert widths == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0, 100.0]

    def test_satisfied_read_costs_nothing(self):
        aps = make_aps()
        aps.stats.reset()
        aps.on_query("C1", point_query(3, precision=200.0), now=20.0)
        assert aps.stats.total == 0


class TestAnswers:
    def test_answers_respect_precision(self):
        rng = np.random.default_rng(2)
        aps = make_aps(list(rng.uniform(0, 100, N)))
        t = float(N)
        for v in rng.uniform(0, 100, 150):
            aps.on_data(v, now=t)
            t += 1.0
            q = linear_query(8, precision=6.0)
            ans = aps.on_query("C1", q, now=t)
            truth = q.evaluate(aps.window.values_newest_first())
            assert abs(ans - truth) <= q.precision + 1e-9

    def test_miss_returns_exact_value(self):
        aps = make_aps()
        ans = aps.on_query("C1", point_query(5, precision=0.0), now=20.0)
        assert ans == pytest.approx(50.0)

    def test_query_before_warm_rejected(self):
        aps = AdaptivePrecision(Topology.single_client(), N, value_range=VR)
        with pytest.raises(RuntimeError):
            aps.on_query("C1", point_query(0), now=0.0)


class TestConfiguration:
    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AdaptivePrecision(Topology.single_client(), N, value_range=(5.0, 5.0))

    def test_constants_are_the_papers_settings(self):
        # Section 4.2 runs APS with alpha = 1 and tau_0 = 2.
        assert ALPHA == 1.0
        assert TAU_0 == 2.0

    @pytest.mark.parametrize(
        "option", [{"alpha": 0.5}, {"tau_0": 5.0}, {"tau_inf": 1.0}]
    )
    def test_paper_fixed_settings_are_not_options(self, option):
        # An old caller's value must fail loudly, not run with alpha = 1.
        with pytest.raises(TypeError):
            AdaptivePrecision(Topology.single_client(), N, value_range=VR, **option)

    def test_space_is_items_times_clients(self):
        aps = AdaptivePrecision(Topology.star(4), N, value_range=VR)
        assert aps.approximation_count() == 4 * N
