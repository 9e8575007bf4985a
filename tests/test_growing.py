"""Tests for repro.core.growing: the whole-stream SWAT of Section 2.3."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GrowingSwat, exponential_query
from repro.data.synthetic import drift_stream, uniform_stream


class TestGrowth:
    def test_levels_grow_logarithmically(self):
        tree = GrowingSwat()
        sizes = {}
        for i, v in enumerate(uniform_stream(1030, seed=0), start=1):
            tree.update(v)
            sizes[i] = tree.n_levels
        assert sizes[1] == 0
        assert sizes[2] == 1
        assert sizes[4] == 2
        assert sizes[1024] == 10
        for t, n in sizes.items():
            if t >= 2:
                assert n == int(math.log2(t))

    def test_memory_logarithmic(self):
        tree = GrowingSwat(k=2)
        tree.extend(uniform_stream(4096, seed=1))
        # 12 levels x 3 nodes x k=2 coefficients max.
        assert tree.memory_coefficients <= 12 * 3 * 2

    def test_repr(self):
        tree = GrowingSwat()
        tree.extend([1.0, 2.0, 3.0, 4.0])
        assert "levels=2" in repr(tree)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            GrowingSwat(k=0)


class TestCoverage:
    @given(st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_entire_stream_always_coverable(self, n):
        tree = GrowingSwat()
        tree.extend(drift_stream(n, eps=1.0))
        est = tree.estimates(list(range(n)))
        assert est.shape == (n,)
        assert np.isfinite(est).all()

    def test_node_averages_match_truth(self):
        stream = uniform_stream(300, seed=2)
        tree = GrowingSwat()
        tree.extend(stream)
        for node in tree.nodes():
            if node.is_filled:
                first, last = node.absolute_segment()
                assert node.average() == pytest.approx(
                    float(np.mean(stream[first - 1 : last]))
                )

    def test_newest_values_exact(self):
        stream = uniform_stream(100, seed=3)
        tree = GrowingSwat()
        tree.extend(stream)
        assert tree.point_estimate(0) == stream[-1]
        assert tree.point_estimate(1) == stream[-2]

    def test_out_of_range(self):
        tree = GrowingSwat()
        tree.extend([1.0, 2.0])
        with pytest.raises(IndexError):
            tree.point_estimate(2)


class TestQueries:
    def test_answer_matches_windowed_tree_on_recent_indices(self):
        """For recent indices, growing and windowed trees see the same data."""
        from repro.core import Swat

        stream = uniform_stream(512, seed=4)
        g = GrowingSwat()
        w = Swat(256)
        g.extend(stream)
        w.extend(stream)
        q = exponential_query(32)
        assert g.answer(q) == pytest.approx(w.answer(q).value, rel=1e-6)

    def test_oldest_prefix_queryable_with_coarse_error(self):
        """Ancient history stays queryable; error grows but stays bounded by
        the data range."""
        stream = drift_stream(1000, eps=0.1)
        tree = GrowingSwat()
        tree.extend(stream)
        oldest = tree.point_estimate(999)  # the very first value
        assert 0.0 <= oldest <= stream[-1]

    def test_increasing_k_reduces_error(self):
        stream = uniform_stream(512, seed=5)
        errs = []
        for k in (1, 4, 16):
            tree = GrowingSwat(k=k)
            tree.extend(stream)
            est = tree.estimates(list(range(512)))
            errs.append(float(np.abs(est - stream[::-1]).mean()))
        assert errs[0] >= errs[1] >= errs[2]


class TestNonFiniteInput:
    """Non-finite arrivals are rejected at the boundary, as ``Swat`` does."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_update_rejects_non_finite(self, bad):
        tree = GrowingSwat()
        tree.extend([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            tree.update(bad)
        assert tree.time == 2

    def test_extend_stops_at_the_first_non_finite_value(self):
        tree = GrowingSwat()
        with pytest.raises(ValueError, match="finite"):
            tree.extend([1.0, 2.0, float("nan"), 4.0])
        assert tree.time == 2
        est = tree.estimates([0, 1])
        assert np.isfinite(est).all()
        np.testing.assert_array_equal(est, [2.0, 1.0])
