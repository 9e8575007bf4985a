"""Tests for repro.core.swat: structure, updates, queries, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Swat, exponential_query, linear_query, point_query
from repro.data.synthetic import drift_stream, uniform_stream


def warm(N=64, n_extra=0, seed=0, **kwargs):
    tree = Swat(N, **kwargs)
    stream = uniform_stream(2 * N + n_extra, seed=seed)
    tree.extend(stream)
    return tree, stream


class TestConstruction:
    @pytest.mark.parametrize("bad", [0, 1, 2, 3, 5, 100, -8])
    def test_window_must_be_power_of_two_at_least_4(self, bad):
        with pytest.raises(ValueError):
            Swat(bad)

    def test_levels(self):
        assert Swat(256).n_levels == 8

    @pytest.mark.parametrize("N,expected", [(4, 4), (16, 10), (1024, 28)])
    def test_node_count_is_3logN_minus_2(self, N, expected):
        assert Swat(N).num_nodes == expected

    def test_top_level_has_only_right_node(self):
        tree = Swat(16)
        with pytest.raises(KeyError):
            tree.node(3, "S")
        assert tree.node(3, "R").level == 3

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            Swat(16, k=0)

    def test_bad_min_level_rejected(self):
        with pytest.raises(ValueError):
            Swat(16, min_level=4)
        with pytest.raises(ValueError):
            Swat(16, min_level=-1)

    @pytest.mark.parametrize("selection", ["first", "largest"])
    def test_coefficient_selection_is_not_an_option(self, selection):
        # Every node keeps its first k coefficients (Section 2.2).
        with pytest.raises(TypeError):
            Swat(16, k=2, selection=selection)

    def test_repr(self):
        assert "N=64" in repr(Swat(64))


class TestWarmup:
    def test_cold_tree_has_no_filled_nodes(self):
        assert not any(n.is_filled for n in Swat(16).nodes())

    def test_is_warm_after_enough_arrivals(self):
        tree = Swat(16)
        tree.extend(uniform_stream(3 * 16))
        assert tree.is_warm

    def test_size_tracks_min_of_time_and_window(self):
        tree = Swat(16)
        tree.extend([1.0] * 10)
        assert tree.size == 10
        tree.extend([1.0] * 10)
        assert tree.size == 16
        assert tree.time == 20

    def test_query_before_any_data_rejected(self):
        with pytest.raises(IndexError):
            Swat(16).point_estimate(0)

    def test_query_beyond_observed_rejected(self):
        tree = Swat(16)
        tree.extend([1.0] * 4)
        with pytest.raises(IndexError):
            tree.point_estimate(5)


class TestNodeInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_node_averages_equal_true_segment_means(self, seed):
        N = 32
        stream = uniform_stream(3 * N, seed=seed)
        tree = Swat(N)
        tree.extend(stream)
        for node in tree.nodes():
            if node.is_filled:
                first, last = node.absolute_segment()
                assert node.average() == pytest.approx(
                    float(np.mean(stream[first - 1 : last]))
                )

    def test_window_always_fully_covered_once_warm(self):
        tree, __ = warm(64, n_extra=0)
        for extra in uniform_stream(130, seed=9):
            tree.update(extra)
            cover = tree.cover(list(range(tree.size)))
            assert not cover.extrapolated

    def test_segments_drift_then_snap_back(self):
        tree, __ = warm(32)
        node = tree.node(3, "R")
        drifts = []
        for v in uniform_stream(16, seed=3):
            tree.update(v)
            drifts.append(node.relative_segment(tree.time)[0])
        # Level-3 nodes refresh every 8 arrivals: drift climbs 0..7 then resets.
        assert max(drifts) == 7
        assert 0 in drifts

    def test_memory_is_k_per_node(self):
        tree, __ = warm(64, k=3)
        assert tree.memory_coefficients <= 3 * tree.num_nodes
        assert tree.memory_coefficients >= tree.num_nodes  # k>=1 each


class TestQueries:
    def test_point_estimate_is_exactish_with_full_k(self):
        """With k = segment length the finest nodes reconstruct exactly."""
        tree, stream = warm(32, k=64, seed=5)
        window = stream[-32:][::-1]
        # Index 0 and 1 are covered by R_0 which holds both values exactly.
        assert tree.point_estimate(0) == pytest.approx(window[0])
        assert tree.point_estimate(1) == pytest.approx(window[1])

    def test_answer_value_equals_weighted_estimates(self):
        tree, __ = warm(64, seed=2)
        q = exponential_query(16)
        ans = tree.answer(q)
        expected = float(np.dot(q.weights, ans.estimates))
        assert ans.value == pytest.approx(expected)
        assert float(ans) == ans.value

    def test_recent_estimates_more_accurate_than_old(self):
        """The biased query model: recent indices use finer nodes."""
        stream = uniform_stream(4096, seed=11)
        tree = Swat(256)
        errs_recent, errs_old = [], []
        window = None
        for i, v in enumerate(stream):
            tree.update(v)
            if i < 1024 or i % 64 != 0:
                continue
            window = stream[max(0, i - 255) : i + 1][::-1]
            errs_recent.append(abs(tree.point_estimate(1) - window[1]))
            errs_old.append(abs(tree.point_estimate(200) - window[200]))
        assert np.mean(errs_recent) < np.mean(errs_old)

    def test_drift_stream_mean_error_structure(self):
        """On a linear-drift stream a level-l node errs at most 2^l * eps."""
        eps = 0.5
        tree = Swat(64)
        tree.extend(drift_stream(200, eps=eps))
        rec = tree.reconstruct_window()
        true = drift_stream(200, eps=eps)[-64:][::-1]
        for idx in range(64):
            level_bound = 64 * eps  # coarsest node half-width bound, loose
            assert abs(rec[idx] - true[idx]) <= level_bound

    def test_answer_range_matches_bruteforce_on_reconstruction(self):
        tree, __ = warm(64, seed=8)
        from repro.core import RangeQuery

        rq = RangeQuery(value=50.0, radius=20.0, t_start=0, t_end=40)
        hits = dict(tree.answer_range(rq))
        rec = tree.reconstruct_window()
        for i in range(0, 41):
            if 30.0 <= rec[i] <= 70.0:
                assert i in hits and hits[i] == pytest.approx(rec[i])
            else:
                assert i not in hits

    def test_answer_range_empty_interval(self):
        tree, __ = warm(64)
        from repro.core import RangeQuery

        rq = RangeQuery(value=1000.0, radius=0.5, t_start=0, t_end=10)
        assert tree.answer_range(rq) == []

    def test_reconstruct_window_empty_tree(self):
        assert Swat(16).reconstruct_window().size == 0

    def test_increasing_k_reduces_window_error(self):
        stream = uniform_stream(300, seed=4)
        errors = []
        for k in (1, 4, 16):
            tree = Swat(64, k=k)
            tree.extend(stream)
            rec = tree.reconstruct_window()
            true = stream[-64:][::-1]
            errors.append(float(np.abs(rec - true).mean()))
        assert errors[0] >= errors[1] >= errors[2]


class TestRawLeaves:
    """The Figure 3(a) footnote: R_{-1} and L_{-1} are the raw d_0 and d_1."""

    def test_indices_0_and_1_exact_by_default(self):
        tree, stream = warm(32, seed=12)
        window = stream[-32:][::-1]
        assert tree.point_estimate(0) == window[0]
        assert tree.point_estimate(1) == window[1]

    def test_disabled_raw_leaves_use_node_average(self):
        tree = Swat(32, use_raw_leaves=False)
        stream = uniform_stream(100, seed=12)
        tree.extend(stream)
        window = stream[-32:][::-1]
        expected = (window[0] + window[1]) / 2.0  # R_0's k=1 average
        assert tree.point_estimate(0) == pytest.approx(expected)
        assert tree.point_estimate(1) == pytest.approx(expected)

    def test_raw_leaves_off_for_reduced_trees(self):
        assert not Swat(32, min_level=2).use_raw_leaves

    def test_answer_reports_no_nodes_for_pure_raw_query(self):
        tree, __ = warm(32)
        from repro.core import InnerProductQuery

        ans = tree.answer(InnerProductQuery((0, 1), (1.0, 1.0)))
        assert ans.nodes_used == []

    def test_mixed_query_still_uses_cover_for_old_indices(self):
        tree, __ = warm(32)
        ans = tree.answer(exponential_query(8))
        assert len(ans.nodes_used) >= 1

    def test_out_of_range_still_rejected_with_raw_leaves(self):
        tree, __ = warm(32)
        with pytest.raises(IndexError):
            tree.estimates([0, 999])


class TestReducedLevels:
    def test_min_level_drops_fine_nodes(self):
        tree = Swat(64, min_level=2)
        levels = {n.level for n in tree.nodes()}
        assert min(levels) == 2

    def test_reduced_tree_still_answers_everything(self):
        stream = uniform_stream(300, seed=6)
        tree = Swat(64, min_level=3)
        tree.extend(stream)
        rec = tree.reconstruct_window()
        assert rec.shape == (64,)
        assert np.isfinite(rec).all()

    def test_error_grows_with_min_level(self):
        stream = uniform_stream(600, seed=7)
        means = []
        for min_level in (0, 2, 4):
            tree = Swat(64, min_level=min_level)
            tree.extend(stream)
            true = stream[-64:][::-1]
            means.append(float(np.abs(tree.reconstruct_window() - true).mean()))
        assert means[0] <= means[1] <= means[2]

    def test_full_tree_never_extrapolates(self):
        tree, __ = warm(32)
        ans = tree.answer(exponential_query(32))
        assert ans.n_extrapolated == 0

    def test_reduced_tree_reports_extrapolations(self):
        stream = uniform_stream(300, seed=6)
        tree = Swat(64, min_level=4)
        tree.extend(stream)
        seen = 0
        for v in uniform_stream(16, seed=10):
            tree.update(v)
            seen += tree.answer(point_query(0)).n_extrapolated
        assert seen > 0  # index 0 is often newer than the coarsest segment


class TestOtherBases:
    @pytest.mark.parametrize("wavelet", ["db2", "db4", "sym4"])
    def test_non_haar_tree_answers_queries(self, wavelet):
        stream = uniform_stream(300, seed=1)
        tree = Swat(64, k=8, wavelet=wavelet)
        tree.extend(stream)
        ans = tree.answer(linear_query(32))
        assert np.isfinite(ans.value)

    def test_non_haar_matches_haar_for_k1_roughly(self):
        """k=1 keeps only the scaling coefficient; db2 averages differ but
        reconstructions stay near the window values for smooth data."""
        stream = drift_stream(300, eps=0.1)
        tree = Swat(64, k=1, wavelet="db2")
        tree.extend(stream)
        rec = tree.reconstruct_window()
        true = stream[-64:][::-1]
        assert float(np.abs(rec - true).mean()) < 10.0


class TestDeviationTracking:
    """Section 3's certified deviation ranges on 1-coefficient trees."""

    def _tracked(self, n_extra=200, seed=3):
        stream = uniform_stream(2 * 64 + n_extra, seed=seed)
        tree = Swat(64, track_deviation=True)
        tree.extend(stream)
        return tree, stream

    def test_bound_is_sound_for_every_node(self):
        tree, stream = self._tracked()
        for node in tree.nodes():
            if node.is_filled:
                first, last = node.absolute_segment()
                segment = stream[first - 1 : last]
                true_dev = float(np.abs(segment - segment.mean()).max())
                assert node.deviation >= true_dev - 1e-9

    def test_answer_error_within_certified_bound(self):
        tree, stream = self._tracked()
        window = stream[-64:][::-1]
        for length in (4, 16, 48):
            q = exponential_query(length)
            ans = tree.answer(q)
            true = q.evaluate(window)
            assert ans.error_bound is not None
            assert abs(ans.value - true) <= ans.error_bound + 1e-9

    def test_can_answer_respects_precision(self):
        tree, __ = self._tracked()
        q_loose = exponential_query(8, precision=1e6)
        q_tight = exponential_query(8, precision=1e-9)
        assert tree.can_answer(q_loose)
        assert not tree.can_answer(q_tight)

    def test_untracked_tree_has_no_bound(self):
        tree = Swat(64)
        tree.extend(uniform_stream(200, seed=1))
        assert tree.answer(exponential_query(8)).error_bound is None
        with pytest.raises(ValueError):
            tree.can_answer(exponential_query(8))

    def test_requires_k1_haar(self):
        with pytest.raises(ValueError):
            Swat(64, k=2, track_deviation=True)
        with pytest.raises(ValueError):
            Swat(64, wavelet="db2", track_deviation=True)

    def test_raw_leaf_indices_certified_exact(self):
        tree, __ = self._tracked()
        from repro.core import InnerProductQuery

        ans = tree.answer(InnerProductQuery((0, 1), (1.0, 1.0)))
        assert ans.error_bound == 0.0

    def test_survives_checkpoint(self):
        tree, __ = self._tracked()
        restored = Swat.from_state(tree.to_state())
        q = exponential_query(16)
        assert restored.answer(q).error_bound == tree.answer(q).error_bound
