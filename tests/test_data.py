"""Tests for repro.data: stream generators and query workloads."""

import numpy as np
import pytest

from repro.data import (
    FixedWorkload,
    RandomWorkload,
    drift_stream,
    make_query,
    random_walk_stream,
    santa_barbara_temps,
    stream_iter,
    uniform_stream,
)
from repro.data.weather import N_DAYS
from repro.data.workload import MIN_LENGTH


class TestUniformStream:
    def test_range(self):
        x = uniform_stream(5000)
        assert x.min() >= 0.0 and x.max() <= 100.0

    def test_reproducible(self):
        assert np.array_equal(uniform_stream(100, seed=7), uniform_stream(100, seed=7))

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_stream(100, seed=1), uniform_stream(100, seed=2))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            uniform_stream(-1)

    def test_roughly_uniform(self):
        x = uniform_stream(20000, seed=0)
        hist, __ = np.histogram(x, bins=10, range=(0, 100))
        assert hist.min() > 1500  # each decile ~2000


class TestDriftStream:
    def test_constant_increments(self):
        x = drift_stream(10, eps=0.5, start=3.0)
        assert np.allclose(np.diff(x), 0.5)
        assert x[0] == 3.0

    def test_zero_eps_is_constant(self):
        assert np.allclose(drift_stream(5, eps=0.0, start=2.0), 2.0)


class TestRandomWalk:
    def test_bounded(self):
        x = random_walk_stream(5000, step=5.0)
        assert x.min() >= 0.0 and x.max() <= 100.0

    def test_small_steps(self):
        x = random_walk_stream(1000, step=0.5, seed=3)
        assert np.abs(np.diff(x)).max() < 3.0


class TestWeather:
    def test_default_length_is_eight_years(self):
        assert santa_barbara_temps().size == N_DAYS == 2922

    def test_plausible_temperature_range(self):
        x = santa_barbara_temps()
        assert x.min() >= 8.0 and x.max() <= 42.0
        assert 15.0 < x.mean() < 23.0

    def test_deterministic(self):
        assert np.array_equal(santa_barbara_temps(), santa_barbara_temps())

    def test_seasonal_cycle_present(self):
        """Yearly autocorrelation should far exceed half-year anticorrelation."""
        x = santa_barbara_temps()
        x = x - x.mean()
        year = float(np.dot(x[:-365], x[365:]))
        half = float(np.dot(x[:-182], x[182:]))
        assert year > 0 and year > half

    def test_small_day_to_day_deviations(self):
        """The property the paper relies on for 'real' data."""
        x = santa_barbara_temps()
        assert np.abs(np.diff(x)).mean() < 3.0

    def test_custom_length(self):
        assert santa_barbara_temps(100).size == 100


class TestStreamIter:
    def test_yields_floats_in_order(self):
        out = list(stream_iter(np.array([1, 2, 3])))
        assert out == [1.0, 2.0, 3.0]
        assert all(isinstance(v, float) for v in out)


class TestMakeQuery:
    def test_kinds(self):
        assert make_query("exponential", 4).weights[1] == pytest.approx(0.5)
        assert make_query("linear", 4).weights[1] == pytest.approx(0.75)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_query("quadratic", 4)


class TestFixedWorkload:
    def test_always_same_query(self):
        w = FixedWorkload(make_query("linear", 8))
        assert w.next() is w.next()

    def test_iter(self):
        w = FixedWorkload(make_query("linear", 8))
        it = iter(w)
        assert next(it) is w.query


class TestRandomWorkload:
    def test_queries_fit_window(self):
        w = RandomWorkload(32, kind="linear", seed=0)
        for __ in range(200):
            q = w.next()
            assert q.max_index < 32
            assert q.length >= 2

    def test_reproducible(self):
        a = RandomWorkload(32, seed=5)
        b = RandomWorkload(32, seed=5)
        for __ in range(20):
            qa, qb = a.next(), b.next()
            assert qa.indices == qb.indices

    def test_precision_sampling(self):
        w = RandomWorkload(32, precision_low=2.0, precision_high=4.0, seed=1)
        for __ in range(50):
            assert 2.0 <= w.next().precision <= 4.0

    def test_default_precision_infinite(self):
        assert RandomWorkload(32, seed=0).next().precision == float("inf")

    def test_max_length_respected(self):
        w = RandomWorkload(32, max_length=4, seed=2)
        assert all(w.next().length <= 4 for __ in range(100))

    def test_partial_precision_spec_rejected(self):
        with pytest.raises(ValueError):
            RandomWorkload(32, precision_low=1.0)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            RandomWorkload(32, max_length=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RandomWorkload(32, kind="weird")

    def test_lengths_cover_min_length_to_max_length(self):
        w = RandomWorkload(8, seed=8)
        lengths = {w.next().length for __ in range(400)}
        assert lengths == set(range(MIN_LENGTH, 9))

    def test_smallest_max_length_draws_only_min_length(self):
        w = RandomWorkload(32, max_length=MIN_LENGTH, seed=9)
        assert {w.next().length for __ in range(50)} == {MIN_LENGTH}

    @pytest.mark.parametrize("option", [{"consecutive": True}, {"min_length": 3}])
    def test_removed_modes_are_not_options(self, option):
        with pytest.raises(TypeError):
            RandomWorkload(32, **option)


class TestRandomWorkloadModes:
    def test_subset_mode_draws_distinct_sorted_indices(self):
        w = RandomWorkload(32, kind="linear", seed=4)
        for __ in range(100):
            q = w.next()
            assert len(set(q.indices)) == len(q.indices)
            assert list(q.indices) == sorted(q.indices)

    def test_subset_mode_weights_follow_recency_order(self):
        w = RandomWorkload(32, kind="exponential", seed=5)
        q = w.next()
        # Most recent chosen index carries the largest weight.
        assert q.weights[0] == max(q.weights)
        assert list(q.weights) == sorted(q.weights, reverse=True)
