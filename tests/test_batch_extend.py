"""Batched ingest and cached queries: the fast paths must be invisible.

The contract of :meth:`repro.core.swat.Swat.extend`'s batch cascade is
*bit-identity*: any split of a stream into blocks must leave the tree in
exactly the state a value-by-value :meth:`~repro.core.swat.Swat.update`
replay produces — same coefficient bits, same end times, same deviations,
same ring buffer.  The properties here drive that across window sizes,
``k``, reduced trees (``min_level``), deviation tracking, cold starts, and
arbitrary block boundaries, and pin the query-side caches (node
reconstruction memoization, vectorized extraction) to the scalar behaviour.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageError
from repro.core.errors import MAX_STREAM_MAGNITUDE, require_finite
from repro.core.multi import StreamEnsemble
from repro.core.queries import exponential_query
from repro.core.swat import Swat
from repro.histogram.prefix import PrefixStats
from repro.metrics.error import GroundTruthWindow
from repro.wavelets.haar import haar_reconstruct

# --------------------------------------------------------------------- helpers


def tree_bits(tree):
    """Every content-bearing bit of the tree state, exactly."""
    nodes = []
    for level in range(tree.n_levels):
        for role in ("R", "S", "L"):
            try:
                node = tree.node(level, role)
            except KeyError:
                continue
            coeffs = None if node.coeffs is None else node.coeffs.tobytes()
            dev = (
                None
                if node.deviation is None
                else np.float64(node.deviation).tobytes()
            )
            nodes.append((level, role, coeffs, node.end_time, dev))
    return (tree.time, tuple(float(v) for v in tree._buffer), tuple(nodes))


def replay_scalar(tree, values):
    for v in values:
        tree.update(v)


finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def batch_cases(draw):
    n = draw(st.sampled_from([4, 8, 16, 64, 256]))
    k = draw(st.integers(min_value=1, max_value=8))
    min_level = draw(st.integers(min_value=0, max_value=int(math.log2(n)) - 1))
    track = k == 1 and draw(st.booleans())
    total = draw(st.integers(min_value=0, max_value=3 * n))
    values = draw(
        st.lists(finite_values, min_size=total, max_size=total).map(tuple)
    )
    splits = []
    remaining = total
    while remaining:
        s = draw(st.integers(min_value=1, max_value=remaining))
        splits.append(s)
        remaining -= s
    return n, k, min_level, track, values, tuple(splits)


# ------------------------------------------------------- batch == scalar replay


class TestBatchEquivalence:
    @given(case=batch_cases())
    @settings(max_examples=150)
    def test_extend_is_bit_identical_to_scalar_replay(self, case):
        n, k, min_level, track, values, splits = case
        scalar = Swat(n, k=k, min_level=min_level, track_deviation=track)
        batched = Swat(n, k=k, min_level=min_level, track_deviation=track)
        replay_scalar(scalar, values)
        pos = 0
        for size in splits:
            batched.extend(np.asarray(values[pos : pos + size], dtype=np.float64))
            pos += size
        assert tree_bits(batched) == tree_bits(scalar)

    @given(case=batch_cases())
    @settings(max_examples=50)
    def test_queries_agree_after_batched_ingest(self, case):
        n, k, min_level, track, values, splits = case
        scalar = Swat(n, k=k, min_level=min_level, track_deviation=track)
        batched = Swat(n, k=k, min_level=min_level, track_deviation=track)
        replay_scalar(scalar, values)
        pos = 0
        for size in splits:
            batched.extend(list(values[pos : pos + size]))
            pos += size
        try:
            want = scalar.reconstruct_window()
        except CoverageError:
            # A cold reduced tree has nothing to answer from; the batched
            # tree must be in the same (empty) state.
            with pytest.raises(CoverageError):
                batched.reconstruct_window()
            return
        np.testing.assert_array_equal(batched.reconstruct_window(), want)

    def test_single_block_covering_many_windows(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=10_000)
        scalar = Swat(64)
        batched = Swat(64)
        replay_scalar(scalar, values)
        batched.extend(values)
        assert tree_bits(batched) == tree_bits(scalar)

    def test_extend_accepts_generators_and_empty_blocks(self):
        tree = Swat(8)
        tree.extend(float(v) for v in range(10))
        tree.extend([])
        tree.extend(np.empty(0))
        other = Swat(8)
        replay_scalar(other, range(10))
        assert tree_bits(tree) == tree_bits(other)

    def test_extend_rejects_non_finite_blocks_atomically(self):
        tree = Swat(8)
        before = tree_bits(tree)
        with pytest.raises(ValueError, match="finite"):
            tree.extend([1.0, float("nan"), 2.0])
        assert tree_bits(tree) == before  # validation precedes any mutation

    def test_generic_wavelet_falls_back_to_scalar_and_matches(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=200)
        scalar = Swat(16, k=4, wavelet="db2")
        batched = Swat(16, k=4, wavelet="db2")
        replay_scalar(scalar, values)
        batched.extend(values)
        assert tree_bits(batched) == tree_bits(scalar)

    def test_invariant_contracts_run_at_block_boundaries(self):
        tree = Swat(16, check_invariants=True)
        tree.extend(np.arange(100.0))  # raises if any block leaves bad state
        assert tree.is_warm


# ---------------------------------------------------------- reconstruction cache


class TestReconstructionCache:
    def test_cache_returns_same_array_until_contents_change(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(1, "R")
        first = node.reconstruct()
        assert node.reconstruct() is first
        assert first.flags.writeable is False
        with pytest.raises(ValueError):
            first[0] = 99.0

    def test_query_after_shift_never_serves_stale_reconstruction(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(1, "S")
        before = node.reconstruct().copy()
        version_before = node.version
        # Four more arrivals: level 1 refreshes twice, S takes new contents.
        tree.extend(np.arange(8.0, 12.0))
        assert node.version > version_before
        after = node.reconstruct()
        expected = haar_reconstruct(node.coeffs, node.segment_length)
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(after, before)

    def test_shift_shared_arrays_do_not_alias_stale_entries(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        right = tree.node(1, "R")
        cached = right.reconstruct()
        tree.extend(np.arange(8.0, 16.0))
        shift = tree.node(1, "S")
        # After the shift S shares R's old coefficient array by reference;
        # its reconstruction must describe those (shared) contents, not
        # whatever the S slot held before.
        assert shift.coeffs is not None
        np.testing.assert_array_equal(
            shift.reconstruct(), haar_reconstruct(shift.coeffs, shift.segment_length)
        )
        del cached

    def test_set_contents_bumps_version_and_invalidates(self):
        tree = Swat(8)
        tree.extend(np.arange(8.0))
        node = tree.node(0, "R")
        old = node.reconstruct()
        v = node.version
        node.set_contents(np.array([1.0]), node.end_time)
        assert node.version == v + 1
        fresh = node.reconstruct()
        assert fresh is not old
        np.testing.assert_array_equal(fresh, haar_reconstruct([1.0], 2))


# ----------------------------------------------------------- vectorized queries


class TestVectorizedExtraction:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([8, 32, 128]),
        total=st.integers(1, 400),
    )
    @settings(max_examples=40)
    def test_estimates_match_per_index_queries(self, seed, n, total):
        rng = np.random.default_rng(seed)
        tree = Swat(n, k=2)
        tree.extend(rng.normal(size=total))
        size = tree.size
        indices = list(rng.integers(0, size, size=min(size, 17)))
        bulk = tree.estimates(indices)
        singles = np.array([tree.point_estimate(int(i)) for i in indices])
        np.testing.assert_array_equal(bulk, singles)

    def test_reduced_tree_extrapolation_unchanged(self):
        tree = Swat(16, min_level=2)
        tree.extend(np.arange(32.0))
        est = tree.estimates(list(range(16)))
        assert est.shape == (16,)
        assert np.isfinite(est).all()

    def test_out_of_range_message_format_preserved(self):
        tree = Swat(8)
        tree.extend(np.arange(4.0))
        with pytest.raises(IndexError, match=r"window indices \[9\] out of range"):
            tree.estimates([0, 9])


# ------------------------------------------------------------------ PrefixStats


class TestPrefixStatsBatch:
    @given(
        w=st.integers(1, 40),
        blocks=st.lists(st.lists(finite_values, max_size=90), max_size=8),
    )
    @settings(max_examples=100)
    def test_extend_matches_scalar_updates(self, w, blocks):
        scalar = PrefixStats(w)
        batched = PrefixStats(w)
        for block in blocks:
            for v in block:
                scalar.update(v)
            batched.extend(block)
        assert batched.size == scalar.size
        np.testing.assert_allclose(batched.window(), scalar.window())
        # Prefix sums cancel against bases that can be ~1e12, so the
        # achievable agreement is a few ulps of the *running total*, not of
        # the window values themselves.
        total = sum(abs(float(v)) for block in blocks for v in block)
        total_sq = sum(float(v) * float(v) for block in blocks for v in block)
        cs_b, cq_b = batched.prefix_arrays()
        cs_s, cq_s = scalar.prefix_arrays()
        np.testing.assert_allclose(cs_b, cs_s, atol=1e-9 * (1.0 + total))
        np.testing.assert_allclose(cq_b, cq_s, atol=1e-9 * (1.0 + total_sq))
        sse_tol = 1e-9 * (1.0 + total_sq)
        for i, j in [(0, scalar.size), (scalar.size // 2, scalar.size)]:
            assert batched.sse(i, j) == pytest.approx(scalar.sse(i, j), abs=sse_tol)

    def test_extend_survives_many_compactions(self):
        stats = PrefixStats(8)
        rng = np.random.default_rng(0)
        expected_tail = None
        for _ in range(50):
            block = rng.normal(size=7)
            stats.extend(block)
            expected_tail = block
        assert stats.size == 8
        np.testing.assert_allclose(stats.window()[-7:], expected_tail)

    def test_oversized_block_keeps_window_tail(self):
        stats = PrefixStats(4)
        stats.extend(np.arange(100.0))
        np.testing.assert_array_equal(stats.window(), [96.0, 97.0, 98.0, 99.0])
        assert stats.interval_sum(0, 4) == pytest.approx(96 + 97 + 98 + 99)

    def test_rejects_non_finite(self):
        stats = PrefixStats(4)
        with pytest.raises(ValueError, match="finite"):
            stats.update(float("inf"))
        with pytest.raises(ValueError, match="finite"):
            stats.extend([1.0, float("-inf")])


# ---------------------------------------------------------------- require_finite


class TestRequireFinite:
    def test_scalar_pass_and_fail(self):
        require_finite(1.5)
        require_finite(3)
        with pytest.raises(ValueError, match="stream values must be finite"):
            require_finite(float("nan"))

    def test_array_names_first_offender(self):
        require_finite(np.arange(5.0))
        with pytest.raises(ValueError, match="inf"):
            require_finite(np.array([0.0, np.inf, np.nan]))

    def test_custom_subject(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            require_finite(np.array([np.nan]), what="weights")


# ------------------------------------------------------- accepted value domain

PAST_BOUND = float(np.nextafter(MAX_STREAM_MAGNITUDE, np.inf))

domain_values = st.floats(
    min_value=-MAX_STREAM_MAGNITUDE,
    max_value=MAX_STREAM_MAGNITUDE,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=True,
)


@st.composite
def domain_cases(draw):
    n = draw(st.sampled_from([4, 16, 64]))
    k = draw(st.integers(min_value=1, max_value=4))
    track = k == 1 and draw(st.booleans())
    values = draw(st.lists(domain_values, max_size=3 * n))
    cut = draw(st.integers(min_value=0, max_value=len(values)))
    return n, k, track, values, cut


class TestValueDomain:
    """Stream values are accepted up to ``MAX_STREAM_MAGNITUDE`` and every
    answer served from them is finite; one ulp past it is rejected before
    any state changes."""

    def test_swat_update_accepts_the_bound(self):
        tree = Swat(16, k=16)
        for i in range(40):
            tree.update(MAX_STREAM_MAGNITUDE if i % 2 else -MAX_STREAM_MAGNITUDE)
        assert np.isfinite(tree.estimates(list(range(16)))).all()
        assert np.isfinite(tree.answer(exponential_query(16)).value)

    @pytest.mark.parametrize("past", [PAST_BOUND, -PAST_BOUND, 1e308])
    def test_swat_update_rejects_past_the_bound(self, past):
        tree = Swat(16, k=16)
        tree.extend(np.arange(20.0))
        before = tree_bits(tree)
        with pytest.raises(ValueError, match=r"at most 1e\+138 in magnitude"):
            tree.update(past)
        assert tree_bits(tree) == before

    def test_swat_extend_accepts_the_bound(self):
        tree = Swat(16, k=16)
        tree.extend([MAX_STREAM_MAGNITUDE] * 40)
        np.testing.assert_allclose(
            tree.estimates([0, 1, 2, 3]), [MAX_STREAM_MAGNITUDE] * 4, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"wavelet": "db2"},
            {"use_raw_leaves": False},
            {"min_level": 2},
            {"k": 1, "track_deviation": True},
        ],
    )
    @pytest.mark.parametrize("past", [PAST_BOUND, -PAST_BOUND, 1e308])
    def test_swat_extend_rejects_past_the_bound_atomically(self, past, options):
        tree = Swat(16, **{"k": 16, **options})
        tree.extend(np.arange(20.0))
        before = tree_bits(tree)
        with pytest.raises(ValueError, match=r"at most 1e\+138 in magnitude"):
            tree.extend([1.0] * 30 + [past])
        assert tree_bits(tree) == before

    def test_prefix_stats_accept_the_bound(self):
        scalar, batched = PrefixStats(8), PrefixStats(8)
        block = [MAX_STREAM_MAGNITUDE, -MAX_STREAM_MAGNITUDE] * 20
        for v in block:
            scalar.update(v)
        batched.extend(block)
        for stats in (scalar, batched):
            assert math.isfinite(stats.sse(0, 8))
            assert math.isfinite(stats.interval_sq_sum(0, 8))

    @pytest.mark.parametrize("past", [PAST_BOUND, -PAST_BOUND])
    def test_prefix_stats_reject_past_the_bound(self, past):
        stats = PrefixStats(8)
        stats.extend([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"at most 1e\+138 in magnitude"):
            stats.update(past)
        with pytest.raises(ValueError, match=r"at most 1e\+138 in magnitude"):
            stats.extend([4.0, past])
        np.testing.assert_array_equal(stats.window(), [1.0, 2.0, 3.0])

    @given(case=domain_cases())
    @settings(max_examples=100)
    def test_batched_equals_scalar_and_answers_stay_finite(self, case):
        n, k, track, values, cut = case
        scalar = Swat(n, k=k, track_deviation=track)
        batched = Swat(n, k=k, track_deviation=track)
        replay_scalar(scalar, values)
        batched.extend(np.asarray(values[:cut], dtype=np.float64))
        batched.extend(np.asarray(values[cut:], dtype=np.float64))
        assert tree_bits(batched) == tree_bits(scalar)
        if batched.size:
            indices = list(range(batched.size))
            assert np.isfinite(batched.estimates(indices)).all()
            assert np.isfinite(batched.answer(exponential_query(batched.size)).value)


# ------------------------------------------------------------- ensemble / truth


class TestEnsembleAndTruthBatch:
    def test_extend_columns_matches_row_updates(self):
        rng = np.random.default_rng(1)
        a = StreamEnsemble(16, k=2)
        b = StreamEnsemble(16, k=2)
        for ens in (a, b):
            ens.add_stream("x")
            ens.add_stream("y")
        xs, ys = rng.normal(size=40), rng.normal(size=40)
        for x, y in zip(xs, ys):
            a.update({"x": float(x), "y": float(y)})
        b.extend_columns({"x": xs, "y": ys})
        assert tree_bits(b.tree("x")) == tree_bits(a.tree("x"))
        assert tree_bits(b.tree("y")) == tree_bits(a.tree("y"))

    def test_extend_rows_transposes_to_columns(self):
        ens = StreamEnsemble(8)
        ens.add_stream("x")
        ens.add_stream("y")
        ens.extend({"x": float(i), "y": float(-i)} for i in range(12))
        assert ens.tree("x").time == 12
        assert ens.tree("y").point_estimate(0) == pytest.approx(-11.0)

    def test_extend_columns_validates_lengths_and_names(self):
        ens = StreamEnsemble(8)
        ens.add_stream("x")
        ens.add_stream("y")
        with pytest.raises(ValueError, match="column lengths differ"):
            ens.extend_columns({"x": [1.0, 2.0], "y": [1.0]})
        with pytest.raises(ValueError, match="missing values"):
            ens.extend_columns({"x": [1.0]})
        with pytest.raises(KeyError, match="unknown streams"):
            ens.extend_columns({"x": [1.0], "y": [1.0], "z": [1.0]})

    def test_ground_truth_window_extend_matches_updates(self):
        a = GroundTruthWindow(8)
        b = GroundTruthWindow(8)
        values = np.arange(20.0)
        for v in values:
            a.update(v)
        b.extend(values)
        np.testing.assert_array_equal(
            a.values_newest_first(), b.values_newest_first()
        )
