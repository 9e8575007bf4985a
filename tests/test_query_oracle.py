"""The query path against an independent reference, plus its input boundary.

``oracle_estimates`` is written straight from the query handler of
Figure 3(b), one index at a time, with no code shared with
:mod:`repro.core.plan` or :mod:`repro.core.coverage`:

* window indices 0 and 1 are the raw leaves ``d_0``/``d_1`` (exact values);
* any other index is read from the first filled node, in level-ascending
  ``R, S, L`` scan order, whose segment holds it;
* a reduced (``min_level > 0``) or settling tree clamps an index no segment
  holds to the nearest segment end of the nearest node (finest level wins
  ties);
* the value is the node's inverse transform at the index's position.

``Swat.estimates`` and ``QueryEngine.estimates`` must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import CoverageError
from repro.core.engine import QueryEngine
from repro.core.plan import compile_plan
from repro.core.queries import InnerProductQuery
from repro.core.swat import Swat

SCAN_ROLES = ("R", "S", "L")


def scan_nodes(tree):
    """Filled nodes in the paper's scan order: level ascending, R, S, L."""
    out = []
    for level in range(tree.min_level, tree.n_levels):
        for role in SCAN_ROLES:
            if level == tree.n_levels - 1 and role != "R":
                continue  # the top level keeps only R
            node = tree.node(level, role)
            if node.coeffs is not None:
                out.append(node)
    return out


def oracle_estimate(tree, history, i):
    """One index, per Figure 3(b); ``history[j]`` is the true value ``d_j``."""
    if tree.use_raw_leaves and i < 2:
        return history[i]
    nodes = scan_nodes(tree)
    best = None
    for node in nodes:
        length = 2 ** (node.level + 1)
        lo = tree.time - node.end_time
        hi = lo + length - 1
        if lo <= i <= hi:
            return node.reconstruct(tree.wavelet)[length - 1 - (i - lo)]
        distance = min(abs(i - lo), abs(i - hi))
        if best is None or (distance, node.level) < best[0]:
            position = length - 1 if i < lo else 0
            best = ((distance, node.level), node, position)
    if best is None or not (tree.min_level > 0 or tree.settling):
        return None  # a full tree answers only what its filled nodes hold
    _, node, position = best
    return node.reconstruct(tree.wavelet)[position]


def oracle_estimates(tree, history, indices):
    """Per-index oracle values; None when some index has no answer yet."""
    values = [oracle_estimate(tree, history, i) for i in indices]
    if any(v is None for v in values):
        return None
    return np.array(values, dtype=np.float64)


def assert_matches_oracle(tree, engine, history, indices):
    want = oracle_estimates(tree, history, indices)
    if want is None:  # cold tree: every path refuses the same way
        for estimates in (tree.estimates, engine.estimates):
            with pytest.raises(CoverageError):
                estimates(indices)
        return
    got = tree.estimates(indices)
    assert np.array_equal(got, want)  # bit-identical, not approximately
    # Twice through the engine: the second read is served from the cache
    # whenever the tree is warm.
    assert np.array_equal(engine.estimates(indices), want)
    assert np.array_equal(engine.estimates(np.asarray(indices, dtype=np.int64)), want)


@st.composite
def tree_configs(draw):
    n_levels = draw(st.integers(min_value=2, max_value=7))
    kind = draw(st.sampled_from(["haar", "db2", "db4", "certified"]))
    kw = {"min_level": draw(st.integers(min_value=0, max_value=min(3, n_levels - 1)))}
    if kind == "certified":
        kw.update(k=1, track_deviation=True)
    else:
        kw["k"] = draw(st.integers(min_value=1, max_value=6))
        if kind != "haar":
            kw["wavelet"] = kind
    kw["use_raw_leaves"] = draw(st.booleans())
    return 2**n_levels, kind, kw


class TestOracle:
    @settings(max_examples=120)
    @given(
        config=tree_configs(),
        schedule=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_estimates_match_figure_3b(self, config, schedule, seed):
        """Cold and warm trees, duplicate indices, every basis,
        reduced trees and raw-leaf serving on or off."""
        window, _, kw = config
        rng = np.random.default_rng(seed)
        tree = Swat(window, **kw)
        engine = QueryEngine(tree)
        stream = []
        for arrivals in schedule:
            block = rng.normal(size=arrivals) * 10.0
            tree.extend(block)
            stream.extend(block.tolist())
            history = stream[::-1]
            n = int(rng.integers(1, 2 * window))
            indices = rng.integers(0, tree.size, size=n).tolist()  # duplicates likely
            assert_matches_oracle(tree, engine, history, indices)

    @settings(max_examples=60)
    @given(
        config=tree_configs(),
        new_min_level=st.integers(min_value=0, max_value=3),
        grow_k=st.integers(min_value=0, max_value=3),
        before=st.integers(min_value=1, max_value=200),
        after=st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_estimates_match_after_reconfigure(
        self, config, new_min_level, grow_k, before, after, seed
    ):
        """Live reconfiguration: settling trees extrapolate across emptied
        levels, and the engine must drop plans compiled before the change."""
        window, kind, kw = config
        rng = np.random.default_rng(seed)
        tree = Swat(window, **kw)
        engine = QueryEngine(tree)
        stream = (rng.normal(size=before) * 10.0).tolist()
        tree.extend(stream)
        history = stream[::-1]
        probe = rng.integers(0, tree.size, size=window).tolist()
        assert_matches_oracle(tree, engine, history, probe)
        new_k = tree.k if kind == "certified" else tree.k + grow_k
        tree.reconfigure(k=new_k, min_level=min(new_min_level, tree.n_levels - 1))
        for arrivals in after:
            assert_matches_oracle(tree, engine, history, probe[: tree.size])
            block = rng.normal(size=arrivals) * 10.0
            tree.extend(block)
            stream.extend(block.tolist())
            history = stream[::-1]
            probe = rng.integers(0, tree.size, size=window).tolist()
        assert_matches_oracle(tree, engine, history, probe)

    @pytest.mark.parametrize("seed", [2385, 2399])
    def test_plans_cached_while_settling_are_not_reused(self, seed):
        """A plan compiled while a reconfigured tree settles describes a
        cover that the same phase no longer has once the tree is back on
        cadence; the engine must not serve it afterwards."""
        rng = np.random.default_rng(seed)
        window = 2 ** int(rng.integers(3, 7))
        levels = window.bit_length() - 1
        min_level = int(rng.integers(0, 3)) % levels
        tree = Swat(window, k=int(rng.integers(1, 4)), min_level=min_level)
        engine = QueryEngine(tree)
        stream = (rng.normal(size=int(rng.integers(window, 3 * window)))).tolist()
        tree.extend(stream)
        tree.reconfigure(min_level=int(rng.integers(0, levels)))
        probes = [
            rng.integers(0, window, size=int(rng.integers(1, window))).tolist()
            for _ in range(4)
        ]
        for _ in range(3 * window):
            history = stream[::-1]
            for probe in probes:
                assert_matches_oracle(tree, engine, history, probe)
            stream.append(float(rng.normal()))
            tree.update(stream[-1])

    def test_whole_window_reconstruction_matches(self):
        rng = np.random.default_rng(3)
        tree = Swat(64, k=3, wavelet="db2", min_level=1)
        data = rng.normal(size=150)
        tree.extend(data)
        want = oracle_estimates(tree, data[::-1].tolist(), range(tree.size))
        assert np.array_equal(tree.reconstruct_window(), want)


class TestCertifiedBound:
    """``error_bound`` must hold for any weights the API accepts (a
    deterministic guarantee), including mixed signs that cancel."""

    def _tree(self):
        rng = np.random.default_rng(0)
        tree = Swat(64, k=1, track_deviation=True)
        data = rng.normal(scale=50.0, size=200)
        tree.extend(data)
        return tree, data[::-1][:64]

    def test_mixed_sign_weights_stay_within_bound(self):
        tree, window = self._tree()
        rng = np.random.default_rng(1)
        engine = QueryEngine(tree)
        for _ in range(200):
            indices = tuple(int(i) for i in rng.choice(64, size=4, replace=False))
            weights = tuple(float(w) for w in rng.choice([-1.0, 1.0], size=4))
            query = InnerProductQuery(indices, weights)
            answer = tree.answer(query)
            error = abs(answer.value - query.evaluate(window))
            assert error <= answer.error_bound * (1 + 1e-12) + 1e-9
            assert engine.answer(query).error_bound == answer.error_bound
            if error > 0:
                tight = InnerProductQuery(indices, weights, precision=error / 2)
                assert not tree.can_answer(tight)

    def test_bound_is_zero_on_raw_leaves_and_infinite_when_extrapolating(self):
        tree, _ = self._tree()
        assert tree.answer(InnerProductQuery((0, 1), (1.0, -1.0))).error_bound == 0.0
        reduced = Swat(64, k=1, track_deviation=True, min_level=2)
        reduced.extend(np.arange(99.0))  # R_2 ends 3 arrivals back
        assert reduced.answer(InnerProductQuery((0,), (1.0,))).error_bound == float("inf")


class TestInputBoundary:
    def _tree(self):
        tree = Swat(16, k=16)
        tree.extend(np.arange(40.0))
        return tree

    @pytest.mark.parametrize("indices", [[1.7], [1.0], [True], [False, True]])
    def test_non_integer_indices_rejected(self, indices):
        tree = self._tree()
        with pytest.raises(TypeError):
            compile_plan(tree, indices)
        with pytest.raises(TypeError):
            tree.estimates(indices)
        engine = QueryEngine(tree)
        engine.estimates([1])  # a cached integer plan must not absorb them
        with pytest.raises(TypeError):
            engine.estimates(indices)

    def test_float_index_array_rejected(self):
        with pytest.raises(TypeError):
            self._tree().estimates(np.array([3.0]))

    def test_accepted_index_forms(self):
        tree = self._tree()
        assert tree.estimates([]).shape == (0,)
        want = tree.estimates([3, 5])
        assert np.array_equal(tree.estimates([np.int64(3), np.int32(5)]), want)
        assert np.array_equal(tree.estimates(np.array([3, 5], dtype=np.uint16)), want)
        assert np.array_equal(tree.estimates((3, 5)), want)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            InnerProductQuery((0, 1), (1.0, bad))
