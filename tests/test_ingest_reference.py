"""A reference model for SWAT ingest, taken straight from Section 2.

The model needs only the raw stream and the arrival clock ``t``:

* Level ``l`` refreshes every ``2^l`` arrivals (Figure 3(a)), so ``R_l``
  summarizes the ``2^{l+1}`` values ending at ``floor(t / 2^l) * 2^l``;
  ``S_l`` and ``L_l`` (all but the top level) end ``2^l`` and ``2^{l+1}``
  arrivals earlier.  A node holds contents once its whole segment has been
  observed, i.e. once its end time is at least ``2^{l+1}``.
* A node's contents are the first ``k`` coefficients of the orthonormal
  Haar DWT of its exact segment (oldest first, coarse-to-fine layout);
  a segment of ``2^{l+1}`` values has only that many coefficients.
* The ring buffer holds the newest ``2^{min_level + 1}`` raw values.

The DWT here is a direct pairwise sum/difference, independent of
:mod:`repro.wavelets`.  Both ingest paths — :meth:`Swat.update` value by
value and :meth:`Swat.extend` block by block — must match the model after
every step.  (``tests/test_batch_extend.py`` pins the two paths to each
other bit for bit; this suite pins them to the definition.)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import drift_segment_errors
from repro.core.swat import Swat

_SQRT2 = math.sqrt(2.0)


def reference_haar(segment):
    """Orthonormal Haar DWT of a power-of-two segment, coarse-to-fine."""
    approx = [float(v) for v in segment]
    bands = []
    while len(approx) > 1:
        pairs = list(zip(approx[0::2], approx[1::2]))
        bands.insert(0, [(a - b) / _SQRT2 for a, b in pairs])
        approx = [(a + b) / _SQRT2 for a, b in pairs]
    return np.array(approx + [d for band in bands for d in band])


def reference_nodes(stream, t, window_size, k, min_level=0):
    """``{(level, role): (end_time, coeffs or None)}`` for the first ``t`` arrivals."""
    n_levels = int(math.log2(window_size))
    out = {}
    for level in range(min_level, n_levels):
        seg = 1 << (level + 1)
        right_end = (t >> level) << level
        roles = {"R": right_end}
        if level < n_levels - 1:
            roles["S"] = right_end - (1 << level)
            roles["L"] = right_end - seg
        for role, end in roles.items():
            if end < seg:
                out[(level, role)] = None
                continue
            flat = reference_haar(stream[end - seg : end])
            out[(level, role)] = (end, flat[: min(k, seg)])
    return out


def assert_matches_reference(tree, stream, min_level=0):
    """Every maintained node, and the ring buffer, agree with the model."""
    t = tree.time
    scale = max(1.0, float(np.max(np.abs(stream[:t])))) if t else 1.0
    for (level, role), expect in reference_nodes(
        stream, t, tree.window_size, tree.k, min_level
    ).items():
        node = tree.node(level, role)
        where = f"{role}{level} at t={t}"
        if expect is None:
            assert not node.is_filled, f"{where} should still be empty"
            continue
        end, coeffs = expect
        assert node.is_filled, f"{where} should hold a summary"
        assert node.end_time == end, where
        assert node.coeffs.shape == coeffs.shape, where
        # Tolerance: the tree sums in cascade order, the model pairwise;
        # both are exact up to rounding of sums over <= N values.
        np.testing.assert_allclose(
            node.coeffs, coeffs, rtol=1e-12, atol=1e-12 * scale * tree.window_size,
            err_msg=where,
        )
    keep = 1 << (min_level + 1)
    assert list(tree._buffer) == [float(v) for v in stream[max(0, t - keep) : t]]


# (window_size, k, min_level)
CONFIGS = [
    (4, 1, 0),
    (4, 2, 0),
    (4, 4, 0),
    (8, 1, 0),
    (8, 3, 0),
    (8, 8, 0),
    (16, 1, 0),
    (16, 2, 0),
    (16, 5, 0),
    (16, 1, 2),
    (32, 1, 0),
    (32, 4, 0),
    (32, 32, 0),
    (32, 2, 3),
    (64, 1, 0),
    (64, 3, 1),
]

_ids = [f"N{n}-k{k}-m{m}" for n, k, m in CONFIGS]

# Block sizes cycled by the batched replay: singletons, sub-segment,
# level-straddling and multi-window blocks all occur.
_BLOCKS = [1, 3, 2, 7, 16, 5, 1, 64, 11, 4, 130]


def _stream(window_size, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 100.0, size=3 * window_size + 7) + rng.integers(-50, 50)


@pytest.mark.parametrize("window_size,k,min_level", CONFIGS, ids=_ids)
def test_scalar_ingest_matches_reference(window_size, k, min_level):
    stream = _stream(window_size, seed=window_size + k + min_level)
    tree = Swat(window_size, k=k, min_level=min_level)
    assert_matches_reference(tree, stream, min_level)
    for value in stream:
        tree.update(value)
        assert_matches_reference(tree, stream, min_level)


@pytest.mark.parametrize("window_size,k,min_level", CONFIGS, ids=_ids)
def test_batched_ingest_matches_reference(window_size, k, min_level):
    stream = _stream(window_size, seed=window_size + k + min_level)
    tree = Swat(window_size, k=k, min_level=min_level)
    pos = 0
    i = 0
    while pos < stream.size:
        size = _BLOCKS[i % len(_BLOCKS)]
        tree.extend(stream[pos : pos + size])
        pos = min(pos + size, stream.size)
        i += 1
        assert tree.time == pos
        assert_matches_reference(tree, stream, min_level)


def test_reference_haar_on_a_worked_segment():
    """A worked four-point segment, checked by hand and by Parseval."""
    flat = reference_haar([2.0, 4.0, 6.0, 8.0])
    np.testing.assert_allclose(flat, [10.0, -4.0, -_SQRT2, -_SQRT2])
    assert math.isclose(float(np.sum(flat**2)), 4 + 16 + 36 + 64)


def test_model_check_is_not_vacuous():
    """A change of one part in a million to a node coefficient is caught."""
    stream = _stream(16, seed=3)
    tree = Swat(16, k=2)
    tree.extend(stream)
    assert_matches_reference(tree, stream)
    node = tree.node(1, "S")
    node.coeffs = node.coeffs.copy()
    node.coeffs[1] += 1e-6 * max(1.0, abs(node.coeffs[1]))
    with pytest.raises(AssertionError, match="S1"):
        assert_matches_reference(tree, stream)


def test_model_check_catches_a_stale_end_time():
    stream = _stream(8, seed=4)
    tree = Swat(8, k=1)
    tree.extend(stream[:20])
    node = tree.node(0, "L")
    node.end_time -= 1
    with pytest.raises(AssertionError, match="L0"):
        assert_matches_reference(tree, stream)


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([4, 8, 16, 32]))
    n_levels = int(math.log2(n))
    k = draw(st.integers(min_value=1, max_value=n))
    min_level = draw(st.integers(min_value=0, max_value=n_levels - 1))
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=3 * n,
        )
    )
    blocks = draw(st.lists(st.integers(min_value=1, max_value=2 * n), min_size=1, max_size=8))
    return n, k, min_level, np.array(values, dtype=np.float64), blocks


@settings(max_examples=120)
@given(_cases())
def test_both_ingest_paths_match_reference_on_arbitrary_streams(case):
    n, k, min_level, stream, blocks = case
    scalar = Swat(n, k=k, min_level=min_level)
    for value in stream:
        scalar.update(value)
    assert_matches_reference(scalar, stream, min_level)
    batched = Swat(n, k=k, min_level=min_level)
    pos = 0
    i = 0
    while pos < stream.size:
        size = blocks[i % len(blocks)]
        batched.extend(stream[pos : pos + size])
        pos = min(pos + size, stream.size)
        i += 1
        assert_matches_reference(batched, stream, min_level)


@pytest.mark.parametrize("eps", [0.25, 1.0, 3.0])
def test_drift_stream_node_errors_match_section_2_6_closed_form(eps):
    """On ``d_i = d_0 + i * eps`` a 1-coefficient node is its segment mean,
    so point ``i`` of every node errs by exactly ``|i - (len - 1)/2| * eps``
    (:func:`~repro.core.errors.drift_segment_errors`)."""
    stream = 7.0 + eps * np.arange(200, dtype=np.float64)
    tree = Swat(64, k=1)
    tree.extend(stream)
    assert_matches_reference(tree, stream)
    for node in tree.nodes():
        first, last = node.absolute_segment()
        exact = stream[first - 1 : last]
        errors = np.abs(node.reconstruct() - exact)
        np.testing.assert_allclose(
            errors, drift_segment_errors(eps, node.segment_length), atol=1e-9
        )
