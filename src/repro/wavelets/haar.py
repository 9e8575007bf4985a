"""Haar-specific fast paths used by the SWAT tree.

The crucial operation in SWAT's update rule (Figure 3(a) of the paper) is

    contents(R_l) := DWT(R_{l-1}, L_{l-1})

i.e. combining the summaries of two adjacent half-segments into the summary
of their union.  With the orthonormal Haar basis and the coarse-to-fine
coefficient layout of :mod:`repro.wavelets.transform` this combine is *exact*
and costs ``O(k)``:

* parent approximation   ``a  = (a_L + a_R) / sqrt(2)``
* parent coarsest detail ``d0 = (a_L - a_R) / sqrt(2)``
* every finer parent band is the concatenation of the children's bands one
  scale down (orthonormal detail coefficients are invariant under further
  decomposition of the approximation channel).
"""

from __future__ import annotations

import math

import numpy as np

from .filters import get_filter
from .transform import is_power_of_two

__all__ = [
    "batch_combine_haar",
    "batch_haar_decompose",
    "batch_leaf_coeffs",
    "combine_haar",
    "haar_average",
    "haar_reconstruct",
    "leaf_coeffs",
]

_SQRT2 = math.sqrt(2.0)


def leaf_coeffs(newer: float, older: float, k: int = 1) -> np.ndarray:
    """Level-0 node contents from the two most recent raw values.

    The paper's footnote to Figure 3(a): "R_{-1} and L_{-1} are data values
    d_0 and d_1" — ``newer`` is d_0, ``older`` is d_1.  In time order the
    segment is ``[older, newer]``.
    """
    coeffs = np.array([(older + newer) / _SQRT2, (older - newer) / _SQRT2])
    return coeffs[: max(1, min(k, 2))].copy()


def combine_haar(older: np.ndarray, newer: np.ndarray, k: int) -> np.ndarray:
    """Combine two child coefficient vectors into the parent's first ``k`` coefficients.

    Parameters
    ----------
    older:
        Flat coarse-to-fine Haar coefficients of the *older* half-segment
        (SWAT's ``L_{l-1}``), truncated to at most ``k`` values.
    newer:
        Same for the *newer* half-segment (SWAT's ``R_{l-1}``).
    k:
        Number of coefficients to retain in the parent.

    Notes
    -----
    Child coefficients beyond what was retained are treated as zero, which is
    consistent with the k-coefficient summary: the parent's first ``k``
    coefficients depend only on child coefficients at positions ``< k``, so
    repeated combining of k-truncated nodes is exact with respect to the
    k-truncated full transform.
    """
    older = np.asarray(older, dtype=np.float64)
    newer = np.asarray(newer, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    a_l = older[0] if older.size else 0.0
    a_r = newer[0] if newer.size else 0.0
    out = np.zeros(k, dtype=np.float64)
    out[0] = (a_l + a_r) / _SQRT2
    if k >= 2:
        out[1] = (a_l - a_r) / _SQRT2
    # Parent band j (size 2^{j-1} per child) starts at flat position 2^j and
    # is [older band (j-1), newer band (j-1)], each starting at 2^{j-1}.
    band_start = 2
    while band_start < k:
        child_lo = band_start // 2
        child_hi = band_start
        for child, offset in ((older, 0), (newer, band_start // 2)):
            src = child[child_lo:child_hi]
            dst_lo = band_start + offset
            dst_hi = min(dst_lo + src.size, k)
            if dst_hi > dst_lo:
                out[dst_lo:dst_hi] = src[: dst_hi - dst_lo]
        band_start *= 2
    return out


def batch_leaf_coeffs(newer: np.ndarray, older: np.ndarray, k: int = 1) -> np.ndarray:
    """Vectorized :func:`leaf_coeffs`: row ``i`` summarizes ``(older[i], newer[i])``.

    Performs the same two IEEE operations per pair as the scalar helper, so
    the result is bit-identical to calling ``leaf_coeffs`` row by row.
    """
    newer = np.asarray(newer, dtype=np.float64)
    older = np.asarray(older, dtype=np.float64)
    width = max(1, min(k, 2))
    out = np.empty((newer.size, width), dtype=np.float64)
    out[:, 0] = (older + newer) / _SQRT2
    if width > 1:
        out[:, 1] = (older - newer) / _SQRT2
    return out


def batch_combine_haar(older: np.ndarray, newer: np.ndarray, k: int) -> np.ndarray:
    """Vectorized :func:`combine_haar`: combine ``M`` child pairs at once.

    ``older`` and ``newer`` are ``(M, w)`` matrices of child coefficient rows
    (``w <= k``); the result is the ``(M, k)`` matrix whose row ``i`` equals
    ``combine_haar(older[i], newer[i], k)`` bit-for-bit (the butterfly and
    the band copies are the same elementwise operations, applied per column
    instead of per row).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    older = np.asarray(older, dtype=np.float64)
    newer = np.asarray(newer, dtype=np.float64)
    if older.ndim != 2 or newer.ndim != 2 or older.shape[0] != newer.shape[0]:
        raise ValueError("older/newer must be (M, w) matrices with equal row counts")
    m = older.shape[0]
    zeros = np.zeros(m, dtype=np.float64)
    a_l = older[:, 0] if older.shape[1] else zeros
    a_r = newer[:, 0] if newer.shape[1] else zeros
    out = np.zeros((m, k), dtype=np.float64)
    out[:, 0] = (a_l + a_r) / _SQRT2
    if k >= 2:
        out[:, 1] = (a_l - a_r) / _SQRT2
    band_start = 2
    while band_start < k:
        child_lo = band_start // 2
        child_hi = band_start
        for child, offset in ((older, 0), (newer, band_start // 2)):
            src = child[:, child_lo:child_hi]
            dst_lo = band_start + offset
            dst_hi = min(dst_lo + src.shape[1], k)
            if dst_hi > dst_lo:
                out[:, dst_lo:dst_hi] = src[:, : dst_hi - dst_lo]
        band_start *= 2
    return out


def batch_haar_decompose(segments: np.ndarray) -> np.ndarray:
    """Row-wise full Haar decomposition of ``(M, 2^m)`` segments.

    Row ``i`` of the result is bit-identical to
    ``full_decompose(segments[i], "haar")``: each cascade step multiplies the
    even/odd columns by the very same filter taps the scalar
    :func:`repro.wavelets.transform.dwt_step` fast path uses, in the same
    order, so no float reassociation can creep in.
    """
    segs = np.asarray(segments, dtype=np.float64)
    if segs.ndim != 2 or not is_power_of_two(segs.shape[1]):
        raise ValueError(
            f"segments must be a (M, 2^m) matrix, got shape {segs.shape}"
        )
    filt = get_filter("haar")
    h0, h1 = filt.lowpass
    g0, g1 = filt.highpass
    out = np.empty_like(segs)
    approx = segs
    size = segs.shape[1]
    while size > 1:
        half = size // 2
        even = approx[:, 0::2]
        odd = approx[:, 1::2]
        out[:, half:size] = even * g0 + odd * g1
        approx = even * h0 + odd * h1
        size = half
    out[:, 0] = approx[:, 0]
    return out


def haar_average(coeffs: np.ndarray, length: int) -> float:
    """Mean of a segment of ``length`` points from its Haar coefficients.

    For the orthonormal full decomposition ``a = sum(x) / 2^{m/2}`` with
    ``length = 2^m``, so ``mean = a / 2^{m/2} = a / sqrt(length)``.
    """
    if not is_power_of_two(length):
        raise ValueError(f"length must be a power of two, got {length}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return float(coeffs[0] / math.sqrt(length))


def haar_reconstruct(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Reconstruct a length-``length`` segment from (truncated) Haar coefficients.

    Equivalent to :func:`repro.wavelets.transform.reconstruct` with the Haar
    basis but implemented with the doubling fast path (each inverse step is a
    vectorised butterfly), since SWAT calls this on every query.
    """
    if not is_power_of_two(length):
        raise ValueError(f"length must be a power of two, got {length}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    padded = np.zeros(length, dtype=np.float64)
    padded[: min(coeffs.size, length)] = coeffs[:length]
    approx = padded[:1]
    pos, size = 1, 1
    while approx.size < length:
        detail = padded[pos : pos + size]
        out = np.empty(2 * size, dtype=np.float64)
        out[0::2] = (approx + detail) / _SQRT2
        out[1::2] = (approx - detail) / _SQRT2
        approx = out
        pos += size
        size *= 2
    return approx
