"""Closed-form error bounds from Section 2.6 of the paper, plus shared
stream-input validation.

The analysis assumes a linear-drift stream (each arrival differs from the
previous one by ``eps``) and a 1-coefficient Haar tree, and bounds the
weighted error contributed by a single level-``l`` node to a query:

* exponential weights: each level contributes at most ``2 * eps``, so a
  length-``M`` query incurs ``O(eps * log M)`` total error (Equation 2);
* linear weights: level ``l`` contributes at most ``4^l * eps``, so the total
  is ``O(eps * M^2)`` (Equation 3).

These are exposed both for documentation and as oracles for the empirical
tests in ``tests/test_error_bounds.py``.

:func:`require_finite` is the one gate every ingest path shares: stream
values must be finite and at most :data:`MAX_STREAM_MAGNITUDE` in magnitude,
checked before any state changes.  Restored checkpoints hold their raw
stream values to the same limit; query weights and restored coefficients
keep a finiteness-only check.
"""

from __future__ import annotations

import math
import sys
from typing import List, Union

import numpy as np

__all__ = [
    "MAX_STREAM_MAGNITUDE",
    "require_finite",
    "exponential_level_bound",
    "exponential_query_bound",
    "linear_level_bound",
    "linear_query_bound",
    "drift_segment_errors",
]


#: Largest magnitude a stream value may have.  The worst accumulation on
#: stream values is the histogram SSE's squared interval sum ``s * s`` in
#: ``PrefixStats.sse`` and ``histogram.approx``: ``s`` adds up to ``W``
#: values, so it is finite iff ``W * |v| <= sqrt(DBL_MAX) ~= 1.34e154``.
#: (One square alone, as in ``PrefixStats``' running sum of squares, already
#: overflows past ``|v| ~= 1.3e154``.)  Any window has ``W <= 2**53``, so
#: ``|v| <= 1.34e154 / 2**53 ~= 1.49e138``.  Every other accumulation is
#: smaller: a Haar node's scaling coefficient is at most ``sqrt(W) * |v|``.
MAX_STREAM_MAGNITUDE = 1e138


def require_finite(
    values: Union[float, int, np.ndarray],
    what: str = "stream values",
    limit: float = sys.float_info.max,
) -> None:
    """Raise :exc:`ValueError` unless every value lies in ``[-limit, limit]``.

    The default ``limit`` is the largest finite float, which makes this a
    finiteness check; stream-value boundaries pass
    :data:`MAX_STREAM_MAGNITUDE`.  NaN fails every comparison, so one bound
    test per scalar (one ``abs``/``max`` sweep per array) rejects NaN and
    infinities too.  The error names the first offender.
    """
    if isinstance(values, (float, int)):
        if -limit <= values <= limit:
            return
        bad = float(values)
    else:
        arr = np.asarray(values, dtype=np.float64)
        magnitude = np.abs(arr)
        if magnitude.max(initial=0.0) <= limit:
            return
        bad = float(arr[~(magnitude <= limit)].flat[0])
    raise ValueError(
        f"{what} must be finite and at most {limit:g} in magnitude, got {bad!r}"
    )


def exponential_level_bound(eps: float, level: int) -> float:
    """Weighted error a level-``level`` node adds to an exponential query.

    The paper's derivation telescopes to at most ``2 * eps`` independent of
    the level (the exponentially decaying weights cancel the exponentially
    growing per-point error).
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if level < 0:
        raise ValueError("level must be non-negative")
    return 2.0 * eps


def exponential_query_bound(eps: float, length: int) -> float:
    """Total bound for an exponential inner-product query of ``length`` points.

    ``sum_{l=0}^{ceil(log M)} 2 eps = 2 eps (ceil(log M) + 1) = O(eps log M)``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    top = math.ceil(math.log2(length)) if length > 1 else 0
    return 2.0 * eps * (top + 1)


def linear_level_bound(eps: float, level: int) -> float:
    """Weighted error a level-``level`` node adds to a linear query: ``4^l eps``."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if level < 0:
        raise ValueError("level must be non-negative")
    return (4.0**level) * eps


def linear_query_bound(eps: float, length: int) -> float:
    """Total bound for a linear inner-product query: ``sum 4^l eps = O(eps M^2)``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    top = math.ceil(math.log2(length)) if length > 1 else 0
    return eps * (4.0 ** (top + 1) - 1.0) / 3.0


def drift_segment_errors(eps: float, segment_length: int) -> List[float]:
    """Per-point absolute error of a 1-coefficient (average) summary under drift.

    For a segment ``d_i = d_0 + i * eps`` of ``2^{l+1}`` points summarized by
    its average ``d_0 + (len - 1) eps / 2``, point ``i`` incurs error
    ``|i - (len - 1)/2| * eps`` — the paper's worked example for ``R_2``
    (errors ``3.5 eps, 2.5 eps, 1.5 eps, 0.5 eps`` mirrored).
    """
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    mid = (segment_length - 1) / 2.0
    return [abs(i - mid) * eps for i in range(segment_length)]
