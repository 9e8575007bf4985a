"""Query model of Section 2.1: point, range, and inner-product queries.

A data stream is ``..., d_2, d_1, d_0`` with ``d_0`` the most recent value;
queries address *window indices* where index 0 is the newest point.

An inner-product query is a triple ``(I, W, delta)``: index vector, weight
vector, and the precision within which ``I . W`` must be answered.  The two
special shapes the paper analyses:

* **exponential**: weights decay geometrically with age, e.g. ``[8, 4, 2, 1]``
  over indices ``[0, 1, 2, 3]``;
* **linear**: weights decay linearly, e.g. ``[4, 3, 2, 1]``.

Point queries are inner-product queries with a single index and weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import require_finite

__all__ = [
    "InnerProductQuery",
    "point_query",
    "exponential_query",
    "linear_query",
    "RangeQuery",
]


@dataclass(frozen=True)
class InnerProductQuery:
    """An inner-product query ``(I, W, delta)`` over window indices.

    Attributes
    ----------
    indices:
        Window indices of interest (0 = most recent).  Need not be
        consecutive or sorted, but must be distinct.
    weights:
        One weight per index.
    precision:
        The ``delta`` tolerance: an answer ``a`` is acceptable when
        ``sum_i W[i] * |d_{I[i]} - a_{I[i]}| <= delta`` (Section 2.1).
    """

    indices: Tuple[int, ...]
    weights: Tuple[float, ...]
    precision: float = float("inf")

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.weights):
            raise ValueError(
                f"index/weight length mismatch: {len(self.indices)} vs {len(self.weights)}"
            )
        if len(self.indices) == 0:
            raise ValueError("query must address at least one index")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("query indices must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("window indices are non-negative")
        if self.precision < 0:
            raise ValueError("precision must be non-negative")
        require_finite(np.asarray(self.weights, dtype=np.float64), "query weights")

    @property
    def length(self) -> int:
        """Number of addressed data points (the paper's ``M``)."""
        return len(self.indices)

    @property
    def max_index(self) -> int:
        return max(self.indices)

    def evaluate(self, values: Sequence[float]) -> float:
        """Exact inner product against per-index values.

        ``values`` is indexed by *window index* (``values[i]`` is ``d_i``),
        so callers pass the window newest-first.
        """
        idx = np.asarray(self.indices)
        w = np.asarray(self.weights, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if idx.max() >= vals.size:
            raise IndexError(
                f"query addresses index {int(idx.max())} but only {vals.size} values given"
            )
        return float(np.dot(w, vals[idx]))

    def weighted_error(self, true_values: Sequence[float], approx_values: Sequence[float]) -> float:
        """The paper's error measure ``sum_i W[i] * |d_{I[i]} - a_{I[i]}|``."""
        idx = np.asarray(self.indices)
        w = np.asarray(self.weights, dtype=np.float64)
        t = np.asarray(true_values, dtype=np.float64)[idx]
        a = np.asarray(approx_values, dtype=np.float64)[idx]
        return float(np.dot(w, np.abs(t - a)))


def point_query(index: int, precision: float = float("inf")) -> InnerProductQuery:
    """A point query ``([i], [1], delta)``."""
    return InnerProductQuery((int(index),), (1.0,), precision)


def exponential_query(
    length: int, start: int = 0, ratio: float = 2.0, precision: float = float("inf")
) -> InnerProductQuery:
    """Exponential inner-product query over ``length`` consecutive indices.

    Weights are ``[1, 1/ratio, 1/ratio^2, ...]`` starting at window index
    ``start`` — the most recent addressed value carries the largest weight,
    matching the paper's biased query model.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1 for exponentially decreasing weights")
    indices = tuple(range(start, start + length))
    weights = tuple(ratio ** (-i) for i in range(length))
    return InnerProductQuery(indices, weights, precision)


def linear_query(
    length: int, start: int = 0, precision: float = float("inf")
) -> InnerProductQuery:
    """Linear inner-product query: weights ``[M/M, (M-1)/M, ..., 1/M]``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    indices = tuple(range(start, start + length))
    weights = tuple((length - i) / length for i in range(length))
    return InnerProductQuery(indices, weights, precision)


@dataclass(frozen=True)
class RangeQuery:
    """A range query (Section 2.4): rectangle in time-value space.

    Asks for all window indices ``t_start <= i <= t_end`` whose value lies in
    ``[value - radius, value + radius]``.
    """

    value: float
    radius: float
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if not 0 <= self.t_start <= self.t_end:
            raise ValueError("need 0 <= t_start <= t_end")

    @property
    def low(self) -> float:
        return self.value - self.radius

    @property
    def high(self) -> float:
        return self.value + self.radius

    def matches(self, v: float) -> bool:
        return self.low <= v <= self.high
