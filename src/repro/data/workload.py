"""Query workload generators for the paper's two query modes.

* **fixed query mode** — the same inner-product query over the most recent
  values is executed at every query point;
* **random query mode** — each query point draws a fresh query over a
  uniformly random subset of window indices of uniformly random size.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..core.queries import InnerProductQuery, exponential_query, linear_query

__all__ = ["FixedWorkload", "RandomWorkload", "make_query", "QUERY_KINDS"]

QUERY_KINDS = ("exponential", "linear")

#: Smallest query size :class:`RandomWorkload` draws.
MIN_LENGTH = 2


def make_query(
    kind: str, length: int, start: int = 0, precision: float = float("inf")
) -> InnerProductQuery:
    """Build an exponential or linear inner-product query by name."""
    if kind == "exponential":
        return exponential_query(length, start=start, precision=precision)
    if kind == "linear":
        return linear_query(length, start=start, precision=precision)
    raise ValueError(f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}")


class FixedWorkload:
    """Fixed query mode: yields the same query forever."""

    def __init__(self, query: InnerProductQuery) -> None:
        self.query = query

    def __iter__(self) -> Iterator[InnerProductQuery]:
        while True:
            yield self.query

    def next(self) -> InnerProductQuery:
        return self.query

    def __repr__(self) -> str:
        return f"FixedWorkload(length={self.query.length})"


class RandomWorkload:
    """Random query mode: "we choose arbitrary data points repeatedly" (§2.7).

    Each query draws a uniformly random *size* and a uniformly random
    *subset* of window indices of that size; weights (exponential or linear)
    are assigned over the subset in recency order, so the most recent chosen
    point carries the largest weight — the paper's biased query model applied
    to arbitrary index vectors.

    Parameters
    ----------
    window_size:
        Sliding-window size ``N``; queries address indices in ``[0, N-1]``.
    kind:
        ``"exponential"`` or ``"linear"``.
    max_length:
        Largest query size drawn (default ``window_size``); sizes are uniform
        on ``[MIN_LENGTH, max_length]``.
    precision_low, precision_high:
        If given, each query carries a precision drawn uniformly from this
        range (used by the replication experiments); otherwise precision is
        infinite.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(
        self,
        window_size: int,
        kind: str = "exponential",
        max_length: Optional[int] = None,
        precision_low: Optional[float] = None,
        precision_high: Optional[float] = None,
        seed: Optional[int] = 0,
    ) -> None:
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}")
        if window_size < 2:
            raise ValueError("window_size must be >= 2")
        self.window_size = window_size
        self.kind = kind
        self.max_length = window_size if max_length is None else min(max_length, window_size)
        if self.max_length < MIN_LENGTH:
            raise ValueError(f"max_length must be >= {MIN_LENGTH}")
        if (precision_low is None) != (precision_high is None):
            raise ValueError("set both or neither of precision_low/precision_high")
        self.precision_low = precision_low
        self.precision_high = precision_high
        self._rng = np.random.default_rng(seed)

    def _draw_precision(self) -> float:
        if self.precision_low is None:
            return float("inf")
        return float(self._rng.uniform(self.precision_low, self.precision_high))

    def next(self) -> InnerProductQuery:
        """Draw one query."""
        length = int(self._rng.integers(MIN_LENGTH, self.max_length + 1))
        precision = self._draw_precision()
        indices = np.sort(
            self._rng.choice(self.window_size, size=length, replace=False)
        )
        template = make_query(self.kind, length)
        return InnerProductQuery(
            tuple(int(i) for i in indices), template.weights, precision
        )

    def __iter__(self) -> Iterator[InnerProductQuery]:
        while True:
            yield self.next()

    def __repr__(self) -> str:
        return (
            f"RandomWorkload(N={self.window_size}, kind={self.kind!r}, "
            f"len=[{MIN_LENGTH},{self.max_length}])"
        )
