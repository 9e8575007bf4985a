"""Whole-stream SWAT: the unbounded variant of Section 2.3.

"If the entire data stream (and not just the last N values) is of interest,
then the number of levels of the approximation tree will grow
logarithmically with the size of the stream."

:class:`GrowingSwat` implements exactly that: the same shift pipeline and
k-coefficient Haar nodes as :class:`repro.core.swat.Swat`, but a new level is
appended whenever the stream doubles, so any prefix of the stream remains
queryable forever in ``O(k log t)`` space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..wavelets.haar import combine_haar, leaf_coeffs
from .coverage import build_cover
from .errors import require_finite
from .node import Role, SwatNode
from .queries import InnerProductQuery

__all__ = ["GrowingSwat"]


class GrowingSwat:
    """SWAT over the entire stream; levels grow with ``log2(t)``.

    Every level keeps the full Left / Shift / Right triple (there is no
    window boundary to make older nodes useless, so the paper's top-level
    pruning does not apply).  Window indices address the whole stream:
    index 0 is the newest value, index ``time - 1`` the very first.
    """

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._time = 0
        self._last_two: List[float] = []
        self._levels: List[Dict[str, SwatNode]] = []

    # ------------------------------------------------------------------ state

    @property
    def time(self) -> int:
        """Total number of arrivals observed."""
        return self._time

    @property
    def size(self) -> int:
        """Queryable indices: the whole stream."""
        return self._time

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def memory_coefficients(self) -> int:
        return sum(
            node.coeffs.size
            for lv in self._levels
            for node in lv.values()
            if node.coeffs is not None
        )

    def node(self, level: int, role: str) -> SwatNode:
        return self._levels[level][role]

    def nodes(self) -> List[SwatNode]:
        """All nodes in query-scan order (level ascending, R, S, L)."""
        out: List[SwatNode] = []
        for lv in self._levels:
            out.extend(lv[role] for role in Role.SCAN_ORDER)
        return out

    # ---------------------------------------------------------------- updates

    def update(self, value: float) -> None:
        """Ingest one value; grows a level whenever the stream doubles."""
        require_finite(value)
        self._time += 1
        t = self._time
        self._last_two.append(float(value))
        if len(self._last_two) > 2:
            self._last_two.pop(0)
        # Level l needs 2^{l+1} points; append levels as the stream doubles.
        while (1 << (len(self._levels) + 1)) <= t:
            level = len(self._levels)
            self._levels.append(
                {role: SwatNode(level, role) for role in Role.SCAN_ORDER}
            )
        max_level = min(_trailing_zeros(t), len(self._levels) - 1)
        for level in range(max_level + 1):
            lv = self._levels[level]
            lv[Role.LEFT].copy_from(lv[Role.SHIFT])
            lv[Role.SHIFT].copy_from(lv[Role.RIGHT])
            coeffs = self._fresh_right(level)
            if coeffs is not None:
                lv[Role.RIGHT].set_contents(coeffs, t)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.update(v)

    def _fresh_right(self, level: int) -> Optional[np.ndarray]:
        if level == 0:
            if len(self._last_two) < 2:
                return None
            return leaf_coeffs(self._last_two[-1], self._last_two[-2], self.k)
        below = self._levels[level - 1]
        older_coeffs = below[Role.LEFT].coeffs
        newer_coeffs = below[Role.RIGHT].coeffs
        if older_coeffs is None or newer_coeffs is None:
            return None
        return combine_haar(older_coeffs, newer_coeffs, self.k)

    # ---------------------------------------------------------------- queries

    def estimates(self, indices: Sequence[int]) -> np.ndarray:
        """Approximate stream values at the given indices (0 = newest)."""
        indices = list(indices)
        bad = [i for i in indices if not 0 <= i < self._time]
        if bad:
            raise IndexError(f"indices {bad} out of range [0, {self._time - 1}]")
        by_index: Dict[int, float] = {}
        recent = min(len(self._last_two), 2)
        for i in indices:
            if i < recent:
                by_index[i] = self._last_two[-1 - i]
        remaining = [i for i in indices if i not in by_index]
        if remaining:
            cover = build_cover(self.nodes(), remaining, self._time)
            for node, assigned in cover.assignments.items():
                signal = node.reconstruct("haar")
                for i in assigned:
                    by_index[i] = float(signal[node.position_of(i, self._time)])
        return np.array([by_index[i] for i in indices], dtype=np.float64)

    def point_estimate(self, index: int) -> float:
        return float(self.estimates([index])[0])

    def answer(self, query: InnerProductQuery) -> float:
        est = self.estimates(list(query.indices))
        return float(np.dot(np.asarray(query.weights, dtype=np.float64), est))

    def __repr__(self) -> str:
        return f"GrowingSwat(k={self.k}, levels={self.n_levels}, t={self._time})"


def _trailing_zeros(t: int) -> int:
    return (t & -t).bit_length() - 1
