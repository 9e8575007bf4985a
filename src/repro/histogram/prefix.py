"""Sliding-window prefix statistics for histogram construction.

Per the paper's Section 2.7: "the Histogram technique computes only the sum
and the squared sum with every arrival; the rest of the summary is computed
at every query".  This class is that per-arrival state: amortized O(1)
ingestion, O(1) SSE of any window interval.

The backing store is a trio of preallocated NumPy arrays (values and the two
prefix arrays) written left to right; when the write head reaches the end of
the allocation the live window is shifted back to the front (the same
amortized-O(1) compaction the old list-based implementation performed, now a
single vectorized copy).  :meth:`extend` ingests a whole block with one
``cumsum`` instead of a Python-level loop.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from ..core.errors import MAX_STREAM_MAGNITUDE, require_finite

__all__ = ["PrefixStats"]


class PrefixStats:
    """Running prefix sums/squared-sums over a sliding window.

    Window *positions* are oldest-first: position 0 is the oldest retained
    value, position ``size - 1`` the newest.  (Window *indices* elsewhere in
    the library are newest-first; callers convert with
    ``pos = size - 1 - index``.)
    """

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = window_size
        # Write head walks to the end of the allocation before the window is
        # shifted back to the front: 4 window lengths of slack between
        # compactions, like the historical list-backed version.
        self._cap = 5 * window_size + 1
        self._values = np.empty(self._cap, dtype=np.float64)
        self._csum = np.zeros(self._cap + 1, dtype=np.float64)
        self._csq = np.zeros(self._cap + 1, dtype=np.float64)
        self._start = 0  # logical start of the window inside the arrays
        self._end = 0  # write head: number of filled value slots

    def update(self, value: float) -> None:
        """Ingest one arrival: O(1) amortized (occasional compaction)."""
        v = float(value)
        require_finite(v, limit=MAX_STREAM_MAGNITUDE)
        if self._end == self._cap:
            self._compact()
        e = self._end
        self._values[e] = v
        self._csum[e + 1] = self._csum[e] + v
        self._csq[e + 1] = self._csq[e] + v * v
        self._end = e + 1
        if self._end - self._start > self.window_size:
            self._start += 1

    def extend(self, values: Union[np.ndarray, Iterable[float]]) -> None:
        """Ingest a block of arrivals with one vectorized cumulative sum."""
        block = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.float64,
        ).reshape(-1)
        n = block.size
        if n == 0:
            return
        require_finite(block, limit=MAX_STREAM_MAGNITUDE)
        w = self.window_size
        if n >= w:
            # The block alone fills the window: rebuild from its tail.
            tail = block[n - w :]
            self._values[:w] = tail
            self._csum[0] = 0.0
            self._csq[0] = 0.0
            np.cumsum(tail, out=self._csum[1 : w + 1])
            np.cumsum(tail * tail, out=self._csq[1 : w + 1])
            self._start, self._end = 0, w
            return
        if self._end + n > self._cap:
            self._compact()
        e = self._end
        self._values[e : e + n] = block
        np.cumsum(block, out=self._csum[e + 1 : e + n + 1])
        self._csum[e + 1 : e + n + 1] += self._csum[e]
        np.cumsum(block * block, out=self._csq[e + 1 : e + n + 1])
        self._csq[e + 1 : e + n + 1] += self._csq[e]
        self._end = e + n
        self._start = max(self._start, self._end - w)

    def _compact(self) -> None:
        size = self._end - self._start
        self._values[:size] = self._values[self._start : self._end]
        base_sum = self._csum[self._start]
        base_sq = self._csq[self._start]
        self._csum[: size + 1] = self._csum[self._start : self._end + 1] - base_sum
        self._csq[: size + 1] = self._csq[self._start : self._end + 1] - base_sq
        self._start, self._end = 0, size

    @property
    def size(self) -> int:
        """Number of values currently in the window."""
        return self._end - self._start

    @property
    def nbytes(self) -> int:
        """Array bytes of the backing store (analytic, constant after init).

        The ring preallocates ``5W + 1`` value slots and two prefix arrays of
        one extra slot each, all float64 — the footprint is a closed form of
        ``window_size`` and never changes as values arrive.
        """
        return int(self._values.nbytes + self._csum.nbytes + self._csq.nbytes)

    def value_at(self, pos: int) -> float:
        """Window value at oldest-first position ``pos``."""
        if not 0 <= pos < self.size:
            raise IndexError(f"position {pos} out of range [0, {self.size - 1}]")
        return float(self._values[self._start + pos])

    def window(self) -> np.ndarray:
        """The window contents, oldest-first (a copy, safe to mutate)."""
        return self._values[self._start : self._end].copy()

    def interval_sum(self, i: int, j: int) -> float:
        """Sum of positions ``i..j-1`` (half-open, oldest-first)."""
        self._check(i, j)
        return float(self._csum[self._start + j] - self._csum[self._start + i])

    def interval_sq_sum(self, i: int, j: int) -> float:
        """Sum of squares over positions ``i..j-1``."""
        self._check(i, j)
        return float(self._csq[self._start + j] - self._csq[self._start + i])

    def sse(self, i: int, j: int) -> float:
        """Sum of squared errors of approximating positions ``i..j-1`` by their mean."""
        self._check(i, j)
        if j == i:
            return 0.0
        s = self.interval_sum(i, j)
        sq = self.interval_sq_sum(i, j)
        return max(0.0, sq - s * s / (j - i))

    def prefix_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(csum, csq)`` arrays of length ``size + 1`` for vectorised DP."""
        lo = self._start
        hi = lo + self.size
        csum = self._csum[lo : hi + 1]
        csq = self._csq[lo : hi + 1]
        return csum - csum[0], csq - csq[0]

    def _check(self, i: int, j: int) -> None:
        if not 0 <= i <= j <= self.size:
            raise IndexError(f"interval [{i}, {j}) out of range for size {self.size}")

    # ----------------------------------------------------------- persistence

    def to_state(self) -> dict:
        """Checkpoint the ring as a dict of raw internals.

        The prefix arrays are *not* a pure function of the window contents:
        compaction rebases them by subtracting a floating-point base, so a
        restore that recomputed ``cumsum`` from the values could differ by an
        ULP and desynchronize the timing of future compactions.  Bit-identical
        resume therefore captures the live array slices at their current
        offsets (dead slots below ``start`` are never read and are not
        stored).  Arrays come back as ``np.ndarray`` so the checkpoint layer
        can store them in binary form.
        """
        return {
            "window_size": self.window_size,
            "start": self._start,
            "end": self._end,
            "values": self._values[self._start : self._end].copy(),
            "csum": self._csum[self._start : self._end + 1].copy(),
            "csq": self._csq[self._start : self._end + 1].copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "PrefixStats":
        """Restore a ring checkpointed by :meth:`to_state` (validated).

        Raises :exc:`ValueError` when the state is structurally inconsistent
        (bounds outside the allocation, array lengths that disagree with the
        bounds, non-finite sums, window values past the live ingest limit
        :data:`~repro.core.errors.MAX_STREAM_MAGNITUDE`) — the same
        fail-on-restore contract as :meth:`repro.core.swat.Swat.from_state`.
        """
        try:
            ring = cls(int(state["window_size"]))
            start = int(state["start"])
            end = int(state["end"])
            values = np.asarray(state["values"], dtype=np.float64)
            csum = np.asarray(state["csum"], dtype=np.float64)
            csq = np.asarray(state["csq"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed PrefixStats state: {exc}") from exc
        size = end - start
        if not (0 <= start <= end <= ring._cap) or size > ring.window_size:
            raise ValueError(
                f"malformed PrefixStats state: window [{start}, {end}) invalid "
                f"for capacity {ring._cap} and window_size {ring.window_size}"
            )
        if (
            values.shape != (size,)
            or csum.shape != (size + 1,)
            or csq.shape != (size + 1,)
        ):
            raise ValueError(
                "malformed PrefixStats state: array lengths do not match the "
                "window bounds"
            )
        try:
            require_finite(values, "window values", limit=MAX_STREAM_MAGNITUDE)
        except ValueError as exc:
            raise ValueError(f"malformed PrefixStats state: {exc}") from exc
        if not bool(np.isfinite(csum).all() and np.isfinite(csq).all()):
            raise ValueError("malformed PrefixStats state: non-finite contents")
        ring._start, ring._end = start, end
        ring._values[start:end] = values
        ring._csum[start : end + 1] = csum
        ring._csq[start : end + 1] = csq
        return ring
