"""SWAT tree nodes (the Left / Shift / Right triples of Figure 1(b))."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..wavelets.haar import haar_average, haar_reconstruct
from ..wavelets.transform import reconstruct as _generic_reconstruct

__all__ = ["Role", "SwatNode"]


class Role:
    """Node roles at a level, in the paper's query-scan order R -> S -> L."""

    RIGHT = "R"
    SHIFT = "S"
    LEFT = "L"
    SCAN_ORDER = (RIGHT, SHIFT, LEFT)


class SwatNode:
    """One node of the approximation tree.

    A level-``l`` node summarizes a segment of ``2^{l+1}`` consecutive stream
    values with ``k`` wavelet coefficients (coarse-to-fine order; see
    :mod:`repro.wavelets.transform`).  ``end_time`` is the absolute arrival
    index (1-based) of the *newest* value in the segment; because level-``l``
    nodes refresh only every ``2^l`` arrivals, the segment drifts into the
    past between refreshes — exactly the behaviour of Figure 2.

    Queries reconstruct a node's segment far more often than its contents
    change (the shift pipeline refreshes level ``l`` once per ``2^l``
    arrivals while every cover touching the node re-runs the inverse
    transform), so :meth:`reconstruct` memoizes its result.  The cache is
    keyed by :attr:`version`, a counter bumped on every content change
    (:meth:`set_contents` and :meth:`copy_from`): a stale cache can never be
    served after a shift, even though shifted nodes share coefficient arrays
    by reference.  Cached reconstructions are marked read-only so accidental
    mutation of a shared array fails loudly instead of corrupting answers.
    """

    __slots__ = (
        "level",
        "role",
        "coeffs",
        "end_time",
        "deviation",
        "version",
        "_recon",
        "_recon_wavelet",
    )

    def __init__(self, level: int, role: str) -> None:
        self.level = level
        self.role = role
        self.coeffs: Optional[np.ndarray] = None
        self.end_time: int = -1
        # Optional certified bound on max |true value - reconstruction| over
        # the segment (Section 3's "range denoting the maximum deviation").
        self.deviation: Optional[float] = None
        # Content-change counter; every set_contents/copy_from bumps it so
        # caches keyed on (node, version) can never alias stale contents.
        self.version: int = 0
        self._recon: Optional[np.ndarray] = None
        self._recon_wavelet: Optional[str] = None

    @property
    def segment_length(self) -> int:
        """Number of stream values the node summarizes: ``2^{level+1}``."""
        return 1 << (self.level + 1)

    @property
    def nbytes(self) -> int:
        """Array bytes held by the node's contents (analytic, exact).

        Counts the coefficient vector — the state that actually scales with
        ``k``.  The memoized reconstruction is a derived cache, not summary
        state, and is excluded (it is dropped on every refresh anyway).
        """
        return 0 if self.coeffs is None else int(self.coeffs.nbytes)

    @property
    def is_filled(self) -> bool:
        return self.coeffs is not None

    def absolute_segment(self) -> Tuple[int, int]:
        """Absolute arrival-time range ``(first, last)`` the node covers."""
        if not self.is_filled:
            raise ValueError(f"node {self!r} holds no approximation yet")
        return (self.end_time - self.segment_length + 1, self.end_time)

    def relative_segment(self, now: int) -> Tuple[int, int]:
        """Window-index range ``(newest_idx, oldest_idx)`` at current time ``now``.

        Window index 0 is the most recent stream value; the node covers
        indices ``now - end_time`` through ``now - end_time + 2^{l+1} - 1``.
        """
        lo = now - self.end_time
        return (lo, lo + self.segment_length - 1)

    def covers(self, index: int, now: int) -> bool:
        """True if window index ``index`` falls inside the node's segment."""
        if not self.is_filled:
            return False
        lo, hi = self.relative_segment(now)
        return lo <= index <= hi

    def position_of(self, index: int, now: int) -> int:
        """Position of window index ``index`` inside the node's time-ordered segment.

        The reconstructed segment is oldest-first; window index ``r`` maps to
        ``segment_length - 1 - (r - newest_idx)``.
        """
        lo, hi = self.relative_segment(now)
        if not lo <= index <= hi:
            raise IndexError(f"index {index} outside node segment [{lo}, {hi}]")
        return self.segment_length - 1 - (index - lo)

    def set_contents(
        self,
        coeffs: np.ndarray,
        end_time: int,
        deviation: Optional[float] = None,
    ) -> None:
        self.coeffs = coeffs
        self.end_time = end_time
        self.deviation = deviation
        self.version += 1
        self._recon = None
        self._recon_wavelet = None

    def copy_from(self, other: "SwatNode") -> None:
        """The shift assignment ``contents(self) := contents(other)``."""
        self.coeffs = other.coeffs
        self.end_time = other.end_time
        self.deviation = other.deviation
        self.version += 1
        # Identical contents reconstruct identically, so the shift can adopt
        # the donor's cached reconstruction instead of invalidating; the
        # version bump still severs any external (node, version) cache keys.
        self._recon = other._recon
        self._recon_wavelet = other._recon_wavelet

    def reconstruct(self, wavelet: str = "haar") -> np.ndarray:
        """Approximate segment values (oldest-first) via ``level+1`` inverse transforms.

        Missing detail coefficients are zero, per the query handler of
        Figure 3(b).  The result is cached until the node's contents change
        and returned as a read-only array — copy before mutating.
        """
        cached = self._recon
        if cached is not None and self._recon_wavelet == wavelet:
            return cached
        coeffs = self.coeffs
        if coeffs is None:
            raise ValueError(f"node {self!r} holds no approximation yet")
        if wavelet in ("haar", "db1"):
            out = haar_reconstruct(coeffs, self.segment_length)
        else:
            out = _generic_reconstruct(coeffs, self.segment_length, wavelet)
        out.flags.writeable = False
        self._recon = out
        self._recon_wavelet = wavelet
        return out

    def average(self) -> float:
        """Segment mean (meaningful for Haar; it is the k=1 summary of §2.2)."""
        coeffs = self.coeffs
        if coeffs is None:
            raise ValueError(f"node {self!r} holds no approximation yet")
        return haar_average(coeffs, self.segment_length)

    def __repr__(self) -> str:
        seg = f", end_time={self.end_time}" if self.is_filled else ", empty"
        return f"SwatNode({self.role}{self.level}{seg})"
