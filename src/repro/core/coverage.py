"""Greedy node-cover construction for SWAT queries (Figure 3(b)).

The query handler scans tree nodes from the lowest level upward — and within
a level in the order ``R -> S -> L`` — adding a node to the cover set ``V``
whenever it covers a query index not yet covered.  Each index is then
answered from the *first* (finest) node that covered it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .node import SwatNode

__all__ = ["CoverageError", "Cover", "build_cover"]


class CoverageError(LookupError):
    """Raised when a query index cannot be covered by any tree node."""


class Cover:
    """Result of the cover construction.

    Attributes
    ----------
    assignments:
        Maps each selected node to the list of query indices it answers.
    extrapolated:
        Indices that no node's segment contained and that were clamped to the
        nearest segment boundary of a reduced-level tree (see
        :meth:`repro.core.swat.Swat.cover`); empty for a full tree.
    """

    def __init__(self) -> None:
        self.assignments: Dict[SwatNode, List[int]] = {}
        self.extrapolated: List[int] = []

    @property
    def nodes(self) -> List[SwatNode]:
        return list(self.assignments)

    def add(self, node: SwatNode, index: int) -> None:
        self.assignments.setdefault(node, []).append(index)


def build_cover(
    nodes: Sequence[SwatNode],
    indices: Iterable[int],
    now: int,
    allow_extrapolation: bool = False,
) -> Cover:
    """Build the cover set ``V`` for ``indices`` over ``nodes``.

    Parameters
    ----------
    nodes:
        Tree nodes already in scan order (level ascending, ``R, S, L`` within
        a level).
    indices:
        Window indices the query addresses.
    now:
        Current absolute arrival count (defines the index <-> time mapping).
    allow_extrapolation:
        If True, indices not inside any node segment are assigned to the node
        whose segment boundary is nearest (finest level wins ties) and
        recorded in :attr:`Cover.extrapolated`.  This is how a reduced-level
        tree (Section 2.5) answers queries about values more recent than its
        coarsest maintained resolution.

    Raises
    ------
    CoverageError
        If some index is uncovered and extrapolation is disabled.
    """
    wanted = np.unique(
        np.asarray(
            indices if isinstance(indices, np.ndarray) else list(indices),
            dtype=np.int64,
        ).reshape(-1)
    )
    cover = Cover()
    filled = [n for n in nodes if n.coeffs is not None]
    # A node's segment is a contiguous index range [lo, lo + length), so
    # against the sorted index array each node's share is one slice: a
    # single vectorized binary search over every segment end, then a mask
    # slice per scan step instead of a per-index Python set walk.
    ends = np.array(
        [(now - n.end_time, n.segment_length) for n in filled], dtype=np.int64
    ).reshape(-1, 2)
    ends[:, 1] += ends[:, 0]
    open_mask = np.ones(wanted.size, dtype=bool)
    n_open = int(wanted.size)
    for node, (a, b) in zip(filled, wanted.searchsorted(ends).tolist()):
        if not n_open:
            break
        if a >= b:
            continue
        hit_mask = open_mask[a:b]
        if not hit_mask.any():
            continue
        hit = wanted[a:b][hit_mask]
        cover.assignments.setdefault(node, []).extend(hit.tolist())
        open_mask[a:b] = False
        n_open -= int(hit.size)
    if n_open:
        uncovered = [int(i) for i in wanted[open_mask]]
        if not allow_extrapolation:
            raise CoverageError(
                f"window indices {uncovered} not covered by any filled node"
            )
        if not filled:
            raise CoverageError("tree holds no approximations yet")
        for i in uncovered:
            node = min(filled, key=lambda n: _segment_distance(n, i, now))
            cover.add(node, i)
            cover.extrapolated.append(i)
    return cover


def _segment_distance(node: SwatNode, index: int, now: int) -> Tuple[int, int]:
    """Distance from ``index`` to the node's segment; ties favour finer levels."""
    lo, hi = node.relative_segment(now)
    if lo <= index <= hi:
        return (0, node.level)
    return (min(abs(index - lo), abs(index - hi)), node.level)
