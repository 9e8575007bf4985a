"""Compiled query plans: the one query path of a :class:`~repro.core.swat.Swat`.

Every query — :meth:`Swat.estimates`, :meth:`Swat.answer`, range queries,
whole-window reconstruction, and the cached serving of
:class:`~repro.core.engine.QueryEngine` — is answered by compiling a
:class:`QueryPlan` for its index set and evaluating it.  Compiling is the
query handler of Figure 3(b): indices 0 and 1 come from the raw leaves
``d_0``/``d_1``; the rest go through one greedy cover scan
(:meth:`Swat.cover`), and each index is read from the first node that
covers it (reduced or settling trees clamp uncovered indices to the nearest
segment end).  Evaluating is pure gathers from per-node reconstructions,
each memoized by :attr:`~repro.core.node.SwatNode.version`.

For a *warm* tree the plan's structure is a pure function of the tree's
**phase** — the arrival clock modulo ``2^{L-1}`` (the refresh period of the
coarsest maintained level).  Level ``l``'s ``R`` node always ends at the most
recent multiple of ``2^l``, so the ``(level, role)`` pairs the greedy scan
picks for a fixed index set repeat exactly every ``2^{L-1}`` arrivals.  That
is what lets :class:`~repro.core.engine.QueryEngine` cache plans.  Two
layers of invalidation keep cached plans sound:

* **structure** — :meth:`QueryPlan.matches` re-checks, per referenced node,
  that the node is filled and sits at the window offset recorded at compile
  time.
* **contents** — the plan never caches values.  Reconstructions come from
  ``SwatNode.reconstruct()``, whose memo is keyed by the node's ``version``
  counter, so a refresh between two evaluations of the same plan is picked
  up automatically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

import numpy as np

from .node import SwatNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Swat imports plan)
    from .swat import Swat

__all__ = ["PlanStep", "QueryPlan", "compile_plan", "phase_of", "window_indices"]


def phase_of(tree: "Swat") -> int:
    """The tree's plan phase: arrivals modulo the coarsest refresh period.

    Level ``l`` refreshes every ``2^l`` arrivals, so ``now mod 2^l`` — the
    window offset of every level-``l`` node — is determined by
    ``now mod 2^{L-1}`` for all maintained levels ``l <= L-1``.
    """
    return tree.time & ((tree.window_size >> 1) - 1)


def window_indices(tree: "Swat", indices: Iterable[int]) -> np.ndarray:
    """Validate window indices into a flat ``int64`` array.

    Raises :exc:`TypeError` for a non-integer dtype (floats and bools would
    otherwise truncate to some other index) and :exc:`IndexError` for
    indices outside ``[0, tree.size)``.  Empty input, Python ints and NumPy
    integers pass.
    """
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
    if idx.dtype.kind not in "iu" and idx.size:
        raise TypeError(f"window indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False).reshape(-1)
    bad_mask = (idx < 0) | (idx >= tree.size)
    if bool(bad_mask.any()):
        raise IndexError(
            f"window indices {idx[bad_mask].tolist()} out of range "
            f"[0, {tree.size - 1}] (stream has seen {tree.time} values)"
        )
    return idx


class PlanStep:
    """One cover node's share of a compiled plan.

    ``(level, role)`` identify the node (roles shift but the *slot* a phase
    picks is stable); ``offset`` is the window index of the node's newest
    value at compile time (``now - end_time``), re-checked on reuse;
    ``positions`` index the node's oldest-first reconstruction; ``out``
    are the query-output slots those gathered values land in.
    """

    __slots__ = ("level", "role", "offset", "positions", "out")

    def __init__(
        self,
        level: int,
        role: str,
        offset: int,
        positions: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.level = level
        self.role = role
        self.offset = offset
        self.positions = positions
        self.out = out

    def __repr__(self) -> str:
        return (
            f"PlanStep({self.role}{self.level}, offset={self.offset}, "
            f"n={self.positions.size})"
        )


class QueryPlan:
    """A compiled cover for one index set at one tree phase.

    Attributes
    ----------
    indices:
        The window indices the plan answers (``int64`` array), in query
        order (duplicates allowed — each occurrence has its own output slot).
    phase:
        The tree phase (``time mod 2^{L-1}``) the structure was compiled at.
    steps:
        Per-node gather/scatter instructions, in cover scan order.
    raw_out / raw_which:
        Output slots served exactly from the raw leaves, and which leaf
        (0 = ``d_0`` = newest, 1 = ``d_1``) serves each.
    n_extrapolated:
        How many distinct indices a reduced-level tree answers by clamping
        (mirrors :attr:`~repro.core.coverage.Cover.extrapolated`).
    """

    __slots__ = ("indices", "phase", "steps", "raw_out", "raw_which", "n_extrapolated")

    def __init__(
        self,
        indices: np.ndarray,
        phase: int,
        steps: Tuple[PlanStep, ...],
        raw_out: np.ndarray,
        raw_which: np.ndarray,
        n_extrapolated: int,
    ) -> None:
        self.indices = indices
        self.phase = phase
        self.steps = steps
        self.raw_out = raw_out
        self.raw_which = raw_which
        self.n_extrapolated = n_extrapolated

    def matches(self, tree: "Swat") -> bool:
        """Structure check: every referenced node is filled at the compiled
        window offset.  Content freshness is *not* checked here — that is
        the reconstruction memo's job (keyed by ``SwatNode.version``)."""
        now = tree.time
        for step in self.steps:
            node = tree.node(step.level, step.role)
            if node.coeffs is None or now - node.end_time != step.offset:
                return False
        return True

    def nodes_used(self, tree: "Swat") -> List[SwatNode]:
        """The live cover nodes, in scan order (for ``QueryAnswer`` diagnostics)."""
        return [tree.node(step.level, step.role) for step in self.steps]

    def evaluate(self, tree: "Swat") -> np.ndarray:
        """Estimates for the plan's indices — pure gathers, no cover work."""
        out = np.empty(len(self.indices), dtype=np.float64)
        if self.raw_out.size:
            d0 = tree.raw_leaf(0)
            d1 = tree.raw_leaf(1) if tree.raw_leaf_count() > 1 else 0.0
            out[self.raw_out] = np.where(self.raw_which == 0, d0, d1)
        wavelet = tree.wavelet
        for step in self.steps:
            signal = tree.node(step.level, step.role).reconstruct(wavelet)
            out[step.out] = signal[step.positions]
        return out

    def certified_bound(self, tree: "Swat", weights: Sequence[float]) -> float:
        """Certified bound on ``|true - sum(w * estimates)|``.

        Each cover node's ``deviation`` bounds every per-index error it
        serves, so the bound is ``sum_steps deviation * sum |w[step.out]|``
        (raw-leaf slots are exact).  Absolute weights keep mixed-sign
        queries from cancelling.  Infinite when any index was extrapolated
        or a cover node carries no deviation.
        """
        if self.n_extrapolated:
            return float("inf")
        abs_w = np.abs(np.asarray(weights, dtype=np.float64))
        bound = 0.0
        for step in self.steps:
            deviation = tree.node(step.level, step.role).deviation
            if deviation is None:
                return float("inf")
            bound += deviation * float(abs_w[step.out].sum())
        return bound

    def __repr__(self) -> str:
        return (
            f"QueryPlan(n_indices={len(self.indices)}, phase={self.phase}, "
            f"steps={len(self.steps)})"
        )


def compile_plan(tree: "Swat", indices: Iterable[int]) -> QueryPlan:
    """Compile the query handler of Figure 3(b) for ``indices`` at the tree's
    current structure, in one vectorized pass.

    The cover runs once over the distinct non-raw indices; each distinct
    index gets its (step, position), and every occurrence in the query —
    duplicates included — fans out from there with one stable argsort.
    """
    idx = window_indices(tree, indices)
    now = tree.time
    raw_mask = idx < tree.raw_leaf_count()
    raw_out = np.flatnonzero(raw_mask)
    rest = np.flatnonzero(~raw_mask)
    steps: List[PlanStep] = []
    n_extrapolated = 0
    if rest.size:
        uniq, inv = np.unique(idx[rest], return_inverse=True)
        cover = tree.cover(uniq)
        step_of = np.empty(uniq.size, dtype=np.int64)
        pos_of = np.empty(uniq.size, dtype=np.int64)
        nodes = cover.nodes
        for s, node in enumerate(nodes):
            assigned = np.asarray(cover.assignments[node], dtype=np.int64)
            loc = np.searchsorted(uniq, assigned)
            length = node.segment_length
            # Oldest-first segment: window index i sits at length-1-(i-lo);
            # extrapolated indices clamp to the nearest segment end.
            pos = length - 1 - (assigned - (now - node.end_time))
            step_of[loc] = s
            pos_of[loc] = np.minimum(np.maximum(pos, 0), length - 1)
        occ_step = step_of[inv]
        order = np.argsort(occ_step, kind="stable")
        bounds = np.cumsum(np.bincount(occ_step, minlength=len(nodes)))
        occ_pos = pos_of[inv][order]
        occ_out = rest[order]
        start = 0
        for node, end in zip(nodes, bounds.tolist()):
            steps.append(
                PlanStep(
                    node.level,
                    node.role,
                    now - node.end_time,
                    occ_pos[start:end],
                    occ_out[start:end],
                )
            )
            start = end
        n_extrapolated = len(cover.extrapolated)
    return QueryPlan(
        idx,
        phase_of(tree),
        tuple(steps),
        raw_out,
        idx[raw_mask],
        n_extrapolated,
    )
