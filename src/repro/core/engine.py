"""Query engine: a plan cache in front of one SWAT.

Every :class:`~repro.core.swat.Swat` query is answered by compiling a
:class:`~repro.core.plan.QueryPlan` and evaluating it.  :class:`QueryEngine`
only adds a cache: for a warm tree the cover structure of a fixed index set
repeats every ``2^{L-1}`` arrivals, so plans are kept in an LRU keyed by
``(index set, phase)`` and revalidated with a handful of integer
comparisons.  A cache hit turns a query into pure NumPy gathers from
per-node reconstructions memoized by ``SwatNode.version``.

:meth:`QueryEngine.answer_batch` groups queries by index set, evaluates each
group's plan once, and reduces every query's inner product against that
shared vector with the same ``np.dot(weights, est)`` as :meth:`Swat.answer`,
so batch answers are **bit-identical** to sequential scalar answers —
enforced by ``tests/test_query_engine.py`` and against an independent
Figure 3(b) oracle in ``tests/test_query_oracle.py``.

A cold or settling tree has no stable phase structure: the engine then
compiles and evaluates without storing the plan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import causal as causal_mod
from ..obs import metrics as obs
from ..obs.causal import TraceContext
from .plan import QueryPlan, compile_plan
from .queries import InnerProductQuery
from .swat import QueryAnswer, Swat

__all__ = ["QueryEngine"]

#: Default plan-cache capacity.  One plan for 512 indices is ~10 KB of
#: int64 arrays; 512 plans bound the cache at a few MB even under hostile
#: query diversity.
DEFAULT_MAX_PLANS = 512


class QueryEngine:
    """Plan-cached query evaluation over one :class:`~repro.core.swat.Swat`.

    Parameters
    ----------
    tree:
        The summary to serve from.  The engine holds a reference, not a
        copy: interleaving ``tree.extend`` with engine queries is the
        intended usage, and plan/reconstruction invalidation keeps answers
        bit-identical to :meth:`Swat.answer` throughout.
    max_plans:
        Plan-cache capacity; least-recently-used plans are evicted beyond
        it.

    Attributes
    ----------
    hits / misses:
        Plan-cache counters (mirrored into ``query.plan_cache.{hit,miss}``
        when :mod:`repro.obs` is enabled).  Every compiled plan is a miss,
        including the uncached ones of a cold tree.
    """

    def __init__(self, tree: Swat, max_plans: int = DEFAULT_MAX_PLANS) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.tree = tree
        self.max_plans = int(max_plans)
        self._plans: "OrderedDict[Tuple[Hashable, int], QueryPlan]" = OrderedDict()
        # Warmth is monotonic (nodes never unfill and settling never restarts
        # without a reconfigure, which bumps the epoch), so one successful
        # check amortizes to an attribute read.
        self._warm = False
        # Identity + epoch of the tree the caches were built against; a
        # restore or reconfigure (epoch bump) or a tree swap restarts node
        # version counters, so every plan and the warmth gate must be
        # dropped (see _sync_tree).
        self._seen_tree: Swat = tree
        self._seen_epoch: int = tree.epoch
        self.hits = 0
        self.misses = 0
        self.causal = causal_mod.current_causal()

    # ------------------------------------------------------------- plan cache

    @property
    def plan_cache_size(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        """Plan-cache hit fraction over the engine's lifetime (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every compiled plan (they recompile on demand)."""
        self._plans.clear()

    def _sync_tree(self) -> None:
        """Invalidate everything if the tree was restored or swapped.

        ``Swat.restore_state`` and ``Swat.reconfigure`` bump
        :attr:`Swat.epoch` in place; assigning a new tree to :attr:`tree`
        changes identity.  Either way plans compiled before (and the
        monotonic warmth gate — the new tree may be cold or settling) would
        serve stale structure if kept.
        """
        tree = self.tree
        if tree is not self._seen_tree or tree.epoch != self._seen_epoch:
            self._seen_tree = tree
            self._seen_epoch = tree.epoch
            self._plans.clear()
            self._warm = False

    def _plan_for(
        self,
        shape_key: Hashable,
        indices: Sequence[int],
        parent: Optional[TraceContext] = None,
    ) -> QueryPlan:
        """Cached-or-compiled plan for ``indices``.

        ``shape_key`` is any hashable that uniquely identifies the index
        sequence — the tuple itself for queries, ``(dtype, bytes)`` for
        arrays.
        """
        self._sync_tree()
        tree = self.tree
        if not self._warm and not tree.settling and tree.is_warm:
            self._warm = True
        key = (shape_key, tree.phase)
        if self._warm:
            plan = self._plans.get(key)
            if plan is not None and plan.matches(tree):
                self._plans.move_to_end(key)
                self.hits += 1
                if obs.ENABLED:
                    obs.counter("query.plan_cache.hit").inc()
                return plan
        _t0 = causal_mod.block_start(self.causal)
        plan = compile_plan(tree, indices)
        if self._warm:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        self.misses += 1
        if _t0 is not None:
            if obs.ENABLED:
                obs.counter("query.plan_cache.miss").inc()
            causal_mod.block_finish(
                _t0, "query.plan_compile.latency", self.causal, "engine.plan_compile",
                site="engine", parent=parent, indices=len(plan.indices), phase=plan.phase,
            )
        return plan

    # -------------------------------------------------------------- evaluation

    def estimates(self, indices: Sequence[int]) -> np.ndarray:
        """Approximate values for window indices (plan-cached twin of
        :meth:`Swat.estimates`; duplicates fan out the same way)."""
        # Key on (dtype, bytes): tupling 512 numpy ints per call would
        # dominate a cache hit, and a float or bool array never aliases an
        # integer one, so compile_plan still rejects it.
        idx = indices if isinstance(indices, np.ndarray) else np.asarray(list(indices))
        return self._plan_for((idx.dtype.str, idx.tobytes()), idx).evaluate(self.tree)

    def answer(self, query: InnerProductQuery) -> QueryAnswer:
        """Plan-cached twin of :meth:`Swat.answer` — bit-identical answers."""
        answer = self.tree.answer_plan(self._plan_for(query.indices, query.indices), query)
        if obs.ENABLED:
            obs.counter("swat.queries").inc()
        return answer

    def answer_batch(
        self, queries: Iterable[InnerProductQuery]
    ) -> List[QueryAnswer]:
        """Answer many queries, amortizing plans and reconstructions.

        Queries are grouped by index set; each group's estimate vector is
        materialized once and every member reduces its inner product against
        it with :meth:`Swat.answer`'s own ``np.dot`` — answers are
        bit-identical to calling :meth:`answer` (and :meth:`Swat.answer`)
        sequentially.  ``QueryAnswer.estimates`` arrays are shared within a
        group; copy before mutating.
        """
        batch = list(queries)
        _t0 = causal_mod.block_start(self.causal)
        root, ctx = causal_mod.open_span(
            self.causal, "engine.answer_batch", at=_t0, site="engine", queries=len(batch)
        )
        # Group by index set, preserving first-seen order; one plan + one
        # estimate vector per group no matter how many weightings ride on it.
        groups: "OrderedDict[Tuple[int, ...], List[int]]" = OrderedDict()
        for qi, query in enumerate(batch):
            groups.setdefault(query.indices, []).append(qi)
        answers: List[Optional[QueryAnswer]] = [None] * len(batch)
        tree = self.tree
        for indices, members in groups.items():
            plan = self._plan_for(indices, indices, parent=ctx)
            est = plan.evaluate(tree)
            for qi in members:
                answers[qi] = tree.answer_plan(plan, batch[qi], est)
        if _t0 is not None:
            if obs.ENABLED:
                obs.counter("swat.queries").inc(len(batch))
                obs.histogram("query.batch_size", buckets=obs.BATCH_BUCKETS).observe(
                    len(batch)
                )
            causal_mod.block_finish(
                _t0, "query.batch.latency", self.causal, root, groups=len(groups)
            )
        # Every slot is filled: each query index lands in exactly one group.
        return [a for a in answers if a is not None]

    def __repr__(self) -> str:
        return (
            f"QueryEngine(tree={self.tree!r}, plans={len(self._plans)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
