"""query_serving: read-heavy standalone trees, each behind its own QueryEngine.

One unit builds eight trees (six plan-eligible Haar k=4, one certified k=1
with deviation tracking, one db4 k=4), fills one window each (set-up), then
replays the schedule: per tick, one ``extend`` request per tree with a few
values, then a burst of single-query requests — standing Zipf-pool queries
and ad-hoc index sets through ``QueryEngine.answer``, and ``answer_range``
calls.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import InnerProductQuery, RangeQuery, Swat
from repro.control.governor import query_error_bound
from repro.core.engine import QueryEngine

from . import inputs as I
from .common import (
    AnswerDigest, Clock, Spans, UnitResult, call, exact_history, probe, speed_scale, timed_setup,
)

NAME = "query_serving"
FILL_CHUNK = 512
make_inputs = I.serving_inputs
# QueryEngine counters, read with getattr: a single query path may drop one.
_OUTCOMES = ("hits", "misses", "fallbacks")
_SPAN_OF = {
    "hits": "core.engine.answer.hit",
    "misses": "core.engine.answer.miss",
    "fallbacks": "core.engine.answer.fallback",
}


class Prepared:
    def __init__(self, inp: I.ServingInputs) -> None:
        n = I.SERVING_WINDOW
        self.inp = inp
        pool = [InnerProductQuery(idx, w) for idx, w in inp.pool]
        self.ticks: List[List[Tuple[int, int, object]]] = []
        for burst in inp.schedule:
            out: List[Tuple[int, int, object]] = []
            for kind, tree, payload in burst:
                if kind == I.STANDING:
                    out.append((kind, tree, pool[payload]))
                elif kind == I.ADHOC:
                    out.append((kind, tree, InnerProductQuery(*payload)))
                else:
                    out.append((kind, tree, RangeQuery(*payload)))
            self.ticks.append(out)
        # Arrival slices per tick and tree, taken before any timing starts.
        offsets = n + np.cumsum(inp.arrivals, axis=0)
        self.arrivals = [
            [inp.data[i, end - count : end] for i, (end, count) in enumerate(zip(ends, counts))]
            for ends, counts in zip(offsets, inp.arrivals)
        ]
        self.seen = offsets  # (ticks, trees): arrivals after each tick
        self.adhoc = [q for burst in self.ticks for kind, _, q in burst if kind == I.ADHOC]


def prepare(inp: I.ServingInputs) -> Prepared:
    return Prepared(inp)


def run_unit(prep: Prepared, spans: Optional[Spans], workdir: str) -> UnitResult:
    del workdir
    res = UnitResult()
    n = I.SERVING_WINDOW
    trees: List[Swat] = []
    # One step per tree and fill chunk, so the speed probe tracks the long
    # scalar db4 fill closely.
    steps = [lambda kw=kw: trees.append(Swat(n, **kw)) for _, kw in I.SERVING_TREES]
    steps += [
        lambda i=i, lo=lo: trees[i].extend(prep.inp.data[i, lo : lo + FILL_CHUNK])
        for i in range(len(I.SERVING_TREES))
        for lo in range(0, n, FILL_CHUNK)
    ]
    engines: List[QueryEngine] = []
    steps.append(lambda: engines.extend(QueryEngine(tree) for tree in trees))
    res.setup_s, res.raw_setup_s = timed_setup(*steps)

    digest = AnswerDigest()
    req = 0
    clock = Clock(res, spans)
    for tick, burst in enumerate(prep.ticks):
        for i, tree in enumerate(trees):
            values = prep.arrivals[tick][i]
            res.attempted += 1
            t = perf_counter()
            try:
                call(spans, "core.swat.extend", req, tree.extend, values)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                res.fail(f"extend tree {i} tick {tick}", exc)
            res.ingest_lat.append(perf_counter() - t)
            res.arrivals += values.size
            req += 1
        answers: List[object] = []
        for kind, i, q in burst:
            res.attempted += 1
            engine = engines[i]
            before = [getattr(engine, c, 0) for c in _OUTCOMES]
            t = perf_counter()
            try:
                if kind == I.RANGE:
                    ans = call(spans, "core.swat.answer_range", req, trees[i].answer_range, q)
                else:
                    ans = call(spans, "core.engine.answer", req, engine.answer, q)
            except Exception as exc:  # noqa: BLE001
                ans = exc
            res.query_lat.append(perf_counter() - t)
            if spans is not None and kind != I.RANGE:
                for c, b in zip(_OUTCOMES, before):
                    if getattr(engine, c, 0) != b:
                        spans.rename_last(_SPAN_OF[c])
            res.queries += 1
            req += 1
            answers.append(ans)
        clock.pause()
        for (kind, i, q), ans in zip(burst, answers):
            _check(res, digest, trees[i], prep, tick, i, kind, q, ans)
        clock.resume()
    clock.pause()
    clock.finish()
    res.digest = digest.hexdigest()
    for c in _OUTCOMES:
        res.layer[f"core.engine.{c}"] = float(sum(getattr(e, c, 0) for e in engines))
    return res


def _check(res: UnitResult, digest: AnswerDigest, tree: Swat, prep: Prepared,
           tick: int, i: int, kind: int, q: object, ans: object) -> None:
    what = f"tree {I.SERVING_TREES[i][0]} tick {tick}"
    if isinstance(ans, Exception):
        res.fail(what, ans)
        return
    seen = int(prep.seen[tick, i])
    hist = exact_history(prep.inp.data[i], seen, I.SERVING_WINDOW)
    if kind == I.RANGE:
        _check_range(res, digest, tree, hist, what, q, ans)
        return
    exact = float(np.dot(q.weights, hist[list(q.indices)]))
    res.check_bound(what, ans.value, exact, query_error_bound(tree, hist, q))
    if ans.error_bound is not None:  # the certified tree's own guarantee
        res.check_bound(what + " (certified)", ans.value, exact, ans.error_bound, count=False)
    digest.add(ans.value)


def _check_range(res: UnitResult, digest: AnswerDigest, tree: Swat, hist: np.ndarray,
                 what: str, q: RangeQuery, ans: List[Tuple[int, float]]) -> None:
    """Every returned point is in the band, none is missing, and the summed
    point errors stay within the §2.6 bound."""
    hi = min(q.t_end, tree.size - 1)
    span = list(range(q.t_start, hi + 1))
    expected = [i for i, v in zip(span, tree.estimates(span)) if q.matches(float(v))]
    if [i for i, _ in ans] != expected:
        res.fail(f"{what}: range returned {[i for i, _ in ans]}, expected {expected}")
        return
    if not ans:
        return
    for i, v in ans:
        if not q.matches(v):
            res.fail(f"{what}: range point {i}={v!r} outside [{q.low}, {q.high}]")
        digest.add(float(i), v)
    # §2.6 bounds every point's error, so it bounds their sum too.
    idx = tuple(i for i, _ in ans)
    total = sum(abs(v - hist[i]) for i, v in ans)
    bound = query_error_bound(tree, hist, InnerProductQuery(idx, (1.0,) * len(idx)))
    res.check_bound(f"{what} range points {idx}", total, 0.0, bound, count=False)


def probes(prep: Prepared, limit: int = 200) -> Dict[str, float]:
    """Plan compile against scalar ``Swat.estimates`` on the schedule's ad-hoc index sets."""
    try:
        from repro.core.plan import compile_plan
    except ImportError:
        return {}
    tree = Swat(I.SERVING_WINDOW, k=I.SERVING_TREES[0][1]["k"])
    tree.extend(prep.inp.data[0, : I.SERVING_WINDOW + 7])
    sets = [q.indices for q in prep.adhoc[:limit]]
    before = probe()
    compile_s = scalar_s = 0.0
    for idx in sets:
        t = perf_counter()
        compile_plan(tree, idx)
        compile_s += perf_counter() - t
        t = perf_counter()
        tree.estimates(idx)
        scalar_s += perf_counter() - t
    scale = speed_scale(before, probe())
    compile_us = compile_s * scale / len(sets) * 1e6
    scalar_us = scalar_s * scale / len(sets) * 1e6
    return {
        "core.plan.compile_plan.mean_us": compile_us,
        "core.swat.estimates.mean_us": scalar_us,
        "core.plan.compile_to_scalar_ratio": compile_us / scalar_us,
    }
