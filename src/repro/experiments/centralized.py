"""Drivers for the centralized (single-site) experiments: Figures 4-6.

Each function returns plain dict rows so tests, benchmarks, and examples can
share them; :func:`format_table` renders the rows the way the paper's figures
report them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, SupportsFloat

import numpy as np

from ..core.queries import InnerProductQuery
from ..core.swat import Swat
from ..data.synthetic import uniform_stream
from ..data.weather import santa_barbara_temps
from ..data.workload import FixedWorkload, RandomWorkload, make_query
from ..histogram.summarizer import HistogramSummary
from ..metrics.error import ErrorSeries, GroundTruthWindow, relative_error
from ..metrics.timing import Stopwatch

__all__ = [
    "run_error_experiment",
    "fig4a_relative_error",
    "fig4c_levels_sweep",
    "fig5_error_comparison",
    "fig6a_maintenance_time",
    "fig6b_response_time",
    "format_table",
    "dataset",
]


def dataset(name: str, n: Optional[int] = None, seed: int = 0) -> np.ndarray:
    """The paper's two datasets by name: ``"real"`` (weather) or ``"synthetic"``."""
    if name == "real":
        data = santa_barbara_temps()
        return data if n is None else np.resize(data, n)
    if name == "synthetic":
        return uniform_stream(3000 if n is None else n, seed=seed)
    raise ValueError(f"unknown dataset {name!r}")


class Summarizer(Protocol):
    """Anything that can ingest a stream and answer inner-product queries."""

    def update(self, value: float) -> None: ...

    def answer(self, query: InnerProductQuery) -> SupportsFloat: ...


class Workload(Protocol):
    """A query generator (fixed or random)."""

    def next(self) -> InnerProductQuery: ...


def run_error_experiment(
    stream: Sequence[float],
    window_size: int,
    summarizer: Summarizer,
    workload: Workload,
    warmup: int = 0,
    query_every: int = 1,
    error_kind: str = "relative",
) -> ErrorSeries:
    """Feed ``stream``; after ``warmup`` arrivals, query every ``query_every``-th arrival.

    ``summarizer`` needs ``update(v)`` and ``answer(query)``;  ``workload``
    needs ``next()``.  Returns the per-query error series.
    """
    if error_kind not in ("relative", "absolute"):
        raise ValueError(f"unknown error_kind {error_kind!r}")
    truth = GroundTruthWindow(window_size)
    series = ErrorSeries()
    for t, value in enumerate(stream):
        summarizer.update(value)
        truth.update(value)
        if t + 1 <= max(warmup, window_size):
            continue
        if (t + 1 - warmup) % query_every != 0:
            continue
        query = workload.next()
        answered = summarizer.answer(query)
        approx = float(answered)
        exact = query.evaluate(truth.values_newest_first())
        if error_kind == "relative":
            series.record(relative_error(exact, approx))
        else:
            series.record(abs(exact - approx))
    return series


# --------------------------------------------------------------------- Fig 4


def fig4a_relative_error(
    n_points: int = 10_000,
    window_size: int = 256,
    query_length: int = 64,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Figure 4(a)/(b): fixed exponential query at every arrival, N = 256.

    Returns the raw relative-error series (4a) and its cumulative averaging
    (4b).
    """
    stream = uniform_stream(n_points, seed=seed)
    tree = Swat(window_size)
    workload = FixedWorkload(make_query("exponential", query_length))
    series = run_error_experiment(stream, window_size, tree, workload, warmup=window_size)
    return {
        "relative": series.values,
        "cumulative": series.cumulative(),
        "mean": np.float64(series.mean),
    }


def fig4c_levels_sweep(
    n_points: int = 4_000,
    window_size: int = 512,
    query_length: int = 32,
    seed: int = 0,
) -> List[dict]:
    """Figure 4(c): average absolute error vs number of maintained levels.

    The x-axis is the *degree of approximation*: ``min_level`` levels dropped
    from the bottom of the tree (0 = full tree).  Expect roughly linear error
    growth for exponential queries and exponential growth for linear ones.
    Raw leaves are disabled so every point answers purely from tree nodes
    (the sweep is about tree resolution).
    """
    stream = uniform_stream(n_points, seed=seed)
    n_levels = int(math.log2(window_size))
    rows = []
    for min_level in range(n_levels - 1):
        row = {"min_level": min_level, "levels_kept": n_levels - min_level}
        for kind in ("exponential", "linear"):
            tree = Swat(window_size, min_level=min_level, use_raw_leaves=False)
            workload = FixedWorkload(make_query(kind, query_length))
            series = run_error_experiment(
                stream, window_size, tree, workload, warmup=window_size,
                error_kind="absolute",
            )
            row[kind] = series.mean
        rows.append(row)
    return rows


# --------------------------------------------------------------------- Fig 5


def fig5_error_comparison(
    data: str = "real",
    mode: str = "fixed",
    eps_values: Sequence[float] = (0.1,),
    window_size: int = 1024,
    n_buckets: int = 30,
    query_length: int = 16,
    n_points: Optional[int] = None,
    query_every: int = 16,
    seed: int = 0,
) -> List[dict]:
    """Figures 5(a)-(f): SWAT vs Histogram average relative error.

    Parameters mirror the paper: ``N = 1024``, ``B = 30`` (about SWAT's
    ``3 log N`` approximations), 1K warm-up, fixed or random query mode, both
    query kinds, ``eps`` sweep for the histogram.  The paper leaves the
    fixed query length unstated; 16 is used (at 64 Figure 5(a)'s linear
    comparison flips), and random mode ignores it.  ``query_every`` subsamples
    the measurement points (the histogram rebuild at every query is costly;
    error averages converge long before every arrival is measured).
    """
    stream = dataset(data, n=n_points, seed=seed)
    warmup = max(1000, window_size)
    rows = []
    for kind in ("exponential", "linear"):
        def workload_factory() -> Workload:
            if mode == "fixed":
                return FixedWorkload(make_query(kind, query_length))
            if mode == "random":
                return RandomWorkload(window_size, kind=kind, seed=seed + 1)
            raise ValueError(f"unknown mode {mode!r}")

        tree = Swat(window_size)
        swat_series = run_error_experiment(
            stream, window_size, tree, workload_factory(),
            warmup=warmup, query_every=query_every,
        )
        row = {"kind": kind, "mode": mode, "data": data, "swat": swat_series.mean}
        for eps in eps_values:
            hist = HistogramSummary(window_size, n_buckets=n_buckets, eps=eps)
            hist_series = run_error_experiment(
                stream, window_size, hist, workload_factory(),
                warmup=warmup, query_every=query_every,
            )
            row[f"hist_eps_{eps}"] = hist_series.mean
        rows.append(row)
    return rows


# --------------------------------------------------------------------- Fig 6


def fig6a_maintenance_time(
    sizes: Sequence[int] = (100_000, 1_000_000, 4_000_000),
    window_size: int = 1024,
    seed: int = 0,
) -> List[dict]:
    """Figure 6(a): summary maintenance time over whole datasets, no queries.

    SWAT updates its tree at every arrival; Histogram maintains only running
    sums.  The paper used 100K/1M/10M synthetic points; the default largest
    size is scaled to 4M to fit a CI budget (pass ``sizes`` to override).
    """
    rows = []
    for size in sizes:
        stream = uniform_stream(size, seed=seed)
        tree = Swat(window_size)
        with Stopwatch() as sw_swat:
            for v in stream:
                tree.update(v)
        from ..histogram.prefix import PrefixStats

        stats = PrefixStats(window_size)
        with Stopwatch() as sw_hist:
            for v in stream:
                stats.update(v)
        rows.append(
            {"size": size, "swat_seconds": sw_swat.elapsed, "hist_seconds": sw_hist.elapsed}
        )
    return rows


def fig6b_response_time(
    n_queries: int = 100,
    n_hist_queries: int = 5,
    window_size: int = 1024,
    n_buckets: int = 30,
    eps: float = 0.1,
    hist_method: str = "search",
    seed: int = 0,
) -> dict:
    """Figure 6(b): average query response time, SWAT vs Histogram.

    100 uniformly generated exponential inner-product queries for SWAT; the
    histogram (which rebuilds per query, here with the faithful pure-Python
    ``"search"`` evaluation) is sampled with ``n_hist_queries`` repetitions —
    its per-query cost is large and stable.
    """
    stream = uniform_stream(window_size + 1000, seed=seed)
    workload = RandomWorkload(window_size, kind="exponential", seed=seed + 1)
    tree = Swat(window_size)
    tree.extend(stream)
    queries = [workload.next() for __ in range(n_queries)]
    sw_swat = Stopwatch()
    for q in queries:
        with sw_swat:
            tree.answer(q)
    hist = HistogramSummary(window_size, n_buckets=n_buckets, eps=eps, method=hist_method)
    hist.extend(stream)
    sw_hist = Stopwatch()
    for q in queries[: max(1, n_hist_queries)]:
        with sw_hist:
            hist.answer(q)
    return {
        "swat_seconds": sw_swat.mean,
        "hist_seconds": sw_hist.mean,
        "speedup": sw_hist.mean / sw_swat.mean,
    }


# ------------------------------------------------------------------- helpers


def format_table(rows: List[dict], title: str = "") -> str:
    """Render dict rows as an aligned text table (benchmark output)."""
    if not rows:
        return f"{title}\n(empty)"
    cols = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{v:.6g}"
    return str(v)
