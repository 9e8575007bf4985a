"""The experiment registry: every paper figure and scenario, declared once.

Each :class:`Experiment` names its id, the title of every table it prints,
the parameters of its ``--quick`` and full runs, and the function call that
turns those parameters into rows.  ``repro <id>``, ``all``, ``list``,
``stats``, ``trace`` and ``report`` all iterate :data:`EXPERIMENTS`, so the
markdown report runs exactly the configurations the CLI prints, and this
module is the list of end-to-end scenarios a run can time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.causal import current_causal
from .centralized import (
    fig4a_relative_error,
    fig4c_levels_sweep,
    fig5_error_comparison,
    fig6a_maintenance_time,
    fig6b_response_time,
    format_table,
)
from .distributed import (
    fault_tolerance_demo,
    fig9a_rate_sweep,
    fig9c_precision_sweep,
    fig10a_client_sweep,
    fig10b_precision_sweep_multi,
    space_complexity,
    trace_chaos_demo,
    warm_recovery_demo,
)
from .governed import govern_frontier

__all__ = ["Table", "Outcome", "Experiment", "EXPERIMENTS"]

Rows = List[Dict[str, Any]]


@dataclass(frozen=True)
class Table:
    """One result table: the title it prints under and its rows."""

    title: str
    rows: Rows


@dataclass(frozen=True)
class Outcome:
    """What one experiment run produced.

    ``footer`` prints under the last table; ``report`` is the JSON document
    ``--report-out`` writes (None when the experiment has none); ``ok``
    False makes ``repro <id>`` exit 1.
    """

    tables: List[Table]
    footer: str = ""
    report: Optional[Dict[str, Any]] = None
    ok: bool = True

    def render(self) -> str:
        """The CLI's text: every table, then the footer."""
        text = "\n\n".join(format_table(t.rows, t.title) for t in self.tables)
        return f"{text}\n{self.footer}" if self.footer else text


@dataclass(frozen=True)
class Experiment:
    """One registry entry.

    ``titles`` has one entry per table the run prints; a printed title
    starts with its declared one (``govern`` appends the run's totals).
    ``run`` takes the ``quick`` or ``full`` parameters as keywords.
    """

    id: str
    titles: Tuple[str, ...]
    quick: Mapping[str, Any]
    full: Mapping[str, Any]
    run: Callable[..., Outcome]

    def execute(self, quick: bool) -> Outcome:
        return self.run(**(self.quick if quick else self.full))


def _table(
    id: str,
    title: str,
    fn: Callable[..., Any],
    quick: Mapping[str, Any],
    full: Mapping[str, Any],
    rows: Callable[[Any], Rows] = lambda out: out,
) -> Experiment:
    """A one-table experiment: ``rows(fn(**params))`` under ``title``."""
    return Experiment(
        id, (title,), quick, full,
        lambda **params: Outcome([Table(title, rows(fn(**params)))]),
    )


def _fig4a_rows(out: Dict[str, Any]) -> Rows:
    rel = out["relative"]
    return [
        {"metric": "queries", "value": rel.size},
        {"metric": "mean relative error", "value": float(out["mean"])},
        {"metric": "final cumulative error", "value": float(out["cumulative"][-1])},
        {"metric": "p95 relative error", "value": float(np.percentile(rel, 95))},
    ]


def _fig6b_rows(out: Dict[str, float]) -> Rows:
    return [
        {"technique": "SWAT", "seconds_per_query": out["swat_seconds"]},
        {"technique": "Histogram", "seconds_per_query": out["hist_seconds"]},
        {"technique": "speed-up", "seconds_per_query": out["speedup"]},
    ]


#: Figure 5's four panels: title and the panel's own parameters.
_FIG5_PANELS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("Figure 5(a)/(b): real, fixed mode, eps=0.1",
     {"data": "real", "mode": "fixed", "eps_values": (0.1,)}),
    ("Figure 5(c): synthetic, fixed mode, eps=0.001",
     {"data": "synthetic", "mode": "fixed", "eps_values": (0.001,), "n_points": 3000}),
    ("Figure 5(d)/(e): real, random mode, eps sweep",
     {"data": "real", "mode": "random", "eps_values": (0.1, 0.01, 0.001)}),
    ("Figure 5(f): synthetic, random mode, eps=0.001",
     {"data": "synthetic", "mode": "random", "eps_values": (0.001,), "n_points": 3000}),
)


def _fig5(**params: Any) -> Outcome:
    return Outcome([
        Table(title, fig5_error_comparison(**panel, **params))
        for title, panel in _FIG5_PANELS
    ])


def _govern(**params: Any) -> Outcome:
    """The frontier table, titled with the run's totals, plus the safety footer."""
    report = govern_frontier(**params)
    rows = [
        {
            "budget_bytes": r["budget"],
            "frac": r["frac"],
            "peak_bytes": r["peak"],
            "budget_ok": r["budget_ok"],
            "mean_k": r["mean_k"],
            "mean_min_lvl": r["mean_min_level"],
            "p95_rel_err": r["p95_rel_err"],
            "err_ok": r["err_ok"],
            "reconfigs": r["reconfigs"],
            "ticks_shed": r["ticks_shed"],
        }
        for r in report["rows"]
    ]
    title = (
        f"Capacity frontier: {report['full_nbytes']} bytes ungoverned, "
        f"{report['ticks_ingested']} ticks ingested "
        f"({report['ticks_shed']} shed), p95 error target "
        f"{report['error_p95_target']:g}"
    )
    footer = (
        "disabled-governor run bit-identical to no governor: "
        f"{report['fingerprint_match']} "
        f"(digest {report['baseline_digest']})"
    )
    ok = report["fingerprint_match"] and all(r["budget_ok"] for r in report["rows"])
    return Outcome([Table(title, rows)], footer, report, ok)


_REGISTRY: Tuple[Experiment, ...] = (
    _table(
        "fig4a", "Figure 4(a)/(b): fixed exponential query, N=256",
        fig4a_relative_error, {"n_points": 2000}, {"n_points": 10_000}, _fig4a_rows,
    ),
    _table(
        "fig4c", "Figure 4(c): avg abs error vs maintained levels, N=512",
        fig4c_levels_sweep, {"n_points": 1500}, {"n_points": 6000},
    ),
    Experiment(
        "fig5", tuple(title for title, _ in _FIG5_PANELS),
        {"query_every": 256}, {"query_every": 48}, _fig5,
    ),
    _table(
        "fig6a", "Figure 6(a): maintenance time (no queries)",
        fig6a_maintenance_time,
        {"sizes": (20_000, 100_000)}, {"sizes": (100_000, 1_000_000, 4_000_000)},
    ),
    _table(
        "fig6b", "Figure 6(b): query response time, N=1024, B=30, eps=0.1",
        fig6b_response_time,
        {"n_queries": 20, "n_hist_queries": 1, "hist_method": "search"},
        {"n_queries": 100, "n_hist_queries": 3, "hist_method": "search"},
        _fig6b_rows,
    ),
    _table(
        "fig9a", "Figure 9(a): messages vs T_d/T_q, real data",
        fig9a_rate_sweep,
        {"data": "real", "measure_time": 200.0}, {"data": "real", "measure_time": 800.0},
    ),
    _table(
        "fig9b", "Figure 9(b): messages vs T_d/T_q, synthetic data",
        fig9a_rate_sweep,
        {"data": "synthetic", "measure_time": 200.0},
        {"data": "synthetic", "measure_time": 800.0},
    ),
    _table(
        "fig9c", "Figure 9(c): messages vs precision, T_q=1, T_d=2",
        fig9c_precision_sweep, {"measure_time": 200.0}, {"measure_time": 800.0},
    ),
    _table(
        "fig10a", "Figure 10(a): messages vs #clients, binary tree",
        fig10a_client_sweep,
        {"client_counts": (2, 6), "measure_time": 120.0},
        {"client_counts": (2, 6, 14, 30), "measure_time": 400.0},
    ),
    _table(
        "fig10b", "Figure 10(b): messages vs precision, 6 clients",
        fig10b_precision_sweep_multi, {"measure_time": 120.0}, {"measure_time": 400.0},
    ),
    _table("space", "Section 5.1: space complexity", space_complexity, {}, {}),
    _table(
        "chaos", "Robustness: async SWAT-ASR under drop/duplication/crash faults",
        fault_tolerance_demo,
        {"drop_rates": (0.0, 0.1, 0.2), "measure_time": 80.0},
        {"drop_rates": (0.0, 0.05, 0.1, 0.2), "measure_time": 200.0},
    ),
    _table(
        "recovery", "Recovery: degraded answers after a crash, warm restore vs cold resync",
        warm_recovery_demo, {"n_arrivals": 110}, {"n_arrivals": 140},
    ),
    _table(
        "tracedemo",
        "Causal tracing: per-query span trees under drop/duplication/crash faults",
        # Keeps the span trees in the process-wide tracer when one is on
        # (``repro trace`` / ``--trace-out``).
        lambda **params: trace_chaos_demo(tracer=current_causal(), **params),
        {"n_queries": 8}, {"n_queries": 24},
    ),
    Experiment("govern", ("Capacity frontier",), {"n_blocks": 12}, {}, _govern),
)

#: Every experiment by id, in ``repro all`` / ``repro report`` order.
EXPERIMENTS: Dict[str, Experiment] = {e.id: e for e in _REGISTRY}
