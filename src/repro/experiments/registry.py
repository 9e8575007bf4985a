"""The experiment registry: every paper figure and scenario, declared once.

Each :class:`Experiment` names its id, the title of every table it prints,
the parameters of its ``--quick`` and full runs, the function call that
turns those parameters into rows, and the paper's claims those rows must
show.  ``repro <id>``, ``all``, ``list``, ``stats``, ``trace`` and
``report`` all iterate :data:`EXPERIMENTS`, so the markdown report runs
exactly the configurations the CLI prints, every run checks the same
claims, and this module is the list of end-to-end scenarios a run can time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

__all__ = ["Table", "Claim", "Outcome", "Experiment", "EXPERIMENTS"]

Rows = List[Dict[str, Any]]


@dataclass(frozen=True)
class Table:
    """One result table: the title it prints under and its rows."""

    title: str
    rows: Rows


@dataclass(frozen=True)
class Claim:
    """One result of the paper that an experiment's run must show.

    ``name`` is unique across the registry; ``section`` is the paper
    figure or section it cites; ``holds`` is a predicate over the run's
    :class:`Outcome` (its tables, in declared order, and its report).
    """

    name: str
    section: str
    holds: Callable[["Outcome"], bool]


@dataclass(frozen=True)
class Outcome:
    """What one experiment run produced.

    ``footer`` prints under the last table; ``report`` is the JSON document
    ``--report-out`` writes (None when the experiment has none);
    ``verdicts`` pairs each of the experiment's claims with whether this
    run shows it (filled in by :meth:`Experiment.execute`).
    """

    tables: List[Table]
    footer: str = ""
    report: Optional[Dict[str, Any]] = None
    verdicts: Tuple[Tuple[Claim, bool], ...] = ()

    @property
    def ok(self) -> bool:
        """Every claim holds; False makes the CLI exit 1."""
        return all(held for _, held in self.verdicts)

    def claim_lines(self) -> List[str]:
        """One ``claim <name> [<section>]: holds|FAILED`` line per claim."""
        return [
            f"claim {claim.name} [{claim.section}]: {'holds' if held else 'FAILED'}"
            for claim, held in self.verdicts
        ]

    def render(self) -> str:
        """The CLI's text: every table, then the footer, then the claims."""
        lines = ["\n\n".join(format_table(t.rows, t.title) for t in self.tables)]
        if self.footer:
            lines.append(self.footer)
        return "\n".join(lines + self.claim_lines())


@dataclass(frozen=True)
class Experiment:
    """One registry entry.

    ``titles`` has one entry per table the run prints; a printed title
    starts with its declared one (``govern`` appends the run's totals).
    ``run`` takes the ``quick`` or ``full`` parameters as keywords;
    ``claims`` are checked against every run, quick or full.
    """

    id: str
    titles: Tuple[str, ...]
    quick: Mapping[str, Any]
    full: Mapping[str, Any]
    run: Callable[..., Outcome]
    claims: Tuple[Claim, ...] = ()

    def execute(self, quick: bool) -> Outcome:
        outcome = self.run(**(self.quick if quick else self.full))
        return replace(
            outcome, verdicts=tuple((c, bool(c.holds(outcome))) for c in self.claims)
        )


def _table(
    id: str,
    title: str,
    fn: Callable[..., Any],
    quick: Mapping[str, Any],
    full: Mapping[str, Any],
    rows: Callable[[Any], Rows] = lambda out: out,
    claims: Tuple[Claim, ...] = (),
) -> Experiment:
    """A one-table experiment: ``rows(fn(**params))`` under ``title``."""
    return Experiment(
        id, (title,), quick, full,
        lambda **params: Outcome([Table(title, rows(fn(**params)))]),
        claims,
    )


def _rows(outcome: Outcome, table: int = 0) -> Rows:
    return outcome.tables[table].rows


def _cell(outcome: Outcome, key: str, label: str, column: str) -> Any:
    """``column`` of the first table's row whose ``key`` column is ``label``."""
    return next(r[column] for r in _rows(outcome) if r[key] == label)


def _kind(outcome: Outcome, table: int, kind: str) -> Dict[str, Any]:
    """A Figure 5 panel's row for one query kind."""
    return {r["kind"]: r for r in _rows(outcome, table)}[kind]


def _swat_below(
    outcome: Outcome, table: int, kind: str, hist: str, factor: float = 1.0
) -> bool:
    """Whether SWAT's mean error in a Figure 5 panel is below ``factor``
    times the histogram column ``hist``."""
    row = _kind(outcome, table, kind)
    return bool(row["swat"] < factor * row[hist])


def _fig4a_rows(out: Dict[str, Any]) -> Rows:
    rel = out["relative"]
    return [
        {"metric": "queries", "value": rel.size},
        {"metric": "mean relative error", "value": float(out["mean"])},
        {"metric": "final cumulative error", "value": float(out["cumulative"][-1])},
        {"metric": "p95 relative error", "value": float(np.percentile(rel, 95))},
    ]


def _fig4c_growth(outcome: Outcome, kind: str) -> float:
    """How much a Figure 4(c) error column grows from the full tree to the
    coarsest one."""
    rows = _rows(outcome)
    return float(rows[-1][kind] / max(rows[0][kind], 1e-12))


def _fig6b_rows(out: Dict[str, float]) -> Rows:
    return [
        {"technique": "SWAT", "seconds_per_query": out["swat_seconds"]},
        {"technique": "Histogram", "seconds_per_query": out["hist_seconds"]},
        {"technique": "speed-up", "seconds_per_query": out["speedup"]},
    ]


def _best_factor(outcome: Outcome, rival: str) -> float:
    """The largest factor by which ``rival`` sends more messages than
    SWAT-ASR at any point of a sweep."""
    return max(r[rival] / max(r["SWAT-ASR"], 1) for r in _rows(outcome))


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
    return Outcome([Table(title, rows)], footer, report)


_REGISTRY: Tuple[Experiment, ...] = (
    _table(
        "fig4a", "Figure 4(a)/(b): fixed exponential query, N=256",
        fig4a_relative_error, {"n_points": 2000}, {"n_points": 10_000}, _fig4a_rows,
        claims=(
            # "the error stays small throughout"
            Claim("fig4a-mean-error-small", "Fig. 4(a)",
                  lambda o: _cell(o, "metric", "mean relative error", "value") < 0.05),
            # "the cumulative error is quite small, around 0.01"
            Claim("fig4b-cumulative-error-small", "Fig. 4(b)",
                  lambda o: _cell(o, "metric", "final cumulative error", "value") < 0.05),
        ),
    ),
    _table(
        "fig4c", "Figure 4(c): avg abs error vs maintained levels, N=512",
        fig4c_levels_sweep, {"n_points": 1500}, {"n_points": 6000},
        claims=(
            Claim("fig4c-linear-error-grows", "Fig. 4(c)",
                  lambda o: _rows(o)[-1]["linear"] > _rows(o)[0]["linear"]),
            # ~exponential growth for linear queries, ~linear for exponential
            Claim("fig4c-linear-grows-faster-than-exponential", "Fig. 4(c)",
                  lambda o: _fig4c_growth(o, "linear") > _fig4c_growth(o, "exponential")),
        ),
    ),
    Experiment(
        "fig5", tuple(title for title, _ in _FIG5_PANELS),
        {"query_every": 256}, {"query_every": 48}, _fig5,
        claims=(
            # SWAT wins both fixed-mode comparisons on real data.
            Claim("fig5a-exponential-beats-histogram", "Fig. 5(a)",
                  lambda o: _swat_below(o, 0, "exponential", "hist_eps_0.1")),
            Claim("fig5a-linear-beats-histogram", "Fig. 5(a)",
                  lambda o: _swat_below(o, 0, "linear", "hist_eps_0.1")),
            # 5(b) re-reports 5(a) cumulatively; the averages are the same.
            Claim("fig5b-errors-nonnegative", "Fig. 5(b)",
                  lambda o: all(r["swat"] >= 0 for r in _rows(o, 0))),
            Claim("fig5c-exponential-beats-histogram", "Fig. 5(c)",
                  lambda o: _swat_below(o, 1, "exponential", "hist_eps_0.001")),
            Claim("fig5d-linear-rows-present", "Fig. 5(d)",
                  lambda o: any(r["kind"] == "linear" for r in _rows(o, 2))),
            Claim("fig5e-exponential-beats-best-histogram", "Fig. 5(e)",
                  lambda o: _kind(o, 2, "exponential")["swat"] < min(
                      v for k, v in _kind(o, 2, "exponential").items()
                      if k.startswith("hist_eps"))),
            Claim("fig5f-exponential-within-3x-histogram", "Fig. 5(f)",
                  lambda o: _swat_below(o, 3, "exponential", "hist_eps_0.001", factor=3)),
        ),
    ),
    _table(
        "fig6a", "Figure 6(a): maintenance time (no queries)",
        fig6a_maintenance_time,
        {"sizes": (20_000, 100_000)}, {"sizes": (100_000, 1_000_000, 4_000_000)},
        claims=(
            # "The maintenance times of the techniques are very similar": the
            # same order of magnitude (a tree touch per arrival vs two sums).
            Claim("fig6a-maintenance-times-comparable", "Fig. 6(a)",
                  lambda o: all(r["swat_seconds"] / max(r["hist_seconds"], 1e-12) < 30.0
                                for r in _rows(o))),
        ),
    ),
    _table(
        "fig6b", "Figure 6(b): query response time, N=1024, B=30, eps=0.1",
        fig6b_response_time,
        {"n_queries": 20, "n_hist_queries": 1, "hist_method": "search"},
        {"n_queries": 100, "n_hist_queries": 3, "hist_method": "search"},
        _fig6b_rows,
        claims=(
            # Four orders of magnitude in the paper; two, conservatively.
            Claim("fig6b-query-speedup-over-100x", "Fig. 6(b)",
                  lambda o: _cell(o, "technique", "speed-up", "seconds_per_query") > 100.0),
        ),
    ),
    _table(
        "fig9a", "Figure 9(a): messages vs T_d/T_q, real data",
        fig9a_rate_sweep,
        {"data": "real", "measure_time": 200.0}, {"data": "real", "measure_time": 800.0},
        claims=(
            # At the most read-heavy ratio caching wins and SWAT-ASR is cheapest.
            Claim("fig9a-read-heavy-asr-at-most-dc", "Fig. 9(a)",
                  lambda o: _rows(o)[-1]["SWAT-ASR"] <= _rows(o)[-1]["DC"]),
            Claim("fig9a-read-heavy-asr-at-most-aps", "Fig. 9(a)",
                  lambda o: _rows(o)[-1]["SWAT-ASR"] <= _rows(o)[-1]["APS"]),
        ),
    ),
    _table(
        "fig9b", "Figure 9(b): messages vs T_d/T_q, synthetic data",
        fig9a_rate_sweep,
        {"data": "synthetic", "measure_time": 200.0},
        {"data": "synthetic", "measure_time": 800.0},
        claims=(
            Claim("fig9b-six-ratios", "Fig. 9(b)", lambda o: len(_rows(o)) == 6),
        ),
    ),
    _table(
        "fig9c", "Figure 9(c): messages vs precision, T_q=1, T_d=2",
        fig9c_precision_sweep, {"measure_time": 200.0}, {"measure_time": 800.0},
        claims=(
            Claim("fig9c-asr-at-most-aps", "Fig. 9(c)",
                  lambda o: all(r["SWAT-ASR"] <= r["APS"] for r in _rows(o))),
            Claim("fig9c-tighter-precision-not-cheaper", "Fig. 9(c)",
                  lambda o: _rows(o)[-1]["SWAT-ASR"] >= _rows(o)[0]["SWAT-ASR"]),
            # The paper's headline: up to 5x better than APS, 4x than DC.
            Claim("fig9c-over-2x-below-aps", "Fig. 9(c)",
                  lambda o: _best_factor(o, "APS") > 2.0),
            Claim("fig9c-over-1.5x-below-dc", "Fig. 9(c)",
                  lambda o: _best_factor(o, "DC") > 1.5),
        ),
    ),
    _table(
        "fig10a", "Figure 10(a): messages vs #clients, binary tree",
        fig10a_client_sweep,
        {"client_counts": (2, 6), "measure_time": 120.0},
        {"client_counts": (2, 6, 14, 30), "measure_time": 400.0},
        claims=(
            # DC sends up to 3x and APS up to 4x more than SWAT-ASR.
            Claim("fig10a-most-clients-asr-below-dc", "Fig. 10(a)",
                  lambda o: _rows(o)[-1]["SWAT-ASR"] < _rows(o)[-1]["DC"]),
            Claim("fig10a-most-clients-asr-below-aps", "Fig. 10(a)",
                  lambda o: _rows(o)[-1]["SWAT-ASR"] < _rows(o)[-1]["APS"]),
        ),
    ),
    _table(
        "fig10b", "Figure 10(b): messages vs precision, 6 clients",
        fig10b_precision_sweep_multi, {"measure_time": 120.0}, {"measure_time": 400.0},
        claims=(
            Claim("fig10b-asr-at-most-aps", "Fig. 10(b)",
                  lambda o: all(r["SWAT-ASR"] <= r["APS"] for r in _rows(o))),
        ),
    ),
    _table(
        "space", "Section 5.1: space complexity", space_complexity, {}, {},
        claims=(
            # O(M log N) approximations for SWAT-ASR vs O(M N) for DC/APS.
            Claim("space-asr-below-dc", "§5.1",
                  lambda o: all(r["SWAT-ASR_total_max"] < r["DC_total"] for r in _rows(o))),
        ),
    ),
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
    Experiment(
        "govern", ("Capacity frontier",), {"n_blocks": 12}, {}, _govern,
        claims=(
            # The governor trades §2.5's levels and §2.6's k for bytes.
            Claim("govern-disabled-is-bit-identical", "§2.5-2.6",
                  lambda o: o.report is not None and o.report["fingerprint_match"]),
            Claim("govern-every-budget-kept", "§2.5-2.6",
                  lambda o: all(r["budget_ok"] for r in _rows(o))),
        ),
    ),
)

#: Every experiment by id, in ``repro all`` / ``repro report`` order.
EXPERIMENTS: Dict[str, Experiment] = {e.id: e for e in _REGISTRY}
