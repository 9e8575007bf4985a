"""Run one benchmark workload from a seed and print its metrics.

    python3 perfbench/run.py --workload site_ingest --seed 1 --seconds 10 --trace 0

Each run is a closed loop (one client, one thread, one process): it builds
the workload's inputs from ``--seed``, then repeats *units* — set-up plus one
replay of the fixed schedule — until ``--seconds`` of measured time have
passed and at least 1000 query and 1000 ingest requests have been timed.
Every answer is checked with the clock paused.  The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``; per-layer
metrics with ``--trace 1``, where untraced, traced and observability-on
units alternate and the spans are written to
``.perfbench/trace-<workload>-<seed>.json``.  Exits 1 when any operation
failed, 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from perfbench.common import (  # noqa: E402
    InsufficientSamples,
    Spans,
    replay_percentile,
    self_times,
    top_level_seconds,
    write_chrome,
)

OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_SAMPLES = 1000
MIN_UNITS = 3
WALL_LIMIT_S = 120.0  # stop starting cycles here; a run must end within 180 s
WORKLOADS = ("site_ingest", "query_serving", "asr_tree", "fig10_baselines")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_abs_error", "value"),
)


def _spanned(*names: str) -> List[Tuple[str, str]]:
    return [m for n in names for m in ((f"{n}.calls", "count"), (f"{n}.self_s", "s"))]


PER_LAYER: List[Tuple[str, str]] = [
    *_spanned("core.multi.extend_columns"),
    ("core.multi.extend_columns.values_per_s", "values/s"),
    *_spanned("control.governor.on_phase"),
    ("control.governor.reconfigs", "count"),
    ("control.ledger_bytes", "bytes"),
    *_spanned("persist.write_checkpoint"),
    ("persist.write_checkpoint.bytes", "bytes"),
    ("persist.write_checkpoint.mb_per_s", "MB/s"),
    *_spanned("persist.restore"),
    ("persist.restore.mb_per_s", "MB/s"),
    *_spanned("core.multi.answer_batch"),
    ("core.engine.plan_compiles", "count"),
    *_spanned("core.swat.extend"),
    *_spanned("core.engine.answer.hit", "core.engine.answer.miss", "core.engine.answer.fallback"),
    ("core.engine.plan_hit_ratio", "ratio"),
    *_spanned("core.swat.answer_range"),
    ("core.plan.compile_plan.mean_us", "us"),
    ("core.swat.estimates.mean_us", "us"),
    ("core.plan.compile_to_scalar_ratio", "ratio"),
    *_spanned(*(f"replication.{p}.{f}" for p in ("asr", "dc", "aps")
                for f in ("on_data", "on_query", "on_phase_end"))),
    *((f"network.messages.{k}", "msgs")
      for k in ("query", "response", "update", "insert", "unsubscribe", "asr", "dc", "aps")),
    ("network.messages_per_busy_s", "msgs/s"),
    *((f"replication.{p}.approximations", "count") for p in ("asr", "dc", "aps")),
    ("replication.messages_per_query", "msgs"),
    ("replication.query_hops_mean", "hops"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("obs.enabled_ops_ratio", "ratio"),
]


#: Figures printed in the table only (see README.md for why).
TABLE_ONLY = (
    ("failed_frac", "ratio"),
    ("messages_per_query", "msgs"),
    ("query_hops_mean", "hops"),
    ("ops_per_s_raw", "ops/s"),
    ("setup_s_raw", "s"),
    ("query_samples", "count"),
    ("ingest_samples", "count"),
    ("units", "count"),
)


def load_workload(name: str):  # type: ignore[no-untyped-def]
    from perfbench import ensemble, replication, serving

    return {
        "site_ingest": ensemble,
        "query_serving": serving,
        "asr_tree": replication.asr_tree,
        "fig10_baselines": replication.fig10_baselines,
    }[name]


class ObsOn:
    """``repro.obs`` metrics and causal tracing on, into fresh collectors."""

    def __enter__(self) -> None:
        from repro import obs

        self.obs = obs
        self.previous = obs.set_registry(obs.MetricsRegistry())
        obs.enable()
        obs.enable_causal(max_spans=200_000)

    def __exit__(self, *exc: object) -> None:
        self.obs.disable()
        self.obs.disable_causal()
        self.obs.set_registry(self.previous)


def run_units(wl, prep, seconds: float, trace: bool, workdir: str):  # type: ignore[no-untyped-def]
    """Repeat units until the measured time and sample floors are met.

    Also returns the peak RSS after the first measured unit: later units
    add only the benchmark's own latency samples, whose number grows with
    the program's speed.
    """
    variants = ("plain", "traced", "obs") if trace else ("plain",)
    units: Dict[str, list] = {v: [] for v in ("warmup", *variants)}
    spans = Spans() if trace else None
    start = perf_counter()
    # One untimed unit first, so lazy imports and first-touch costs stay out.
    units["warmup"].append(wl.run_unit(prep, None, workdir))
    peak_rss_mb = None
    while True:
        for variant in variants:
            if variant == "obs":
                with ObsOn():
                    res = wl.run_unit(prep, None, workdir)
            else:
                res = wl.run_unit(prep, spans if variant == "traced" else None, workdir)
            units[variant].append(res)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = sum(u.wall_s for v in variants for u in units[v])
        plain = units["plain"]
        enough = (
            measured >= seconds
            and len(plain) >= (1 if trace else MIN_UNITS)
            and (trace or sum(len(u.query_lat) for u in plain) >= MIN_SAMPLES)
            and (trace or sum(len(u.ingest_lat) for u in plain) >= MIN_SAMPLES)
        )
        if enough or perf_counter() - start > WALL_LIMIT_S:
            return units, spans, peak_rss_mb


def end_to_end(plain: list, peak_rss_mb: float) -> Dict[str, float]:
    first = plain[0]

    def latency_us(kind: str, q: float) -> float:
        runs = [getattr(u, f"{kind}_lat") for u in plain]
        return replay_percentile(runs, q, MIN_SAMPLES)[0] * 1e6

    out = {
        "ops_per_s": sum(u.arrivals + u.queries for u in plain) / sum(u.wall_s for u in plain),
        "query_p50_us": latency_us("query", 50),
        "query_p99_us": latency_us("query", 99),
        "ingest_p50_us": latency_us("ingest", 50),
        "ingest_p99_us": latency_us("ingest", 99),
        "setup_s": statistics.median(u.setup_s for u in plain),
        "peak_rss_mb": peak_rss_mb,
        # Units replay one schedule with identical answers, so these repeat exactly.
        "mean_abs_error": first.err_sum / max(first.answered, 1),
    }
    extra = {
        "ops_per_s_raw": sum(u.arrivals + u.queries for u in plain) / sum(u.raw_wall_s for u in plain),
        "setup_s_raw": statistics.median(u.raw_setup_s for u in plain),
        "query_samples": float(sum(len(u.query_lat) for u in plain)),
        "ingest_samples": float(sum(len(u.ingest_lat) for u in plain)),
        "units": float(len(plain)),
    }
    if first.messages:
        extra["messages_per_query"] = first.messages / first.queries
        extra["query_hops_mean"] = first.hops / first.queries
    return {**out, **extra}


def per_layer(units: Dict[str, list], events: list, probes: Dict[str, float]) -> Dict[str, float]:
    traced, plain, observed = units["traced"], units["plain"], units["obs"]
    n = len(traced)
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, (calls, self_s) in self_times(events).items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
    for key in traced[0].layer:
        out[key] = statistics.fmean(u.layer[key] for u in traced)
    out.update(probes)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out["core.multi.extend_columns.values_per_s"] = ratio(
        out.pop("core.multi.values", 0.0), out["core.multi.extend_columns.self_s"])
    written = out["persist.write_checkpoint.bytes"] / 1e6
    out["persist.write_checkpoint.mb_per_s"] = ratio(written, out["persist.write_checkpoint.self_s"])
    out["persist.restore.mb_per_s"] = ratio(written, out["persist.restore.self_s"])
    hits, misses = out.pop("core.engine.hits", 0.0), out.pop("core.engine.misses", 0.0)
    out.pop("core.engine.fallbacks", None)
    out["core.engine.plan_compiles"] = misses
    out["core.engine.plan_hit_ratio"] = ratio(hits, hits + misses)
    busy = sum(v for k, v in out.items() if k.startswith("replication.") and k.endswith(".self_s"))
    messages = statistics.fmean(u.messages for u in traced)
    out["network.messages_per_busy_s"] = ratio(messages, busy)
    out["replication.messages_per_query"] = ratio(messages, traced[0].queries)
    out["replication.query_hops_mean"] = ratio(traced[0].hops, traced[0].queries)

    traced_wall = sum(u.wall_s for u in traced)
    out["bench.trace_overhead_ratio"] = ratio(
        statistics.median(u.wall_s for u in traced), statistics.median(u.wall_s for u in plain))
    out["bench.unattributed_share"] = ratio(traced_wall - top_level_seconds(events), traced_wall)

    def ops_per_s(us: list) -> float:
        return sum(u.arrivals + u.queries for u in us) / sum(u.wall_s for u in us)

    out["obs.enabled_ops_ratio"] = ratio(ops_per_s(observed), ops_per_s(plain))
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    wl = load_workload(args.workload)
    prep = wl.prepare(wl.make_inputs(args.seed))
    # The prepared inputs are many long-lived objects: keep the collector's
    # full passes from re-walking them during measured requests.
    gc.collect()
    gc.freeze()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        units, spans, peak_rss_mb = run_units(wl, prep, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [u for us in units.values() for u in us]
    attempted = sum(u.attempted for u in every)
    failed = sum(u.failed for u in every)
    for u in every:
        for what in u.failures:
            print(f"FAILED {what}", file=sys.stderr)
    reference = units["plain"][0].digest
    diverged = sum(u.digest != reference for u in every)
    if diverged:
        print(f"FAILED {diverged} unit(s) answered differently from the first", file=sys.stderr)

    units_of = dict([*END_TO_END, *PER_LAYER, *TABLE_ONLY])
    try:
        if args.trace:
            probes = getattr(wl, "probes", lambda p: {})(prep)
            metrics = per_layer(units, spans.events, probes)
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            write_chrome(path, spans.events)
            print(f"spans: {len(spans.events)} written to {path}", file=sys.stderr)
            reported = [name for name, _ in PER_LAYER]
        else:
            metrics = end_to_end(units["plain"], peak_rss_mb)
            reported = [name for name, _ in END_TO_END]
    except InsufficientSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics["failed_frac"] = failed / attempted
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:16.6g} {units_of.get(name, '')}")

    correct = failed == 0 and diverged == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + diverged,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
