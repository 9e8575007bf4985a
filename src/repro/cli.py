"""Command-line interface: regenerate any paper figure from the shell.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro fig4c                 # run one experiment, print its table
    python -m repro fig9c --quick         # scaled-down version
    python -m repro all --quick           # everything
    python -m repro stats fig9c --quick   # run + print a metrics report
    python -m repro fig6a --metrics-out m.json   # dump the registry as JSON
    python -m repro chaos --quick         # fault-injection robustness sweep
    python -m repro trace tracedemo --quick       # run + causal-trace summary
    python -m repro trace chaos --trace-out t.json  # Perfetto trace export
    python -m repro check src             # repo-specific AST lint (REP001-010)
    python -m repro shake --seed 7 --permutations 8  # schedule-perturbation
                                          # determinism check (+ race detector)
    python -m repro recovery --quick      # warm vs cold crash recovery
    python -m repro govern --quick        # budget sweep: memory-vs-error
                                          # frontier under the governor
    python -m repro snapshot s.ckpt       # checkpoint a seeded summary + WAL
    python -m repro restore s.ckpt        # load + replay; exit 1 on corruption

``stats`` (and ``--metrics-out`` on any experiment) turns on
:mod:`repro.obs` before the run; ``-v`` installs a stderr log handler on the
``"repro"`` logger (``-vv`` for debug, e.g. ADR phase decisions).  When a
run injected faults, ``stats`` appends a fault-injection section (drops,
retries, degraded answers — see ``docs/robustness.md``).

``shake`` replays a seeded chaos scenario under K seeded permutations of
same-timestamp event ordering with the runtime race detector installed,
and exits non-zero on any divergence or detected race (the dynamic prong
of the determinism sanitizer — see ``docs/static-analysis.md``).

``trace`` (and ``--trace-out`` on any experiment) installs a process-wide
causal tracer before the run, prints capture totals plus the slowest
query's critical path, and — with ``--trace-out FILE`` — exports every span
tree as Chrome trace-event JSON loadable in Perfetto (see
``docs/observability.md``, "Causal tracing").

Every experiment id is declared once in :mod:`repro.experiments.registry`,
with the paper claims its run must show; this module only dispatches ids
to it and formats the output.  An experiment run (``<id>``, ``stats``,
``trace``, ``all``, ``report``) exits 1 when any of its claims fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from . import obs
from .experiments.registry import EXPERIMENTS
from .obs.causal import CausalTracer, enable_causal, format_critical_path
from .obs.chrome import write_chrome

__all__ = ["main", "EXPERIMENTS"]


#: Counter-name prefixes that describe injected faults and the protocol's
#: reaction to them; ``repro stats`` surfaces these in their own section.
_FAULT_COUNTER_PREFIXES = (
    "transport.dropped",
    "transport.duplicated",
    "transport.retries",
    "transport.failed",
    "transport.dedup_hits",
    "transport.acks",
    "asr.degraded_answers",
    "asr.degraded_serves",
    "asr.lost_responses",
    "asr.late_responses",
    "asr.unsynced_marks",
    "asr.resyncs",
    "checkpoint.torn_writes",
    "checkpoint.load.corrupt",
    "checkpoint.load.missing",
    "checkpoint.warm_restores",
    "wal.torn_records",
)


def _render_fault_section(snapshot: dict) -> str:
    """A ``repro stats`` section for fault-injection counters.

    Empty string when the run injected no faults (all fault counters absent
    or zero), so perfect-network stats output is unchanged.
    """
    counters = snapshot.get("counters", {})
    hits = {
        key: value
        for key, value in counters.items()
        if value and any(key.startswith(p) for p in _FAULT_COUNTER_PREFIXES)
    }
    if not hits:
        return ""
    width = max(len(k) for k in hits)
    lines = ["== fault injection =="]
    for key in sorted(hits):
        lines.append(f"  {key:<{width}}  {hits[key]:g}")
    return "\n".join(lines)


#: Stream/window shape of the ``snapshot``/``restore`` demo pair.  Both
#: sides derive everything from the checkpoint metadata, so these are only
#: the writer's defaults.
_SNAPSHOT_WINDOW = 256
_SNAPSHOT_TAIL = 64


def _run_snapshot(path: str, seed: int, quick: bool) -> int:
    """``repro snapshot FILE``: checkpoint a seeded summary mid-stream.

    Builds a :class:`~repro.core.swat.Swat` tree plus
    :class:`~repro.histogram.prefix.PrefixStats` over a seeded synthetic
    stream, checkpoints both ``_SNAPSHOT_TAIL`` arrivals before the end,
    write-ahead-logs the tail to ``FILE.wal``, and finishes the stream
    in-process.  The final probe-query answer is stored in the checkpoint
    metadata so ``repro restore`` can verify bit-identical recovery.
    """
    from .core.engine import QueryEngine
    from .core.queries import exponential_query
    from .core.swat import Swat
    from .data.synthetic import uniform_stream
    from .histogram.prefix import PrefixStats
    from .persist import WriteAheadLog, pack_swat_state, write_checkpoint

    n_points = 1024 if quick else 4096
    stream = uniform_stream(n_points, seed=seed)
    tree = Swat(_SNAPSHOT_WINDOW, k=1, wavelet="haar")
    prefix = PrefixStats(_SNAPSHOT_WINDOW)
    cut = n_points - _SNAPSHOT_TAIL
    for value in stream[:cut]:
        tree.update(float(value))
        prefix.update(float(value))
    # State is captured at the cut (to_state snapshots are copies); the tail
    # is write-ahead-logged and also applied live, so the stored probe
    # answer is the uninterrupted run's.
    state = {
        "swat": pack_swat_state(tree.to_state()),
        "prefix": prefix.to_state(),
    }
    wal = WriteAheadLog(path + ".wal")
    wal.reset()
    for value in stream[cut:]:
        wal.append(float(value))
        tree.update(float(value))
        prefix.update(float(value))
    probe = exponential_query(_SNAPSHOT_TAIL)
    probe_value = float(QueryEngine(tree).answer(probe).value)
    written = write_checkpoint(
        path,
        "swat",
        state,
        {
            "seed": seed,
            "n_points": n_points,
            "window_size": _SNAPSHOT_WINDOW,
            "probe_length": _SNAPSHOT_TAIL,
            "probe_value": probe_value,
        },
    )
    print(
        f"checkpoint written to {path} ({written} bytes), "
        f"{len(wal)} tail arrivals in {wal.path}"
    )
    print(f"probe answer at stream end: {probe_value!r}")
    return 0


def _run_restore(path: str) -> int:
    """``repro restore FILE``: load + replay, verify against the metadata.

    Exits 1 on a missing/corrupt checkpoint or a probe-answer mismatch —
    the shell-level version of the warm-restore fallback decision.
    """
    from .core.engine import QueryEngine
    from .core.queries import exponential_query
    from .core.swat import Swat
    from .histogram.prefix import PrefixStats
    from .persist import CheckpointCorruptError, WriteAheadLog, load_checkpoint

    try:
        state, meta = load_checkpoint(path, "swat")
    except FileNotFoundError:
        print(f"no checkpoint at {path}", file=sys.stderr)
        return 1
    except CheckpointCorruptError as exc:
        print(f"refusing to restore: {exc}", file=sys.stderr)
        return 1
    try:
        tree = Swat.from_state(state["swat"])
        prefix = PrefixStats.from_state(state["prefix"])
    except (KeyError, ValueError) as exc:
        print(f"refusing to restore: {exc}", file=sys.stderr)
        return 1
    records, torn = WriteAheadLog(path + ".wal").replay()
    for value in records:
        tree.update(float(value))
        prefix.update(float(value))
    probe = exponential_query(int(meta.get("probe_length", _SNAPSHOT_TAIL)))
    value = float(QueryEngine(tree).answer(probe).value)
    expected = meta.get("probe_value")
    print(
        f"restored {path}: window={tree.window_size} time={tree._time} "
        f"replayed={len(records)} torn={torn}"
    )
    print(f"probe answer after replay: {value!r}")
    if expected is not None:
        if value == float(expected):
            print("bit-identical to the uninterrupted run")
        else:
            print(
                f"MISMATCH: expected {float(expected)!r}", file=sys.stderr
            )
            return 1
    return 0


def _install_verbose_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``"repro"`` logger (-v INFO, -vv DEBUG)."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG if verbosity > 1 else logging.INFO)


def _out_path_problem(path: Optional[str]) -> Optional[str]:
    """Why an output file at ``path`` could not be written after the run, or
    None (also when ``path`` is None: the flag was not given)."""
    if path is None:
        return None
    if not path:
        return "empty path"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"directory {parent!r} does not exist"
    return None


def _render_trace_summary(tracer: CausalTracer) -> str:
    """A ``repro trace`` section: capture totals plus the slowest query's
    critical path (the first thing one looks at in a latency investigation)."""
    lines = [
        "== causal traces ==",
        f"  traces={len(tracer.trace_ids())} spans={len(tracer)} "
        f"dropped={tracer.dropped} orphans={len(tracer.orphan_spans())}",
    ]
    queries = [
        t for t in tracer.trees() if t.root.name == "query" and t.root.finished
    ]
    if queries:
        slowest = max(queries, key=lambda t: t.duration)
        lines.append(
            f"  slowest query: trace {slowest.root.trace_id} "
            f"@ {slowest.root.site or '?'} "
            f"duration={slowest.duration:.6f}s hops={slowest.hop_count()}"
        )
        lines.append(format_critical_path(slowest.critical_path()))
    return "\n".join(lines)


def _write_outputs(
    args: argparse.Namespace,
    tracer: Optional[CausalTracer],
    experiment: str,
    report: Optional[dict] = None,
) -> None:
    """After a run: write each of ``--metrics-out``, ``--trace-out`` and
    ``--report-out`` that was given (their paths were checked before it)."""
    if args.metrics_out is not None:
        obs.write_json(obs.get_registry(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out is not None and tracer is not None:
        write_chrome(tracer, args.trace_out, metadata={"experiment": experiment})
        print(
            f"chrome trace written to {args.trace_out} "
            f"({len(tracer.trace_ids())} traces, {len(tracer)} spans); "
            "open with https://ui.perfetto.dev or chrome://tracing",
            file=sys.stderr,
        )
    if args.report_out is not None and report is not None:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"{experiment} report written to {args.report_out}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SWAT paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'report', 'list', "
        "'stats <experiment>' for a run followed by a metrics report, "
        "'trace <experiment>' for a run with causal tracing and a trace "
        "summary, 'check [paths...]' for the repo-specific AST linter, "
        "'shake' for the schedule-perturbation determinism check, or "
        "'snapshot FILE' / 'restore FILE' for durable checkpoint round-trips",
    )
    parser.add_argument(
        "target",
        nargs="*",
        default=[],
        help="experiment id (with 'stats'/'trace') or paths to lint "
        "(with 'check')",
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down, much faster runs"
    )
    parser.add_argument(
        "-o", "--output", default=None, help="for 'report': write markdown here"
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable observability and dump the metrics registry as JSON "
        "to FILE after the run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable causal tracing and write the run's span trees to FILE "
        "as Chrome trace-event JSON (openable in Perfetto)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="for 'shake': base seed of the chaos scenario (default: 0)",
    )
    parser.add_argument(
        "--permutations",
        type=int,
        default=8,
        metavar="K",
        help="for 'shake': number of seeded same-timestamp permutations "
        "to replay (default: 8)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="for 'shake'/'govern': write the full report as JSON to FILE",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log to stderr (-v info, -vv debug)",
    )
    args = parser.parse_args(argv)

    if args.verbose:
        _install_verbose_logging(args.verbose)
    # Fail before the (possibly long) run, not after it.
    for flag, path in (
        ("--metrics-out", args.metrics_out),
        ("--trace-out", args.trace_out),
        ("--report-out", args.report_out),
    ):
        problem = _out_path_problem(path)
        if problem is not None:
            print(f"{flag}: {problem}", file=sys.stderr)
            return 2
    if args.metrics_out is not None or args.experiment == "stats":
        obs.enable()
    tracer: Optional[CausalTracer] = None
    if args.trace_out is not None or args.experiment == "trace":
        # Cap memory: a runaway run samples out whole traces past the cap
        # (reported as dropped) instead of growing without bound.
        tracer = enable_causal(max_spans=250_000)

    if args.target and args.experiment not in (
        "stats",
        "check",
        "trace",
        "snapshot",
        "restore",
    ):
        print(
            "extra arguments are only valid with 'stats', 'trace', 'check', "
            "'snapshot', or 'restore'",
            file=sys.stderr,
        )
        return 2

    if args.experiment in ("snapshot", "restore"):
        if len(args.target) != 1:
            print(
                f"usage: repro {args.experiment} <checkpoint-file>",
                file=sys.stderr,
            )
            return 2
        if args.experiment == "snapshot":
            return _run_snapshot(args.target[0], args.seed, args.quick)
        return _run_restore(args.target[0])

    if args.experiment == "check":
        from .devtools.lint import main as lint_main

        return lint_main(args.target or ["src"])

    if args.experiment == "shake":
        from .simulate.shake import format_shake_report, run_shake

        if args.permutations < 1:
            print("--permutations must be >= 1", file=sys.stderr)
            return 2
        report = run_shake(
            seed=args.seed, permutations=args.permutations, quick=args.quick
        )
        print(format_shake_report(report))
        _write_outputs(args, tracer, "shake", report)
        return 0 if report["deterministic"] else 1

    if args.experiment == "report":
        from .experiments.report import generate_report

        text, ok = generate_report(
            quick=args.quick, progress=lambda m: print(m, file=sys.stderr)
        )
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"report written to {args.output}")
        else:
            print(text)
        _write_outputs(args, tracer, "report")
        return 0 if ok else 1

    if args.experiment == "list":
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        print("(prefix any id with 'stats' for a post-run metrics report)")
        return 0
    if args.experiment == "all":
        ok = True
        for experiment in EXPERIMENTS.values():
            outcome = experiment.execute(args.quick)
            print(outcome.render())
            print()
            ok = ok and outcome.ok
        _write_outputs(args, tracer, "all")
        return 0 if ok else 1

    name = args.experiment
    if name in ("stats", "trace"):
        if len(args.target) != 1:
            print(f"usage: repro {name} <experiment> (see 'list')", file=sys.stderr)
            return 2
        name = args.target[0]
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    outcome = EXPERIMENTS[name].execute(args.quick)
    print(outcome.render())
    if args.experiment == "stats":
        print()
        snapshot = obs.metrics_snapshot()
        print(obs.render_text(snapshot, title=f"metrics: {name}"))
        fault_section = _render_fault_section(snapshot)
        if fault_section:
            print()
            print(fault_section)
    elif args.experiment == "trace":
        assert tracer is not None
        print()
        print(_render_trace_summary(tracer))
    _write_outputs(args, tracer, name, outcome.report)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
