"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the knobs the paper leaves fixed:

* coefficients per node (``k``) — space/accuracy trade-off;
* wavelet basis — Haar O(k) combine vs generic bases;
* raw leaves on/off — the R_{-1}/L_{-1} reading of Figure 3(a);
* ADR phase length — how reactive SWAT-ASR's tests are;
* histogram evaluation method — vectorised vs literal binary-search.
"""

import time

import numpy as np

from repro import Swat, Topology, exponential_query, make_protocol, run_replication
from repro.data import santa_barbara_temps, uniform_stream
from repro.experiments import format_table
from repro.histogram import approximate_histogram
from repro.replication import ReplicationConfig

from .conftest import quick_mode

N = 256


def _window_error(tree, stream):
    tree.extend(stream)
    window = stream[-tree.window_size :][::-1]
    return float(np.abs(tree.reconstruct_window() - window).mean())


def test_ablation_k_sweep(benchmark, report):
    stream = uniform_stream(4 * N, seed=0)

    def run():
        rows = []
        for k in (1, 2, 4, 8, 16, 32):
            tree = Swat(N, k=k)
            err = _window_error(tree, stream)
            rows.append(
                {"k": k, "mean_abs_error": err, "coefficients": tree.memory_coefficients}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(rows, "Ablation: coefficients per node (k), N=256, synthetic"))
    errs = [r["mean_abs_error"] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))  # monotone


def test_ablation_wavelet_basis(benchmark, report):
    stream = santa_barbara_temps()[: 4 * N]

    def run():
        rows = []
        for wavelet in ("haar", "db2", "db4", "sym4"):
            tree = Swat(N, k=8, wavelet=wavelet)
            t0 = time.perf_counter()
            err = _window_error(tree, stream)
            elapsed = time.perf_counter() - t0
            rows.append({"wavelet": wavelet, "mean_abs_error": err, "feed_seconds": elapsed})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(rows, "Ablation: wavelet basis, k=8, N=256, weather data"))
    haar = next(r for r in rows if r["wavelet"] == "haar")
    assert all(haar["feed_seconds"] <= r["feed_seconds"] + 1e-9 for r in rows)


def test_ablation_raw_leaves(benchmark, report):
    stream = santa_barbara_temps()
    q = exponential_query(32)

    def run():
        rows = []
        for raw in (True, False):
            tree = Swat(N, use_raw_leaves=raw)
            errs = []
            window = None
            for i, v in enumerate(stream):
                tree.update(v)
                if i < 1000 or i % 50:
                    continue
                window = stream[i - N + 1 : i + 1][::-1]
                exact = q.evaluate(window)
                errs.append(abs(tree.answer(q).value - exact) / abs(exact))
            rows.append({"raw_leaves": raw, "mean_rel_error": float(np.mean(errs))})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            "Ablation: R_{-1}/L_{-1} raw leaves (exponential fixed query, weather)",
        )
    )
    with_raw = next(r for r in rows if r["raw_leaves"])
    without = next(r for r in rows if not r["raw_leaves"])
    assert with_raw["mean_rel_error"] < without["mean_rel_error"]


def test_ablation_phase_period(benchmark, report):
    stream = santa_barbara_temps()
    vr = (float(stream.min()) - 1, float(stream.max()) + 1)
    topo = Topology.complete_binary_tree(6)
    measure = 150.0 if quick_mode() else 400.0

    def run():
        rows = []
        for phase in (2.0, 5.0, 10.0, 25.0, 60.0):
            config = ReplicationConfig(
                window_size=32,
                data_period=2.0,
                query_period=1.0,
                phase_period=phase,
                measure_time=measure,
                precision=(2.0, 10.0),
                value_range=vr,
                seed=0,
            )
            result = run_replication(make_protocol("SWAT-ASR", topo, 32, vr), stream, config)
            rows.append({"phase_period": phase, "messages": result.total_messages})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(rows, "Ablation: ADR phase length for SWAT-ASR, 6 clients"))
    assert len({r["messages"] for r in rows}) > 1  # phase length matters


def test_ablation_histogram_method(benchmark, report):
    x = santa_barbara_temps()[:1024]

    def run():
        rows = []
        for method in ("dense", "search"):
            t0 = time.perf_counter()
            hist = approximate_histogram(x, 30, 0.1, method=method)
            elapsed = time.perf_counter() - t0
            rows.append({"method": method, "sse": hist.sse, "build_seconds": elapsed})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            "Ablation: histogram DP evaluation (same approximation, different cost)",
        )
    )
    dense, search = rows
    assert dense["sse"] == search["sse"]  # identical candidate mathematics
    assert dense["build_seconds"] < search["build_seconds"]
