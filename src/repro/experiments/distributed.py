"""Drivers for the distributed replication experiments: Figures 9-10 and §5.1.

All drivers return dict rows (one per x-axis point) with message totals for
the three protocols; :func:`repro.experiments.centralized.format_table`
renders them.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from ..core.queries import point_query
from ..data.synthetic import uniform_stream
from ..data.weather import santa_barbara_temps
from ..data.workload import RandomWorkload
from ..network.faults import CrashWindow, FaultPlan
from ..network.topology import Topology
from ..obs.causal import CausalTracer
from ..persist import CheckpointStore
from ..replication.async_asr import AsyncSwatAsr
from ..replication.harness import (
    PROTOCOLS,
    ReplicationConfig,
    make_protocol,
    run_replication,
)
from ..simulate.events import Simulator

__all__ = [
    "fig9a_rate_sweep",
    "fig9c_precision_sweep",
    "fig10a_client_sweep",
    "fig10b_precision_sweep_multi",
    "space_complexity",
    "replication_dataset",
    "fault_tolerance_demo",
    "run_chaos_scenario",
    "trace_chaos_demo",
    "warm_recovery_demo",
]


def replication_dataset(name: str, seed: int = 0) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Dataset plus its value range (DC/APS need ``M``, the max range)."""
    if name == "real":
        data = santa_barbara_temps()
        return data, (float(np.floor(data.min())), float(np.ceil(data.max())))
    if name == "synthetic":
        return uniform_stream(6000, seed=seed), (0.0, 100.0)
    raise ValueError(f"unknown dataset {name!r}")


# Query sizes are drawn uniformly from [2, MAX_QUERY_LENGTH].  The paper does
# not state its size distribution; 8 reproduces its headline message factors
# (DC ~4x, APS ~5x worse than SWAT-ASR) and every driver takes an override.
MAX_QUERY_LENGTH = 8


def _sweep(
    data: str,
    seed: int,
    axis: str,
    points: Sequence[Any],
    point: Callable[[Any], Tuple[Topology, Dict[str, Any]]],
    **config: Any,
) -> List[dict]:
    """The Figure 9/10 sweep loop: one row per x-axis point.

    ``point(x)`` returns the topology and the :class:`ReplicationConfig`
    fields that vary with ``x``; ``config`` holds the fields every point
    shares.  Each row is ``{axis: x}`` followed by every protocol's message
    total and mean absolute error.
    """
    stream, value_range = replication_dataset(data, seed=seed)
    rows = []
    for x in points:
        topology, varying = point(x)
        run = ReplicationConfig(value_range=value_range, seed=seed, **config, **varying)
        row = {axis: x}
        for name in PROTOCOLS:
            protocol = make_protocol(name, topology, run.window_size, value_range)
            result = run_replication(protocol, stream, run)
            row[name] = result.total_messages
            row[f"{name}_err"] = result.mean_abs_error
        rows.append(row)
    return rows


def fig9a_rate_sweep(
    data: str = "real",
    ratios: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    window_size: int = 32,
    measure_time: float = 600.0,
    precision: Tuple[float, float] = (2.0, 10.0),
    max_query_length: int = MAX_QUERY_LENGTH,
    seed: int = 0,
) -> List[dict]:
    """Figures 9(a)/(b): single client, message cost vs the data/query ratio.

    ``ratio = T_d / T_q`` with ``T_q = 1``: small ratios mean frequent writes
    (caching should lose), large ratios mean frequent reads (caching should
    win).  ``data="synthetic"`` gives Figure 9(b).
    """
    topo = Topology.single_client()
    return _sweep(
        data, seed, "ratio_Td_over_Tq", ratios,
        lambda ratio: (topo, {"data_period": ratio}),
        window_size=window_size, query_period=1.0, measure_time=measure_time,
        precision=precision, max_query_length=max_query_length,
    )


def fig9c_precision_sweep(
    data: str = "real",
    precisions: Sequence[float] = (20.0, 10.0, 5.0, 2.0, 1.0, 0.5),
    window_size: int = 32,
    measure_time: float = 600.0,
    max_query_length: int = MAX_QUERY_LENGTH,
    seed: int = 0,
) -> List[dict]:
    """Figure 9(c): single client, ``T_q = 1``, ``T_d = 2``, precision sweep.

    Smaller ``delta`` = stricter precision; every protocol sends more
    messages as ``delta`` shrinks, SWAT-ASR the fewest.
    """
    topo = Topology.single_client()
    return _sweep(
        data, seed, "precision_delta", precisions,
        lambda delta: (topo, {"precision": (delta, delta)}),
        window_size=window_size, data_period=2.0, query_period=1.0,
        measure_time=measure_time, max_query_length=max_query_length,
    )


def fig10a_client_sweep(
    data: str = "real",
    client_counts: Sequence[int] = (2, 6, 14, 30),
    window_size: int = 64,
    measure_time: float = 400.0,
    precision: Tuple[float, float] = (2.0, 10.0),
    max_query_length: int = MAX_QUERY_LENGTH,
    seed: int = 0,
) -> List[dict]:
    """Figure 10(a): complete binary tree, message cost vs number of clients."""
    return _sweep(
        data, seed, "clients", client_counts,
        lambda n: (Topology.complete_binary_tree(n), {}),
        window_size=window_size, data_period=2.0, query_period=1.0,
        measure_time=measure_time, precision=precision,
        max_query_length=max_query_length,
    )


def fig10b_precision_sweep_multi(
    data: str = "synthetic",
    precisions: Sequence[float] = (20.0, 10.0, 5.0, 2.0),
    n_clients: int = 6,
    window_size: int = 64,
    measure_time: float = 400.0,
    max_query_length: int = MAX_QUERY_LENGTH,
    seed: int = 0,
) -> List[dict]:
    """Figure 10(b): 6-client binary tree on synthetic data, precision sweep."""
    topo = Topology.complete_binary_tree(n_clients)
    return _sweep(
        data, seed, "precision_delta", precisions,
        lambda delta: (topo, {"precision": (delta, delta)}),
        window_size=window_size, data_period=2.0, query_period=1.0,
        measure_time=measure_time, max_query_length=max_query_length,
    )


def _interior_crash_asr(
    n_clients: int,
    window_size: int,
    crash: Tuple[float, float],
    *,
    seed: int,
    retry_timeout: float,
    latency: float = 0.0,
    sim: Optional[Simulator] = None,
    causal: Optional[CausalTracer] = None,
    **faults: float,
) -> AsyncSwatAsr:
    """Async SWAT-ASR on a complete binary tree whose first interior site is
    down over ``crash``; ``faults`` (drop, duplicate, jitter rates) complete
    the seeded :class:`~repro.network.faults.FaultPlan`."""
    topo = Topology.complete_binary_tree(n_clients)
    interior = next(n for n in topo.nodes if n != topo.root and topo.children(n))
    plan = FaultPlan(seed=seed + 1, crashes=(CrashWindow(interior, *crash),), **faults)
    return AsyncSwatAsr(
        topo, window_size, latency=latency, sim=sim, faults=plan,
        retry_timeout=retry_timeout, max_retries=2, causal=causal,
    )


def fault_tolerance_demo(
    drop_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    duplicate_rate: float = 0.05,
    n_clients: int = 6,
    window_size: int = 32,
    warmup_time: float = 50.0,
    measure_time: float = 200.0,
    max_query_length: int = MAX_QUERY_LENGTH,
    seed: int = 0,
) -> List[dict]:
    """Robustness sweep: async SWAT-ASR over an increasingly lossy network.

    Every row runs the actor-based protocol with a seeded
    :class:`~repro.network.faults.FaultPlan` — the given drop rate,
    ``duplicate_rate`` duplication, and one interior site crashed for a
    stretch in the middle of the measurement phase — and reports the logical
    message count next to the reliability sublayer's work (retransmissions,
    messages declared failed) and the protocol's degraded answers.  The
    not-degraded answers keep their precision guarantee at every drop rate
    (asserted in ``tests/test_faults.py``); what rises with loss is the
    *cost*: retries, and eventually degraded serves.
    """
    stream, value_range = replication_dataset("synthetic", seed=seed)
    crash_start = window_size * 2.0 + warmup_time + 0.4 * measure_time
    rows = []
    for rate in drop_rates:
        protocol = _interior_crash_asr(
            n_clients, window_size, (crash_start, crash_start + 0.2 * measure_time),
            seed=seed, retry_timeout=0.05, drop_rate=rate, duplicate_rate=duplicate_rate,
        )
        config = ReplicationConfig(
            window_size=window_size,
            data_period=2.0,
            query_period=1.0,
            warmup_time=warmup_time,
            measure_time=measure_time,
            max_query_length=max_query_length,
            value_range=value_range,
            seed=seed,
        )
        result = run_replication(protocol, stream, config)
        counters = cast(Dict[str, int], result.meta.get("faults", {}))
        rows.append(
            {
                "drop_rate": rate,
                "messages": result.total_messages,
                "retries": counters.get("retries", 0),
                "failed": counters.get("failed", 0),
                "dedup_hits": counters.get("dedup_hits", 0),
                "degraded_answers": result.meta.get("degraded_answers", 0),
                "queries": result.n_queries,
            }
        )
    return rows


def run_chaos_scenario(
    *,
    n_clients: int,
    window_size: int,
    n_queries: int,
    drop_rate: float,
    seed: int = 0,
    latency: float = 0.05,
    duplicate_rate: float = 0.05,
    jitter: float = 0.02,
    query_period: float = 1.0,
    causal: Optional[CausalTracer] = None,
    sim: Optional[Simulator] = None,
) -> AsyncSwatAsr:
    """The chaos scenario ``repro tracedemo`` and ``repro shake`` replay.

    Async SWAT-ASR on a complete binary tree under a seeded fault plan:
    ``drop_rate`` drops, ``duplicate_rate`` duplicates, ``jitter``, and one
    interior-site crash spanning the middle third of the query phase.  The
    window fills from a seeded uniform stream, then each of ``n_queries``
    query periods delivers one arrival and one random query (round-robin
    over the clients), and a final phase end closes the run.  Returns the
    protocol, so callers read outcomes, traces or fingerprints off it;
    ``sim`` lets the caller supply the simulator (e.g. a permuted tie-break).
    """
    fill = float(window_size)
    run_span = n_queries * query_period
    protocol = _interior_crash_asr(
        n_clients, window_size, (fill + run_span / 3.0, fill + 2.0 * run_span / 3.0),
        seed=seed, retry_timeout=0.1, drop_rate=drop_rate,
        duplicate_rate=duplicate_rate, jitter=jitter, latency=latency,
        sim=sim, causal=causal,
    )
    stream = uniform_stream(window_size + n_queries, seed=seed)
    for i in range(window_size):
        protocol.on_data(float(stream[i]), now=float(i))
    workload = RandomWorkload(
        window_size,
        max_length=MAX_QUERY_LENGTH,
        precision_low=2.0,
        precision_high=10.0,
        seed=seed,
    )
    clients = protocol.topology.clients
    for q in range(n_queries):
        at = fill + q * query_period
        protocol.on_data(float(stream[window_size + q]), now=at)
        protocol.on_query(clients[q % len(clients)], workload.next(), now=at)
    protocol.on_phase_end()
    return protocol


def trace_chaos_demo(
    n_clients: int = 6,
    window_size: int = 32,
    latency: float = 0.05,
    drop_rate: float = 0.15,
    duplicate_rate: float = 0.05,
    jitter: float = 0.02,
    n_queries: int = 12,
    query_period: float = 1.0,
    seed: int = 0,
    tracer: Optional[CausalTracer] = None,
) -> List[dict]:
    """Quick chaos scenario with per-query causal traces.

    Runs :func:`run_chaos_scenario` and returns one row per answered query:
    its trace id, measured latency, hop count, degraded flag, and the span
    name that dominated its critical path.  The critical-path sum equals the
    measured latency for every query — the acceptance property of the causal
    layer.

    Pass ``tracer`` to keep the span trees (e.g. for Chrome export); a
    fresh private tracer is used otherwise.
    """
    causal = tracer if tracer is not None else CausalTracer(seed=seed)
    protocol = run_chaos_scenario(
        n_clients=n_clients,
        window_size=window_size,
        n_queries=n_queries,
        drop_rate=drop_rate,
        seed=seed,
        latency=latency,
        duplicate_rate=duplicate_rate,
        jitter=jitter,
        query_period=query_period,
        causal=causal,
    )
    rows = []
    for outcome in protocol.query_outcomes:
        assert outcome.trace_id is not None  # causal tracing is on here
        tree = causal.tree(outcome.trace_id)
        phases = tree.phase_durations()
        top_phase = max(phases, key=lambda k: phases[k]) if phases else "-"
        rows.append(
            {
                "client": outcome.client,
                "served_by": outcome.served_by,
                "degraded": int(outcome.degraded),
                "latency": round(outcome.latency, 6),
                "hops": tree.hop_count(),
                "spans": len(tree),
                "top_phase": top_phase,
                "trace_id": outcome.trace_id,
            }
        )
    return rows


def warm_recovery_demo(
    n_clients: int = 4,
    window_size: int = 32,
    drop_rate: float = 0.6,
    n_arrivals: int = 128,
    phase_every: int = 16,
    n_queries: int = 24,
    query_spacing: float = 0.25,
    precision: float = 500.0,
    seed: int = 5,
    checkpoint_dir: Optional[str] = None,
) -> List[dict]:
    """Chaos scenario: crash recovery with and without durable checkpoints.

    One seeded fault plan (heavy drops plus a crash window on the first
    client covering the stream's final stretch) runs three times:

    * ``cold-resync`` — no checkpoint store; the recovered site distrusts
      every row older than its restart and forwards queries root-ward over
      the lossy network until its parent's resync loop repairs it;
    * ``warm-restore`` — a :class:`~repro.persist.CheckpointStore` with the
      default every-phase :class:`~repro.persist.CheckpointPolicy`; the
      recovered site reloads its last valid checkpoint, replays its WAL, and
      keeps serving locally;
    * ``torn-write`` — same store, but every checkpoint write is truncated
      (``torn_write_rate=1.0``); recovery detects the corruption at load
      time and degrades gracefully to the cold-resync path.

    After recovery the stream is quiet and the recovered client answers a
    query burst, so the cold path's only repair channel is the parent's
    (lossy) resync loop — the window where warm restore pays off.  Each row
    reports how many burst answers were degraded, the virtual time of the
    first non-degraded answer, and how many sites warm-restored.  The chaos
    acceptance property (asserted in ``tests/test_recovery.py``): the
    warm-restore row strictly beats cold-resync on degraded answers, and the
    torn-write row matches cold-resync exactly (checkpoint writes consume no
    shared randomness, so the message schedule is identical).
    """
    topo = Topology.complete_binary_tree(n_clients)
    leaf = topo.clients[0]
    stream = np.random.default_rng(seed).uniform(0.0, 100.0, n_arrivals)
    crash_start = float(n_arrivals) - 24.0
    crash_end = float(n_arrivals) + 4.0

    def run(store: Optional[CheckpointStore], torn: bool) -> dict:
        plan = FaultPlan(
            seed=seed + 1,
            drop_rate=drop_rate,
            torn_write_rate=1.0 if torn else 0.0,
            crashes=(CrashWindow(leaf, crash_start, crash_end),),
        )
        # A store brings the default every-phase CheckpointPolicy.
        protocol = AsyncSwatAsr(
            topo,
            window_size,
            latency=0.05,
            faults=plan,
            retry_timeout=0.2,
            max_retries=0,
            checkpoints=store,
        )
        t = 0.0
        for i, value in enumerate(stream):
            t += 1.0
            protocol.on_data(float(value), now=t)
            if protocol.is_warm and t < crash_start:
                protocol.on_query(leaf, point_query(10, precision), now=t)
            if (i + 1) % phase_every == 0:
                protocol.on_phase_end(now=t)
        first_clean: Optional[float] = None
        degraded_post = 0
        t = crash_end
        for _ in range(n_queries):
            t += query_spacing
            protocol.on_query(leaf, point_query(10, precision), now=t)
            outcome = protocol.query_outcomes[-1]
            degraded_post += int(outcome.degraded)
            if not outcome.degraded and first_clean is None:
                first_clean = t
        restored = sum(
            1
            for site in protocol.sites.values()
            if site.trusted_restore_through is not None
        )
        return {
            "queries_after_recovery": n_queries,
            "degraded_after_recovery": degraded_post,
            "first_clean_answer_at": first_clean,
            "warm_restored_sites": restored,
        }

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        root = checkpoint_dir if checkpoint_dir is not None else scratch
        rows.append({"mode": "cold-resync", **run(None, torn=False)})
        rows.append(
            {
                "mode": "warm-restore",
                **run(CheckpointStore(os.path.join(root, "warm")), torn=False),
            }
        )
        rows.append(
            {
                "mode": "torn-write",
                **run(CheckpointStore(os.path.join(root, "torn")), torn=True),
            }
        )
    return rows


def space_complexity(
    window_sizes: Sequence[int] = (32, 64, 128, 256),
    n_clients: int = 6,
) -> List[dict]:
    """Section 5.1: approximations maintained by each scheme.

    SWAT-ASR holds at most ``log N`` per site (``O(M log N)`` total); DC and
    APS hold one per item per client (``O(M N)``).
    """
    rows = []
    for n in window_sizes:
        rows.append(
            {
                "window": n,
                "SWAT-ASR_per_site": int(math.log2(n)),
                "SWAT-ASR_total_max": (n_clients + 1) * int(math.log2(n)),
                "DC_total": n_clients * n,
                "APS_total": n_clients * n,
            }
        )
    return rows
