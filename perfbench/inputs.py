"""Seeded inputs for every workload, generated with the benchmark's own NumPy code.

Nothing here imports ``repro``: the streams and query schedules are plain
arrays and tuples, so a change to ``repro.data.*`` cannot change what the
benchmark measures.  The same ``(workload, seed)`` always yields byte-identical
inputs; :func:`digest` hashes them for the self-test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import List, Tuple

import numpy as np

# Per-workload salts keep the four input streams independent for one seed.
_SALT = {"site_ingest": 11, "query_serving": 23, "replication": 37}

# site_ingest shape: 32 synchronized streams, N=4096, k=4, 32-tick column blocks.
ENSEMBLE_STREAMS = 32
ENSEMBLE_WINDOW = 4096
ENSEMBLE_K = 4
ENSEMBLE_BLOCK = 32
ENSEMBLE_BLOCKS = 256  # two windows of measured ingest per unit
CHECKPOINT_EVERY_BLOCKS = ENSEMBLE_WINDOW // ENSEMBLE_BLOCK  # every N ticks
# Dashboard refreshes per block.  Each refreshes the fixed panel on the
# next stream in turn: one stream per request, because a multi-stream batch
# fans out to the ensemble's shard threads, whose timing hangs on the second
# core's availability, which the speed probe cannot see.
DASHBOARD_REQUESTS = 4
GOVERNOR_BUDGET_SHARE = 0.7  # budget as a share of the natural footprint

# query_serving shape: eight standalone trees, a few arrivals then a query burst per tick.
SERVING_WINDOW = 4096
SERVING_TREES = (
    ("haar0", {"k": 4}),
    ("haar1", {"k": 4}),
    ("haar2", {"k": 4}),
    ("haar3", {"k": 4}),
    ("haar4", {"k": 4}),
    ("haar5", {"k": 4}),
    ("certified", {"k": 1, "track_deviation": True}),
    ("db4", {"k": 4, "wavelet": "db4"}),
)
SERVING_TICKS = 200
SERVING_QUERIES_PER_TICK = 20
SERVING_MAX_ARRIVALS = 4
SERVING_POOL = 64
SERVING_ZIPF_S = 1.1
SERVING_MIX = (0.7, 0.2, 0.1)  # standing pool, ad-hoc index sets, answer_range
SERVING_ADHOC_MAX = 64
SERVING_RANGE_MAX = 32

# Replication shape: the fig10a traffic on a 30-client complete binary tree.
REPL_CLIENTS = 30
REPL_WINDOW = 64
REPL_DATA_PERIOD = 2
REPL_PHASE_PERIOD = 10
REPL_HORIZON = 2000  # measured time units of asr_tree (one query per client per unit)
# fig10_baselines replays the first half of the same schedule: DC answers
# ~5x slower than SWAT-ASR, and a unit must stay a few seconds long.
BASELINE_HORIZON = 1000
REPL_MAX_QUERY_LEN = 8
REPL_PRECISION = (2.0, 10.0)

# Query kinds in the query_serving schedule.
STANDING, ADHOC, RANGE = 0, 1, 2


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _SALT[workload]]))


#: AR(1) coefficient of the walks: random-walk-like over tens of ticks,
#: yet stationary, so error figures do not drift with the seed.
REVERSION = 0.98


def seasonal_walk(rng: np.random.Generator, n_streams: int, length: int) -> np.ndarray:
    """Seasonal mean-reverting random walks, one row per stream.

    Step size, season length and amplitude are fixed per row index, so the
    seed changes the paths but not how hard they are to summarize.
    """
    rows = np.arange(n_streams, dtype=np.float64)
    frac = (rows + 0.5) / n_streams
    step = 0.3 + 0.6 * frac
    period = 64.0 + 384.0 * ((rows * 7) % n_streams + 0.5) / n_streams
    amp = 3.0 + 6.0 * ((rows * 11) % n_streams + 0.5) / n_streams
    level = rng.uniform(20.0, 80.0, size=n_streams)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_streams)
    noise = rng.normal(size=(length, n_streams)) * step
    walk = np.empty_like(noise)
    acc = np.zeros(n_streams)
    for t in range(length):
        acc = REVERSION * acc + noise[t]
        walk[t] = acc
    t = np.arange(length, dtype=np.float64)[:, None]
    season = amp * np.sin(2.0 * np.pi * t / period + phase)
    return np.ascontiguousarray((level + walk + season).T)


def digest(inputs: object) -> str:
    """sha256 over every field of an inputs dataclass, in declaration order."""
    h = hashlib.sha256()
    for f in fields(inputs):  # type: ignore[arg-type]
        value = getattr(inputs, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode())
            h.update(str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


# ------------------------------------------------------------- site_ingest


def dashboard_panel() -> Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]:
    """The dashboard's standing queries: exponential over the 16 newest
    values and linear over 64 values a quarter window back."""
    newest = tuple(range(16))
    older = tuple(range(ENSEMBLE_WINDOW // 4, ENSEMBLE_WINDOW // 4 + 64))
    return (
        (newest, tuple(0.5 ** i for i in range(16))),
        (older, tuple((64 - i) / 64 for i in range(64))),
    )


@dataclass(frozen=True)
class EnsembleInputs:
    data: np.ndarray  # (streams, N + blocks * B)
    panel: Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]
    probe: Tuple[Tuple[int, ...], Tuple[float, ...]]  # checkpoint probe query


def ensemble_inputs(seed: int) -> EnsembleInputs:
    rng = rng_for("site_ingest", seed)
    data = seasonal_walk(rng, ENSEMBLE_STREAMS, ENSEMBLE_WINDOW + ENSEMBLE_BLOCKS * ENSEMBLE_BLOCK)
    probe = (tuple(range(3, 19)), tuple(float(16 - i) / 16 for i in range(16)))
    return EnsembleInputs(data, dashboard_panel(), probe)


# ----------------------------------------------------------- query_serving


@dataclass(frozen=True)
class ServingInputs:
    data: np.ndarray  # (trees, N + ticks * max_arrivals)
    arrivals: np.ndarray  # (ticks, trees): values each tree ingests per tick
    pool: Tuple[Tuple[Tuple[int, ...], Tuple[float, ...]], ...]
    # Per tick: (kind, tree, payload) with payload = pool slot (STANDING),
    # (indices, weights) (ADHOC) or (value, radius, t_start, t_end) (RANGE).
    schedule: Tuple[Tuple[Tuple[int, int, object], ...], ...]


def _standing_query(rng: np.random.Generator, n: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    shape = int(rng.integers(0, 3))
    if shape == 0:  # point
        return (int(rng.integers(0, n)),), (1.0,)
    length = int(rng.integers(2, 65))
    start = int(rng.integers(0, n // 2))
    idx = tuple(range(start, start + length))
    if shape == 1:  # exponential
        ratio = float(rng.uniform(1.1, 2.0))
        return idx, tuple(float(ratio ** -i) for i in range(length))
    return idx, tuple((length - i) / length for i in range(length))  # linear


def serving_inputs(seed: int) -> ServingInputs:
    rng = rng_for("query_serving", seed)
    n, n_trees = SERVING_WINDOW, len(SERVING_TREES)
    arrivals = rng.integers(1, SERVING_MAX_ARRIVALS + 1, size=(SERVING_TICKS, n_trees))
    data = seasonal_walk(rng, n_trees, n + int(arrivals.sum(axis=0).max()))
    fixed = np.random.default_rng(0)  # standing queries are part of the workload
    pool = tuple(_standing_query(fixed, n) for _ in range(SERVING_POOL))
    zipf = 1.0 / np.arange(1, SERVING_POOL + 1) ** SERVING_ZIPF_S
    zipf /= zipf.sum()
    seen = np.full(n_trees, n, dtype=np.int64)  # arrivals so far per tree
    schedule = []
    for tick in range(SERVING_TICKS):
        seen += arrivals[tick]
        burst: List[Tuple[int, int, object]] = []
        kinds = rng.choice(3, size=SERVING_QUERIES_PER_TICK, p=SERVING_MIX)
        trees = rng.integers(0, n_trees, size=SERVING_QUERIES_PER_TICK)
        for kind, tree in zip(kinds.tolist(), trees.tolist()):
            if kind == STANDING:
                burst.append((STANDING, tree, int(rng.choice(SERVING_POOL, p=zipf))))
            elif kind == ADHOC:
                size = int(rng.integers(1, SERVING_ADHOC_MAX + 1))
                idx = np.sort(rng.choice(n, size=size, replace=False))
                w = rng.uniform(0.0, 1.0, size=size)
                burst.append(
                    (ADHOC, tree, (tuple(idx.tolist()), tuple(float(x) for x in w)))
                )
            else:
                length = int(rng.integers(1, SERVING_RANGE_MAX + 1))
                start = int(rng.integers(0, n - length))
                # Centre the band on the exact value at t_start so it matches.
                centre = float(data[tree, seen[tree] - 1 - start])
                radius = float(rng.uniform(0.5, 5.0))
                burst.append((RANGE, tree, (centre, radius, start, start + length - 1)))
        schedule.append(tuple(burst))
    return ServingInputs(data, arrivals, pool, tuple(schedule))


# ------------------------------------------------------------- replication


@dataclass(frozen=True)
class ReplicationInputs:
    stream: np.ndarray  # N warm-fill arrivals followed by the measured ones
    value_range: Tuple[float, float]
    # Per measured time unit, one query per client in topology order.
    indices: Tuple[Tuple[Tuple[int, ...], ...], ...]
    precision: np.ndarray  # (horizon, clients)
    truth: np.ndarray  # (horizon, clients): exact answers from the stream


def linear_weights(length: int) -> Tuple[float, ...]:
    return tuple((length - i) / length for i in range(length))


def replication_inputs(seed: int, horizon: int = REPL_HORIZON) -> ReplicationInputs:
    """fig10a traffic: T_d=2, T_q=1 per client, phase period 10, U(2,10) precision.

    Queries are linear inner products over up to 8 distinct window indices,
    with the most recent chosen index weighted highest.  ``truth`` is each
    query's exact answer over the window current when it is issued (the
    arrival at a shared timestamp lands before that timestamp's queries).
    Every ``horizon`` yields a prefix of the same full-length schedule.
    """
    rng = rng_for("replication", seed)
    n, full, clients = REPL_WINDOW, REPL_HORIZON, REPL_CLIENTS
    n_arrivals = n + (full - 1) // REPL_DATA_PERIOD + 1
    stream = 25.0 + seasonal_walk(rng, 1, n_arrivals)[0] * 0.5
    margin = 10.0
    value_range = (float(stream.min()) - margin, float(stream.max()) + margin)
    indices = []
    truth = np.empty((full, clients), dtype=np.float64)
    for t in range(full):
        seen = n + t // REPL_DATA_PERIOD + 1  # arrivals landed by this time unit
        row = []
        for c in range(clients):
            length = int(rng.integers(1, REPL_MAX_QUERY_LEN + 1))
            idx = tuple(np.sort(rng.choice(n, size=length, replace=False)).tolist())
            w = np.asarray(linear_weights(length))
            truth[t, c] = float(np.dot(w, stream[seen - 1 - np.asarray(idx)]))
            row.append(idx)
        indices.append(tuple(row))
    precision = rng.uniform(*REPL_PRECISION, size=(full, clients))
    used = n + (horizon - 1) // REPL_DATA_PERIOD + 1
    return ReplicationInputs(
        stream[:used], value_range, tuple(indices[:horizon]), precision[:horizon], truth[:horizon]
    )
