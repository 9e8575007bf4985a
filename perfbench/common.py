"""Shared pieces of the workloads: unit results, the paused clock, spans, percentiles."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import struct
import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A reported percentile needs at least this many samples strictly beyond it.
MIN_BEYOND = 10

#: Relative slack for float comparisons against the §2.6 bound.
BOUND_RTOL = 1e-9


def exact_history(row: np.ndarray, seen: int, window: int) -> np.ndarray:
    """Exact newest-first values of one stream: the last ``2 * window`` of ``row[:seen]``."""
    return row[max(0, seen - 2 * window) : seen][::-1]


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the sample count.

    The value at 1-based rank ``ceil(q/100 * n)`` is reported only when at
    least :data:`MIN_BEYOND` samples lie beyond it (1000 samples for p99);
    otherwise :class:`InsufficientSamples` is raised.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} over {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(sorted(samples)[rank - 1]), n


def grouped_percentile(
    runs: Sequence[Sequence[float]], q: float, group_size: int
) -> Tuple[float, int]:
    """Median over groups of the ``q``-th percentile, and the sample count.

    ``runs`` are consecutive sample lists (one per unit).  They are joined
    in order into groups of at least ``group_size`` samples (a short
    remainder joins the last group), each group yields its own
    :func:`percentile`, and the lower median of those is reported — so a
    burst of host noise inside one unit moves the tail by one vote.
    """
    groups: List[List[float]] = []
    current: List[float] = []
    for samples in runs:
        current.extend(samples)
        if len(current) >= group_size:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    values = [percentile(g, q)[0] for g in groups]
    return statistics.median_low(values), sum(len(g) for g in groups)


def replay_percentile(
    runs: Sequence[Sequence[float]], q: float, group_size: int
) -> Tuple[float, int]:
    """``q``-th percentile of the units' latency samples, and the sample count.

    Every unit replays the same schedule, so request ``j`` of one unit is
    request ``j`` of every other.  With at least three units and enough
    requests per unit, each request's latency is its median over the units
    — a burst of host noise hits one replay, not all of them — and the
    percentile is taken over requests.  Otherwise :func:`grouped_percentile`.
    """
    if len(runs) >= 3 and len({len(r) for r in runs}) == 1:
        per_request = np.median(np.asarray(runs, dtype=np.float64), axis=0)
        try:
            value, _ = percentile(per_request.tolist(), q)
            return value, sum(len(r) for r in runs)
        except InsufficientSamples:
            pass
    return grouped_percentile(runs, q, group_size)


class Spans:
    """In-memory span log: ``[name, start, end, parent, request, scale]`` per span.

    ``parent`` is the index of the enclosing span (-1 for none), spans of
    one request share its request id, and ``scale`` is the speed-probe
    factor of the clock segment the span ran in.  Nothing is written until
    :func:`write_chrome` at exit.
    """

    def __init__(self) -> None:
        self.events: List[List[Any]] = []
        self._stack: List[int] = []
        self.last = -1

    def begin(self, name: str, req: Optional[int] = None) -> None:
        parent = self._stack[-1] if self._stack else -1
        if req is None:
            req = self.events[parent][4] if parent >= 0 else -1
        self._stack.append(len(self.events))
        self.events.append([name, perf_counter(), 0.0, parent, req, 1.0])

    def end(self) -> None:
        self.last = self._stack.pop()
        self.events[self.last][2] = perf_counter()

    def rename_last(self, name: str) -> None:
        self.events[self.last][0] = name


def call(
    spans: Optional[Spans], name: str, req: Optional[int], fn: Callable[..., Any], *args: Any
) -> Any:
    """``fn(*args)`` inside a span named ``name`` (no span when ``spans`` is None)."""
    if spans is None:
        return fn(*args)
    spans.begin(name, req)
    try:
        return fn(*args)
    finally:
        spans.end()


def self_times(events: Sequence[Sequence[Any]]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, scaled self seconds = duration minus child durations)."""
    child = [0.0] * len(events)
    for _name, start, end, parent, _req, scale in events:
        if parent >= 0:
            child[parent] += (end - start) * scale
    out: Dict[str, Tuple[int, float]] = {}
    for i, (name, start, end, _parent, _req, scale) in enumerate(events):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) * scale - child[i])
    return out


def top_level_seconds(events: Sequence[Sequence[Any]]) -> float:
    """Scaled seconds inside spans with no parent."""
    return sum((e[2] - e[1]) * e[5] for e in events if e[3] < 0)


def write_chrome(path: str, events: Sequence[Sequence[Any]]) -> None:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    t0 = events[0][1] if events else 0.0
    out = [
        {
            "name": name,
            "ph": "X",
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": i, "parent": parent, "req": req},
        }
        for i, (name, start, end, parent, req, _scale) in enumerate(events)
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, fh)


# ------------------------------------------------------------ speed probe
#
# The host's CPU speed drifts between regimes up to ~2x apart for seconds
# at a time (shared cores).  A short fixed kernel of interpreter and small
# NumPy work, independent of the program, runs at every pause of the
# measured clock; each stretch of measured work is scaled by
# REFERENCE_PROBE_S / (mean probe time around it), so every reported time
# reads as if the host ran at the reference speed.  Raw figures are
# printed alongside.

#: Probe duration defining the reference speed (a quiet 2-core x86 host).
REFERENCE_PROBE_S = 3.0e-4


class _ProbeNode:
    __slots__ = ("level", "coeffs", "version")

    def __init__(self, level: int) -> None:
        self.level = level
        self.coeffs = np.zeros(4)
        self.version = 0


_PROBE_NODES = [_ProbeNode(level) for level in range(8)]
_PROBE_VALUES = np.linspace(0.0, 1.0, 16)


def probe() -> float:
    """Seconds one fixed kernel takes right now (0.3 ms at reference speed).

    The kernel is a miniature summary-tree update — slotted node objects,
    4-element NumPy coefficient vectors, a deque and a dict — because code
    shaped like the program's tracks the host's speed regimes best.
    """
    t = perf_counter()
    recent: Deque[float] = deque(maxlen=4)
    cache: Dict[Tuple[int, int], _ProbeNode] = {}
    for i in range(16):
        recent.append(float(_PROBE_VALUES[i]))
        for node in _PROBE_NODES[: (i & 7) + 1]:
            c = node.coeffs
            mean = (c[:2] + c[2:]) * 0.5
            node.coeffs = np.concatenate((mean, c[:2] - mean))
            node.version += 1
            cache[(node.level, node.version & 3)] = node
        sum(recent) / len(recent)
    return perf_counter() - t


def speed_scale(before: float, after: float) -> float:
    """Factor turning a time measured between two probes into reference time."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)


# Sample counts (query latencies, ingest latencies, spans) at a clock edge.
_Marks = Tuple[int, int, int]


class Clock:
    """Wall clock of a unit's measured phase, in segments split by pauses.

    Answers are checked while paused, and every pause runs the speed probe;
    :meth:`finish` scales each segment, and the latency samples taken in
    it, by the probes on either side.
    """

    def __init__(self, res: "UnitResult", spans: Optional[Spans] = None) -> None:
        self.res = res
        self.spans = spans
        self._segments: List[Tuple[float, float, _Marks, _Marks]] = []
        self._probes = [probe()]
        self._marks = self._mark()
        self._since = perf_counter()

    def _mark(self) -> _Marks:
        n_spans = len(self.spans.events) if self.spans is not None else 0
        return len(self.res.query_lat), len(self.res.ingest_lat), n_spans

    def pause(self) -> None:
        now = perf_counter()
        self._segments.append((self._since, now, self._marks, self._mark()))
        self._probes.append(probe())

    def resume(self) -> None:
        self._marks = self._mark()
        self._since = perf_counter()

    def finish(self) -> None:
        """Add the scaled (and raw) measured time to the unit result."""
        res = self.res
        for k, (start, end, lo, hi) in enumerate(self._segments):
            scale = speed_scale(self._probes[k], self._probes[k + 1])
            res.raw_wall_s += end - start
            res.wall_s += (end - start) * scale
            for lat, a, b in ((res.query_lat, lo[0], hi[0]), (res.ingest_lat, lo[1], hi[1])):
                for j in range(a, b):
                    lat[j] *= scale
            if self.spans is not None:
                for j in range(lo[2], hi[2]):
                    self.spans.events[j][5] = scale


def timed_setup(*steps: Callable[[], Any]) -> Tuple[float, float]:
    """Run the set-up steps, probing the speed around each one.

    Returns the total (reference-scaled, raw) seconds.
    """
    scaled = raw = 0.0
    before = probe()
    for step in steps:
        t = perf_counter()
        step()
        took = perf_counter() - t
        after = probe()
        scaled += took * speed_scale(before, after)
        raw += took
        before = after
    return scaled, raw


class AnswerDigest:
    """Running hash of every answer, to prove repeated units agree bit for bit."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values: float) -> None:
        self._h.update(struct.pack(f"<{len(values)}d", *values))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class UnitResult:
    """One unit: set-up plus one replay of the workload's fixed schedule."""

    setup_s: float = 0.0  # scaled to the reference speed
    wall_s: float = 0.0  # measured phase, answer checks excluded, scaled
    raw_setup_s: float = 0.0
    raw_wall_s: float = 0.0
    arrivals: int = 0
    queries: int = 0
    query_lat: List[float] = field(default_factory=list)
    ingest_lat: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    err_sum: float = 0.0
    answered: int = 0  # answers that entered err_sum
    messages: int = 0
    hops: int = 0
    digest: str = ""
    # Per-unit layer counters that do not come from spans.
    layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, what: str, exc: Optional[BaseException] = None) -> None:
        """Count one failed operation; the first few are kept for the report."""
        self.failed += 1
        if len(self.failures) < 5:
            if exc is not None:
                what += ":\n" + "".join(traceback.format_exception(exc)).rstrip()
            self.failures.append(what)

    def check_bound(
        self, what: str, answer: float, exact: float, bound: float, count: bool = True
    ) -> None:
        """A failure when ``answer`` misses ``exact`` by more than ``bound``;
        ``count`` adds the error to the unit's mean absolute error."""
        err = abs(answer - exact)
        if count:
            self.err_sum += err
            self.answered += 1
        if not err <= bound + BOUND_RTOL * (1.0 + abs(exact)):
            self.fail(f"{what}: |{answer!r} - {exact!r}| = {err:.3g} > bound {bound:.3g}")
