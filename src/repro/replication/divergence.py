"""Divergence Caching, adapted to precision tolerances (Section 4.1).

The original algorithm (Huang, Sloan & Wolfson, PDIS'94) caches a single
object per client and picks a *refresh rate* minimising expected message
cost under Poisson read/write models estimated from a window of past events.
The paper's adaptation — implemented here — reinterprets the refresh rate as
the **width** ``k = d_H - d_L`` of a cached range:

* a read with tolerance ``t`` hits iff ``t >= k`` (misses are *relevant*);
* a server write transmits the new value only when it escapes the cached
  range (*unsolicited refresh*);
* on a miss the server returns the exact value together with a freshly
  optimised width ``k*`` chosen by the expected-cost formula over
  ``k in {0, ..., M}`` (``M`` = the maximum value range).

The protocol runs **independently per data item** of the window (so a site
holds ``O(N)`` approximations) and, in our tree setting, messages are
hop-counted along the path to the source.

Adaptation notes (DESIGN.md §3): read rates per tolerance are estimated from
a per-item window of the last 23 read events; the write rate — identical for
every item, since each arrival shifts the whole window — is estimated from
the last 23 arrivals.  The paper's window of 23 events is kept.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

import numpy as np

from ..core.queries import InnerProductQuery
from ..network.messages import MessageKind
from ..network.topology import Topology
from .base import ReplicationProtocol, per_index_tolerances

__all__ = ["DivergenceCaching", "optimal_refresh_width"]

EVENT_WINDOW = 23  # the window size used in [11] and kept by the paper
#: ``w``, the cost of a control message relative to a data message; the
#: paper prices both alike (§4.1).
CONTROL_COST = 1.0


def optimal_refresh_width(
    read_tolerances: np.ndarray,
    read_rate: float,
    write_rate: float,
    max_range: int,
) -> int:
    """Minimum-expected-cost width ``k`` per the Section 4.1 formulas.

    Parameters
    ----------
    read_tolerances:
        Tolerances (integer bins in ``[0, max_range]``) of the recent reads.
    read_rate:
        Total read arrivals per time unit (all tolerances together).
    write_rate:
        Write arrivals per time unit (``lambda_w``).
    max_range:
        ``M``, the maximum possible range of the data value.

    Returns
    -------
    int
        The width ``k`` in ``{0, ..., M}`` minimising expected cost per unit
        time::

            cost(0)  = lambda_w
            cost(k)  = r(k)(1 + w) + (M - k)/M (lambda_w + r(k)),  0 < k < M
            cost(M)  = (w + 1) * sum_t lambda_{r_t}

        where ``r(k) = sum_{t < k} lambda_{r_t}`` is the rate of *relevant*
        (missing) reads at width ``k`` and ``w`` is :data:`CONTROL_COST`.
    """
    m = int(max_range)
    if m < 1:
        raise ValueError("max_range must be >= 1")
    hist = np.zeros(m + 1, dtype=np.float64)
    tols = np.clip(read_tolerances.astype(np.int64), 0, m)
    if tols.size:
        np.add.at(hist, tols, 1.0)
        hist *= read_rate / tols.size  # convert counts to rates
    # r(k) = rate of reads with tolerance < k, for k = 0..M.
    r = np.concatenate([[0.0], np.cumsum(hist[:m])])
    k = np.arange(m + 1, dtype=np.float64)
    cost = r * (1.0 + CONTROL_COST) + (m - k) / m * (write_rate + r)
    cost[0] = write_rate
    cost[m] = (CONTROL_COST + 1.0) * (read_rate if tols.size else 0.0)
    return int(np.argmin(cost))


class _ClientState:
    """Per-client cached intervals (vectorised over the window's items)."""

    __slots__ = ("lo", "hi", "reads")

    def __init__(self, n_items: int, max_range: float) -> None:
        # Width-M intervals behave exactly like "not cached": every write
        # stays inside, every read with tolerance < M misses.
        self.lo = np.zeros(n_items, dtype=np.float64)
        self.hi = np.full(n_items, max_range, dtype=np.float64)
        self.reads: Dict[int, Deque[Tuple[float, int]]] = {}

    def width(self, item: int) -> float:
        return self.hi[item] - self.lo[item]


class DivergenceCaching(ReplicationProtocol):
    """Divergence Caching over a spanning tree, one scheme per window item."""

    name = "DC"

    def __init__(
        self,
        topology: Topology,
        window_size: int,
        value_range: Tuple[float, float] = (0.0, 100.0),
    ) -> None:
        super().__init__(topology, window_size)
        lo, hi = value_range
        if hi <= lo:
            raise ValueError("value_range must be non-degenerate")
        self.value_low = lo
        self.max_range = int(np.ceil(hi - lo))
        self.clients: Dict[str, _ClientState] = {
            c: _ClientState(window_size, self.max_range) for c in self.topology.clients
        }
        self._arrivals: Deque[float] = deque(maxlen=EVENT_WINDOW)

    # ------------------------------------------------------------- data path

    def _propagate(self, value: float, now: float) -> None:
        """Each arrival rewrites every window item; refresh escaped intervals."""
        self._arrivals.append(now)
        vals = self.window.values_newest_first() - self.value_low
        for client, state in self.clients.items():
            escaped = (vals < state.lo) | (vals > state.hi)
            n = int(np.count_nonzero(escaped))
            if n:
                # Unsolicited refresh: re-centre at the new value, same width.
                widths = state.hi[escaped] - state.lo[escaped]
                state.lo[escaped] = vals[escaped] - widths / 2.0
                state.hi[escaped] = vals[escaped] + widths / 2.0
                self.stats.record(MessageKind.UPDATE, n * self._hops(client))

    # ------------------------------------------------------------ query path

    def on_query(self, client: str, query: InnerProductQuery, now: float = 0.0) -> float:
        if not self.is_warm:
            raise RuntimeError("stream window not yet full; warm up before querying")
        state = self.clients[client]
        tolerances = per_index_tolerances(query)
        hops = self._hops(client)
        answer = 0.0
        self.last_query_hops = 0
        weights = dict(zip(query.indices, query.weights))
        for idx in query.indices:
            tol = tolerances[idx]
            tol_bin = int(min(tol, self.max_range))
            events = state.reads.setdefault(idx, deque(maxlen=EVENT_WINDOW))
            events.append((now, tol_bin))
            if tol >= state.width(idx):
                estimate = self.value_low + (state.lo[idx] + state.hi[idx]) / 2.0
            else:
                # Read miss: fetch the exact value plus a re-optimised width.
                # Per-item fetches run in parallel; latency is one round trip.
                self.stats.record(MessageKind.QUERY, hops)
                self.stats.record(MessageKind.RESPONSE, hops)
                self.last_query_hops = 2 * hops
                estimate = self.window[idx]
                k_star = self._optimise(events, now)
                centre = estimate - self.value_low
                state.lo[idx] = centre - k_star / 2.0
                state.hi[idx] = centre + k_star / 2.0
            answer += weights[idx] * estimate
        return answer

    def _optimise(self, events: Deque[Tuple[float, int]], now: float) -> int:
        read_rate = _rate(len(events), events[0][0] if events else now, now)
        write_rate = _rate(
            len(self._arrivals), self._arrivals[0] if self._arrivals else now, now
        )
        tols = np.array([t for __, t in events], dtype=np.int64)
        return optimal_refresh_width(tols, read_rate, write_rate, self.max_range)

    # --------------------------------------------------------------- metrics

    def approximation_count(self) -> int:
        """O(M N): one interval per client per window item."""
        return len(self.clients) * self.window_size


def _rate(count: int, oldest: float, now: float) -> float:
    """Events per time unit over the observation span (guarded)."""
    if count <= 1:
        return 0.0
    span = max(now - oldest, 1e-9)
    return count / span
