"""Common interface for the three replication protocols of Sections 3-4.

All protocols run on a spanning tree (:class:`repro.network.Topology`) with
the stream source at the root, are driven by three callbacks — ``on_data``
(a new stream value arrives at the source), ``on_query`` (a client issues an
inner-product query with a precision requirement), ``on_phase_end`` (ADR
phase boundary; a no-op for DC and APS) — and are scored by hop-counted
messages in a shared :class:`repro.network.MessageStats`.

Precision allocation: SWAT-ASR tests the *whole* query — the total offered
precision ``sum_i W[i] * width(segment(i))`` against ``delta``, as in the
Section 3 walk-through.  DC and APS run per data item (the paper's setup),
so a query decomposes into per-item reads with weight-proportional
tolerances ``t_i = delta / (M * W[i])`` — the unique per-item split with
``sum_i W[i] * t_i = delta``.  Midpoint answers then err by at most
``delta / 2`` under every protocol.
"""

from __future__ import annotations

import abc

from ..core.errors import MAX_STREAM_MAGNITUDE, require_finite
from ..core.queries import InnerProductQuery
from ..metrics.error import GroundTruthWindow
from ..network.messages import MessageStats
from ..network.topology import Topology
from ..obs import causal as causal_mod

__all__ = ["ReplicationProtocol", "uniform_tolerance", "per_index_tolerances"]


def uniform_tolerance(query: InnerProductQuery) -> float:
    """Per-index range-width threshold ``delta / sum(W)`` for a query."""
    total_w = sum(query.weights)
    if total_w <= 0:
        raise ValueError("query weights must have positive total")
    return query.precision / total_w


def per_index_tolerances(query: InnerProductQuery) -> dict:
    """Weight-proportional per-item read tolerances ``t_i = delta / (M W[i])``.

    High-weight (recent) items get tight tolerances; the allocation is the
    unique per-item split with ``sum_i W[i] * t_i = delta``.
    """
    m = query.length
    out = {}
    for idx, w in zip(query.indices, query.weights):
        if w <= 0:
            raise ValueError("query weights must be positive")
        out[idx] = query.precision / (m * w)
    return out


class ReplicationProtocol(abc.ABC):
    """Base class handling the state shared by all three protocols."""

    name = "base"

    def __init__(self, topology: Topology, window_size: int) -> None:
        self.topology = topology
        self.window_size = window_size
        # Registry mirror is labelled with the protocol's figure-legend name,
        # giving per-protocol ``messages.*{protocol=...}`` counters.
        self.stats = MessageStats(protocol=self.name)
        self.window = GroundTruthWindow(window_size)
        # Round-trip hops of the most recent query (0 = served from cache);
        # the harness turns this into a latency figure.
        self.last_query_hops = 0
        # Causal tracer picked up at construction (None when tracing is off):
        # the disabled hot path is one attribute check per operation.
        self.causal = causal_mod.current_causal()

    @property
    def is_warm(self) -> bool:
        """True once the source has observed a full window."""
        return len(self.window) >= self.window_size

    def on_data(self, value: float, now: float = 0.0) -> None:
        """A new stream value arrives at the source; values outside the
        accepted domain (non-finite, or beyond
        :data:`~repro.core.errors.MAX_STREAM_MAGNITUDE`) are rejected
        (:exc:`ValueError`) before any state changes."""
        require_finite(value, limit=MAX_STREAM_MAGNITUDE)
        self.window.update(value)
        if self.is_warm:
            self._propagate(value, now)

    @abc.abstractmethod
    def _propagate(self, value: float, now: float) -> None:
        """Protocol-specific handling of a (post-warm-up) data arrival."""

    @abc.abstractmethod
    def on_query(self, client: str, query: InnerProductQuery, now: float = 0.0) -> float:
        """A client issues a query; returns the (approximate) answer."""

    def on_phase_end(self, now: float = 0.0) -> None:
        """ADR phase boundary; default no-op (DC and APS are phase-free)."""

    @abc.abstractmethod
    def approximation_count(self) -> int:
        """Cached approximations across all client sites (space metric, §5.1)."""

    def _hops(self, node: str) -> int:
        """Hop distance from ``node`` to the source."""
        return self.topology.depth(node)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.window_size}, sites={len(self.topology)})"
