"""Adaptive Precision Setting (Olston, Widom & Loo; Section 4.2).

Caches an interval ``[L, H]`` per client per window item:

* **value-initiated refresh** — when a write moves the value outside the
  cached interval, the server ships a re-centred interval *enlarged* by
  ``(1 + alpha)``;
* **query-initiated refresh** — when a read's precision requirement beats
  the cached width, the query goes to the server, which ships a re-centred
  interval *shrunk* by ``(1 + alpha)``.

The paper runs it with the recommended settings ``alpha = 1``,
``tau_inf = inf``, ``tau_0 = 2``, ``p = 1``, and so does this class (they
are the constants :data:`ALPHA` and :data:`TAU_0`; an infinite ``tau_inf``
caps nothing): widths double under write pressure and halve under read
pressure; widths below ``tau_0`` snap to exact caching, and growth from an
exact cache restarts at ``tau_0`` (the interval must widen for the scheme to
adapt, per the paper's description of APS "choosing bigger intervals that
approach the upper threshold").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.queries import InnerProductQuery
from ..network.messages import MessageKind
from ..network.topology import Topology
from ..obs import causal as causal_mod
from ..obs.causal import Span, TraceContext
from .base import ReplicationProtocol, per_index_tolerances

__all__ = ["AdaptivePrecision"]

#: Width growth/shrink factor is ``1 + ALPHA`` (§4.2's recommended alpha).
ALPHA = 1.0
#: Lower width threshold: narrower intervals snap to exact caching.
TAU_0 = 2.0


class AdaptivePrecision(ReplicationProtocol):
    """APS over a spanning tree, one cached interval per window item."""

    name = "APS"

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
        self.max_range = hi - lo
        # Per client: interval bounds per item.  Width == max_range behaves
        # like an uncached item (no write ever escapes, tight reads miss).
        self.lo: Dict[str, np.ndarray] = {}
        self.hi: Dict[str, np.ndarray] = {}
        for c in topology.clients:
            self.lo[c] = np.zeros(window_size, dtype=np.float64)
            self.hi[c] = np.full(window_size, self.max_range, dtype=np.float64)

    # ------------------------------------------------------------- data path

    def _propagate(self, value: float, now: float) -> None:
        vals = self.window.values_newest_first() - self.value_low
        root_span: Optional[Span] = None
        ctx: Optional[TraceContext] = None
        for client in self.topology.clients:
            lo, hi = self.lo[client], self.hi[client]
            escaped = (vals < lo) | (vals > hi)
            n = int(np.count_nonzero(escaped))
            if n:
                widths = hi[escaped] - lo[escaped]
                new_widths = np.maximum(widths * (1.0 + ALPHA), TAU_0)
                new_widths = np.minimum(new_widths, self.max_range)
                lo[escaped] = vals[escaped] - new_widths / 2.0
                hi[escaped] = vals[escaped] + new_widths / 2.0
                hops = self._hops(client)
                self.stats.record(MessageKind.UPDATE, n * hops)
                if self.causal is not None:
                    # One value-initiated refresh trace per arrival; each
                    # client's refresh batch is a single logical hop span
                    # annotated with its item count and tree distance.
                    if root_span is None:
                        root_span, ctx = causal_mod.open_span(
                            self.causal, "update", at=now, site=self.topology.root,
                            protocol=self.name,
                        )
                    causal_mod.instant_hop(
                        self.causal, f"hop:{MessageKind.UPDATE}", at=now,
                        site=self.topology.root, parent=ctx, dst=client,
                        items=n, hops=hops,
                        category=MessageKind.category(MessageKind.UPDATE),
                    )
        if root_span is not None:
            root_span.finish(now)
            causal_mod.record_update_trace(self.causal, root_span, self.name)

    # ------------------------------------------------------------ query path

    def on_query(self, client: str, query: InnerProductQuery, now: float = 0.0) -> float:
        if not self.is_warm:
            raise RuntimeError("stream window not yet full; warm up before querying")
        tolerances = per_index_tolerances(query)
        lo, hi = self.lo[client], self.hi[client]
        hops = self._hops(client)
        answer = 0.0
        self.last_query_hops = 0
        weights = dict(zip(query.indices, query.weights))
        root_span, ctx = causal_mod.open_span(
            self.causal, "query", at=now, site=client, protocol=self.name
        )
        for idx in query.indices:
            width = hi[idx] - lo[idx]
            if width <= tolerances[idx]:
                estimate = self.value_low + (lo[idx] + hi[idx]) / 2.0
            else:
                # Query-initiated refresh: shrink around the exact value.
                # Per-item fetches run in parallel; latency is one round trip.
                self.stats.record(MessageKind.QUERY, hops)
                self.stats.record(MessageKind.RESPONSE, hops)
                self.last_query_hops = 2 * hops
                if self.causal is not None:
                    fwd = causal_mod.instant_hop(
                        self.causal, f"hop:{MessageKind.QUERY}", at=now, site=client,
                        parent=ctx, dst=self.topology.root, item=idx, hops=hops,
                        category=MessageKind.category(MessageKind.QUERY),
                    )
                    causal_mod.instant_hop(
                        self.causal, f"hop:{MessageKind.RESPONSE}", at=now,
                        site=self.topology.root, parent=fwd, dst=client,
                        item=idx, hops=hops,
                        category=MessageKind.category(MessageKind.RESPONSE),
                    )
                estimate = self.window[idx]
                new_width = width / (1.0 + ALPHA)
                if new_width < TAU_0:
                    new_width = 0.0  # exact caching
                centre = estimate - self.value_low
                lo[idx] = centre - new_width / 2.0
                hi[idx] = centre + new_width / 2.0
            answer += weights[idx] * estimate
        if root_span is not None:
            root_span.finish(now, hops=self.last_query_hops)
            causal_mod.record_query_trace(self.causal, root_span, self.name)
        return answer

    # --------------------------------------------------------------- metrics

    def approximation_count(self) -> int:
        """O(M N): one interval per client per window item."""
        return len(self.topology.clients) * self.window_size
