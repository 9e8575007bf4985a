"""SWAT-ASR: adaptive stream replication (Section 3).

The sliding window is partitioned into the ``log N`` directory segments of
Table 1, and each segment runs an independent ADR-style replication scheme
over the spanning tree:

* the *source* always holds the (exact) range of every segment and pushes a
  range update to subscribers only when the fresh range is **not enclosed**
  by the previously stored one (Figure 8(a));
* a *query* is decomposed into per-segment sub-queries; a site satisfies the
  query when the total weighted precision offered by its cached ranges is
  within the query's delta, otherwise the whole query travels one hop toward
  the source (one query message and one response per hop);
* at each *phase end* (Figure 8(b)) replication fringes contract where
  writes outran local reads, and schemes expand toward children whose reads
  outran writes.

Precision is monotone: the range cached for a segment never gets tighter as
one descends the tree, exactly as in the Section 3 walk-through
(:func:`repro.contracts.check_asr`).

The per-row rules themselves live in :mod:`repro.network.directory`; this
runtime only moves their messages, as direct recursive calls counted per hop.
"""

from __future__ import annotations

import logging
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .. import contracts
from ..core.queries import InnerProductQuery
from ..core.swat import Swat
from ..network.directory import Directory, Segment
from ..network.messages import MessageKind
from ..network.topology import Topology
from ..obs import causal as causal_mod
from ..obs.causal import TraceContext
from .base import ReplicationProtocol

__all__ = ["SwatAsr"]

logger = logging.getLogger("repro.replication.asr")


class SwatAsr(ReplicationProtocol):
    """The paper's SWAT-ASR protocol over a spanning tree.

    Parameters
    ----------
    topology:
        Spanning tree with the stream source at the root.
    window_size:
        Sliding window size ``N`` (power of two).
    """

    name = "SWAT-ASR"

    def __init__(
        self,
        topology: Topology,
        window_size: int,
        check_invariants: Optional[bool] = None,
    ) -> None:
        """Segment ranges are the exact min/max over the source's raw window.

        The source also maintains a SWAT over the stream (the paper's
        central site does by definition), which feeds the ``swat.*``
        metrics of :mod:`repro.obs`; ranges do not read it."""
        super().__init__(topology, window_size)
        self.sites: Dict[str, Directory] = {
            node: Directory(window_size) for node in topology.nodes
        }
        self._segments = self.sites[topology.root].segments
        self._check_invariants = contracts.resolve_check_flag(check_invariants)
        self._summary = Swat(window_size, check_invariants=self._check_invariants)

    # ------------------------------------------------------------- data path

    def on_data(self, value: float, now: float = 0.0) -> None:
        # The source's summary tree sees every arrival from the start, so it
        # is warm by the time the window fills and propagation begins.
        self._summary.update(float(value))
        super().on_data(value, now)

    def _propagate(self, value: float, now: float) -> None:
        """Refresh every segment range at the source; push non-enclosed changes."""
        root_span, ctx = causal_mod.open_span(
            self.causal, "update", at=now, site=self.topology.root, protocol=self.name
        )
        for seg in self._segments:
            rng = self.window.segment_range(seg.newest, seg.oldest)
            self._apply_update(self.topology.root, seg, rng, at=now, ctx=ctx)
        if root_span is not None:
            root_span.finish(now)
            causal_mod.record_update_trace(self.causal, root_span, self.name)
        if self._check_invariants:
            contracts.check_asr(self)

    def _traced_hop(
        self,
        kind: str,
        src: str,
        dst: str,
        at: float,
        ctx: Optional[TraceContext],
    ) -> Optional[TraceContext]:
        """Record one counted-call hop as a zero-duration span.

        The synchronous model has no transmission delay, so the span opens
        and closes at ``at``; what the trace captures is the *structure* —
        which site pushed or forwarded to which, in what causal order."""
        if ctx is None:
            return None  # untraced: skip building the span's name and labels
        return causal_mod.instant_hop(
            self.causal, f"hop:{kind}", at=at, site=src, parent=ctx, dst=dst,
            category=MessageKind.category(kind),
        )

    def _apply_update(
        self,
        node: str,
        seg: Segment,
        rng: Tuple[float, float],
        at: float = 0.0,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Figure 8(a), update branch, at ``node`` (then cascading down)."""
        row = self.sites[node].row(seg)
        if row.adopt(rng):
            # Sorted: subscriber sets are hash-ordered, and the emission
            # order of cascaded UPDATEs must not depend on PYTHONHASHSEED
            # (REP009).
            for child in sorted(row.subscribed):
                self.stats.record(MessageKind.UPDATE)
                hop_ctx = self._traced_hop(MessageKind.UPDATE, node, child, at, ctx)
                self._apply_update(child, seg, rng, at=at, ctx=hop_ctx)

    # ------------------------------------------------------------ query path

    def on_query(self, client: str, query: InnerProductQuery, now: float = 0.0) -> float:
        """Answer a query issued at ``client`` (Figure 8(a), query branch).

        The query is decomposed into per-segment sub-queries.  A site
        satisfies the query when the *total* weighted precision offered by
        its cached ranges is within the query's ``delta``
        (:meth:`~repro.network.directory.Directory.satisfy`).  Otherwise the
        whole query travels one hop toward the source (one query message and
        one response per hop).
        """
        if client not in self.topology:
            raise KeyError(f"unknown site {client!r}")
        if not self.is_warm:
            raise RuntimeError("stream window not yet full; warm up before querying")
        by_segment = self.sites[client].group(query.indices)
        weights = dict(zip(query.indices, query.weights))
        before = self.stats.count(MessageKind.QUERY)
        root_span, ctx = causal_mod.open_span(
            self.causal, "query", at=now, site=client, protocol=self.name
        )
        estimates = self._query_at(
            client, query, by_segment, weights, from_child=None, at=now, ctx=ctx
        )
        # One query message per hop up and one response per hop back.
        self.last_query_hops = 2 * (self.stats.count(MessageKind.QUERY) - before)
        if root_span is not None:
            root_span.finish(now, hops=self.last_query_hops)
            causal_mod.record_query_trace(self.causal, root_span, self.name)
        return sum(weights[i] * estimates[i] for i in query.indices)

    def _query_at(
        self,
        node: str,
        query: InnerProductQuery,
        by_segment: Mapping[Segment, Sequence[int]],
        weights: Dict[int, float],
        from_child: Optional[str],
        at: float = 0.0,
        ctx: Optional[TraceContext] = None,
    ) -> Dict[int, float]:
        directory = self.sites[node]
        if node == self.topology.root:
            # The source answers exactly from the stream itself.
            for seg in by_segment:
                directory.row(seg).count_read(from_child)
            return {idx: self.window[idx] for idx in query.indices}
        estimates = directory.satisfy(by_segment, weights, query.precision, from_child)
        if estimates is not None:
            return estimates
        parent = self.topology.parent(node)
        assert parent is not None  # the source always satisfies
        self.stats.record(MessageKind.QUERY)
        hop_ctx = self._traced_hop(MessageKind.QUERY, node, parent, at, ctx)
        estimates = self._query_at(
            parent, query, by_segment, weights, from_child=node, at=at, ctx=hop_ctx
        )
        self.stats.record(MessageKind.RESPONSE)
        # The response chains under the forward hop that provoked it, so the
        # trace reads request-then-response exactly as the async runtime's.
        self._traced_hop(MessageKind.RESPONSE, parent, node, at, hop_ctx)
        return estimates

    # ------------------------------------------------------------- phase end

    def on_phase_end(self, now: float = 0.0) -> None:
        """Figure 8(b): contraction then expansion tests, then counter reset."""
        phase_span, ctx = causal_mod.open_span(
            self.causal, "phase", at=now, site=self.topology.root, protocol=self.name
        )
        # Contraction, deepest sites first, so a chain can shrink in one phase.
        for node in sorted(self.topology.clients, key=self.topology.depth, reverse=True):
            for seg in self._segments:
                row = self.sites[node].row(seg)
                if row.should_contract():
                    logger.debug(
                        "phase end t=%g: %s contracts segment %s (reads=%d < writes=%d)",
                        now, node, seg, row.local_reads, row.write_count,
                    )
                    row.approx = None
                    self.stats.record(MessageKind.UNSUBSCRIBE)
                    parent = self.topology.parent(node)
                    assert parent is not None
                    self._traced_hop(MessageKind.UNSUBSCRIBE, node, parent, now, ctx)
                    self.sites[parent].row(seg).subscribed.discard(node)
        # Expansion at every site still holding a copy (the source always does).
        for node in self.topology.nodes:
            for seg in self._segments:
                row = self.sites[node].row(seg)
                for child, kind in row.expand():
                    assert row.approx is not None  # only a held copy expands
                    if kind == MessageKind.INSERT:
                        logger.debug(
                            "phase end t=%g: scheme for segment %s expands %s -> %s "
                            "(reads=%d > writes=%d)",
                            now, seg, node, child, row.read_counts[child], row.write_count,
                        )
                    # Both kinds land through the child's write rule.
                    self.stats.record(kind)
                    hop_ctx = self._traced_hop(kind, node, child, now, ctx)
                    self._apply_update(child, seg, row.approx, at=now, ctx=hop_ctx)
        if phase_span is not None:
            phase_span.finish(now)
        for node in self.topology.nodes:
            self.sites[node].reset_counts()
        if self._check_invariants:
            contracts.check_asr(self)

    # --------------------------------------------------------------- metrics

    def approximation_count(self) -> int:
        """Total cached approximations across client sites plus the source's."""
        total = sum(
            self.sites[node].cached_count() for node in self.topology.clients
        )
        return total + len(self._segments)  # the source always holds them all
