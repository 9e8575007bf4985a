"""The general Adaptive Data Replication algorithm (Wolfson, Jajodia &
Huang, TODS 1997) — the algorithmic basis of SWAT-ASR (Section 3).

SWAT-ASR specialises ADR: the source is always in the replication scheme and
only the source writes, so the *switch* test disappears.  This module
implements the general, single-object algorithm on a tree — reads and writes
may originate anywhere, and the replication scheme ``R`` (a connected
subtree) expands toward readers, contracts away from writers, and can switch
wholesale to a neighbour when it is a singleton.  It is exercised directly
by tests/benchmarks and serves as the reference against which the
SWAT-ASR specialisation was written.

Cost model (the ADR paper's): every message travelling one tree edge costs
one unit.  A read travels from its origin to the closest replica; a write
travels to ``R`` and then floods every edge of ``R``'s subtree.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set

from ..network.topology import Topology
from ..obs import causal as causal_mod
from ..obs.causal import TraceContext

__all__ = ["AdrObject"]

logger = logging.getLogger("repro.replication.adr")


class _NodeCounters:
    """Per-phase traffic counters at one replica node, per adjacent edge."""

    __slots__ = ("reads", "writes", "local_reads", "local_writes")

    def __init__(self) -> None:
        self.reads: Dict[str, int] = {}
        self.writes: Dict[str, int] = {}
        self.local_reads = 0
        self.local_writes = 0

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()
        self.local_reads = 0
        self.local_writes = 0

    def total_writes(self) -> int:
        return self.local_writes + sum(self.writes.values())

    def writes_except(self, neighbour: str) -> int:
        return self.total_writes() - self.writes.get(neighbour, 0)


class AdrObject:
    """A single replicated object under ADR on a tree.

    Parameters
    ----------
    topology:
        The tree of sites (any node may read or write).
    initial_replicas:
        Initial replication scheme; must induce a connected subtree.
        Defaults to just the tree root.
    """

    def __init__(self, topology: Topology, initial_replicas: Optional[Set[str]] = None) -> None:
        self.topology = topology
        if initial_replicas is None:
            replicas = {topology.root}
        else:
            replicas = set(initial_replicas)
        self._check_connected(replicas)
        self.replicas: Set[str] = replicas
        self.value: float = 0.0
        self.messages = 0
        self._counters: Dict[str, _NodeCounters] = {
            n: _NodeCounters() for n in topology.nodes
        }
        # Ambient causal tracer (None when tracing is off): reads and writes
        # become span trees whose hop spans mirror the counted tree edges.
        self.causal = causal_mod.current_causal()

    # ------------------------------------------------------------- structure

    def _check_connected(self, replicas: Set[str]) -> None:
        if not replicas:
            raise ValueError("replication scheme must be non-empty")
        unknown = replicas - set(self.topology.nodes)
        if unknown:
            raise ValueError(f"unknown sites {sorted(unknown)}")
        # Connected iff exactly one member has its parent outside the set.
        heads = [n for n in replicas if self.topology.parent(n) not in replicas]
        if len(heads) != 1:
            raise ValueError(f"replication scheme {sorted(replicas)} is not connected")

    def _neighbours(self, node: str) -> List[str]:
        out = list(self.topology.children(node))
        parent = self.topology.parent(node)
        if parent is not None:
            out.append(parent)
        return out

    def _tree_path(self, a: str, b: str) -> List[str]:
        """The unique tree path from ``a`` to ``b`` (inclusive both ends)."""
        up_a = self.topology.path_to_root(a)
        up_b = self.topology.path_to_root(b)
        in_b = set(up_b)
        lca = next(n for n in up_a if n in in_b)
        head = up_a[: up_a.index(lca) + 1]
        tail = up_b[: up_b.index(lca)]
        return head + tail[::-1]

    def _path_to_replica(self, node: str) -> List[str]:
        """Nodes from ``node`` to the *closest* replica (inclusive both ends).

        ``R`` is connected but need not contain ``node``'s ancestors (after a
        switch it may sit in a sibling subtree), so route to the nearest
        member along unique tree paths.
        """
        if node in self.replicas:
            return [node]
        best: Optional[List[str]] = None
        for replica in self.replicas:
            path = self._tree_path(node, replica)
            if best is None or len(path) < len(best):
                best = path
        assert best is not None  # the replication scheme is never empty
        return best

    @property
    def is_singleton(self) -> bool:
        return len(self.replicas) == 1

    def r_fringe(self) -> Set[str]:
        """Replica nodes with at most one replica neighbour (leaves of R)."""
        out: Set[str] = set()
        for node in self.replicas:
            r_neigh = [v for v in self._neighbours(node) if v in self.replicas]
            if len(r_neigh) <= 1 and len(self.replicas) > 1:
                out.add(node)
        return out

    # --------------------------------------------------------------- traffic

    def read(self, origin: str, at: float = 0.0) -> float:
        """A read at ``origin``: travels to the closest replica."""
        path = self._path_to_replica(origin)
        root_span, ctx = causal_mod.open_span(
            self.causal, "read", at=at, site=origin, protocol="ADR"
        )
        for src, dst in zip(path, path[1:]):
            ctx = causal_mod.instant_hop(
                self.causal, "hop:query", at=at, site=src, parent=ctx, dst=dst
            )
        self.messages += len(path) - 1
        target = path[-1]
        counters = self._counters[target]
        if len(path) == 1:
            counters.local_reads += 1
        else:
            counters.reads[path[-2]] = counters.reads.get(path[-2], 0) + 1
        if root_span is not None:
            root_span.finish(at, served_by=target)
        return self.value

    def write(self, origin: str, value: float, at: float = 0.0) -> None:
        """A write at ``origin``: reaches R, then updates every replica."""
        self.value = float(value)
        path = self._path_to_replica(origin)
        root_span, ctx = causal_mod.open_span(
            self.causal, "write", at=at, site=origin, protocol="ADR"
        )
        for src, dst in zip(path, path[1:]):
            ctx = causal_mod.instant_hop(
                self.causal, "hop:update", at=at, site=src, parent=ctx, dst=dst
            )
        self.messages += len(path) - 1
        entry = path[-1]
        entry_counters = self._counters[entry]
        if len(path) == 1:
            entry_counters.local_writes += 1
        else:
            entry_counters.writes[path[-2]] = entry_counters.writes.get(path[-2], 0) + 1
        # Flood R from the entry point; each R edge carries one message and
        # each receiving replica counts a write from the edge it arrived on.
        # The flood's hop spans branch from the context the envelope arrived
        # under, so the trace mirrors the flood tree.
        visited = {entry}
        flood_ctx: Dict[str, Optional[TraceContext]] = {entry: ctx}
        frontier = [entry]
        while frontier:
            node = frontier.pop()
            for v in self._neighbours(node):
                if v in self.replicas and v not in visited:
                    self.messages += 1
                    flood_ctx[v] = causal_mod.instant_hop(
                        self.causal, "hop:update", at=at, site=node,
                        parent=flood_ctx[node], dst=v,
                    )
                    c = self._counters[v]
                    c.writes[node] = c.writes.get(node, 0) + 1
                    visited.add(v)
                    frontier.append(v)
        if root_span is not None:
            root_span.finish(at, replicas=len(self.replicas))

    # ------------------------------------------------------------- phase end

    def end_phase(self) -> None:
        """Run the expansion, contraction, and switch tests; reset counters.

        Tests follow the ADR paper: an R-neighbour node expands to a
        non-replica neighbour whose reads beat all other writes; an R-fringe
        node contracts when remote writes beat the reads it serves; a
        singleton may switch to the neighbour that dominates its traffic.
        """
        joins: Set[str] = set()
        # Expansion.
        for node in list(self.replicas):
            counters = self._counters[node]
            for v in self._neighbours(node):
                if v in self.replicas:
                    continue
                reads_from_v = counters.reads.get(v, 0)
                writes_other = counters.writes_except(v)
                if reads_from_v > writes_other:
                    logger.debug(
                        "ADR expansion: %s joins R via %s (reads=%d > other writes=%d)",
                        v, node, reads_from_v, writes_other,
                    )
                    joins.add(v)
        self.replicas |= joins
        # Contraction (not for nodes that just joined).
        exits: Set[str] = set()
        for node in self.r_fringe():
            if node in joins:
                continue
            counters = self._counters[node]
            served_reads = counters.local_reads + sum(counters.reads.values())
            r_neigh = [v for v in self._neighbours(node) if v in self.replicas and v not in exits]
            remote_writes = sum(counters.writes.get(v, 0) for v in r_neigh)
            if served_reads < remote_writes and len(self.replicas - exits) > 1:
                logger.debug(
                    "ADR contraction: %s leaves R (served reads=%d < remote writes=%d)",
                    node, served_reads, remote_writes,
                )
                exits.add(node)
        self.replicas -= exits
        # Switch (singleton only).
        if self.is_singleton and not joins and not exits:
            (node,) = self.replicas
            counters = self._counters[node]
            for v in self._neighbours(node):
                traffic_v = counters.writes.get(v, 0) + counters.reads.get(v, 0)
                other = (
                    counters.total_writes()
                    + counters.local_reads
                    + sum(counters.reads.values())
                    - traffic_v
                )
                # ADR's switch test counts every request from v's side,
                # reads and writes alike, against all other traffic.
                if traffic_v > other:
                    logger.debug(
                        "ADR switch: singleton %s hands the object to %s "
                        "(traffic=%d > other traffic=%d)",
                        node, v, traffic_v, other,
                    )
                    self.replicas = {v}
                    self.messages += 1  # ship the object to v
                    break
        self._check_connected(self.replicas)
        for c in self._counters.values():
            c.reset()
