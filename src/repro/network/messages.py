"""Message kinds and cost accounting for the replication experiments.

All three protocols are scored by the same metric the paper uses: the number
of inter-site messages, counted per hop along the spanning tree (the ADR cost
model).  Kinds are tracked separately so experiments can break totals down.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from ..obs import metrics as obs

__all__ = ["MessageKind", "MessageStats"]


class MessageKind:
    """Message taxonomy shared by SWAT-ASR, Divergence Caching, and APS."""

    QUERY = "query"  # read request forwarded one hop toward the source
    RESPONSE = "response"  # answer travelling one hop back to the reader
    UPDATE = "update"  # approximation refresh pushed to a subscriber
    INSERT = "insert"  # replica grant (a site joins a replication scheme)
    UNSUBSCRIBE = "unsubscribe"  # a site leaves a replication scheme

    ALL = (QUERY, RESPONSE, UPDATE, INSERT, UNSUBSCRIBE)

    # Data-bearing kinds cost 1 in the Divergence Caching formula; the rest
    # are control messages with cost ``w``.
    DATA_KINDS = frozenset({RESPONSE, UPDATE, INSERT})

    @classmethod
    def category(cls, kind: str) -> str:
        """Coarse taxonomy for trace annotation: ``"data"`` (costs 1 in the
        DC formula) or ``"control"`` (costs ``w``)."""
        return "data" if kind in cls.DATA_KINDS else "control"


class MessageStats:
    """Per-kind hop counters.

    When observability is on (:mod:`repro.obs`), every recorded hop is
    mirrored into the global registry as ``messages.<kind>`` — labelled
    ``{protocol="..."}`` when the stats object belongs to a protocol.
    :meth:`reset` rewinds exactly what this instance mirrored, so a
    post-warm-up reset also clears this stats object's registry scope.
    """

    def __init__(self, protocol: Optional[str] = None) -> None:
        self.protocol = protocol
        self._labels = {"protocol": protocol} if protocol else {}
        self._counts: Counter = Counter()
        self._mirrored: Counter = Counter()

    def record(self, kind: str, hops: int = 1) -> None:
        if kind not in MessageKind.ALL:
            raise ValueError(f"unknown message kind {kind!r}")
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self._counts[kind] += hops
        if obs.ENABLED and hops:
            obs.counter(f"messages.{kind}", **self._labels).inc(hops)
            self._mirrored[kind] += hops

    def count(self, kind: str) -> int:
        return self._counts[kind]

    @property
    def total(self) -> int:
        """Total messages across all kinds (the paper's cost metric)."""
        return sum(self._counts.values())

    def snapshot(self) -> Dict[str, int]:
        return {kind: self._counts[kind] for kind in MessageKind.ALL}

    def reset(self) -> None:
        """Zero the counters, rewinding any hops mirrored into the registry
        (e.g. the replication harness resetting after warm-up)."""
        if self._mirrored:
            if obs.ENABLED:
                for kind, hops in self._mirrored.items():
                    obs.counter(f"messages.{kind}", **self._labels).inc(-hops)
            self._mirrored.clear()
        self._counts.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"MessageStats({parts or 'empty'})"
