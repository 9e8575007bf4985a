"""Multiple streams: the Section 6 future-work direction.

"Our future work will explore possible variations of the proposed technique
in case of multiple streams.  We plan to develop efficient techniques to
find correlations over multiple data streams."

:class:`StreamEnsemble` maintains one SWAT per stream and estimates pairwise
Pearson correlation **from the summaries alone** (reconstructed windows), so
correlation monitoring costs ``O(k log N)`` memory per stream instead of
``O(N)``.

Serving goes through one lazily created
:class:`~repro.core.engine.QueryEngine` per stream (plan-cached reads);
:meth:`StreamEnsemble.answer_all` / :meth:`StreamEnsemble.answer_batch`
serve the streams one after another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..control.accounting import MemoryLedger
from ..control.shedding import ArrivalQueue
from ..obs import causal as causal_mod
from ..obs import metrics as obs
from .engine import QueryEngine
from .errors import MAX_STREAM_MAGNITUDE, require_finite
from .queries import InnerProductQuery
from .swat import QueryAnswer, Swat

if TYPE_CHECKING:
    from ..control.governor import ResourceGovernor

__all__ = ["StreamEnsemble"]


class StreamEnsemble:
    """A set of synchronized streams summarized by per-stream SWATs.

    Parameters
    ----------
    window_size:
        Sliding window size shared by all streams.
    k:
        Coefficients per node for each summary (more coefficients give
        sharper correlation estimates).
    """

    def __init__(self, window_size: int, k: int = 4) -> None:
        self.window_size = window_size
        self.k = k
        self._trees: Dict[str, Swat] = {}
        self._engines: Dict[str, QueryEngine] = {}
        self.causal = causal_mod.current_causal()
        # Resource-control plumbing (repro.control): the ledger tracks
        # per-stream summary bytes (refreshed on block ingest and at phase
        # boundaries — never per arrival); governor/queue stay None unless
        # attached, and a None value is free on the hot paths.
        self.ledger = MemoryLedger()
        self.governor: Optional["ResourceGovernor"] = None
        self._arrival_queue: Optional[ArrivalQueue] = None
        self._ticks = 0

    # ------------------------------------------------------------ management

    def add_stream(self, name: str) -> Swat:
        """Register a new stream; returns its summary tree."""
        if name in self._trees:
            raise ValueError(f"stream {name!r} already registered")
        tree = Swat(self.window_size, k=self.k)
        self._trees[name] = tree
        self.ledger.set(name, tree.nbytes)
        return tree

    def remove_stream(self, name: str) -> None:
        if name not in self._trees:
            raise KeyError(f"no stream {name!r}")
        del self._trees[name]
        self._engines.pop(name, None)
        self.ledger.drop(name)

    # ------------------------------------------------------ resource control

    def attach_governor(self, governor: "ResourceGovernor") -> None:
        """Attach a resource governor; it runs at every phase boundary.

        The governor immediately takes one step (phase 0), so an
        over-budget initial configuration is corrected before any data
        arrives — the budget holds for the *whole* run, not just from the
        first boundary.
        """
        governor.bind(self)
        self.governor = governor
        governor.on_phase(self._ticks // max(1, self.window_size >> 1))

    def attach_shedding(self, queue_capacity_ticks: int) -> None:
        """Enable load shedding through a bounded arrival queue.

        Producers then call :meth:`offer_columns` / :meth:`ingest_pending`
        instead of :meth:`extend_columns`; overflow ticks are dropped
        deterministically (newest first) and counted under ``shed.*``.
        """
        self._arrival_queue = ArrivalQueue(queue_capacity_ticks)

    @property
    def arrival_queue(self) -> Optional[ArrivalQueue]:
        """The bounded ingest queue, when shedding is attached."""
        return self._arrival_queue

    @property
    def ticks(self) -> int:
        """Synchronized ticks ingested so far (the ensemble arrival clock)."""
        return self._ticks

    def refresh_ledger(self) -> None:
        """Re-read every stream's exact byte count into the ledger.

        One walk per stream — called at phase boundaries and by the
        governor around reconfigurations, never per arrival.
        """
        for name, tree in self._trees.items():
            self.ledger.set(name, tree.nbytes)

    def offer_columns(self, columns: Mapping[str, Sequence[float]]) -> int:
        """Offer a column block to the bounded arrival queue (shedding mode).

        Returns how many ticks were accepted; the rest were shed.  Call
        :meth:`ingest_pending` to drain accepted ticks into the summaries.
        """
        if self._arrival_queue is None:
            raise RuntimeError(
                "no arrival queue attached (use attach_shedding(queue_capacity_ticks=...))"
            )
        missing = set(self._trees) - set(columns)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(columns) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        return self._arrival_queue.offer(columns)

    def ingest_pending(self) -> int:
        """Drain the arrival queue into the summaries; returns ticks ingested."""
        if self._arrival_queue is None:
            return 0
        total = 0
        for block in self._arrival_queue.drain():
            if not block:
                continue
            n = int(next(iter(block.values())).size)
            self.extend_columns(block)
            total += n
        return total

    def _after_ingest(self, before: int, after: int) -> None:
        """Run phase-boundary hooks for every boundary the ingest crossed."""
        half = self.window_size >> 1
        if half <= 0 or (after // half) == (before // half):
            return
        for phase in range(before // half + 1, after // half + 1):
            if self.governor is not None:
                self.governor.on_phase(phase)
            else:
                self.refresh_ledger()
            self._publish_stream_gauges()

    def _publish_stream_gauges(self) -> None:
        """Per-stream shape/size gauges for ``repro stats`` (phase-boundary)."""
        if obs.ENABLED:
            for name, tree in self._trees.items():
                obs.gauge("ensemble.stream.nbytes", stream=name).set(
                    float(self.ledger.get(name))
                )
                obs.gauge("ensemble.stream.k", stream=name).set(float(tree.k))
                obs.gauge("ensemble.stream.min_level", stream=name).set(
                    float(tree.min_level)
                )

    @property
    def streams(self) -> List[str]:
        return sorted(self._trees)

    def tree(self, name: str) -> Swat:
        return self._trees[name]

    def __len__(self) -> int:
        return len(self._trees)

    @property
    def memory_coefficients(self) -> int:
        """Total coefficients across all summaries."""
        return sum(t.memory_coefficients for t in self._trees.values())

    # --------------------------------------------------------------- updates

    def update(self, values: Mapping[str, float]) -> None:
        """Ingest one synchronized tick: ``{stream_name: value}``.

        Every registered stream must receive a value each tick so windows
        stay aligned (correlation needs index-aligned reconstructions).  The
        whole tick is validated before any tree ingests, so a rejected tick
        leaves every stream unchanged.
        """
        missing = set(self._trees) - set(values)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(values) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        tick = np.array([float(v) for v in values.values()], dtype=np.float64)
        require_finite(tick, limit=MAX_STREAM_MAGNITUDE)
        for name, value in zip(values, tick):
            self._trees[name].update(value)
        self._ticks += 1
        self._after_ingest(self._ticks - 1, self._ticks)

    def extend(self, rows: Iterable[Mapping[str, float]]) -> None:
        """Ingest many synchronized ticks given row-wise (``{name: value}``).

        Rows are transposed into per-stream columns so each tree ingests its
        whole column through :meth:`Swat.extend`'s batched fast path; the
        per-tick validation of :meth:`update` still applies to every row.
        """
        materialized = list(rows)
        if not materialized:
            return
        registered = set(self._trees)
        for row in materialized:
            missing = registered - set(row)
            if missing:
                raise ValueError(f"missing values for streams {sorted(missing)}")
            unknown = set(row) - registered
            if unknown:
                raise KeyError(f"unknown streams {sorted(unknown)}")
        columns = {
            name: np.fromiter(
                (float(row[name]) for row in materialized),
                dtype=np.float64,
                count=len(materialized),
            )
            for name in self._trees
        }
        self.extend_columns(columns)

    def extend_columns(self, columns: Mapping[str, Sequence[float]]) -> None:
        """Ingest a block of synchronized ticks given column-wise.

        ``columns`` maps every registered stream to an equal-length block of
        values (tick ``i`` of each block is one synchronized row).  The trees
        are independent, so each column goes straight through the batched
        :meth:`Swat.extend` — the natural layout for bulk replay from
        columnar sources.  Every value of the block is validated before the
        first tree ingests, so a rejected block leaves every stream
        unchanged.
        """
        missing = set(self._trees) - set(columns)
        if missing:
            raise ValueError(f"missing values for streams {sorted(missing)}")
        unknown = set(columns) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        blocks = {
            name: np.asarray(col, dtype=np.float64).reshape(-1)
            for name, col in columns.items()
        }
        lengths = {b.size for b in blocks.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"column lengths differ: {sorted(len(blocks[n]) for n in sorted(blocks))} "
                "— synchronized streams need one value per tick for every stream"
            )
        n_ticks = int(next(iter(blocks.values())).size) if blocks else 0
        if blocks:
            require_finite(
                np.concatenate(list(blocks.values())), limit=MAX_STREAM_MAGNITUDE
            )
        for name, block in blocks.items():
            tree = self._trees[name]
            tree.extend(block)
            self.ledger.set(name, tree.nbytes)
        before = self._ticks
        self._ticks += n_ticks
        self._after_ingest(before, self._ticks)

    # --------------------------------------------------------------- serving

    def engine(self, name: str) -> QueryEngine:
        """The stream's plan-cached query engine (created lazily)."""
        eng = self._engines.get(name)
        if eng is None:
            eng = QueryEngine(self._trees[name])
            self._engines[name] = eng
        return eng

    def _serve(
        self,
        span_name: str,
        queries_by_stream: Mapping[str, Sequence[InnerProductQuery]],
    ) -> Dict[str, List[QueryAnswer]]:
        """Serve per-stream batches through each stream's engine, in name order."""
        names = sorted(queries_by_stream)
        unknown = set(names) - set(self._trees)
        if unknown:
            raise KeyError(f"unknown streams {sorted(unknown)}")
        total = sum(len(queries_by_stream[n]) for n in names)
        _t0 = causal_mod.block_start(self.causal)
        root, _ = causal_mod.open_span(
            self.causal, span_name, at=_t0, site="ensemble", streams=len(names), queries=total
        )
        results = {n: self.engine(n).answer_batch(queries_by_stream[n]) for n in names}
        if _t0 is not None:
            if obs.ENABLED:
                obs.histogram(
                    "ensemble.batch_size", buckets=obs.BATCH_BUCKETS
                ).observe(total)
            causal_mod.block_finish(_t0, None, self.causal, root)
        return results

    def answer_all(self, query: InnerProductQuery) -> Dict[str, QueryAnswer]:
        """Answer one query against every stream.

        Answers are bit-identical to ``tree(name).answer(query)``.
        """
        if not self._trees:
            return {}
        batches = {name: [query] for name in self._trees}
        grouped = self._serve("ensemble.answer_all", batches)
        return {name: answers[0] for name, answers in grouped.items()}

    def answer_batch(
        self, queries_by_stream: Mapping[str, Sequence[InnerProductQuery]]
    ) -> Dict[str, List[QueryAnswer]]:
        """Answer per-stream query batches.

        ``queries_by_stream`` maps stream names to their query lists; streams
        not mentioned are not served.  Within each stream the answers come
        from :meth:`QueryEngine.answer_batch`, so they are bit-identical to
        sequential scalar :meth:`Swat.answer` calls.
        """
        if not queries_by_stream:
            return {}
        return self._serve("ensemble.answer_batch", queries_by_stream)

    # ----------------------------------------------------------- correlation

    def correlation(self, a: str, b: str, length: Optional[int] = None) -> float:
        """Pearson correlation of streams ``a`` and ``b`` from their summaries.

        ``length`` restricts the estimate to the most recent ``length``
        indices (defaults to the full window) — recent correlation is exactly
        the recency-biased question the summaries are good at.
        """
        ta, tb = self._trees[a], self._trees[b]
        n = min(ta.size, tb.size)
        if length is not None:
            if length < 2:
                raise ValueError("length must be >= 2")
            n = min(n, length)
        if n < 2:
            raise ValueError("not enough data for a correlation estimate")
        idx = list(range(n))
        # Engine estimates are bit-identical to tree.estimates and plan-cache
        # the fixed prefix shape across correlation_matrix's O(S^2) pairs.
        xa = self.engine(a).estimates(idx)
        xb = self.engine(b).estimates(idx)
        sa, sb = xa.std(), xb.std()
        # Reconstruction of a constant stream carries ~1e-15 float noise;
        # treat (relatively) negligible variance as "no signal".
        if sa <= 1e-9 * (1.0 + abs(float(xa.mean()))) or sb <= 1e-9 * (
            1.0 + abs(float(xb.mean()))
        ):
            return 0.0
        return float(np.corrcoef(xa, xb)[0, 1])

    def correlation_matrix(self, length: Optional[int] = None) -> Tuple[List[str], np.ndarray]:
        """All pairwise correlations; returns (names, matrix)."""
        names = self.streams
        m = np.eye(len(names))
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                m[i, j] = m[j, i] = self.correlation(a, names[j], length=length)
        return names, m

    def most_correlated(self, name: str, length: Optional[int] = None) -> Tuple[str, float]:
        """The stream most correlated with ``name`` (absolute value)."""
        others = [s for s in self.streams if s != name]
        if not others:
            raise ValueError("need at least two streams")
        best = max(others, key=lambda o: abs(self.correlation(name, o, length=length)))
        return best, self.correlation(name, best, length=length)
