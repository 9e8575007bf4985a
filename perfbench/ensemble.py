"""site_ingest: a write-heavy StreamEnsemble under a byte budget, with checkpoints.

One unit builds a 32-stream ensemble, fills one window (set-up), attaches a
governor whose budget sits below the natural footprint, then replays the
schedule: per 32-tick column block one ``extend_columns`` request and four
``answer_batch`` dashboard refreshes of a fixed query panel, each on the
next stream in turn, and every N ticks a checkpoint of
every tree (``write_checkpoint``) restored once (``load_checkpoint`` +
``Swat.from_state``).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro import InnerProductQuery, StreamEnsemble, Swat
from repro.control.governor import ResourceGovernor, query_error_bound
from repro.persist import load_checkpoint, write_checkpoint

from . import inputs as I
from .common import AnswerDigest, Clock, Spans, UnitResult, call, exact_history, timed_setup

NAME = "site_ingest"
make_inputs = I.ensemble_inputs


class TimedGovernor:
    """The governor handed to ``attach_governor``: spans its phase steps."""

    def __init__(self, inner: ResourceGovernor) -> None:
        self.inner = inner
        self.spans: Optional[Spans] = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def on_phase(self, phase_index: int) -> bool:
        return bool(call(self.spans, "control.governor.on_phase", None, self.inner.on_phase, phase_index))


class Prepared:
    def __init__(self, inp: I.EnsembleInputs) -> None:
        n, b = I.ENSEMBLE_WINDOW, I.ENSEMBLE_BLOCK
        self.inp = inp
        self.names = [f"s{i:02d}" for i in range(I.ENSEMBLE_STREAMS)]
        self.fill = {name: inp.data[i, :n] for i, name in enumerate(self.names)}
        self.blocks = [
            {name: inp.data[i, n + k * b : n + (k + 1) * b] for i, name in enumerate(self.names)}
            for k in range(I.ENSEMBLE_BLOCKS)
        ]
        panel = [InnerProductQuery(idx, w) for idx, w in inp.panel]
        # Per block, the dashboard refreshes: the panel on the next streams in turn.
        self.dashboards = [
            [
                {self.names[(blk * I.DASHBOARD_REQUESTS + r) % len(self.names)]: panel}
                for r in range(I.DASHBOARD_REQUESTS)
            ]
            for blk in range(I.ENSEMBLE_BLOCKS)
        ]
        self.probe = InnerProductQuery(*inp.probe)


def prepare(inp: I.EnsembleInputs) -> Prepared:
    return Prepared(inp)


class _Unit:
    """One unit's state: the ensemble under test plus the measuring harness."""

    def __init__(self, prep: Prepared, spans: Optional[Spans], workdir: str) -> None:
        self.prep, self.spans, self.workdir = prep, spans, workdir
        self.res = UnitResult()
        self.digest = AnswerDigest()
        self.req = 0
        built: List[Any] = []

        def build() -> None:
            ens = StreamEnsemble(I.ENSEMBLE_WINDOW, k=I.ENSEMBLE_K)
            for name in prep.names:
                ens.add_stream(name)
            ens.extend_columns(prep.fill)
            governor = TimedGovernor(
                ResourceGovernor(int(ens.ledger.total * I.GOVERNOR_BUDGET_SHARE))
            )
            ens.attach_governor(governor)  # type: ignore[arg-type]
            built[:] = [ens, governor]

        self.res.setup_s, self.res.raw_setup_s = timed_setup(build)
        self.ens, self.governor = built
        self.clock = Clock(self.res, spans)  # starts the measured phase

    def ingest(self, blk: int, cols: Dict[str, np.ndarray]) -> None:
        res = self.res
        res.attempted += 1
        t = perf_counter()
        try:
            call(self.spans, "core.multi.extend_columns", self.req, self.ens.extend_columns, cols)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            res.fail(f"extend_columns block {blk}", exc)
        res.ingest_lat.append(perf_counter() - t)
        res.arrivals += I.ENSEMBLE_BLOCK * len(cols)
        self.req += 1

    def dashboard(self, blk: int, batch: Dict[str, List[InnerProductQuery]], seen: int) -> None:
        """One answer_batch request, then its answers checked against §2.6."""
        res = self.res
        res.attempted += 1
        t = perf_counter()
        try:
            answers = call(self.spans, "core.multi.answer_batch", self.req, self.ens.answer_batch, batch)
        except Exception as exc:  # noqa: BLE001
            res.fail(f"answer_batch block {blk}", exc)
            answers = {}
        res.query_lat.append(perf_counter() - t)
        self.req += 1
        self.clock.pause()
        for name, queries in batch.items():
            res.queries += len(queries)
            got = answers.get(name, [])
            if len(got) != len(queries):
                res.fail(f"answer_batch block {blk}: {len(got)} answers for {len(queries)} queries")
                continue
            row = self.prep.inp.data[self.prep.names.index(name)]
            hist = exact_history(row, seen, I.ENSEMBLE_WINDOW)
            tree = self.ens.tree(name)
            for q, a in zip(queries, got):
                exact = float(np.dot(q.weights, hist[list(q.indices)]))
                res.check_bound(f"{name} block {blk}", a.value, exact, query_error_bound(tree, hist, q))
                self.digest.add(a.value)
        self.clock.resume()

    def checkpoint_round(self) -> None:
        """Checkpoint every tree, restore each once, compare a probe answer."""
        res, probe = self.res, self.prep.probe
        for name in self.prep.names:
            tree = self.ens.tree(name)
            path = os.path.join(self.workdir, f"{name}.ckpt")
            res.attempted += 2
            try:
                nbytes = call(self.spans, "persist.write_checkpoint", self.req,
                              lambda: write_checkpoint(path, "swat", tree.to_state()))
                restored = call(self.spans, "persist.restore", self.req,
                                lambda: Swat.from_state(load_checkpoint(path, "swat")[0]))
            except Exception as exc:  # noqa: BLE001
                res.fail(f"checkpoint {name}", exc)
                continue
            self.req += 1
            res.layer["persist.write_checkpoint.bytes"] += nbytes
            self.clock.pause()
            live, back = tree.answer(probe), restored.answer(probe)
            if live.value != back.value or not np.array_equal(live.estimates, back.estimates):
                res.fail(f"restore {name}: probe {back.value!r} != live {live.value!r}")
            self.clock.resume()


def run_unit(prep: Prepared, spans: Optional[Spans], workdir: str) -> UnitResult:
    unit = _Unit(prep, spans, workdir)
    res, ens, governor = unit.res, unit.ens, unit.governor
    reconfigs0 = governor.inner.reconfig_count
    res.layer["persist.write_checkpoint.bytes"] = 0.0
    governor.spans = spans
    seen = I.ENSEMBLE_WINDOW
    for blk, cols in enumerate(prep.blocks):
        unit.ingest(blk, cols)
        seen += I.ENSEMBLE_BLOCK
        for batch in prep.dashboards[blk]:
            unit.dashboard(blk, batch, seen)
        if (blk + 1) % I.CHECKPOINT_EVERY_BLOCKS == 0:
            unit.checkpoint_round()
    unit.clock.pause()
    unit.clock.finish()
    governor.spans = None

    res.digest = unit.digest.hexdigest()
    res.layer.update({
        "core.multi.values": float(res.arrivals),
        "control.governor.reconfigs": float(governor.inner.reconfig_count - reconfigs0),
        "control.ledger_bytes": float(ens.ledger.total),
    })
    for c in ("hits", "misses", "fallbacks"):
        res.layer[f"core.engine.{c}"] = float(
            sum(getattr(ens.engine(name), c, 0) for name in prep.names)
        )
    close = getattr(ens, "close", None)  # releases the serving thread pool, if any
    if callable(close):
        close()
    return res
