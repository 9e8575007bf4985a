"""asr_tree and fig10_baselines: the fig10a traffic through ``make_protocol``.

One unit builds the 30-client complete binary tree and the protocol, fills
one window of arrivals (set-up), then replays the schedule in the harness's
same-timestamp order: the arrival (every second time unit), one query per
client, then the phase end (every tenth).  ``asr_tree`` runs SWAT-ASR;
``fig10_baselines`` runs DC and then APS over the first half of the same
schedule.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Optional, Sequence

import numpy as np

from repro import InnerProductQuery, Topology, make_protocol

from . import inputs as I
from .common import AnswerDigest, Clock, Spans, UnitResult, call, timed_setup

#: Protocol legend name -> layer name used in span and metric names.
LAYER = {"SWAT-ASR": "asr", "DC": "dc", "APS": "aps"}
KINDS = ("query", "response", "update", "insert", "unsubscribe")
#: Time units between pauses of the measured clock (each runs the speed probe).
PROBE_EVERY = 5


class Prepared:
    def __init__(self, inp: I.ReplicationInputs) -> None:
        self.inp = inp
        self.stream = [float(v) for v in inp.stream]
        self.queries: List[List[InnerProductQuery]] = [
            [
                InnerProductQuery(idx, I.linear_weights(len(idx)), float(prec))
                for idx, prec in zip(row, precisions)
            ]
            for row, precisions in zip(inp.indices, inp.precision)
        ]


def prepare(inp: I.ReplicationInputs) -> Prepared:
    return Prepared(inp)


def run_protocols(
    protocols: Sequence[str], prep: Prepared, spans: Optional[Spans], res: UnitResult,
    digest: AnswerDigest,
) -> None:
    n, period = I.REPL_WINDOW, I.REPL_DATA_PERIOD
    fill_time = float(n * period)
    horizon, clients = len(prep.queries), I.REPL_CLIENTS
    for legend in protocols:
        layer = LAYER[legend]
        on_data, on_query, on_phase = (
            f"replication.{layer}.on_data", f"replication.{layer}.on_query",
            f"replication.{layer}.on_phase_end",
        )
        built: List[Any] = []

        def build() -> None:
            topo = Topology.complete_binary_tree(clients)
            proto = make_protocol(legend, topo, n, value_range=prep.inp.value_range)
            for i in range(n):
                proto.on_data(prep.stream[i], now=float(i * period))
            built[:] = [topo, proto]

        setup_s, raw_setup_s = timed_setup(build)
        res.setup_s += setup_s
        res.raw_setup_s += raw_setup_s
        topo, proto = built

        sites = topo.clients
        base = proto.stats.snapshot()
        answers = np.full((horizon, clients), np.nan)
        raised = np.zeros((horizon, clients), dtype=bool)
        req = 0
        clock = Clock(res, spans)
        for t in range(horizon):
            now = fill_time + t
            if t % period == 0:
                res.attempted += 1
                ts = perf_counter()
                try:
                    call(spans, on_data, req, proto.on_data, prep.stream[n + t // period], now)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    res.fail(f"{legend} on_data t={t}", exc)
                res.ingest_lat.append(perf_counter() - ts)
                res.arrivals += 1
                req += 1
            row = prep.queries[t]
            for c, site in enumerate(sites):
                res.attempted += 1
                ts = perf_counter()
                try:
                    answers[t, c] = call(spans, on_query, req, proto.on_query, site, row[c], now)
                except Exception as exc:  # noqa: BLE001
                    raised[t, c] = True
                    res.fail(f"{legend} on_query t={t} {site}", exc)
                res.query_lat.append(perf_counter() - ts)
                res.hops += proto.last_query_hops
                res.queries += 1
                req += 1
            if t % I.REPL_PHASE_PERIOD == 0:
                res.attempted += 1
                try:
                    call(spans, on_phase, req, proto.on_phase_end, now)
                except Exception as exc:  # noqa: BLE001
                    res.fail(f"{legend} on_phase_end t={t}", exc)
                req += 1
            if t % PROBE_EVERY == PROBE_EVERY - 1:
                clock.pause()
                clock.resume()
        clock.pause()
        clock.finish()

        after = proto.stats.snapshot()
        sent = {k: after.get(k, 0) - base.get(k, 0) for k in KINDS}
        res.messages += sum(sent.values())
        res.layer[f"network.messages.{layer}"] = float(sum(sent.values()))
        if layer == "asr":
            for k in KINDS:
                res.layer[f"network.messages.{k}"] = float(sent[k])
        res.layer[f"replication.{layer}.approximations"] = float(proto.approximation_count())

        # The guarantee every protocol's tests assert: within the query's precision.
        err = np.abs(answers - prep.inp.truth)
        res.err_sum += float(err[~raised].sum())
        res.answered += int(np.count_nonzero(~raised))
        bad = ~raised & ~(err <= prep.inp.precision + 1e-9)
        for t, c in zip(*np.nonzero(bad)):
            res.fail(
                f"{legend} t={t} {sites[c]}: |{float(answers[t, c])!r} - {float(prep.inp.truth[t, c])!r}|"
                f" > precision {prep.inp.precision[t, c]:.3g}"
            )
        digest.add(*answers.ravel().tolist())
        digest.add(float(res.messages), float(res.hops))


class _Workload:
    def __init__(self, name: str, protocols: Sequence[str], horizon: int) -> None:
        self.NAME = name
        self.protocols = tuple(protocols)
        self.horizon = horizon

    def make_inputs(self, seed: int) -> I.ReplicationInputs:
        return I.replication_inputs(seed, self.horizon)

    prepare = staticmethod(prepare)

    def run_unit(self, prep: Prepared, spans: Optional[Spans], workdir: str) -> UnitResult:
        del workdir
        res = UnitResult()
        digest = AnswerDigest()
        run_protocols(self.protocols, prep, spans, res, digest)
        res.digest = digest.hexdigest()
        return res


asr_tree = _Workload("asr_tree", ["SWAT-ASR"], I.REPL_HORIZON)
fig10_baselines = _Workload("fig10_baselines", ["DC", "APS"], I.BASELINE_HORIZON)
