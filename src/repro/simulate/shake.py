"""Dynamic determinism sanitizer: race detection + schedule perturbation.

The repo's correctness claims (exactly-once dispatch, precision
monotonicity, degraded-answer staleness) assume the discrete-event
simulation is a *function of its seeds* — that no protocol handler's
outcome depends on the incidental order in which same-timestamp events
happen to execute.  This module checks that claim at runtime, two ways:

**Race detection** (:class:`RaceDetector`).  Instrumented shared-state
accesses (:func:`note_read` / :func:`note_write`, guarded by the
module-level :data:`DETECTOR` switch, so the uninstrumented hot path pays
one global read) are tagged with the executing event's id and virtual
timestamp.  Two accesses to the same ``(owner, attribute, key)`` slot at
the same timestamp from different events, at least one a write, are a
**same-timestamp race** — the slot's final value depends on tie-break
order — unless one event is a transitive scheduling ancestor of the other
(a causal chain is ordered by construction).  Accesses from driver code
running between events are sequential and never conflict.

**Schedule perturbation** (:func:`run_shake`, the ``repro shake`` CLI).
The chaos scenario
(:func:`~repro.experiments.distributed.run_chaos_scenario`: binary tree,
seeded drop/duplication/jitter fault plan, one interior-site crash) is
replayed ``K + 1`` times: once with the simulator's FIFO tie-break, then
under ``K`` seeded random permutations of same-timestamp event order
(:class:`~repro.simulate.events.Simulator` ``tiebreak=``).  Every run's
observable outcome — directory state, query outcomes, message statistics,
fault counters, and the causal span-tree *topology* — is fingerprinted
and must be bit-identical.  A divergence is minimized to the seed, the
offending permutation, and the first divergent fingerprint component
(see ``docs/static-analysis.md``, "Determinism sanitizer", for how to
read a report).

The scenario deliberately uses positive latency and jitter: fault rolls
are keyed by message identity (:mod:`repro.network.faults`), so distinct
messages land at distinct real-valued times and the only same-timestamp
batches left are causal chains — any surviving divergence is a genuine
order bug, not scenario noise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .events import Simulator

__all__ = [
    "DETECTOR",
    "RaceDetector",
    "Conflict",
    "note_read",
    "note_write",
    "seeded_tiebreak",
    "run_shake",
    "format_shake_report",
]

#: Process-wide race-detector switch.  ``None`` (the default) keeps every
#: instrumented access at a single global load; install one around a run
#: with :meth:`RaceDetector.install` / :meth:`RaceDetector.uninstall`.
DETECTOR: Optional["RaceDetector"] = None

#: Keep at most this many distinct conflicts per run (the counter keeps
#: counting; the report stays bounded).
MAX_CONFLICTS = 200


def note_read(owner: str, attr: str, key: Hashable = None) -> None:
    """Report a read of shared slot ``(owner, attr, key)`` to the detector.

    Call sites guard with ``if shake.DETECTOR is not None`` so the
    uninstrumented path costs one global load and a branch.
    """
    det = DETECTOR
    if det is not None:
        det.note("read", owner, attr, key)


def note_write(owner: str, attr: str, key: Hashable = None) -> None:
    """Report a write (or read-modify-write) of a shared slot."""
    det = DETECTOR
    if det is not None:
        det.note("write", owner, attr, key)


@dataclass(frozen=True)
class Conflict:
    """One same-timestamp race: two causally-unordered events touched the
    same shared slot, at least one writing."""

    when: float
    owner: str
    attr: str
    key: str
    first_event: str
    first_mode: str
    second_event: str
    second_mode: str

    def summary(self) -> Dict[str, Any]:
        return {
            "when": self.when,
            "slot": f"{self.owner}.{self.attr}[{self.key}]",
            "first": f"{self.first_mode} by {self.first_event}",
            "second": f"{self.second_mode} by {self.second_event}",
        }


class _Access:
    __slots__ = ("event", "mode")

    def __init__(self, event: int, mode: str) -> None:
        self.event = event
        self.mode = mode


class RaceDetector:
    """Event-attributed shared-state access logger (a Simulator probe).

    Tracks the scheduling parent of every executed event so that a causal
    chain — event A scheduled event B (possibly transitively) at the same
    virtual instant — is recognized as ordered and excused.  Only accesses
    made *while an event executes* participate; driver code between events
    runs sequentially by construction.
    """

    def __init__(self) -> None:
        self._parents: Dict[int, Optional[int]] = {}
        self._labels: Dict[int, str] = {}
        self._now = float("-inf")
        self._current: Optional[int] = None
        #: (owner, attr, key) -> accesses at the current timestamp.
        self._slots: Dict[Tuple[str, str, Hashable], List[_Access]] = {}
        self.conflicts: List[Conflict] = []
        self.conflict_count = 0
        self._reported: set = set()

    # ------------------------------------------------------ EventProbe API

    def begin_event(
        self, event_id: int, parent_id: Optional[int], when: float, label: str
    ) -> None:
        if when != self._now:
            self._now = when
            self._slots.clear()
        self._parents[event_id] = parent_id
        self._labels[event_id] = label
        self._current = event_id

    def end_event(self) -> None:
        self._current = None

    # -------------------------------------------------------- installation

    def install(self, sim: Simulator) -> None:
        """Attach to ``sim`` and become the process-wide :data:`DETECTOR`."""
        global DETECTOR
        sim.probe = self
        DETECTOR = self

    def uninstall(self, sim: Optional[Simulator] = None) -> None:
        global DETECTOR
        if sim is not None and sim.probe is self:
            sim.probe = None
        if DETECTOR is self:
            DETECTOR = None

    # ----------------------------------------------------------- accesses

    def _is_ancestor(self, a: int, b: int) -> bool:
        """True when event ``a`` transitively scheduled event ``b``."""
        cur = self._parents.get(b)
        while cur is not None:
            if cur == a:
                return True
            cur = self._parents.get(cur)
        return False

    def note(self, mode: str, owner: str, attr: str, key: Hashable) -> None:
        event = self._current
        if event is None:
            return  # driver context: sequential, cannot race
        slot = (owner, attr, key)
        prior = self._slots.setdefault(slot, [])
        for access in prior:
            if access.event == event:
                continue
            if access.mode == "read" and mode == "read":
                continue
            if self._is_ancestor(access.event, event) or self._is_ancestor(
                event, access.event
            ):
                continue
            self.conflict_count += 1
            fingerprint = (slot, self._labels[access.event], self._labels[event])
            if fingerprint in self._reported or len(self.conflicts) >= MAX_CONFLICTS:
                continue
            self._reported.add(fingerprint)
            self.conflicts.append(
                Conflict(
                    when=self._now,
                    owner=owner,
                    attr=attr,
                    key=repr(key),
                    first_event=self._labels[access.event],
                    first_mode=access.mode,
                    second_event=self._labels[event],
                    second_mode=mode,
                )
            )
        prior.append(_Access(event, mode))


# --------------------------------------------------------------- tiebreak


def seeded_tiebreak(seed: int) -> Callable[[], float]:
    """A seeded secondary-sort-key source for ``Simulator(tiebreak=...)``.

    Each scheduled event draws one uniform float; same-timestamp events
    then execute in draw order instead of FIFO order — a deterministic,
    replayable permutation of every same-instant batch.
    """
    return random.Random(seed).random


# ----------------------------------------------------------- fingerprints


def _canon(value: Any) -> Any:
    """JSON-stable canonical form: sets sorted, dicts keyed by repr-sorted
    string keys, tuples as lists, floats kept exact via repr."""
    if isinstance(value, dict):
        return {repr(k): _canon(v) for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(repr(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


def _span_shape(tree: Any, node: Any) -> Tuple[Any, ...]:
    """Order-independent canonical shape of one span subtree."""
    children = sorted(_span_shape(tree, c) for c in tree.children(node.span_id))
    return (node.name, node.site or "", tuple(children))


def fingerprint_system(protocol: Any, causal: Any = None) -> Dict[str, Any]:
    """Observable end-state of an :class:`~repro.replication.async_asr.
    AsyncSwatAsr` run, canonicalized for bit-exact comparison.

    Includes directory rows, unsynced pairs, staleness stamps, query
    outcomes (minus trace ids), logical message counts, and transport
    fault counters; with ``causal`` given, the multiset of span-tree
    shapes.  Excludes incidental internals whose values are arbitrary but
    harmless — event counters, message/trace ids, per-sender version
    numbers — so the comparison tracks *behavior*, not bookkeeping.
    """
    sites = {}
    for node in protocol.topology.nodes:
        site = protocol.sites[node]
        rows = {}
        for seg in site.directory.segments:
            row = site.directory.row(seg)
            rows[str(seg)] = {
                "approx": _canon(row.approx),
                "subscribed": _canon(row.subscribed),
                "interested": _canon(row.interested),
                "read_counts": _canon(row.read_counts),
                "local_reads": row.local_reads,
                "write_count": row.write_count,
            }
        sites[node] = {
            "rows": rows,
            "unsynced": {
                child: sorted(str(s) for s in segs)
                for child, segs in sorted(site.unsynced.items())
            },
            "last_update_at": _canon(
                {str(seg): at for seg, at in site.last_update_at.items()}
            ),
        }
    outcomes = [
        {
            "client": o.client,
            "value": _canon(o.value),
            "interval": _canon(o.interval),
            "degraded": o.degraded,
            "stale_since": _canon(o.stale_since),
            "served_by": o.served_by,
            "issued_at": _canon(o.issued_at),
            "answered_at": _canon(o.answered_at),
        }
        for o in protocol.query_outcomes
    ]
    fp: Dict[str, Any] = {
        "sites": sites,
        "outcomes": outcomes,
        "messages": _canon(protocol.stats.snapshot()),
        "fault_counters": _canon(protocol.transport.fault_counters()),
        "final_time": _canon(protocol.sim.now),
    }
    if causal is not None:
        shapes = [
            repr(_span_shape(tree, tree.root)) for tree in causal.trees()
        ]
        fp["trace_topology"] = sorted(shapes)
    return fp


def fingerprint_digest(fp: Dict[str, Any]) -> str:
    """Short stable digest of a fingerprint (what CI logs on success)."""
    payload = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def first_divergence(
    baseline: Any, perturbed: Any, path: str = "$"
) -> Optional[Dict[str, str]]:
    """Depth-first search for the first component where two fingerprints
    differ; returns ``{"path", "baseline", "perturbed"}`` or ``None``."""
    if type(baseline) is not type(perturbed):
        return {
            "path": path,
            "baseline": f"{type(baseline).__name__}: {baseline!r}",
            "perturbed": f"{type(perturbed).__name__}: {perturbed!r}",
        }
    if isinstance(baseline, dict):
        for key in sorted(set(baseline) | set(perturbed)):
            if key not in baseline or key not in perturbed:
                return {
                    "path": f"{path}.{key}",
                    "baseline": repr(baseline.get(key, "<absent>")),
                    "perturbed": repr(perturbed.get(key, "<absent>")),
                }
            hit = first_divergence(baseline[key], perturbed[key], f"{path}.{key}")
            if hit is not None:
                return hit
        return None
    if isinstance(baseline, list):
        if len(baseline) != len(perturbed):
            return {
                "path": f"{path}.length",
                "baseline": str(len(baseline)),
                "perturbed": str(len(perturbed)),
            }
        for i, (a, b) in enumerate(zip(baseline, perturbed)):
            hit = first_divergence(a, b, f"{path}[{i}]")
            if hit is not None:
                return hit
        return None
    if baseline != perturbed:
        return {"path": path, "baseline": repr(baseline), "perturbed": repr(perturbed)}
    return None


# -------------------------------------------------------------- the shake


def run_shake(
    seed: int = 0,
    permutations: int = 8,
    quick: bool = False,
    detect_races: bool = True,
) -> Dict[str, Any]:
    """Replay the chaos scenario under ``permutations`` seeded tie-break
    permutations and return a JSON-friendly report.

    The report's ``divergences`` list is empty on a deterministic system;
    each entry is a minimized repro: the scenario seed, the permutation
    index, its tie-break seed, and the first divergent fingerprint
    component.  ``conflicts`` carries the runtime race detector's findings
    from the baseline run (``detect_races=False`` skips that pass).
    """
    if permutations < 1:
        raise ValueError("permutations must be positive")

    # Imported lazily: shake is imported by the transport at module load,
    # and pulling the replication stack in up front would be a cycle.
    from ..experiments.distributed import run_chaos_scenario
    from ..obs.causal import CausalTracer

    def run_once(
        tiebreak: Optional[Callable[[], float]], detector: Optional[RaceDetector]
    ) -> Dict[str, Any]:
        sim = Simulator(tiebreak=tiebreak)
        causal = CausalTracer(seed=seed)
        if detector is not None:
            detector.install(sim)
        try:
            protocol = run_chaos_scenario(
                n_clients=4 if quick else 6,
                window_size=16 if quick else 32,
                n_queries=6 if quick else 12,
                drop_rate=0.1,
                seed=seed,
                causal=causal,
                sim=sim,
            )
        finally:
            if detector is not None:
                detector.uninstall(sim)
        return fingerprint_system(protocol, causal)

    detector = RaceDetector() if detect_races else None
    baseline = run_once(None, detector)
    divergences: List[Dict[str, Any]] = []
    for k in range(1, permutations + 1):
        tiebreak_seed = seed * 1_000_003 + k
        perturbed = run_once(seeded_tiebreak(tiebreak_seed), None)
        hit = first_divergence(baseline, perturbed)
        if hit is not None:
            divergences.append(
                {
                    "permutation": k,
                    "tiebreak_seed": tiebreak_seed,
                    "scenario_seed": seed,
                    **hit,
                }
            )
    report: Dict[str, Any] = {
        "seed": seed,
        "permutations": permutations,
        "quick": quick,
        "fingerprint_digest": fingerprint_digest(baseline),
        "divergences": divergences,
        "conflicts": [c.summary() for c in (detector.conflicts if detector else [])],
        "conflict_count": detector.conflict_count if detector else 0,
        "deterministic": not divergences
        and (detector is None or detector.conflict_count == 0),
    }
    return report


def format_shake_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_shake` report."""
    lines = [
        "== repro shake ==",
        f"  scenario seed={report['seed']} permutations={report['permutations']}"
        + (" (quick)" if report.get("quick") else ""),
        f"  baseline fingerprint {report['fingerprint_digest']}",
    ]
    if report["conflict_count"]:
        lines.append(
            f"  RUNTIME RACES: {report['conflict_count']} conflicting "
            "same-timestamp access pair(s)"
        )
        for c in report["conflicts"]:
            lines.append(
                f"    t={c['when']:.6f} {c['slot']}: {c['first']} vs {c['second']}"
            )
    else:
        lines.append("  runtime races: none")
    if report["divergences"]:
        lines.append(f"  DIVERGENCES: {len(report['divergences'])} permutation(s)")
        for d in report["divergences"]:
            lines.append(
                f"    permutation {d['permutation']} (tiebreak_seed="
                f"{d['tiebreak_seed']}): first divergence at {d['path']}"
            )
            lines.append(f"      baseline:  {d['baseline']}")
            lines.append(f"      perturbed: {d['perturbed']}")
    else:
        lines.append(
            f"  divergences: none — {report['permutations']} permutation(s) "
            "bit-identical"
        )
    return "\n".join(lines)
