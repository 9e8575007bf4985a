"""Brute-force optimum oracle for ADR (Wolfson, Jajodia & Huang, TODS 1997).

A fixed per-phase read/write pattern on a small tree has a cheapest
replication scheme.  The oracle here enumerates every connected subtree of
the tree and prices it with the ADR cost model: a read costs its tree
distance to the closest replica; a write costs that distance plus one
message per edge of the scheme.  It uses only the tree's parent map — its
own distances and its own connectivity check — so it shares no routing code
with :class:`~repro.replication.adr.AdrObject`.

ADR converges to the optimal scheme under a regular pattern.  The suite
checks three things against the oracle: replaying one phase on any frozen
scheme costs exactly what the model says; from the root, ADR reaches the
optimum after at most ``n`` phase ends on an ``n``-site tree and then
stays there;
started at an optimal scheme, it never leaves the optimum.
"""

import itertools
import random
from typing import Dict, FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import SOURCE, Topology
from repro.replication.adr import AdrObject

Pattern = Dict[str, int]


def _chain(n_clients: int) -> Topology:
    """``S - C1 - C2 - ... - Cn``: the deepest tree on ``n + 1`` sites."""
    parent = {SOURCE: None}
    prev = SOURCE
    for i in range(1, n_clients + 1):
        parent[f"C{i}"] = prev
        prev = f"C{i}"
    return Topology(parent)


TOPOLOGIES = {
    "single": Topology.single_client(),
    "star3": Topology.star(3),
    "star5": Topology.star(5),
    "binary2": Topology.complete_binary_tree(2),
    "binary4": Topology.complete_binary_tree(4),
    "binary6": Topology.complete_binary_tree(6),
    "paper": Topology.paper_example(),
    "chain4": _chain(4),
    "chain5": _chain(5),
}


# ------------------------------------------------------------------ oracle


def _adjacency(topo: Topology) -> Dict[str, List[str]]:
    adj: Dict[str, List[str]] = {n: [] for n in topo.nodes}
    for node in topo.nodes:
        parent = topo.parent(node)
        if parent is not None:
            adj[node].append(parent)
            adj[parent].append(node)
    return adj


def _distances(topo: Topology) -> Dict[str, Dict[str, int]]:
    """All-pairs hop counts by breadth-first search from every site."""
    adj = _adjacency(topo)
    out: Dict[str, Dict[str, int]] = {}
    for src in topo.nodes:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        out[src] = dist
    return out


def _connected_schemes(topo: Topology) -> List[FrozenSet[str]]:
    """Every non-empty site set that induces a connected subtree."""
    adj = _adjacency(topo)
    out = []
    for r in range(1, len(topo.nodes) + 1):
        for combo in itertools.combinations(topo.nodes, r):
            members = set(combo)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v in members and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if seen == members:
                out.append(frozenset(members))
    return out


def _phase_cost(
    dist: Dict[str, Dict[str, int]], scheme: FrozenSet[str], reads: Pattern, writes: Pattern
) -> int:
    cost = 0
    for site, n in reads.items():
        cost += n * min(dist[site][r] for r in scheme)
    for site, n in writes.items():
        cost += n * (min(dist[site][r] for r in scheme) + len(scheme) - 1)
    return cost


def _optimum(topo: Topology, reads: Pattern, writes: Pattern) -> Tuple[int, FrozenSet[str]]:
    dist = _distances(topo)
    priced = [(_phase_cost(dist, s, reads, writes), s) for s in _connected_schemes(topo)]
    best = min(cost for cost, _ in priced)
    return best, next(s for cost, s in priced if cost == best)


def _replay_phase(obj: AdrObject, reads: Pattern, writes: Pattern) -> int:
    """Issue one phase of the pattern; return the messages it cost."""
    before = obj.messages
    for site, n in reads.items():
        for _ in range(n):
            obj.read(site)
    for site, n in writes.items():
        for _ in range(n):
            obj.write(site, 1.0)
    return obj.messages - before


def _run(topo: Topology, reads: Pattern, writes: Pattern, start=None, phases=None) -> List[int]:
    """Per-phase costs of ADR replaying the pattern (phase end after each)."""
    obj = AdrObject(topo, None if start is None else set(start))
    costs = []
    for _ in range(phases if phases is not None else 3 * len(topo) + 5):
        costs.append(_replay_phase(obj, reads, writes))
        obj.end_phase()
    return costs


# --------------------------------------------------------------- scenarios

# (topology, per-phase reads, per-phase writes); sites absent issue nothing.
SCENARIOS = {
    "paper-one-leaf-reads": ("paper", {"C3": 5}, {}),
    "paper-leaf-writer": ("paper", {}, {"C3": 4}),
    "paper-source-writes-clients-read": (
        "paper", {"C2": 4, "C3": 4, "C4": 4}, {SOURCE: 3}
    ),
    "paper-source-writes-dominate": ("paper", {"C3": 2, "C4": 2}, {SOURCE: 6}),
    "paper-siblings-share-parent": ("paper", {"C3": 3, "C4": 3}, {SOURCE: 4}),
    "binary2-switch-needs-reads": ("binary2", {"C1": 4}, {"C1": 4, "C2": 4}),
    "binary2-balanced-writers": ("binary2", {}, {"C1": 3, "C2": 3}),
    "star5-hub-reads": (
        "star5", {f"C{i}": 2 for i in range(1, 6)}, {SOURCE: 3}
    ),
    "star5-one-hot-leaf": (
        "star5", {"C1": 1, "C2": 1, "C3": 1, "C4": 6, "C5": 1}, {"C4": 2}
    ),
    "chain5-far-reader-near-writer": ("chain5", {"C5": 4}, {"C1": 2}),
    "chain5-far-writer": ("chain5", {"C1": 1}, {"C5": 3}),
    "chain5-read-gradient": ("chain5", {f"C{i}": i for i in range(1, 6)}, {SOURCE: 6}),
    "binary6-deep-writer-and-readers": ("binary6", {"C3": 2, "C6": 4}, {"C5": 3}),
    "binary6-uniform": (
        "binary6",
        {n: 1 for n in TOPOLOGIES["binary6"].nodes},
        {n: 1 for n in TOPOLOGIES["binary6"].nodes},
    ),
    "binary6-idle": ("binary6", {}, {}),
    "single-client-reads": ("single", {"C1": 3}, {SOURCE: 2}),
    "single-client-writes": ("single", {SOURCE: 1}, {"C1": 3}),
}


def _patterns(topo: Topology, seed: int, count: int) -> List[Tuple[Pattern, Pattern]]:
    """Deterministic mixed patterns: every site reads and writes 0-4 times."""
    rng = random.Random(seed)
    return [
        (
            {n: rng.randint(0, 4) for n in topo.nodes},
            {n: rng.randint(0, 4) for n in topo.nodes},
        )
        for _ in range(count)
    ]


# ------------------------------------------------------------------- tests


class TestOracle:
    @pytest.mark.parametrize(
        "name,expected",
        [
            # A star with n leaves: the n lone leaves plus every set holding
            # the hub (2^n); a path of m sites: its m(m+1)/2 intervals.
            ("star3", 3 + 2**3),
            ("star5", 5 + 2**5),
            ("chain4", 5 * 6 // 2),
            ("chain5", 6 * 7 // 2),
        ],
    )
    def test_connected_scheme_count(self, name, expected):
        schemes = _connected_schemes(TOPOLOGIES[name])
        assert len(schemes) == expected
        assert len(set(schemes)) == expected

    def test_every_enumerated_scheme_is_accepted_by_adr(self):
        topo = TOPOLOGIES["paper"]
        for scheme in _connected_schemes(topo):
            assert AdrObject(topo, set(scheme)).replicas == scheme

    def test_disconnected_sets_are_not_enumerated(self):
        schemes = set(_connected_schemes(TOPOLOGIES["paper"]))
        assert frozenset({SOURCE, "C3"}) not in schemes
        assert frozenset({"C2", "C1"}) not in schemes
        assert frozenset({"C2", SOURCE, "C1"}) in schemes


class TestCostModel:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_frozen_scheme_phase_cost_matches_model(self, name):
        """One phase on any fixed scheme costs exactly the model's price."""
        topo = TOPOLOGIES[name]
        dist = _distances(topo)
        for reads, writes in _patterns(topo, seed=len(topo), count=3):
            for scheme in _connected_schemes(topo):
                obj = AdrObject(topo, set(scheme))
                assert _replay_phase(obj, reads, writes) == _phase_cost(
                    dist, scheme, reads, writes
                ), (sorted(scheme), reads, writes)
                assert obj.replicas == scheme  # no phase end, no adaptation


class TestConvergence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_reaches_optimum_after_n_phase_ends_and_stays(self, scenario):
        name, reads, writes = SCENARIOS[scenario]
        topo = TOPOLOGIES[name]
        best, _ = _optimum(topo, reads, writes)
        costs = _run(topo, reads, writes)
        n = len(topo)
        assert costs[n:] == [best] * (len(costs) - n), (costs, best)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_optimal_start_never_leaves_optimum(self, scenario):
        name, reads, writes = SCENARIOS[scenario]
        topo = TOPOLOGIES[name]
        best, scheme = _optimum(topo, reads, writes)
        costs = _run(topo, reads, writes, start=scheme, phases=len(topo) + 2)
        assert costs == [best] * len(costs), (sorted(scheme), costs, best)

    def test_regression_pattern_optimum_is_c1(self):
        """The switch-test regression case: {C1} is the unique optimum."""
        _, reads, writes = SCENARIOS["binary2-switch-needs-reads"]
        topo = TOPOLOGIES["binary2"]
        dist = _distances(topo)
        best, scheme = _optimum(topo, reads, writes)
        assert (best, scheme) == (8, frozenset({"C1"}))
        assert _phase_cost(dist, frozenset({SOURCE}), reads, writes) == 12
        optimal = [
            s for s in _connected_schemes(topo)
            if _phase_cost(dist, s, reads, writes) == best
        ]
        assert optimal == [frozenset({"C1"})]


_counts = st.integers(min_value=0, max_value=5)


@st.composite
def _workloads(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[name]
    reads = {n: draw(_counts) for n in topo.nodes}
    writes = {n: draw(_counts) for n in topo.nodes}
    return topo, reads, writes


class TestConvergenceProperties:
    @settings(max_examples=300)
    @given(_workloads())
    def test_random_pattern_converges_to_brute_force_optimum(self, workload):
        topo, reads, writes = workload
        best, _ = _optimum(topo, reads, writes)
        costs = _run(topo, reads, writes)
        n = len(topo)
        assert costs[n:] == [best] * (len(costs) - n), (costs, best)

    @settings(max_examples=200)
    @given(_workloads())
    def test_random_pattern_optimal_start_is_stable(self, workload):
        topo, reads, writes = workload
        best, scheme = _optimum(topo, reads, writes)
        costs = _run(topo, reads, writes, start=scheme, phases=len(topo) + 2)
        assert costs == [best] * len(costs)
