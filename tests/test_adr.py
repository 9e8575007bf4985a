"""Tests for repro.replication.adr: the general ADR algorithm."""

import pytest

from repro.network.topology import SOURCE, Topology
from repro.replication.adr import AdrObject


@pytest.fixture()
def topo():
    return Topology.paper_example()  # S - (C1 - (C3, C4), C2)


class TestConstruction:
    def test_defaults_to_root(self, topo):
        obj = AdrObject(topo)
        assert obj.replicas == {SOURCE}

    def test_connected_scheme_accepted(self, topo):
        obj = AdrObject(topo, {"C1", "C3"})
        assert obj.replicas == {"C1", "C3"}

    def test_disconnected_scheme_rejected(self, topo):
        with pytest.raises(ValueError):
            AdrObject(topo, {SOURCE, "C3"})

    def test_empty_scheme_rejected(self, topo):
        with pytest.raises(ValueError):
            AdrObject(topo, set())

    def test_unknown_site_rejected(self, topo):
        with pytest.raises(ValueError):
            AdrObject(topo, {"C99"})


class TestTraffic:
    def test_local_read_is_free(self, topo):
        obj = AdrObject(topo)
        obj.read(SOURCE)
        assert obj.messages == 0

    def test_remote_read_costs_distance(self, topo):
        obj = AdrObject(topo)
        obj.read("C3")  # C3 -> C1 -> S
        assert obj.messages == 2

    def test_read_from_sibling_subtree_after_placement(self, topo):
        obj = AdrObject(topo, {"C1", "C3"})
        obj.read("C4")  # C4 -> C1 (closest replica), not to the root
        assert obj.messages == 1

    def test_write_updates_value_and_floods_replicas(self, topo):
        obj = AdrObject(topo, {SOURCE, "C1", "C3"})
        obj.write("C2", 7.5)
        assert obj.value == 7.5
        # C2 -> S (1 hop) then S -> C1 -> C3 flood (2 edges).
        assert obj.messages == 3

    def test_reads_see_writes(self, topo):
        obj = AdrObject(topo)
        obj.write("C4", 3.0)
        assert obj.read("C3") == 3.0


class TestAdaptation:
    def test_expands_toward_reader(self, topo):
        obj = AdrObject(topo)
        for __ in range(5):
            obj.read("C3")
        obj.end_phase()
        assert "C1" in obj.replicas  # one level per phase
        for __ in range(5):
            obj.read("C3")
        obj.end_phase()
        assert "C3" in obj.replicas
        before = obj.messages
        obj.read("C3")
        assert obj.messages == before  # now served locally

    def test_contracts_under_writes(self, topo):
        obj = AdrObject(topo, {SOURCE, "C1", "C3"})
        for __ in range(6):
            obj.write(SOURCE, 1.0)
        obj.end_phase()
        assert "C3" not in obj.replicas
        obj_replicas_after_one = set(obj.replicas)
        for __ in range(6):
            obj.write(SOURCE, 1.0)
        obj.end_phase()
        assert obj.replicas == {SOURCE}
        assert "C1" not in obj.replicas or obj_replicas_after_one == {SOURCE, "C1"}

    def test_scheme_never_empties(self, topo):
        obj = AdrObject(topo)
        for __ in range(10):
            obj.write(SOURCE, 2.0)  # local writes at the only replica
        obj.end_phase()
        assert obj.replicas  # still non-empty

    def test_switch_moves_singleton_toward_writer(self, topo):
        obj = AdrObject(topo)  # singleton {S}
        for __ in range(8):
            obj.write("C3", 1.0)  # writes stream in from C1's side
        obj.end_phase()
        assert obj.replicas == {"C1"}
        for __ in range(8):
            obj.write("C3", 1.0)
        obj.end_phase()
        assert obj.replicas == {"C3"}  # converged to the activity centre

    def test_switch_counts_reads_and_writes_from_the_neighbour(self):
        # C1 - S - C2: C1 reads 4x and writes 4x, C2 writes 4x per phase.
        # {S} costs 12 messages a phase and {C1} costs 8, so the singleton
        # must switch on C1's combined traffic (8 > 4), not its writes alone.
        topo = Topology.complete_binary_tree(2)
        obj = AdrObject(topo)
        costs = []
        for __ in range(3):
            before = obj.messages
            for __ in range(4):
                obj.read("C1")
            for __ in range(4):
                obj.write("C1", 1.0)
            for __ in range(4):
                obj.write("C2", 2.0)
            obj.end_phase()
            costs.append(obj.messages - before)
        assert obj.replicas == {"C1"}
        assert costs == [13, 8, 8]  # the first phase pays the 1-hop handoff

    def test_amoeba_stays_connected_under_mixed_load(self):
        import numpy as np

        topo = Topology.complete_binary_tree(14)
        obj = AdrObject(topo)
        rng = np.random.default_rng(0)
        sites = topo.nodes
        for step in range(400):
            site = sites[rng.integers(0, len(sites))]
            if rng.random() < 0.35:
                obj.write(site, float(step))
            else:
                obj.read(site)
            if step % 20 == 19:
                obj.end_phase()  # raises internally if R ever disconnects

    def test_read_heavy_steady_state_replicates_widely(self, topo):
        obj = AdrObject(topo)
        for phase in range(6):
            for site in ("C2", "C3", "C4"):
                for __ in range(4):
                    obj.read(site)
            obj.end_phase()
        assert {"C2", "C3", "C4"} <= obj.replicas

    def test_adaptation_reduces_cost(self, topo):
        """Total cost with adaptation beats a frozen root-only scheme."""
        adaptive = AdrObject(topo)
        frozen = AdrObject(topo)
        for phase in range(5):
            for __ in range(10):
                adaptive.read("C3")
                frozen.read("C3")
            adaptive.end_phase()  # frozen never runs its tests
        assert adaptive.messages < frozen.messages
