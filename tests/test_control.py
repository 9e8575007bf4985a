"""The resource-control subsystem (:mod:`repro.control`).

Exact byte accounting (analytic ``nbytes``, the ledger, the configured
ceiling), the adaptive governor (hard budget, hysteresis, disabled
bit-identity), load shedding (bounded arrival queue), the replication cache-row governor, and governor
persistence through the standard checkpoint container.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ArrivalQueue,
    MemoryLedger,
    ResourceGovernor,
    ReplicaGovernor,
    config_nbytes,
    load_governor,
    save_governor,
)
from repro.control.governor import ERROR_METRIC
from repro.core.multi import StreamEnsemble
from repro.core.queries import linear_query, point_query
from repro.core.swat import Swat
from repro.data.synthetic import random_walk_stream
from repro.histogram.prefix import PrefixStats
from repro.network.topology import Topology
from repro.replication.async_asr import AsyncSwatAsr
from repro.simulate.shake import fingerprint_digest, fingerprint_system


def _fill(tree: Swat, n: int, seed: int = 0) -> np.ndarray:
    data = random_walk_stream(n, seed=seed)
    tree.extend(data)
    return data


# ------------------------------------------------------------- byte counting


class TestNbytes:
    def test_node_nbytes_is_analytic_array_count(self):
        tree = Swat(32, k=4)
        _fill(tree, 80)
        for node in tree.nodes():
            assert node.nbytes == node.coeffs.nbytes

    def test_tree_nbytes_is_buffer_plus_maintained_nodes(self):
        tree = Swat(64, k=8, min_level=2)
        _fill(tree, 200)
        expected = 8 * len(tree._buffer)
        for lv in tree._levels[tree.min_level:]:
            for node in lv.values():
                if node.coeffs is not None:
                    expected += node.nbytes
        assert tree.nbytes == expected

    @pytest.mark.parametrize(
        "window,k,min_level",
        [(32, 1, 0), (32, 4, 0), (64, 8, 0), (64, 2, 3), (64, 64, 0), (128, 3, 1)],
    )
    def test_settled_tree_matches_configured_ceiling(self, window, k, min_level):
        tree = Swat(window, k=k, min_level=min_level)
        ceiling = config_nbytes(window, k, min_level)
        worst = 0
        for value in random_walk_stream(3 * window, seed=1):
            tree.update(float(value))
            worst = max(worst, tree.nbytes)
        assert worst <= ceiling  # live never exceeds the ceiling, at any arrival
        assert tree.nbytes == ceiling  # and a warm tree sits exactly on it

    def test_prefix_stats_nbytes_constant_and_analytic(self):
        ps = PrefixStats(16)
        before = ps.nbytes
        assert before == ps._values.nbytes + ps._csum.nbytes + ps._csq.nbytes
        for value in random_walk_stream(100, seed=2):
            ps.update(float(value))
        assert ps.nbytes == before  # fixed-capacity ring: footprint is static

    def test_config_nbytes_validates(self):
        with pytest.raises(ValueError):
            config_nbytes(48, 2, 0)  # not a power of two
        with pytest.raises(ValueError):
            config_nbytes(64, 0, 0)
        with pytest.raises(ValueError):
            config_nbytes(64, 2, 6)  # min_level out of range


class TestMemoryLedger:
    def test_incremental_total_and_peak(self):
        ledger = MemoryLedger()
        ledger.set("a", 100)
        ledger.set("b", 50)
        assert ledger.total == 150 == sum(ledger.per_stream().values())
        ledger.set("a", 20)  # shrink: total follows, peak holds
        assert ledger.total == 70
        assert ledger.peak == 150
        ledger.drop("b")
        ledger.drop("b")  # idempotent
        assert ledger.total == 20
        assert ledger.get("b") == 0
        assert len(ledger) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger().set("a", -1)


# ------------------------------------------------------------------ governor


def _governed_ensemble(budget, window=64, k=8, n_streams=3, **kwargs):
    ens = StreamEnsemble(window, k=k)
    for i in range(n_streams):
        ens.add_stream(f"S{i}")
    gov = ResourceGovernor(budget, k_range=(1, k), **kwargs)
    ens.attach_governor(gov)
    return ens, gov


class TestResourceGovernor:
    def test_budget_holds_at_every_arrival(self):
        window, k, n_streams = 64, 8, 3
        budget = (n_streams * config_nbytes(window, k, 0)) * 2 // 5
        ens, gov = _governed_ensemble(budget)
        for value in random_walk_stream(8 * window, seed=3):
            ens.update({name: float(value) for name in ens.streams})
            assert ens.ledger.total <= budget
        assert gov.reconfig_count > 0

    def test_no_thrash_once_fitted(self):
        budget = 3 * config_nbytes(64, 2, 0)  # fits k=2 exactly, no headroom
        ens, gov = _governed_ensemble(budget)
        data = random_walk_stream(16 * 64, seed=4)
        for lo in range(0, len(data), 64):
            ens.extend_columns(
                {name: data[lo : lo + 64] for name in ens.streams}
            )
        first_fit = gov.reconfig_count
        assert first_fit > 0
        for lo in range(0, len(data), 64):
            ens.extend_columns(
                {name: data[lo : lo + 64] for name in ens.streams}
            )
        # Budget sits inside the headroom band: no upgrade, no oscillation.
        assert gov.reconfig_count == first_fit

    def test_roomy_budget_upgrades_back_to_ceiling(self):
        window, k = 64, 8
        full = 2 * config_nbytes(window, k, 0)
        ens = StreamEnsemble(window, k=1)
        ens.add_stream("S0")
        ens.add_stream("S1")
        gov = ResourceGovernor(full * 2, k_range=(1, k), cooldown_phases=0)
        ens.attach_governor(gov)
        for value in random_walk_stream(40 * window, seed=5):
            ens.update({name: float(value) for name in ens.streams})
        assert all(ens.tree(n).k == k for n in ens.streams)

    def test_monitor_only_never_reconfigures(self):
        ens = StreamEnsemble(32, k=4)
        ens.add_stream("S0")
        gov = ResourceGovernor(None)  # no budget: observe only
        ens.attach_governor(gov)
        for value in random_walk_stream(200, seed=6):
            ens.update({"S0": float(value)})
        assert gov.reconfig_count == 0
        assert ens.tree("S0").k == 4

    def test_error_target_gates_upgrades(self, obs_registry):
        ens = StreamEnsemble(32, k=1)
        ens.add_stream("S0")
        gov = ResourceGovernor(
            10 * config_nbytes(32, 8, 0),
            k_range=(1, 8),
            cooldown_phases=0,
            error_target=0.5,
        )
        ens.attach_governor(gov)
        # Observed error below the target: no upgrade pressure at all.
        obs_registry.histogram(ERROR_METRIC, stream="S0").observe(0.01)
        for value in random_walk_stream(10 * 32, seed=7):
            ens.update({"S0": float(value)})
        assert ens.tree("S0").k == 1
        # Error above the target: upgrades resume.
        obs_registry.histogram(ERROR_METRIC, stream="S0").observe(100.0)
        for value in random_walk_stream(10 * 32, seed=8):
            ens.update({"S0": float(value)})
        assert ens.tree("S0").k > 1

    @given(
        window=st.sampled_from([16, 32, 64]),
        k=st.integers(1, 8),
        seed=st.integers(0, 50),
        n_blocks=st.integers(1, 6),
    )
    @settings(max_examples=25)
    def test_disabled_governor_is_bit_identical(self, window, k, seed, n_blocks):
        data = random_walk_stream(n_blocks * window, seed=seed)
        plain = StreamEnsemble(window, k=k)
        governed = StreamEnsemble(window, k=k)
        for ens in (plain, governed):
            ens.add_stream("S0")
            ens.add_stream("S1")
        governed.attach_governor(
            ResourceGovernor(config_nbytes(window, 1, 0), enabled=False)
        )
        for lo in range(0, len(data), window // 2):
            block = data[lo : lo + window // 2]
            plain.extend_columns({"S0": block, "S1": -block})
            governed.extend_columns({"S0": block, "S1": -block})
        for name in ("S0", "S1"):
            assert governed.tree(name).to_state() == plain.tree(name).to_state()
        probe = linear_query(min(8, window))
        assert (
            governed.answer_all(probe)["S0"].value
            == plain.answer_all(probe)["S0"].value
        )


# ------------------------------------------------------------------ shedding


class TestArrivalQueue:
    def test_drop_newest_is_deterministic(self):
        q = ArrivalQueue(40)
        a1 = q.offer({"s": np.arange(30.0)})
        a2 = q.offer({"s": np.arange(30.0)})
        assert (a1, a2) == (30, 10)
        assert q.ticks_offered == 60
        assert q.ticks_accepted == 40
        assert q.ticks_dropped == 20
        blocks = q.drain()
        kept = np.concatenate([b["s"] for b in blocks])
        # the accepted ticks are always a prefix, in arrival order
        assert kept.tolist() == list(range(30)) + list(range(10))
        assert q.pending == 0

    def test_mismatched_columns_rejected(self):
        q = ArrivalQueue(8)
        with pytest.raises(ValueError):
            q.offer({"a": [1.0, 2.0], "b": [1.0]})

    def test_ensemble_offer_ingest_roundtrip(self):
        ens = StreamEnsemble(16, k=2)
        ens.add_stream("a")
        ens.add_stream("b")
        ens.attach_shedding(queue_capacity_ticks=24)
        cols = {"a": np.arange(32.0), "b": np.arange(32.0) * 2}
        assert ens.offer_columns(cols) == 24
        assert ens.ingest_pending() == 24
        assert ens.ticks == 24
        assert ens.arrival_queue.ticks_dropped == 8

    def test_query_admission_is_not_an_option(self):
        ens = StreamEnsemble(16, k=2)
        ens.add_stream("a")
        with pytest.raises(TypeError):
            ens.attach_shedding(queue_capacity_ticks=8, admission=object())
        assert ens.arrival_queue is None

    def test_offer_requires_queue(self):
        ens = StreamEnsemble(16, k=2)
        ens.add_stream("a")
        with pytest.raises(RuntimeError):
            ens.offer_columns({"a": [1.0]})


# --------------------------------------------------------- replica governor


class TestReplicaGovernor:
    def test_select_evictions_least_read_unpinned_first(self):
        gov = ReplicaGovernor(1)
        rows = [("s0", 5, False), ("s1", 0, True), ("s2", 0, False), ("s3", 1, False)]
        assert gov.select_evictions(rows) == ["s2", "s3", "s0"][:3]

    def test_select_evictions_respects_budget_and_pins(self):
        gov = ReplicaGovernor(2)
        rows = [("s0", 0, True), ("s1", 0, True), ("s2", 3, False)]
        assert gov.select_evictions(rows) == ["s2"]  # over by 1, pins survive
        assert ReplicaGovernor(4).select_evictions(rows) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ReplicaGovernor(-1)

    @staticmethod
    def _drive_asr(governor):
        asr = AsyncSwatAsr(Topology.star(2), 16, governor=governor)
        data = random_walk_stream(200, seed=3)
        for i, value in enumerate(data):
            asr.on_data(float(value))
            if i > 32:
                for idx in range(16):
                    asr.on_query("C1", point_query(idx, precision=6.0))
            if (i + 1) % 4 == 0:
                asr.on_phase_end()
        return asr

    def test_asr_eviction_enforces_row_budget(self):
        governed = self._drive_asr(ReplicaGovernor(max_cached_rows=1))
        free = self._drive_asr(None)
        governed.on_phase_end()
        free.on_phase_end()
        gov = governed.governor
        assert gov.rows_evicted > 0
        assert governed.sites["C1"].directory.cached_count() <= 1
        assert free.sites["C1"].directory.cached_count() > 1

    def test_asr_none_governor_is_bit_identical(self):
        explicit = self._drive_asr(None)
        implicit = AsyncSwatAsr(Topology.star(2), 16)
        data = random_walk_stream(200, seed=3)
        for i, value in enumerate(data):
            implicit.on_data(float(value))
            if i > 32:
                for idx in range(16):
                    implicit.on_query("C1", point_query(idx, precision=6.0))
            if (i + 1) % 4 == 0:
                implicit.on_phase_end()
        assert fingerprint_digest(
            fingerprint_system(explicit)
        ) == fingerprint_digest(fingerprint_system(implicit))


# --------------------------------------------------------------- persistence


class TestGovernorPersistence:
    def test_state_roundtrip_through_checkpoint(self, tmp_path):
        ens, gov = _governed_ensemble(
            2 * config_nbytes(64, 8, 0), error_target=0.1, cooldown_phases=2
        )
        for value in random_walk_stream(4 * 64, seed=12):
            ens.update({name: float(value) for name in ens.streams})
        path = str(tmp_path / "governor.ckpt")
        save_governor(path, gov, meta={"run": "test"})
        restored = load_governor(path)
        assert restored.to_state() == gov.to_state()

    def test_restored_shapes_reapplied_on_bind(self, tmp_path):
        window, k = 64, 8
        budget = 3 * config_nbytes(window, 2, 0)
        ens, gov = _governed_ensemble(budget, window=window, k=k)
        for value in random_walk_stream(4 * window, seed=13):
            ens.update({name: float(value) for name in ens.streams})
        negotiated = {n: (ens.tree(n).k, ens.tree(n).min_level) for n in ens.streams}
        assert any(cfg != (k, 0) for cfg in negotiated.values())
        path = str(tmp_path / "governor.ckpt")
        save_governor(path, gov)

        fresh = StreamEnsemble(window, k=k)
        for name in ens.streams:
            fresh.add_stream(name)
        fresh.attach_governor(load_governor(path))
        assert {
            n: (fresh.tree(n).k, fresh.tree(n).min_level) for n in fresh.streams
        } == negotiated
