"""Runtime invariant checker (:mod:`repro.contracts`): clean structures pass,
deliberately corrupted ones raise :exc:`InvariantViolation` naming the site."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.contracts import (
    ENV_VAR,
    InvariantViolation,
    check_asr,
    check_swat,
    invariants_enabled,
    resolve_check_flag,
)
from repro.core.queries import linear_query
from repro.core.swat import Swat
from repro.network.topology import Topology
from repro.replication.asr import SwatAsr

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def warm_swat(window=32, n=100, **kwargs):
    tree = Swat(window, **kwargs)
    rng = np.random.default_rng(0)
    for v in rng.uniform(0, 100, n):
        tree.update(float(v))
    return tree


def warm_asr(window=16, n=48, **kwargs):
    topo = Topology.paper_example()
    asr = SwatAsr(topo, window, **kwargs)
    rng = np.random.default_rng(1)
    t = 0.0
    for v in rng.uniform(0, 100, n):
        asr.on_data(float(v), now=t)
        t += 1.0
    # Pull a few copies down the tree so client directories hold ranges.
    for client in topo.clients:
        asr.on_query(client, linear_query(4, precision=5.0), now=t)
    asr.on_phase_end(now=t)
    for v in rng.uniform(0, 100, window):
        asr.on_data(float(v), now=t)
        t += 1.0
    return topo, asr


class TestCleanStructuresPass:
    def test_warm_swat_passes(self):
        check_swat(warm_swat())

    def test_cold_swat_passes(self):
        check_swat(Swat(32))

    def test_reduced_tree_passes(self):
        check_swat(warm_swat(window=64, min_level=2))

    def test_deviation_tree_passes(self):
        check_swat(warm_swat(track_deviation=True))

    def test_continuous_checking_over_a_long_stream(self):
        tree = Swat(64, check_invariants=True)
        rng = np.random.default_rng(7)
        for v in rng.normal(size=500):
            tree.update(float(v))

    def test_driven_asr_passes(self):
        __, asr = warm_asr(check_invariants=True)
        check_asr(asr)


class TestSwatCorruption:
    def test_corrupted_refresh_cadence_names_the_level(self):
        tree = warm_swat()
        tree.node(2, "R").end_time += 1
        with pytest.raises(InvariantViolation, match=r"level 2 node R"):
            check_swat(tree)

    def test_stale_shift_node_names_the_level(self):
        tree = warm_swat()
        tree.node(1, "S").end_time -= 2
        with pytest.raises(InvariantViolation, match=r"level 1 node S"):
            check_swat(tree)

    def test_oversized_node_names_the_level(self):
        tree = warm_swat()
        tree.node(1, "L").coeffs = np.ones(5)
        with pytest.raises(InvariantViolation, match=r"level 1 node L.*exceeds k=1"):
            check_swat(tree)

    def test_extra_role_on_top_level_is_rejected(self):
        tree = warm_swat()
        top = tree.n_levels - 1
        tree._levels[top]["S"] = tree.node(top - 1, "S")
        with pytest.raises(InvariantViolation, match=rf"level {top}"):
            check_swat(tree)

    def test_update_detects_corruption_immediately(self):
        tree = warm_swat(check_invariants=True)
        tree.node(3, "R").end_time += 4
        with pytest.raises(InvariantViolation, match=r"level 3"):
            tree.update(1.0)


class TestNonFiniteState:
    """Finite inputs near the float limit overflow the Haar butterfly; the
    invariant check must refuse the poisoned node at once instead of letting
    the tree serve ``nan`` until a checkpoint fails to serialize.

    The ingest gate rejects such values first (``MAX_STREAM_MAGNITUDE``), so
    the overflow tests widen it to every finite float: the contract is the
    second line of defence for a gate that admits too much."""

    @pytest.fixture(autouse=True)
    def finiteness_only_gate(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.swat.MAX_STREAM_MAGNITUDE", sys.float_info.max
        )

    def test_extend_overflow_names_the_node(self):
        tree = Swat(16, k=16, check_invariants=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                InvariantViolation, match=r"level \d+ node [RSL]: non-finite state"
            ):
                tree.extend([1e308] * 40)

    def test_update_overflow_names_the_node(self):
        tree = Swat(16, k=16, check_invariants=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                InvariantViolation, match=r"level 0 node R: non-finite state"
            ):
                for value in [1e308] * 40:
                    tree.update(value)
        assert tree.time == 2  # caught on the first refresh that overflowed

    def test_non_finite_deviation_names_the_node(self):
        tree = warm_swat()
        tree.node(1, "S").deviation = float("inf")
        with pytest.raises(InvariantViolation, match=r"level 1 node S: non-finite.*deviation=inf"):
            check_swat(tree)

    def test_non_finite_coefficient_is_caught_by_check_swat(self):
        tree = warm_swat()
        tree.node(2, "L").coeffs = np.array([np.nan])
        with pytest.raises(InvariantViolation, match=r"level 2 node L: non-finite.*nan"):
            check_swat(tree)


class TestAsrCorruption:
    def test_non_monotone_directory_names_site_and_segment(self):
        topo, asr = warm_asr()
        seg = asr.sites[topo.root].segments[0]
        child = topo.clients[0]
        parent = topo.parent(child)
        asr.sites[parent].row(seg).approx = (0.0, 10.0)
        asr.sites[child].row(seg).approx = (0.0, 1.0)
        with pytest.raises(InvariantViolation) as excinfo:
            check_asr(asr)
        message = str(excinfo.value)
        assert repr(child) in message
        assert repr(parent) in message
        assert str(seg) in message

    def test_on_data_detects_corruption(self):
        topo, asr = warm_asr(check_invariants=True)
        seg = asr.sites[topo.root].segments[0]
        child = topo.clients[0]
        asr.sites[topo.parent(child)].row(seg).approx = (0.0, 50.0)
        asr.sites[child].row(seg).approx = (20.0, 21.0)
        with pytest.raises(InvariantViolation):
            asr.on_data(42.0, now=1e6)

    def test_uncached_children_are_ignored(self):
        topo, asr = warm_asr()
        seg = asr.sites[topo.root].segments[0]
        child = topo.clients[0]
        asr.sites[child].row(seg).approx = None
        check_asr(asr)  # an empty cache offers infinite width; nothing to check


class TestSwitches:
    def test_explicit_flag_beats_environment(self):
        assert resolve_check_flag(True) is True
        assert resolve_check_flag(False) is False

    def test_env_values(self, monkeypatch):
        for value, expected in [
            ("1", True), ("true", True), ("on", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("no", False),
            ("", False),
        ]:
            monkeypatch.setenv(ENV_VAR, value)
            assert invariants_enabled() is expected
        monkeypatch.delenv(ENV_VAR)
        assert invariants_enabled() is False

    def test_env_switch_arms_new_trees(self):
        code = (
            "from repro.core.swat import Swat\n"
            "from repro.contracts import InvariantViolation\n"
            "t = Swat(16)\n"
            "assert t._check_invariants\n"
            "for i in range(32):\n"
            "    t.update(float(i))\n"
            "t.node(1, 'R').end_time += 1\n"
            "try:\n"
            "    t.update(1.0)\n"
            "except InvariantViolation:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('corruption not detected')\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO, "src"),
            REPRO_CHECK_INVARIANTS="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_disabled_tree_skips_checks(self):
        tree = warm_swat(check_invariants=False)
        tree.node(2, "R").end_time += 1
        tree.update(1.0)  # no InvariantViolation: checking is off
