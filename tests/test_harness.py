"""Tests for repro.replication.harness: the simulation driver."""

import numpy as np
import pytest

from repro.data import santa_barbara_temps
from repro.network.topology import Topology
from repro.replication.harness import (
    PROTOCOLS,
    ReplicationConfig,
    make_protocol,
    run_replication,
)

STREAM = santa_barbara_temps()
VR = (float(STREAM.min()) - 1.0, float(STREAM.max()) + 1.0)


def quick_config(**overrides):
    base = dict(
        window_size=32,
        data_period=2.0,
        query_period=1.0,
        measure_time=120.0,
        warmup_time=50.0,
        precision=(2.0, 10.0),
        value_range=VR,
        seed=0,
    )
    base.update(overrides)
    return ReplicationConfig(**base)


class TestConfig:
    def test_invalid_periods_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(data_period=0.0)
        with pytest.raises(ValueError):
            ReplicationConfig(query_period=-1.0)

    def test_invalid_measure_time_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(measure_time=0.0)


class TestMakeProtocol:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_known_names(self, name):
        p = make_protocol(name, Topology.single_client(), 32, VR)
        assert p.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_protocol("telepathy", Topology.single_client(), 32)


class TestRunReplication:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_basic_run_produces_measurements(self, name):
        p = make_protocol(name, Topology.single_client(), 32, VR)
        result = run_replication(p, STREAM, quick_config())
        assert result.protocol == name
        assert result.n_queries == 120  # one client, T_q = 1, 120s measured
        assert result.total_messages == sum(result.by_kind.values())
        assert result.total_messages >= 0
        assert result.approximations > 0

    def test_reproducible(self):
        results = []
        for __ in range(2):
            p = make_protocol("SWAT-ASR", Topology.single_client(), 32, VR)
            results.append(run_replication(p, STREAM, quick_config()))
        assert results[0].total_messages == results[1].total_messages
        assert results[0].mean_abs_error == results[1].mean_abs_error

    def test_seed_changes_workload(self):
        a = run_replication(
            make_protocol("SWAT-ASR", Topology.single_client(), 32, VR),
            STREAM,
            quick_config(seed=1),
        )
        b = run_replication(
            make_protocol("SWAT-ASR", Topology.single_client(), 32, VR),
            STREAM,
            quick_config(seed=2),
        )
        assert a.total_messages != b.total_messages or a.mean_abs_error != b.mean_abs_error

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_answers_within_precision(self, name):
        """All three protocols honour the delta contract end to end."""
        p = make_protocol(name, Topology.single_client(), 32, VR)
        result = run_replication(p, STREAM, quick_config(precision=(5.0, 5.0)))
        assert result.mean_abs_error <= 5.0

    def test_multi_client_queries_counted_per_client(self):
        p = make_protocol("SWAT-ASR", Topology.complete_binary_tree(6), 32, VR)
        result = run_replication(p, STREAM, quick_config())
        assert result.n_queries == 6 * 120

    def test_messages_per_query_property(self):
        p = make_protocol("SWAT-ASR", Topology.single_client(), 32, VR)
        result = run_replication(p, STREAM, quick_config())
        assert result.messages_per_query == pytest.approx(
            result.total_messages / result.n_queries
        )

    def test_empty_stream_rejected(self):
        p = make_protocol("SWAT-ASR", Topology.single_client(), 32, VR)
        with pytest.raises(ValueError):
            run_replication(p, np.array([]), quick_config())

    def test_stream_cycles_when_short(self):
        short = STREAM[:100]
        p = make_protocol("SWAT-ASR", Topology.single_client(), 32, VR)
        result = run_replication(p, short, quick_config(data_period=0.25))
        assert result.n_arrivals > 100  # wrapped around
