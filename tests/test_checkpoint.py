"""Tests for the persistence subsystem: checkpoint container, WAL, store.

The durable-format properties (round trips are bit-identical, every kind of
corruption is rejected, the WAL tolerates torn tails) live here;
protocol-level crash recovery is in ``tests/test_recovery.py``.
"""

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, obs
from repro.core import Swat, exponential_query
from repro.core.engine import QueryEngine
from repro.core.errors import MAX_STREAM_MAGNITUDE
from repro.data import uniform_stream
from repro.histogram.prefix import PrefixStats
from repro.network.directory import Directory
from repro.network.faults import FaultPlan
from repro.persist import (
    CheckpointCorruptError,
    CheckpointPolicy,
    CheckpointStore,
    WriteAheadLog,
    WriteAheadLogFull,
    lift_arrays,
    load_checkpoint,
    pack_swat_state,
    plant_arrays,
    write_checkpoint,
)


# ------------------------------------------------------------- array lifting


class TestArrayLifting:
    def test_round_trip_preserves_arrays_and_structure(self):
        state = {
            "a": np.arange(4, dtype=np.float64),
            "nested": {"b": [1, {"c": np.ones(3)}], "plain": "x"},
        }
        lifted, arrays = lift_arrays(state)
        assert json.dumps(lifted)  # JSON-safe
        planted = plant_arrays(lifted, arrays)
        assert np.array_equal(planted["a"], state["a"])
        assert np.array_equal(planted["nested"]["b"][1]["c"], np.ones(3))
        assert planted["nested"]["plain"] == "x"

    def test_reserved_key_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            lift_arrays({"__array__": "oops"})

    def test_missing_array_reference_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="missing array"):
            plant_arrays({"__array__": "a0"}, {})


# --------------------------------------------------------- file round trips


def fed_tree(n_fed=300, window=64, **kwargs):
    tree = Swat(window, **kwargs)
    tree.extend(uniform_stream(n_fed, seed=3))
    return tree


class TestCheckpointFile:
    def test_swat_round_trip_is_bit_identical(self, tmp_path):
        tree = fed_tree()
        path = str(tmp_path / "t.ckpt")
        write_checkpoint(path, "swat", pack_swat_state(tree.to_state()))
        state, meta = load_checkpoint(path, "swat")
        restored = Swat.from_state(state)
        assert meta == {}
        q = exponential_query(32)
        assert restored.answer(q).value == tree.answer(q).value
        assert np.array_equal(
            restored.reconstruct_window(), tree.reconstruct_window()
        )

    def test_meta_round_trips(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        write_checkpoint(path, "swat", {"x": 1}, {"seed": 7, "note": "hi"})
        __, meta = load_checkpoint(path)
        assert meta == {"seed": 7, "note": "hi"}

    def test_prefix_stats_round_trip(self, tmp_path):
        prefix = PrefixStats(64)
        prefix.extend(uniform_stream(300, seed=3))
        path = str(tmp_path / "p.ckpt")
        write_checkpoint(path, "prefix", prefix.to_state())
        state, __ = load_checkpoint(path, "prefix")
        restored = PrefixStats.from_state(state)
        assert restored.interval_sum(0, 63) == prefix.interval_sum(0, 63)
        assert restored.sse(0, 63) == prefix.sse(0, 63)
        for v in uniform_stream(200, seed=4):
            prefix.update(float(v))
            restored.update(float(v))
        assert restored.interval_sum(0, 63) == prefix.interval_sum(0, 63)

    def test_directory_round_trip(self, tmp_path):
        directory = Directory(32)
        seg = directory.segments[2]
        row = directory.row(seg)
        row.approx = (1.25, 7.5)
        row.subscribed.update({"C2", "C1"})
        row.interested.add("C3")
        row.note_read("C2")
        row.local_reads = 3
        row.write_count = 2
        path = str(tmp_path / "d.ckpt")
        write_checkpoint(path, "directory", directory.to_state())
        state, __ = load_checkpoint(path, "directory")
        restored = Directory(32)
        restored.load_state(state)
        restored_row = restored.row(seg)
        assert restored_row.approx == (1.25, 7.5)
        assert restored_row.subscribed == {"C1", "C2"}
        assert restored_row.interested == {"C3"}
        assert restored_row.read_counts == row.read_counts
        assert restored_row.local_reads == 3
        assert restored_row.write_count == 2

    def test_non_finite_state_refused_at_write(self, tmp_path):
        path = str(tmp_path / "nan.ckpt")
        with pytest.raises(ValueError):
            write_checkpoint(path, "swat", {"x": float("nan")})
        assert not os.path.exists(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        write_checkpoint(path, "swat", {"x": 1})
        assert os.listdir(tmp_path) == ["a.ckpt"]


SWAT_CONFIGS = st.one_of(
    st.fixed_dictionaries({"k": st.integers(1, 4)}),
    st.fixed_dictionaries(
        {"min_level": st.integers(1, 3), "k": st.integers(1, 2)}
    ),
    st.fixed_dictionaries({"use_raw_leaves": st.booleans()}),
    st.fixed_dictionaries({"wavelet": st.just("db2"), "k": st.integers(2, 4)}),
    st.fixed_dictionaries({"track_deviation": st.just(True)}),
)


class TestHypothesisRoundTrip:
    @settings(max_examples=25)
    @given(config=SWAT_CONFIGS, n_fed=st.integers(0, 200), seed=st.integers(0, 5))
    def test_disk_round_trip_continues_bit_identically(
        self, tmp_path_factory, config, n_fed, seed
    ):
        stream = uniform_stream(n_fed + 100, seed=seed)
        tree = Swat(64, **config)
        tree.extend(stream[:n_fed])
        path = str(tmp_path_factory.mktemp("ckpt") / "t.ckpt")
        write_checkpoint(path, "swat", pack_swat_state(tree.to_state()))
        state, __ = load_checkpoint(path, "swat")
        restored = Swat.from_state(state)
        assert restored.time == tree.time
        for v in stream[n_fed:]:
            tree.update(float(v))
            restored.update(float(v))
        assert np.array_equal(
            restored.reconstruct_window(), tree.reconstruct_window()
        )
        for a, b in zip(tree.nodes(), restored.nodes()):
            assert a.end_time == b.end_time
            assert np.array_equal(a.coeffs, b.coeffs)


# ------------------------------------------------------ corruption rejection


class TestCorruptionRejection:
    def write_one(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        tree = fed_tree(120)
        write_checkpoint(path, "swat", pack_swat_state(tree.to_state()))
        return path

    def corrupt(self, path, mutate):
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        mutate(raw)
        with open(path, "wb") as fh:
            fh.write(bytes(raw))

    def test_truncation_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        self.corrupt(path, lambda raw: raw.__delitem__(slice(len(raw) // 2, None)))
        with pytest.raises(CheckpointCorruptError, match="torn write"):
            load_checkpoint(path)

    def test_state_bit_flip_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        with open(path, "rb") as fh:
            header_end = fh.read().find(b"\n")

        def flip(raw):
            raw[header_end + 10] ^= 0xFF

        self.corrupt(path, flip)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_array_bit_flip_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        self.corrupt(path, lambda raw: raw.__setitem__(-3, raw[-3] ^ 0xFF))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b'{"magic": "something-else"}\n')
        with pytest.raises(CheckpointCorruptError, match="magic"):
            load_checkpoint(path)

    def test_not_even_json_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02\n more garbage")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_missing_header_line_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"no newline anywhere")
        with pytest.raises(CheckpointCorruptError, match="header"):
            load_checkpoint(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = self.write_one(tmp_path)
        with pytest.raises(CheckpointCorruptError, match="kind"):
            load_checkpoint(path, "asr-site")

    def test_unsupported_version_rejected(self, tmp_path):
        path = str(tmp_path / "v.ckpt")
        write_checkpoint(path, "swat", {"x": 1})
        with open(path, "rb") as fh:
            raw = fh.read()
        header_end = raw.find(b"\n")
        header = json.loads(raw[:header_end])
        header["version"] = 999
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + raw[header_end:])
        with pytest.raises(CheckpointCorruptError, match="version"):
            load_checkpoint(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_corrupt_load_bumps_counter(self, tmp_path, obs_registry):
        path = self.write_one(tmp_path)
        self.corrupt(path, lambda raw: raw.__delitem__(slice(20, None)))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["checkpoint.load.corrupt"] == 1


# --------------------------------------------------------- torn-write rolls


class TestTornWriteInjection:
    def test_torn_write_produces_corrupt_file(self, tmp_path):
        plan = FaultPlan(seed=0, torn_write_rate=1.0)
        path = str(tmp_path / "torn.ckpt")
        tree = fed_tree(120)
        write_checkpoint(
            path,
            "swat",
            pack_swat_state(tree.to_state()),
            faults=plan,
            torn_key=(1, 2),
        )
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_zero_rate_never_tears(self, tmp_path):
        plan = FaultPlan(seed=0, drop_rate=0.5)
        path = str(tmp_path / "ok.ckpt")
        write_checkpoint(path, "swat", {"x": 1}, faults=plan, torn_key=(1, 2))
        state, __ = load_checkpoint(path)
        assert state == {"x": 1}

    def test_keyed_rolls_are_reproducible(self):
        a = FaultPlan(seed=9, torn_write_rate=0.5)
        b = FaultPlan(seed=9, torn_write_rate=0.5)
        keys = [(i, j) for i in range(4) for j in range(4)]
        assert [a.roll_torn_write(k) for k in keys] == [
            b.roll_torn_write(k) for k in keys
        ]
        assert [a.roll_torn_fraction(k) for k in keys] == [
            b.roll_torn_fraction(k) for k in keys
        ]

    def test_summary_and_is_zero_fault_know_torn_rate(self):
        plan = FaultPlan(seed=0, torn_write_rate=0.25)
        assert plan.summary()["torn_write_rate"] == 0.25
        assert not plan.is_zero_fault
        assert FaultPlan(seed=0).is_zero_fault


# ----------------------------------------------------------------------- WAL


class TestWriteAheadLog:
    def test_floats_round_trip_bit_exactly(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        values = list(uniform_stream(50, seed=1))
        for v in values:
            wal.append(float(v))
        records, torn = wal.replay()
        assert torn == 0
        assert records == [float(v) for v in values]

    def test_structured_records_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        rec = {"k": "up", "seg": [0, 7], "range": [1.5, 2.5], "version": 3}
        wal.append(rec)
        assert wal.replay()[0] == [rec]

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append(1.0)
        wal.append(2.0)
        with open(path, "ab") as fh:
            fh.write(b"deadbeef {\"half\": ")  # torn final append
        records, torn = wal.replay()
        assert records == [1.0, 2.0]
        assert torn == 1

    def test_everything_after_a_tear_is_untrusted(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append(1.0)
        good = json.dumps(2.0)
        line = f"{zlib.crc32(good.encode()) & 0xFFFFFFFF:08x} {good}\n"
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(line.encode())  # CRC-valid but after the tear
        records, torn = wal.replay()
        assert records == [1.0]
        assert torn == 2

    def test_bound_enforced(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"), max_records=3)
        for i in range(3):
            wal.append(i)
        assert wal.is_full
        with pytest.raises(WriteAheadLogFull):
            wal.append(99)
        wal.reset()
        assert len(wal) == 0
        wal.append(100)  # usable again

    def test_existing_file_adopted(self, tmp_path):
        path = str(tmp_path / "w.wal")
        first = WriteAheadLog(path)
        first.append(1.0)
        first.append(2.0)
        second = WriteAheadLog(path)
        assert len(second) == 2
        second.append(3.0)
        assert second.replay()[0] == [1.0, 2.0, 3.0]

    def test_non_finite_record_refused(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.wal"))
        with pytest.raises(ValueError):
            wal.append(float("inf"))
        assert len(wal) == 0


# ------------------------------------------------------------ policy & store


class TestCheckpointPolicy:
    def test_defaults(self):
        policy = CheckpointPolicy()
        assert policy.every_phase
        assert policy.every_arrivals is None
        assert not policy.due_after_arrival(10_000)

    def test_arrival_trigger(self):
        policy = CheckpointPolicy(every_arrivals=5)
        assert not policy.due_after_arrival(4)
        assert policy.due_after_arrival(5)

    @pytest.mark.parametrize(
        "kwargs", [{"every_arrivals": 0}, {"wal_limit": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CheckpointPolicy(**kwargs)


class TestCheckpointStore:
    def test_write_then_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        store.wal("S").append(1.0)
        store.write("S", "swat", {"x": 2})
        assert store.has_checkpoint("S")
        assert len(store.wal("S")) == 0  # reset after checkpoint
        state, __ = load_checkpoint(store.checkpoint_path("S"), "swat")
        assert state == {"x": 2}

    def test_site_ids_sanitized(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck"))
        path = store.checkpoint_path("site/../../evil")
        assert os.path.dirname(path) == str(tmp_path / "ck")
        assert "/" not in os.path.basename(path).replace(".ckpt", "")


# ------------------------------------------- engine restore (epoch) & swat


class TestEngineRestoreRegression:
    def test_restore_state_bumps_epoch(self):
        tree = fed_tree(200)
        other = fed_tree(260)
        before = tree.epoch
        tree.restore_state(other.to_state())
        assert tree.epoch == before + 1

    def test_restore_config_mismatch_rejected(self):
        tree = fed_tree(100)
        other = Swat(64, k=2)
        other.extend(uniform_stream(100, seed=3))
        with pytest.raises(ValueError, match="malformed"):
            tree.restore_state(other.to_state())

    def test_warm_engine_serves_restored_tree(self):
        """Restoring a checkpoint under a live QueryEngine must not serve
        answers from the pre-restore tree's cached plans/memos."""
        stream = uniform_stream(600, seed=3)
        tree = Swat(64)
        tree.extend(stream[:250])
        engine = QueryEngine(tree)
        q = exponential_query(32)
        engine.answer(q)  # warm the plan cache against the old contents
        donor = Swat(64)
        donor.extend(stream[:500])
        tree.restore_state(donor.to_state())
        fresh = QueryEngine(tree).answer(q)
        assert engine.answer(q).value == fresh.value
        assert engine.answer(q).value == donor.answer(q).value

    def test_warm_engine_batch_and_estimates_follow_restore(self):
        stream = uniform_stream(600, seed=5)
        tree = Swat(64)
        tree.extend(stream[:200])
        engine = QueryEngine(tree)
        q = exponential_query(16)
        engine.answer_batch([q])
        engine.estimates(range(8))
        donor = Swat(64)
        donor.extend(stream[:450])
        tree.restore_state(donor.to_state())
        assert engine.answer_batch([q])[0].value == donor.answer(q).value
        assert np.array_equal(
            engine.estimates(range(8)), QueryEngine(donor).estimates(range(8))
        )


PAST_LIMIT = float(np.nextafter(MAX_STREAM_MAGNITUDE, np.inf))


class TestFromStateValidation:
    def test_extra_coeffs_rejected(self):
        tree = fed_tree(200, k=2)
        state = tree.to_state()
        for node in state["nodes"]:
            node["coeffs"] = [1.0, 2.0, 3.0]
            break
        with pytest.raises(ValueError, match="malformed"):
            Swat.from_state(state)

    def test_future_end_time_rejected(self):
        tree = fed_tree(200)
        state = tree.to_state()
        filled = [n for n in state["nodes"] if n.get("end_time") is not None]
        filled[0]["end_time"] = state["time"] + 100
        with pytest.raises(ValueError, match="malformed"):
            Swat.from_state(state)

    def test_level_below_min_level_rejected(self):
        tree = fed_tree(200, min_level=2, k=1)
        state = tree.to_state()
        state["nodes"][0]["level"] = 0
        with pytest.raises(ValueError, match="malformed"):
            Swat.from_state(state)

    def test_non_finite_coeffs_rejected(self):
        tree = fed_tree(200)
        state = tree.to_state()
        state["nodes"][0]["coeffs"] = [float("nan")]
        with pytest.raises(ValueError, match="malformed"):
            Swat.from_state(state)

    @pytest.mark.parametrize("past", [1e300, -1e300, PAST_LIMIT])
    def test_ring_buffer_past_ingest_limit_rejected(self, past):
        # A restored tree would otherwise serve the value live ingest refuses.
        tree = Swat(16)
        tree.extend(np.arange(40.0))
        state = tree.to_state()
        state["buffer"][0] = past
        with pytest.raises(ValueError, match="malformed Swat state"):
            Swat.from_state(state)
        before = tree.estimates([0, 1]).tolist()
        with pytest.raises(ValueError, match="malformed Swat state"):
            tree.restore_state(state)
        assert tree.estimates([0, 1]).tolist() == before

    def test_ring_buffer_at_ingest_limit_restores(self):
        # The limit itself is a legal stream value, so a restored buffer
        # holding it serves it back like the live tree does.
        tree = Swat(16)
        tree.extend(np.arange(39.0))
        tree.update(-MAX_STREAM_MAGNITUDE)
        restored = Swat.from_state(tree.to_state())
        assert restored.estimates([0]).tolist() == [-MAX_STREAM_MAGNITUDE]
        assert restored.estimates([0]).tolist() == tree.estimates([0]).tolist()

    @pytest.mark.parametrize("past", [1e300, -1e300, PAST_LIMIT])
    def test_prefix_values_past_ingest_limit_rejected(self, past):
        stats = PrefixStats(8)
        stats.extend(np.arange(12.0))
        state = stats.to_state()
        state["values"][0] = past
        with pytest.raises(ValueError, match="malformed PrefixStats state"):
            PrefixStats.from_state(state)

    def test_prefix_values_at_ingest_limit_restore(self):
        stats = PrefixStats(8)
        stats.extend([MAX_STREAM_MAGNITUDE, -MAX_STREAM_MAGNITUDE] * 6)
        restored = PrefixStats.from_state(stats.to_state())
        assert restored.sse(0, 8) == stats.sse(0, 8)
        assert restored.interval_sq_sum(0, 8) == stats.interval_sq_sum(0, 8)

    def test_largest_k_selection_rejected(self):
        # Read as first-k coefficients, a top-k-by-magnitude summary would
        # serve wrong answers without any error.
        tree = fed_tree(200, k=2)
        state = tree.to_state()
        state["selection"] = "largest"
        with pytest.raises(ValueError, match="malformed Swat state: selection"):
            Swat.from_state(state)
        with pytest.raises(ValueError, match="malformed Swat state: selection"):
            tree.restore_state(state)

    def test_node_positions_rejected(self):
        tree = fed_tree(200, k=2)
        state = tree.to_state()
        state["nodes"][0]["positions"] = [0, 3]
        with pytest.raises(ValueError, match="largest-k positions"):
            Swat.from_state(state)
        with pytest.raises(ValueError, match="largest-k positions"):
            tree.restore_state(state)

    def test_to_state_refuses_non_finite_contents(self):
        tree = fed_tree(200)
        node = next(n for n in tree.nodes() if n.is_filled)
        node.coeffs = np.array([float("inf")])
        with pytest.raises(ValueError):
            tree.to_state()

    def test_to_state_json_never_emits_nan_tokens(self):
        tree = fed_tree(200)
        text = json.dumps(tree.to_state(), allow_nan=False)
        assert "NaN" not in text and "Infinity" not in text


# -------------------------------------------------------------- CLI surface


class TestSnapshotRestoreCli:
    def test_round_trip_bit_identical(self, tmp_path, capsys):
        path = str(tmp_path / "s.ckpt")
        assert cli.main(["snapshot", path, "--quick"]) == 0
        assert cli.main(["restore", path]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_restores_first_k_checkpoint_of_earlier_format(self, tmp_path, capsys):
        # A committed `repro snapshot --quick` file from an earlier version
        # (its state names "selection": "first" and per-node "positions":
        # null); restore must keep accepting that format.
        src = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoints")
        path = str(tmp_path / "first_k_snapshot.ckpt")
        for suffix in ("", ".wal"):
            with open(os.path.join(src, "first_k_snapshot.ckpt" + suffix), "rb") as fh:
                raw = fh.read()
            with open(path + suffix, "wb") as fh:
                fh.write(raw)
        assert cli.main(["restore", path]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_restore_corrupt_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "s.ckpt")
        assert cli.main(["snapshot", path, "--quick"]) == 0
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        assert cli.main(["restore", path]) == 1

    def test_restore_missing_exits_nonzero(self, tmp_path):
        assert cli.main(["restore", str(tmp_path / "absent.ckpt")]) == 1

    def test_usage_errors(self):
        assert cli.main(["snapshot"]) == 2
        assert cli.main(["restore", "a", "b"]) == 2
