"""Tests for repro.network.directory and messages: Table 1 structure."""

import pytest

from repro.network.directory import Directory, DirectoryRow, Segment, window_segments
from repro.network.messages import MessageKind, MessageStats


class TestWindowSegments:
    def test_table1_partition_for_N16(self):
        """Table 1: (0,1), (2,3), (4,7), (8,15) for a 16-value window."""
        segs = window_segments(16)
        assert [(s.newest, s.oldest) for s in segs] == [(0, 1), (2, 3), (4, 7), (8, 15)]

    def test_logN_rows(self):
        for n in (4, 8, 32, 256):
            import math

            assert len(window_segments(n)) == int(math.log2(n))

    def test_partition_is_disjoint_and_complete(self):
        for n in (8, 64):
            covered = sorted(i for s in window_segments(n) for i in s.indices())
            assert covered == list(range(n))

    def test_rejects_bad_sizes(self):
        for bad in (0, 2, 3, 12):
            with pytest.raises(ValueError):
                window_segments(bad)


class TestSegment:
    def test_contains(self):
        s = Segment(4, 7)
        assert 4 in s and 7 in s and 3 not in s and 8 not in s

    def test_length(self):
        assert Segment(8, 15).length == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            Segment(5, 2)
        with pytest.raises(ValueError):
            Segment(-1, 2)

    def test_str(self):
        assert str(Segment(2, 3)) == "(2,3)"


class TestDirectoryRow:
    def test_enclosure_semantics(self):
        row = DirectoryRow(Segment(2, 3), approx=(30.0, 40.0))
        assert row.encloses((32.0, 38.0))  # the paper's walk-through case
        assert row.encloses((30.0, 40.0))
        assert not row.encloses((29.0, 40.0))
        assert not row.encloses((30.0, 41.0))

    def test_uncached_row(self):
        row = DirectoryRow(Segment(0, 1))
        assert not row.is_cached
        assert row.width == float("inf")
        assert not row.encloses((0.0, 1.0))
        with pytest.raises(ValueError):
            __ = row.midpoint

    def test_width_and_midpoint(self):
        row = DirectoryRow(Segment(0, 1), approx=(30.0, 40.0))
        assert row.width == 10.0
        assert row.midpoint == 35.0

    def test_note_read_moves_to_interested(self):
        row = DirectoryRow(Segment(0, 1))
        row.note_read("C1")
        row.note_read("C1")
        assert row.interested == {"C1"}
        assert row.read_counts["C1"] == 2

    def test_note_read_subscribed_not_interested(self):
        row = DirectoryRow(Segment(0, 1))
        row.subscribed.add("C1")
        row.note_read("C1")
        assert row.interested == set()
        assert row.read_counts["C1"] == 1

    def test_reset_counts(self):
        row = DirectoryRow(Segment(0, 1))
        row.note_read("C1")
        row.local_reads = 3
        row.write_count = 2
        row.reset_counts()
        assert row.read_counts == {}
        assert row.local_reads == 0
        assert row.write_count == 0


class TestDirectory:
    def test_segment_of(self):
        d = Directory(16)
        assert d.segment_of(0) == Segment(0, 1)
        assert d.segment_of(5) == Segment(4, 7)
        assert d.segment_of(15) == Segment(8, 15)
        with pytest.raises(IndexError):
            d.segment_of(16)

    def test_cached_count(self):
        d = Directory(16)
        assert d.cached_count() == 0
        d.row(Segment(0, 1)).approx = (1.0, 2.0)
        assert d.cached_count() == 1


class TestRuleBook:
    """Figure 8's per-row rules, shared by both SWAT-ASR runtimes."""

    def test_write_rule_ignores_uncached_and_enclosed_ranges(self):
        row = DirectoryRow(Segment(2, 3))
        assert row.adopt((30.0, 40.0)) is False  # first copy: no write
        assert row.approx == (30.0, 40.0) and row.write_count == 0
        assert row.adopt((32.0, 38.0)) is False  # enclosed: silent refinement
        assert row.approx == (32.0, 38.0) and row.write_count == 0

    def test_write_rule_counts_a_non_enclosed_range(self):
        row = DirectoryRow(Segment(2, 3), approx=(30.0, 40.0))
        assert row.adopt((29.0, 40.0)) is True
        assert row.approx == (29.0, 40.0) and row.write_count == 1

    def test_reads_count_locally_or_per_child(self):
        row = DirectoryRow(Segment(0, 1))
        row.count_read(None)
        row.count_read("C1")
        assert row.local_reads == 1
        assert row.read_counts == {"C1": 1} and row.interested == {"C1"}

    def test_contraction_needs_cached_unsubscribed_and_reads_below_writes(self):
        row = DirectoryRow(Segment(0, 1), approx=(0.0, 1.0), write_count=2, local_reads=1)
        assert row.should_contract()
        row.local_reads = 2  # reads caught up with writes
        assert not row.should_contract()
        row.local_reads = 1
        row.subscribed.add("C2")  # not on the fringe
        assert not row.should_contract()
        row.subscribed.clear()
        row.approx = None  # nothing to drop
        assert not row.should_contract()

    def test_expansion_without_a_copy_clears_interest(self):
        row = DirectoryRow(Segment(0, 1), interested={"C1"}, read_counts={"C1": 5})
        assert row.expand() == []
        assert row.interested == set() and row.subscribed == set()

    def test_expansion_pushes_refreshes_then_inserts_sorted(self):
        row = DirectoryRow(
            Segment(0, 1),
            approx=(0.0, 1.0),
            subscribed={"C3", "C1", "C5"},
            interested={"C4", "C2", "C6"},
            read_counts={"C1": 2, "C3": 2, "C5": 1, "C2": 2, "C4": 2, "C6": 0},
            write_count=1,
        )
        assert row.expand() == [
            ("C1", MessageKind.UPDATE),
            ("C3", MessageKind.UPDATE),
            ("C2", MessageKind.INSERT),
            ("C4", MessageKind.INSERT),
        ]
        assert row.interested == set()
        assert row.subscribed == {"C1", "C2", "C3", "C4", "C5"}

    def test_query_test_counts_reads_only_when_satisfied(self):
        d = Directory(16)
        d.row(Segment(0, 1)).approx = (30.0, 40.0)
        by_segment = {Segment(0, 1): [0, 1]}
        weights = {0: 0.5, 1: 0.5}
        assert d.satisfy(by_segment, weights, 8.0, "C3") is None  # offers 10 > 8
        assert d.row(Segment(0, 1)).read_counts == {}
        assert d.satisfy(by_segment, weights, 10.0, "C3") == {0: 35.0, 1: 35.0}
        assert d.row(Segment(0, 1)).read_counts == {"C3": 1}
        assert d.satisfy(by_segment, weights, 10.0, None) == {0: 35.0, 1: 35.0}
        assert d.row(Segment(0, 1)).local_reads == 1

    def test_query_test_uses_the_callers_width(self):
        d = Directory(16)
        d.row(Segment(0, 1)).approx = (30.0, 40.0)
        distrusted = d.satisfy(
            {Segment(0, 1): [0]}, {0: 1.0}, 100.0, None, width=lambda seg: float("inf")
        )
        assert distrusted is None and d.row(Segment(0, 1)).local_reads == 0

    def test_uncached_rows_offer_infinite_width(self):
        d = Directory(16)
        assert d.satisfy({Segment(4, 7): [4]}, {4: 1.0}, 1e300, "C1") is None

    def test_directory_reset_counts_clears_every_row(self):
        d = Directory(16)
        for row in d.rows.values():
            row.write_count, row.local_reads = 3, 2
        d.reset_counts()
        assert all(r.write_count == 0 and r.local_reads == 0 for r in d.rows.values())


class TestMessageStats:
    def test_counts_by_kind(self):
        s = MessageStats()
        s.record(MessageKind.QUERY, 3)
        s.record(MessageKind.UPDATE)
        assert s.count(MessageKind.QUERY) == 3
        assert s.total == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record("carrier-pigeon")

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record(MessageKind.QUERY, -1)

    def test_reset_and_snapshot(self):
        s = MessageStats()
        s.record(MessageKind.INSERT)
        snap = s.snapshot()
        assert snap[MessageKind.INSERT] == 1
        s.reset()
        assert s.total == 0
