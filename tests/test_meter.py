"""Tests for the event meter."""

from repro.gpusim.meter import MemoryMeter, MeterSnapshot


class TestMeter:
    def test_counters_accumulate(self):
        m = MemoryMeter()
        m.add_gld(5)
        m.add_gld(3, label="join")
        m.add_gst(2)
        m.add_shared(7)
        m.add_ops(11)
        m.add_kernel_launch()
        assert m.gld == 8
        assert m.gst == 2
        assert m.shared == 7
        assert m.ops == 11
        assert m.kernel_launches == 1
        assert m.labeled_gld("join") == 3
        assert m.labeled_gld("filter") == 0

    def test_reset(self):
        m = MemoryMeter()
        m.add_gld(5, label="x")
        m.reset()
        assert m.gld == 0
        assert m.labeled_gld("x") == 0

    def test_snapshot_is_immutable_copy(self):
        m = MemoryMeter()
        m.add_gld(4, label="join")
        snap = m.snapshot()
        m.add_gld(10, label="join")
        assert snap.gld == 4
        assert snap.labeled_gld["join"] == 4

    def test_diff(self):
        m = MemoryMeter()
        m.add_gld(4, label="join")
        before = m.snapshot()
        m.add_gld(6, label="join")
        m.add_gst(2)
        delta = m.snapshot().diff(before)
        assert delta.gld == 6
        assert delta.gst == 2
        assert delta.labeled_gld["join"] == 6

    def test_join_gld_reads_the_join_label_only(self):
        m = MemoryMeter()
        m.add_gld(3, label="join")
        m.add_gld(7, label="join")
        m.add_gld(100, label="filter")
        m.add_gld(50, label="pcsr_maintain")
        m.add_gld(9)
        assert m.snapshot().join_gld == 10

    def test_default_snapshot_empty(self):
        s = MeterSnapshot()
        assert s.gld == 0 and s.join_gld == 0
