"""Tests for warp-slot scheduling and the 4-layer load balance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.constants import (
    BLOCK_THREADS,
    KERNEL_LAUNCH_CYCLES,
    WARPS_PER_BLOCK,
)
from repro.gpusim.scheduler import (
    LoadBalanceConfig,
    makespan,
    schedule_kernel,
    split_tasks_4layer,
)


class TestMakespan:
    def test_empty(self):
        assert makespan([], 10) == 0.0

    def test_fewer_tasks_than_slots(self):
        assert makespan([5, 9, 2], 10) == 9

    def test_single_slot_sums(self):
        assert makespan([5, 9, 2], 1) == 16

    def test_greedy_assignment(self):
        # 4 tasks, 2 slots: 10,10 then 1,1 -> slots finish at 11 each.
        assert makespan([10, 10, 1, 1], 2) == 11

    def test_skew_dominates(self):
        costs = [1.0] * 100 + [1000.0]
        assert makespan(costs, 50) >= 1000.0

    def test_at_least_mean(self):
        costs = list(range(1, 101))
        assert makespan(costs, 7) >= sum(costs) / 7


class TestSplit4Layer:
    CFG = LoadBalanceConfig(w1=4096, w3=256)

    def test_layer4_untouched(self):
        out, extra, launches = split_tasks_4layer([10, 200, 256], self.CFG)
        assert out == [10.0, 200.0, 256.0]
        assert extra == 0.0
        assert launches == 0

    def test_layer3_chunks(self):
        out, extra, launches = split_tasks_4layer([512], self.CFG)
        merge = 2 * (64 / self.CFG.cycles_per_unit)
        assert len(out) == 2
        assert sum(out) == pytest.approx(512 + merge)
        assert max(out) <= 256 + merge
        assert launches == 0
        assert extra == 0  # merge overhead is per-chunk, not serial

    def test_layer2_block_spread(self):
        out, extra, _ = split_tasks_4layer([2048], self.CFG)
        merge = WARPS_PER_BLOCK * (64 / self.CFG.cycles_per_unit)
        assert len(out) == WARPS_PER_BLOCK
        assert sum(out) == pytest.approx(2048 + merge)

    def test_layer1_dedicated_kernel(self):
        out, extra, launches = split_tasks_4layer([100_000], self.CFG)
        assert out == []
        assert launches == 1
        assert extra >= KERNEL_LAUNCH_CYCLES

    def test_mixed(self):
        out, extra, launches = split_tasks_4layer(
            [10, 512, 2048, 100_000], self.CFG)
        assert launches == 1
        # work is conserved up to the per-chunk merge overheads
        assert sum(out) >= 10 + 512 + 2048
        assert sum(out) <= 10 + 512 + 2048 + len(out) * 64


class TestScheduleKernel:
    def test_launch_overhead_charged(self):
        r = schedule_kernel([100.0])
        assert r.elapsed_cycles >= KERNEL_LAUNCH_CYCLES + 100
        assert r.kernel_launches == 1

    def test_lb_reduces_makespan_on_skew(self):
        cfg = LoadBalanceConfig()
        units = [10.0] * 500 + [50_000.0]
        plain = schedule_kernel([u * cfg.cycles_per_unit for u in units])
        balanced = schedule_kernel(
            [u * cfg.cycles_per_unit for u in units], lb=cfg,
            task_units=units)
        assert balanced.elapsed_cycles < plain.elapsed_cycles

    def test_lb_counts_extra_launches(self):
        cfg = LoadBalanceConfig()
        r = schedule_kernel([1.0], lb=cfg, task_units=[100_000.0])
        assert r.kernel_launches == 2

    def test_lb_derives_units_when_missing(self):
        cfg = LoadBalanceConfig()
        r = schedule_kernel([100.0 * cfg.cycles_per_unit], lb=cfg)
        assert r.num_tasks_scheduled == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=60),
       st.integers(1, 64))
def test_property_makespan_bounds(costs, slots):
    span = makespan(costs, slots)
    if costs:
        assert span >= max(costs) - 1e-9
        assert span <= sum(costs) + 1e-6
    else:
        assert span == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1.0, 200_000.0), min_size=1, max_size=40))
def test_property_split_conserves_work_below_w1(units):
    cfg = LoadBalanceConfig()
    merge_units = 64 / cfg.cycles_per_unit
    small = [u for u in units if u <= cfg.w1]
    out, _, _ = split_tasks_4layer(small, cfg)
    assert sum(out) >= sum(small) - 1e-6
    assert sum(out) <= sum(small) + len(out) * merge_units + 1e-6
    assert all(u <= BLOCK_THREADS + merge_units + 1e-9 for u in out)
