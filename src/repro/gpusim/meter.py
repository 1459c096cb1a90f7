"""Event counters for the simulated GPU.

A :class:`MemoryMeter` accumulates the quantities the paper reports in its
ablation tables: global-memory load transactions (GLD, Tables VI and XI),
global-memory store transactions (GST, Table VII), kernel launches, shared
memory traffic, and warp-wide element operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.gpusim.constants import LABEL_JOIN


@dataclass
class MeterSnapshot:
    """Immutable copy of a meter's counters at one instant."""

    gld: int = 0
    gst: int = 0
    shared: int = 0
    ops: int = 0
    kernel_launches: int = 0
    labeled_gld: Dict[str, int] = field(default_factory=dict)

    def diff(self, earlier: "MeterSnapshot") -> "MeterSnapshot":
        """Counters accumulated since ``earlier``."""
        labeled = {
            k: v - earlier.labeled_gld.get(k, 0)
            for k, v in self.labeled_gld.items()
        }
        return MeterSnapshot(
            gld=self.gld - earlier.gld,
            gst=self.gst - earlier.gst,
            shared=self.shared - earlier.shared,
            ops=self.ops - earlier.ops,
            kernel_launches=self.kernel_launches - earlier.kernel_launches,
            labeled_gld=labeled,
        )

    @property
    def join_gld(self) -> int:
        """GLD attributed to the join phase (Table VI / XI metric);
        the join charges its neighbor-store reads under the same
        label."""
        return self.labeled_gld.get(LABEL_JOIN, 0)

    @property
    def transactions(self) -> int:
        """Total memory transactions (GLD + GST), the sharding-bench
        per-shard work metric."""
        return self.gld + self.gst

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable counter dump (plain ints, string keys)."""
        return {
            "gld": int(self.gld),
            "gst": int(self.gst),
            "shared": int(self.shared),
            "ops": int(self.ops),
            "kernel_launches": int(self.kernel_launches),
            "labeled_gld": {str(k): int(v)
                            for k, v in self.labeled_gld.items()},
        }


def merge_shard_snapshots(snapshots: List[MeterSnapshot],
                          prefix: str = "shard") -> MeterSnapshot:
    """Merge per-shard meter snapshots into one attributed snapshot.

    Scalar counters and per-phase GLD labels are summed across shards;
    additionally each shard's *total* GLD is recorded under
    ``"{prefix}{i}"`` (and its GST under ``"{prefix}{i}/gst"``), so a
    merged scatter-gather result still answers "which shard did the
    work" from its ``labeled_gld`` alone.
    """
    merged = MeterSnapshot()
    labeled: Dict[str, int] = {}
    for i, snap in enumerate(snapshots):
        merged.gld += snap.gld
        merged.gst += snap.gst
        merged.shared += snap.shared
        merged.ops += snap.ops
        merged.kernel_launches += snap.kernel_launches
        for key, value in snap.labeled_gld.items():
            labeled[key] = labeled.get(key, 0) + value
        labeled[f"{prefix}{i}"] = snap.gld
        labeled[f"{prefix}{i}/gst"] = snap.gst
    merged.labeled_gld = labeled
    return merged


@dataclass
class MemoryMeter:
    """Mutable accumulator of simulated GPU events.

    One meter is created per engine run; storage structures and the join
    pipeline all record into it.
    """

    gld: int = 0
    gst: int = 0
    shared: int = 0
    ops: int = 0
    kernel_launches: int = 0
    _labels: Dict[str, int] = field(default_factory=dict)

    def add_gld(self, n: int, label: str = "") -> None:
        """Record ``n`` global-memory load transactions."""
        self.gld += n
        if label:
            self._labels[label] = self._labels.get(label, 0) + n

    def add_gst(self, n: int) -> None:
        """Record ``n`` global-memory store transactions."""
        self.gst += n

    def add_shared(self, n: int) -> None:
        """Record ``n`` shared-memory batch accesses."""
        self.shared += n

    def add_ops(self, n: int) -> None:
        """Record ``n`` warp-wide element operations."""
        self.ops += n

    def add_kernel_launch(self, n: int = 1) -> None:
        """Record ``n`` kernel launches."""
        self.kernel_launches += n

    def snapshot(self) -> MeterSnapshot:
        """Copy current counters (for before/after diffs)."""
        return MeterSnapshot(self.gld, self.gst, self.shared, self.ops,
                             self.kernel_launches, dict(self._labels))

    def labeled_gld(self, label: str) -> int:
        """GLD recorded under ``label`` (for per-source attribution)."""
        return self._labels.get(label, 0)

    def reset(self) -> None:
        """Zero all counters."""
        self.gld = self.gst = self.shared = self.ops = 0
        self.kernel_launches = 0
        self._labels.clear()
