"""GSI engine configuration: every knob the paper tunes or ablates.

The evaluation section toggles techniques one by one (Tables VI-XI); this
config makes each toggle explicit so a benchmark is a config sweep:

========================  =======================================
``use_pcsr``              "+DS"  (PCSR vs traditional CSR, Table VI)
``use_prealloc_combine``  "+PC"  (vs two-step output scheme, Table VI)
``use_gpu_set_ops``       "+SO"  (vs one kernel per set op, Table VI)
``use_write_cache``       write cache ablation (Table VII)
``use_load_balance``      "+LB"  (4-layer scheme, Tables VIII-X)
``use_duplicate_removal`` "+DR"  (Alg. 5, Tables VIII and XI)
``signature_bits``        N      (Table V tunes 64..512; the label
                                 part K is the constant
                                 ``signature.LABEL_BITS = 32``)
``gpn``                   group size of PCSR (16 -> 128 B groups)
``w1, w3``                load-balance thresholds (Tables IX-X)
``join_kernel``           host-side join lane: per-row or vectorized
                          buffers (one cost model for both)
========================  =======================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.gpusim.constants import BLOCK_THREADS
from repro.gpusim.scheduler import LoadBalanceConfig


@dataclass(frozen=True)
class GSIConfig:
    """Immutable GSI configuration; see module docstring for the mapping
    from fields to paper experiments."""

    # --- filtering phase (Section III-A) ---
    signature_bits: int = 512
    column_first_signatures: bool = True

    # --- storage structure (Section IV) ---
    use_pcsr: bool = True
    gpn: int = 16

    # --- joining phase (Section V) ---
    use_prealloc_combine: bool = True
    use_gpu_set_ops: bool = True
    use_write_cache: bool = True

    # --- optimizations (Section VI) ---
    use_load_balance: bool = False
    use_duplicate_removal: bool = False
    w1: int = 4096
    w3: int = 256

    # --- resource limits ---
    budget_ms: Optional[float] = None
    max_intermediate_rows: Optional[int] = None

    # --- host execution lane (does not change metered costs) ---
    # Picks only how the join computes each row's buffers: "rows" runs
    # one set operation per row; "vector" runs each edge as bulk NumPy
    # ops over the whole table.  The fetch and cost path are shared, so
    # both lanes produce byte-identical match sets and meter totals.
    # The default can be steered fleet-wide via ``GSI_JOIN_KERNEL``.
    join_kernel: str = field(default_factory=lambda: os.environ.get(
        "GSI_JOIN_KERNEL", "rows"))

    def __post_init__(self) -> None:
        n = self.signature_bits
        if n % 32 != 0 or not 32 < n <= 512:
            raise ConfigError(
                "signature_bits must be a multiple of 32 in (32, 512], "
                f"got {n}")
        if not 2 <= self.gpn <= 16:
            raise ConfigError(f"gpn must be in [2, 16], got {self.gpn}")
        if self.use_load_balance and not (
                self.w1 > BLOCK_THREADS > self.w3 > 32):
            raise ConfigError(
                f"need W1 > W2 > W3 > 32 with W2 = {BLOCK_THREADS}, "
                f"got {self.w1}/{self.w3}")
        if self.join_kernel not in ("rows", "vector"):
            raise ConfigError(
                f"join_kernel must be 'rows' or 'vector', "
                f"got {self.join_kernel!r}")

    # ------------------------------------------------------------------
    # Named presets from the paper
    # ------------------------------------------------------------------

    @staticmethod
    def baseline() -> "GSIConfig":
        """"GSI-": traditional CSR, two-step output, naive set ops."""
        return GSIConfig(use_pcsr=False, use_prealloc_combine=False,
                         use_gpu_set_ops=False, use_write_cache=False)

    @staticmethod
    def with_ds() -> "GSIConfig":
        """"+DS": GSI- plus the PCSR structure."""
        return replace(GSIConfig.baseline(), use_pcsr=True)

    @staticmethod
    def with_pc() -> "GSIConfig":
        """"+PC": +DS plus Prealloc-Combine."""
        return replace(GSIConfig.with_ds(), use_prealloc_combine=True)

    @staticmethod
    def with_so() -> "GSIConfig":
        """"+SO" == GSI: +PC plus GPU-friendly set operations."""
        return replace(GSIConfig.with_pc(), use_gpu_set_ops=True,
                       use_write_cache=True)

    @staticmethod
    def gsi() -> "GSIConfig":
        """GSI without Section VI optimizations (the Table VI endpoint)."""
        return GSIConfig()

    @staticmethod
    def with_lb() -> "GSIConfig":
        """"+LB": GSI plus the 4-layer load balance scheme."""
        return replace(GSIConfig.gsi(), use_load_balance=True)

    @staticmethod
    def gsi_opt() -> "GSIConfig":
        """GSI-opt: GSI plus load balance plus duplicate removal."""
        return replace(GSIConfig.gsi(), use_load_balance=True,
                       use_duplicate_removal=True)

    # ------------------------------------------------------------------

    def load_balance_config(self) -> Optional[LoadBalanceConfig]:
        """The scheduler's LB config, or None when disabled."""
        if not self.use_load_balance:
            return None
        return LoadBalanceConfig(w1=self.w1, w3=self.w3)

    @property
    def storage_kind(self) -> str:
        """Which neighbor store the join phase uses."""
        return "pcsr" if self.use_pcsr else "csr"
