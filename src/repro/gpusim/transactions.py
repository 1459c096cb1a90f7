"""Memory-transaction arithmetic: the unit the whole paper optimizes.

Global memory is accessed through 128-byte transactions (Section II-B,
Figures 5-6).  A warp reading 32 consecutive aligned 4-byte words needs one
transaction (coalesced); reading 32 scattered words needs up to 32.  These
helpers turn access patterns into transaction counts, which the meter then
converts to cycles.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.arraytypes import Array

from repro.gpusim.constants import (
    ELEMENT_BYTES,
    ELEMENTS_PER_TRANSACTION,
    TRANSACTION_BYTES,
)


def contiguous_read(num_elements: int, aligned: bool = True) -> int:
    """Transactions for a warp streaming ``num_elements`` consecutive words.

    With ``aligned=False`` the run may straddle one extra 128 B segment
    (Figure 6's uncoalesced example), costing one more transaction.
    """
    if num_elements <= 0:
        return 0
    base = math.ceil(num_elements / ELEMENTS_PER_TRANSACTION)
    if not aligned and num_elements % ELEMENTS_PER_TRANSACTION != 0:
        return base  # straddle already covered by the ceil
    if not aligned:
        return base + 1
    return base


def contiguous_reads(num_elements: Array) -> Array:
    """Elementwise aligned :func:`contiguous_read` of non-negative
    word counts."""
    return ((num_elements + ELEMENTS_PER_TRANSACTION - 1)
            // ELEMENTS_PER_TRANSACTION)


def scattered_read(num_accesses: int) -> int:
    """Transactions for fully scattered single-word reads: one each."""
    return max(0, num_accesses)


def strided_read(num_accesses: int, stride_elements: int) -> int:
    """Transactions for a warp reading words ``stride_elements`` apart.

    This models the row-first signature-table layout (Figure 8c): thread
    ``t`` reads word ``t * stride``.  The warp's 32 accesses cover
    ``32 * stride * 4`` bytes, i.e. ``ceil(32*stride*4 / 128)`` segments,
    capped at one transaction per access.
    """
    if num_accesses <= 0:
        return 0
    if stride_elements <= 1:
        return contiguous_read(num_accesses)
    span_bytes = num_accesses * stride_elements * ELEMENT_BYTES
    return min(num_accesses, math.ceil(span_bytes / TRANSACTION_BYTES))


def coalesced_segments(addresses: Iterable[int],
                       element_bytes: int = ELEMENT_BYTES) -> int:
    """Exact transaction count for arbitrary word addresses.

    Counts the distinct 128 B segments touched — the definition of how
    many transactions the hardware issues for one warp-wide access.
    """
    segs = {(a * element_bytes) // TRANSACTION_BYTES for a in addresses}
    return len(segs)


def batched_write(num_elements: int) -> int:
    """Transactions for writing ``num_elements`` words through a full
    128 B write cache (Section V): one store per full batch."""
    return contiguous_read(num_elements)


def unbatched_write(num_elements: int) -> int:
    """Transactions for writing elements one by one (no write cache)."""
    return max(0, num_elements)
