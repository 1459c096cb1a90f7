"""Shared helpers for the paper-reproduction benchmarks.

Every ``bench_*`` file reproduces one table or figure of the paper.  The
rendered paper-style tables are collected here and printed in the
terminal summary (pytest captures per-test stdout, terminal-summary
output always reaches the console / tee).  Tables are also written to
``benchmarks/results/`` for later inspection.

This lives outside ``conftest.py`` so benchmark modules can import it as
``from bench_common import record_report`` without colliding with the
test suite's ``tests/conftest.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.metrics import get_registry

_REPORTS: List[str] = []
_RESULTS_DIR = Path(__file__).parent / "results"

#: benchmark-wide workload knobs (paper: 100 queries, |V(Q)| = 12; we
#: default smaller so the whole suite runs in minutes — raise via env)
NUM_QUERIES = int(os.environ.get("GSI_BENCH_QUERIES", "3"))
QUERY_VERTICES = int(os.environ.get("GSI_BENCH_QUERY_VERTICES", "12"))


def probe_transactions(store: Any,
                       probes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Locate + read transactions of every ``N(v, l)`` probe, in probe
    order, from one ``store.gather`` per label."""
    by_label: Dict[int, List[int]] = {}
    for i, (_, label) in enumerate(probes):
        by_label.setdefault(label, []).append(i)
    out = np.zeros(len(probes), dtype=np.int64)
    for label, at in by_label.items():
        got = store.gather(np.array([probes[i][0] for i in at],
                                    dtype=np.int64), label)
        out[at] = got.locate + got.read
    return out


def record_report(name: str, text: str) -> None:
    """Register a rendered table for terminal-summary printing and save
    it under ``benchmarks/results/<name>.txt``."""
    _REPORTS.append(text)
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                              encoding="utf-8")


def collected_reports() -> List[str]:
    """All tables recorded so far (consumed by the terminal summary)."""
    return list(_REPORTS)


def write_bench_json(name: str, payload: Any,
                     path: Optional[str] = None) -> Path:
    """Persist a benchmark's machine-readable outcome as JSON.

    ``path`` is the user-supplied ``--json`` argument: a path ending in
    ``.json`` is used verbatim; anything else is treated as a directory
    receiving ``BENCH_<name>.json``.  With no ``path`` the file lands in
    ``benchmarks/results/``.  Returns the path written.

    Dict payloads additionally get an ``obs_metrics`` key holding the
    process metrics-registry snapshot at write time (cache hit rates,
    shipped bytes, batch fill levels, ...), so every ``--json``
    artifact doubles as an observability record of its own run.
    """
    if isinstance(payload, dict) and "obs_metrics" not in payload:
        payload = dict(payload)
        payload["obs_metrics"] = get_registry().snapshot()
    if path is None:
        target = _RESULTS_DIR / f"BENCH_{name}.json"
    else:
        candidate = Path(path)
        if candidate.suffix == ".json":
            target = candidate
        else:
            target = candidate / f"BENCH_{name}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                 default=str) + "\n", encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# Traffic generators (shared by the serving / traffic benchmarks)
# ----------------------------------------------------------------------


def poisson_arrival_times(rate_qps: float, num: int,
                          seed: int = 0) -> List[float]:
    """Absolute arrival offsets (seconds) of a Poisson process.

    Interarrival gaps are i.i.d. exponential with mean ``1/rate_qps``;
    the returned offsets are their running sum starting at 0.0.  This
    is the *open-loop* arrival model: clients fire on a clock,
    regardless of whether earlier requests completed, so queueing delay
    is visible instead of self-throttled away.
    """
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    if num < 0:
        raise ValueError(f"num must be >= 0, got {num}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num)
    return np.concatenate([[0.0], np.cumsum(gaps)[:-1]]).tolist() \
        if num else []


def zipf_indices(num_items: int, num_picks: int, seed: int = 0,
                 exponent: float = 1.1) -> List[int]:
    """``num_picks`` indices into ``0..num_items-1``, Zipf-skewed.

    The classic skewed-repetition workload: a few hot query shapes
    dominate (what plan caches and in-flight dedup feed on) with a long
    tail of cold ones.  ``exponent`` controls the skew (larger =
    hotter head).
    """
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_items + 1, dtype=np.float64) \
        ** exponent
    weights /= weights.sum()
    return rng.choice(num_items, size=num_picks, p=weights).tolist()


async def run_closed_loop(submit: Callable[[Any], Awaitable[Any]],
                          items: Sequence[Any],
                          concurrency: int) -> List[Any]:
    """Closed-loop load: ``concurrency`` clients, each back-to-back.

    Client ``c`` owns items ``c, c+concurrency, ...`` and submits them
    sequentially, awaiting each response before the next request — the
    think-time-zero closed-loop model, where offered load self-throttles
    to the service's capacity.  Returns responses in item order.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    results: List[Any] = [None] * len(items)

    async def client(start: int) -> None:
        for i in range(start, len(items), concurrency):
            results[i] = await submit(items[i])

    await asyncio.gather(*[client(c) for c in range(concurrency)])
    return results


async def run_open_loop(submit: Callable[[Any], Awaitable[Any]],
                        items: Sequence[Any],
                        arrival_times: Sequence[float]) -> List[Any]:
    """Open-loop load: item ``i`` fires at ``arrival_times[i]``.

    Arrivals are scheduled on the loop clock (offsets relative to call
    time, e.g. from :func:`poisson_arrival_times`) and never wait for
    earlier responses.  Returns responses in item order.
    """
    if len(items) != len(arrival_times):
        raise ValueError("need one arrival time per item")
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def fire(i: int) -> Any:
        delay = start + arrival_times[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await submit(items[i])

    return list(await asyncio.gather(
        *[fire(i) for i in range(len(items))]))
