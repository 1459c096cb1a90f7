"""Join costs pinned to golden fixtures, independent of the host lane.

``join_golden.json`` was recorded from the per-row join (before the
lanes shared their prealloc, link and two-step code).  For every config
preset, every query of the differential workload and every limit (none,
two intermediate-row caps, two simulated budgets) it holds the whole
``MeterSnapshot`` (``labeled_gld`` and ``kernel_launches`` included),
``repr(elapsed_ms)``, ``timed_out`` and digests of the match list, both
as a set and in the order the engine returns it.  Both lanes must
reproduce every entry, so the paper's cost model is pinned here rather
than by comparing one lane with the other.

Re-record (only for a deliberate cost-model change)::

    PYTHONPATH=src python tests/test_join_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph

from oracle import brute_force_matches

GOLDEN = Path(__file__).with_name("join_golden.json")

PRESETS = {
    "baseline": GSIConfig.baseline,
    "with_ds": GSIConfig.with_ds,
    "with_pc": GSIConfig.with_pc,
    "with_so": GSIConfig.with_so,
    "gsi": GSIConfig.gsi,
    "with_lb": GSIConfig.with_lb,
    "gsi_opt": GSIConfig.gsi_opt,
}

#: limit name -> config overrides.  ``rows20`` aborts every query at
#: its first capped step and ``budget0.01`` during filtering; ``rows300``
#: and ``budget0.2`` abort about half the queries, inside the join.
LIMITS: Dict[str, Dict[str, Any]] = {
    "none": {},
    "rows20": {"max_intermediate_rows": 20},
    "rows300": {"max_intermediate_rows": 300},
    "budget0.01": {"budget_ms": 0.01},
    "budget0.2": {"budget_ms": 0.2},
}

LANES = ("rows", "vector")


def workload() -> Tuple[LabeledGraph, List[LabeledGraph]]:
    """The graph and 12 queries of ``test_join_kernels.py``."""
    graph = scale_free_graph(num_vertices=120, edges_per_vertex=4,
                             num_vertex_labels=3, num_edge_labels=2,
                             seed=11)
    queries = [random_walk_query(graph, num_vertices=k, seed=s,
                                 extra_edges=e)
               for k in (3, 4, 5) for s in (0, 1) for e in (0, 2)]
    return graph, queries


def _digest(matches: Sequence[Tuple[int, ...]]) -> str:
    return hashlib.sha256(repr(list(matches)).encode()).hexdigest()[:16]


def entries(lane: str) -> Dict[str, Dict[str, Any]]:
    """Every (preset, query, limit) outcome on one lane."""
    graph, queries = workload()
    out: Dict[str, Dict[str, Any]] = {}
    for preset, make in sorted(PRESETS.items()):
        for limit, overrides in LIMITS.items():
            cfg = replace(make(), join_kernel=lane, **overrides)
            engine = GSIEngine(graph, cfg)
            for qi, query in enumerate(queries):
                result = engine.match(query)
                matches = result.matches
                out[f"{preset}/q{qi}/{limit}"] = {
                    "counters": result.counters.to_dict(),
                    "elapsed_ms": repr(result.elapsed_ms),
                    "timed_out": result.timed_out,
                    "num_matches": len(matches),
                    "set_digest": _digest(sorted(matches)),
                    "order_digest": _digest(matches),
                }
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_abort_kind(golden):
    by_limit: Dict[str, List[Dict[str, Any]]] = {}
    for key, entry in golden.items():
        by_limit.setdefault(key.rsplit("/", 1)[1], []).append(entry)
    assert sorted(by_limit) == sorted(LIMITS)
    assert len(golden) == len(PRESETS) * 12 * len(LIMITS)
    assert not any(e["timed_out"] for e in by_limit["none"])
    for limit in ("rows20", "budget0.01"):
        assert all(e["timed_out"] for e in by_limit[limit]), limit
    for limit in ("rows300", "budget0.2"):
        # a mix of completed queries and aborts inside the join
        outcomes = {(e["timed_out"],
                     bool(e["counters"]["labeled_gld"].get("join")))
                    for e in by_limit[limit]}
        assert outcomes == {(False, True), (True, True)}, limit


@pytest.mark.parametrize("lane", LANES)
def test_lane_matches_golden(golden, lane):
    got = entries(lane)
    assert sorted(got) == sorted(golden)
    for key in sorted(golden):
        assert got[key] == golden[key], f"{lane}: {key} diverges"


def test_gsi_result_views(golden):
    """A GSI result holds one ``(n, k)`` array; its tuples come in the
    recorded order and form the oracle's match set."""
    graph, queries = workload()
    engine = GSIEngine(graph, GSIConfig.gsi_opt())
    for qi, query in enumerate(queries):
        result = engine.match(query)
        assert result.rows.dtype == np.int64
        assert result.rows.shape == (result.num_matches,
                                     query.num_vertices)
        assert vars(result)["_tuples"] is None  # num_matches built none
        entry = golden[f"gsi_opt/q{qi}/none"]
        assert _digest(result.matches) == entry["order_digest"]
        assert result.matches == [tuple(r) for r in result.rows.tolist()]
        assert result.match_set() == brute_force_matches(query, graph)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_join_golden.py --record")
    record = entries("rows")
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} entries, "
          f"{sum(e['timed_out'] for e in record.values())} timed out")
