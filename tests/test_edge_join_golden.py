"""GpSM and GunrockSM costs pinned to golden digests.

Both edge-join engines charge every candidate-edge and join-extend row
from their neighbor store.  ``edge_join_golden.json`` holds, for each
engine, each storage kind, each query of a seeded workload and each
limit (none, an intermediate-row cap, a simulated budget), a digest of
the whole ``MeterSnapshot``, ``repr(elapsed_ms)``, ``timed_out`` and the
match list in the order the engine returns it.  Any change to what a
row is charged, to the abort point or to the matches fails here.

Re-record (only for a deliberate cost-model change)::

    PYTHONPATH=src python tests/test_edge_join_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.baselines.gpsm import GpSMEngine
from repro.baselines.gunrock_sm import GunrockSMEngine
from repro.graph.generators import random_walk_query, scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.storage.factory import storage_kinds

GOLDEN = Path(__file__).with_name("edge_join_golden.json")

ENGINES = {"gpsm": GpSMEngine, "gunrock": GunrockSMEngine}

#: limit name -> engine keyword arguments.  ``rows40`` and
#: ``budget0.12`` abort part of the queries inside the join.
LIMITS: Dict[str, Dict[str, Any]] = {
    "none": {},
    "rows40": {"max_intermediate_rows": 40},
    "budget0.12": {"budget_ms": 0.12},
}

#: (query vertices, seed, extra edges) of each query
QUERIES = ((3, 0, 0), (3, 1, 0), (4, 0, 0), (4, 1, 2), (4, 2, 0),
           (5, 0, 2), (5, 1, 0), (5, 2, 2))


def workload() -> Tuple[LabeledGraph, List[LabeledGraph]]:
    """A 3-edge-label scale-free graph and 8 random-walk queries."""
    graph = scale_free_graph(num_vertices=120, edges_per_vertex=4,
                             num_vertex_labels=3, num_edge_labels=3,
                             seed=17)
    queries = [random_walk_query(graph, num_vertices=k, seed=s,
                                 extra_edges=e)
               for k, s, e in QUERIES]
    return graph, queries


def digests() -> Dict[str, Dict[str, Any]]:
    """Every (engine, storage, query, limit) outcome's digest, plus
    whether it timed out (readable in the fixture)."""
    graph, queries = workload()
    out: Dict[str, Dict[str, Any]] = {}
    for name, cls in sorted(ENGINES.items()):
        for kind in storage_kinds():
            for limit, kwargs in LIMITS.items():
                engine = cls(graph, storage_kind=kind, **kwargs)
                for qi, query in enumerate(queries):
                    result = engine.match(query)
                    outcome = (json.dumps(result.counters.to_dict(),
                                          sort_keys=True),
                               repr(result.elapsed_ms), result.timed_out,
                               result.matches)
                    digest = hashlib.sha256(repr(outcome).encode())
                    out[f"{name}/{kind}/q{qi}/{limit}"] = {
                        "digest": digest.hexdigest()[:16],
                        "timed_out": result.timed_out,
                    }
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_aborts(golden):
    """Each limit that can abort aborts some queries and completes
    others, so the fixture pins abort points as well as totals."""
    assert len(golden) == len(ENGINES) * 4 * len(QUERIES) * len(LIMITS)
    for limit in LIMITS:
        outcomes = {e["timed_out"] for k, e in golden.items()
                    if k.endswith(f"/{limit}")}
        assert outcomes == ({False} if limit == "none"
                            else {False, True}), limit


def test_edge_join_engines_match_golden(golden):
    got = digests()
    assert sorted(got) == sorted(golden)
    for key in sorted(golden):
        assert got[key] == golden[key], f"{key} diverges from the golden"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_edge_join_golden.py --record")
    record = digests()
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} entries, "
          f"{sum(e['timed_out'] for e in record.values())} timed out")
