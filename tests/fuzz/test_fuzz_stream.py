"""Differential fuzzing of the dynamic subsystem (see fuzz_harness).

Two layers:

* a quick deterministic slice — every profile over a couple of seeds,
  small streams — that runs in tier-1 on every invocation;
* a longer seed matrix gated behind ``GSI_FUZZ_SEEDS=N`` (CI sets
  ``N >= 10``), plus a Hypothesis property sweep with derandomized
  examples so tier-1 stays reproducible.

Reproducing a failure: the test id carries ``(seed, profile)``; run
``GSI_FUZZ_SEEDS=0 python -m pytest
"tests/fuzz/test_fuzz_stream.py::test_fuzz_quick[1-churn]" -x`` or call
``run_fuzz(seed, profile)`` directly in a REPL — streams are fully
determined by the pair.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzz_harness import PROFILES, run_fuzz

QUICK_SEEDS = (0, 1)

LONG_SEEDS = list(range(int(os.environ.get("GSI_FUZZ_SEEDS", "0"))))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_fuzz_quick(seed, profile):
    report = run_fuzz(seed, profile, num_vertices=26, num_batches=5,
                      batch_size=8)
    assert report.batches == 5
    assert report.ops > 0


def test_fuzz_exercises_the_interesting_paths():
    # The harness is only as good as the machinery it reaches: across
    # the quick deterministic slice, streams must actually commit edge
    # churn, add vertices, and pay (only) O(changes) commit costs.
    totals = {"inserted": 0, "deleted": 0, "new_vertices": 0,
              "commit_transactions": 0}
    for seed in QUICK_SEEDS:
        for profile in PROFILES:
            r = run_fuzz(seed, profile, num_vertices=26, num_batches=5,
                         batch_size=8)
            for key in totals:
                totals[key] += getattr(r, key)
    assert totals["inserted"] > 0
    assert totals["deleted"] > 0
    assert totals["new_vertices"] > 0
    assert totals["commit_transactions"] > 0


@pytest.mark.parametrize("seed", LONG_SEEDS or [None])
def test_fuzz_seed_matrix(seed):
    """The CI long slice: every profile, bigger streams, many seeds."""
    if seed is None:
        pytest.skip("set GSI_FUZZ_SEEDS=N (N>=1) to run the seed matrix")
    for profile in PROFILES:
        report = run_fuzz(seed, profile, num_vertices=32, num_batches=7,
                          batch_size=12)
        assert report.batches == 7


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 16), profile=st.sampled_from(PROFILES))
def test_fuzz_property(seed, profile):
    run_fuzz(seed, profile, num_vertices=18, num_batches=3,
             batch_size=6, query_sizes=(2, 3))


def test_delete_everything_then_refill():
    # Degenerate endpoints: drain the graph to zero edges, then grow it
    # back — snapshots, PCSR and match sets must track through both.
    report = run_fuzz(3, "delete_heavy", num_vertices=14, num_batches=8,
                      batch_size=14)
    assert report.deleted > 0
