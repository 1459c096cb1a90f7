"""Tests for scripts/bench_record.py's summary and check (no runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "bench_record.py"


@pytest.fixture(scope="module")
def rec():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(latency, sim_tx=100.0, correct=True, failed=0):
    metrics = {"latency_p50_ms": latency, "ops_per_s": 1000.0 / latency,
               "sim_ms": 5.0, "sim_tx": sim_tx}
    return {"correct": correct, "failed": failed, "attempted": 10,
            "metrics": metrics}


def record(rec, runs):
    return {"command": rec.COMMAND,
            "workloads": {"stream_churn": {"runs": runs}}}


BETTER = {"latency_p50_ms": "lower", "ops_per_s": "higher",
          "sim_ms": "lower", "sim_tx": "lower"}


def test_summary_counts_pairs_won_in_each_direction(rec):
    runs = [{"seed": s, "base": side(base), "change": side(change)}
            for s, (base, change) in enumerate(
                [(30.0, 14.0), (29.0, 15.0), (31.0, 31.0), (28.0, 29.0)])]
    summary = rec.summarize(runs, BETTER)
    lat = summary["latency_p50_ms"]
    assert lat["pairs"] == 4
    assert lat["pairs_won"] == 2 and lat["pairs_tied"] == 1
    assert lat["base"]["median"] == 29.5
    assert lat["change"]["median"] == 22.0
    assert lat["base"]["q1"] <= lat["base"]["median"] <= lat["base"]["q3"]
    assert lat["median_gap_exceeds_base_iqr"]
    # higher-is-better metric: the same pairs, mirrored
    assert summary["ops_per_s"]["pairs_won"] == 2
    assert summary["sim_tx"]["pairs_tied"] == 4


def test_check_passes_identical_sim_and_correct_runs(rec):
    runs = [{"seed": 1, "base": side(30.0), "change": side(14.0)}]
    assert rec.check(record(rec, runs)) == []


def test_check_flags_incorrect_runs_and_sim_drift(rec):
    runs = [
        {"seed": 1, "base": side(30.0), "change": side(14.0, sim_tx=99.0)},
        {"seed": 2, "base": side(30.0, correct=False),
         "change": side(14.0, failed=1)},
    ]
    problems = rec.check(record(rec, runs))
    assert any("seed 1: sim_tx differs" in p for p in problems)
    assert any("seed 2: base run incorrect" in p for p in problems)
    assert any("seed 2: change run incorrect" in p for p in problems)
    assert len(problems) == 3


def test_check_input_file_exit_codes(rec, tmp_path):
    good = record(rec, [{"seed": 1, "base": side(30.0),
                    "change": side(14.0)}])
    good["workloads"]["stream_churn"]["summary"] = rec.summarize(
        good["workloads"]["stream_churn"]["runs"], BETTER)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(good))
    assert rec.main(["--check", "--input", str(path)]) == 0
    bad = json.loads(json.dumps(good))
    bad["workloads"]["stream_churn"]["runs"][0]["change"]["metrics"][
        "sim_ms"] = 6.0
    path.write_text(json.dumps(bad))
    assert rec.main(["--check", "--input", str(path)]) == 1


def test_check_flags_another_run_length(rec):
    assert "--seconds 24 " in rec.COMMAND  # BENCHMARK.json run_seconds
    runs = [{"seed": 1, "base": side(30.0), "change": side(14.0)}]
    short = record(rec, runs)
    short["command"] = rec.COMMAND.replace("--seconds 24", "--seconds 2")
    problems = rec.check(short)
    assert len(problems) == 1 and "recorded command" in problems[0]


def test_hung_run_is_recorded_incorrect(rec, monkeypatch, tmp_path):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(rec.subprocess, "run", hang)
    run = rec.run_perfbench(tmp_path, "stream_churn", 1)
    assert run["correct"] is False and run["returncode"] is None
    assert "timed out" in run["error"]
    runs = [{"seed": 1, "base": side(30.0), "change": run}]
    assert rec.check(record(rec, runs)) == [
        "stream_churn seed 1: change run incorrect",
        "stream_churn seed 1: sim_ms differs (5.0 -> None)",
        "stream_churn seed 1: sim_tx differs (100.0 -> None)"]
