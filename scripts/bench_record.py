#!/usr/bin/env python
"""Record the repository benchmark for a change against its base.

Runs ``perfbench/run.py --trace 0`` on the working tree and on the
committed files of ``--base`` (default ``HEAD~1``), seed by seed, and
writes ``BENCH_perfbench.json`` at the repository root: both commits,
the host's ``nproc`` and each run's ``host_speed`` (parsed from
perfbench's info lines), every run's end-to-end metrics with its
``correct``/``failed`` outcome, and per metric the medians, quartiles
and pairs won by the change.  Which side runs first alternates by seed,
so a drift in machine load falls on both sides.

The base is exported with ``git archive`` into a temporary directory
(honouring ``TMPDIR``) that is removed on exit; the repository's own
git state is never touched.  The recorder adds no bound of its own:
``BENCHMARK.json`` stays the contract, and the file only records what
was measured.

Every run lasts ``BENCHMARK.json``'s ``run_seconds``, on the seeds in
``SEEDS``.  A run that has not finished after ``RUN_TIMEOUT_S`` is
killed and recorded as incorrect.

``--check`` exits nonzero when any run was incorrect, when
``sim_ms``/``sim_tx`` differ between the two sides on any seed (the
simulated clock is deterministic, so a host-only change must leave it
bit-identical), or when the file was recorded with another command or
run length.  With ``--input`` it checks a recorded file instead of
running anything.

Run from anywhere; a full recording takes about 25 minutes on a 2-core
host::

    python scripts/bench_record.py --base HEAD~1 --check
    python scripts/bench_record.py --check --input BENCH_perfbench.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_perfbench.json"
SEEDS = {"query_cold": list(range(1, 6)), "serve_zipf": list(range(1, 6)),
         "stream_churn": list(range(1, 11))}
#: BENCHMARK.json: run length and each end-to-end metric's ``better``
#: direction
SPEC: Dict[str, Any] = json.loads((REPO / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
COMMAND = ("python3 perfbench/run.py --workload W --seed S "
           f"--seconds {RUN_SECONDS:g} --trace 0")
#: a run still going after this long has hung
RUN_TIMEOUT_S = 900.0
#: metrics of the simulated clock: identical on both sides unless a
#: change names a cost-model change
EXACT_METRICS = ("sim_ms", "sim_tx")
SIDES = ("base", "change")
#: perfbench info lines carried into each run record
INFO_KEYS = ("nproc", "host_speed")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_commit(sha: str, dest: Path) -> None:
    """Write the committed files of ``sha`` into ``dest``."""
    blob = subprocess.run(["git", "archive", "--format=tar", sha],
                          cwd=REPO, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_perfbench(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``--trace 0`` run in checkout ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", "0"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None,
                "wall_s": round(time.perf_counter() - started, 2),
                "correct": False, "attempted": 0, "failed": 0,
                "metrics": {},
                "error": f"timed out after {RUN_TIMEOUT_S:g} s"}
    record: Dict[str, Any] = {
        "returncode": proc.returncode,
        "wall_s": round(time.perf_counter() - started, 2)}
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        record.update(correct=False, attempted=0, failed=0, metrics={},
                      error=(proc.stderr or proc.stdout)[-2000:])
        return record
    for line in lines[:-1]:
        key, sep, value = line.strip().partition(": ")
        if sep and key in INFO_KEYS:
            record[key] = float(value) if "." in value else int(value)
    record.update(
        correct=bool(last["correct"]) and proc.returncode == 0,
        attempted=last["attempted"], failed=last["failed"],
        metrics={name: entry["value"]
                 for name, entry in last["metrics"].items()})
    return record


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: List[Dict[str, Any]],
              better: Dict[str, str]) -> Dict[str, Any]:
    """Per metric: quartiles of each side and the pairs the change won
    (strictly better in its ``better`` direction)."""
    summary: Dict[str, Any] = {}
    for name, direction in better.items():
        pairs = [(r["base"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs
                 if name in r["base"].get("metrics", {})
                 and name in r["change"].get("metrics", {})]
        if not pairs:
            continue
        entry: Dict[str, Any] = {"better": direction, "pairs": len(pairs)}
        for i, side in enumerate(SIDES):
            q1, med, q3 = quartiles([p[i] for p in pairs])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        sign = -1.0 if direction == "lower" else 1.0
        entry["pairs_won"] = sum(1 for b, c in pairs if sign * (c - b) > 0)
        entry["pairs_tied"] = sum(1 for b, c in pairs if c == b)
        base_med = entry["base"]["median"]
        gap = entry["change"]["median"] - base_med
        entry["median_change"] = gap / base_med if base_med else 0.0
        entry["median_gap_exceeds_base_iqr"] = (
            abs(gap) > entry["base"]["q3"] - entry["base"]["q1"])
        summary[name] = entry
    return summary


def check(record: Dict[str, Any]) -> List[str]:
    """Every run correct, the simulated clock identical per seed, and
    the benchmark's own command and run length."""
    problems = []
    if record.get("command") != COMMAND:
        problems.append(f"recorded command {record.get('command')!r} is "
                        f"not {COMMAND!r}")
    for workload, data in record["workloads"].items():
        for run in data["runs"]:
            seed = run["seed"]
            for side in SIDES:
                if not run[side]["correct"] or run[side]["failed"]:
                    problems.append(f"{workload} seed {seed}: {side} run "
                                    f"incorrect")
            for name in EXACT_METRICS:
                values = [run[side]["metrics"].get(name) for side in SIDES]
                if values[0] != values[1]:
                    problems.append(f"{workload} seed {seed}: {name} "
                                    f"differs ({values[0]} -> "
                                    f"{values[1]})")
    return problems


def record_runs(base_rev: str) -> Dict[str, Any]:
    base_sha = git("rev-parse", "--verify", f"{base_rev}^{{commit}}")
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    record: Dict[str, Any] = {
        "benchmark": "perfbench",
        "command": COMMAND,
        "base": {"rev": base_rev, "sha": base_sha},
        # untracked files count: the change side runs the working tree
        "change": {"sha": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain"))},
        "nproc": None,
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        export_commit(base_sha, scratch)
        roots = {"base": scratch, "change": REPO}
        for workload, seeds in SEEDS.items():
            runs = []
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                run: Dict[str, Any] = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_perfbench(roots[side], workload, seed)
                    record["nproc"] = run[side].get("nproc",
                                                    record["nproc"])
                    print(f"{workload} seed {seed} {side}: "
                          f"correct={run[side]['correct']} "
                          f"{run[side]['wall_s']} s", flush=True)
                runs.append(run)
            record["workloads"][workload] = {
                "runs": runs, "summary": summarize(runs, better)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="base revision (default HEAD~1)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an incorrect run, a sim_ms/"
                             "sim_tx difference between the sides or "
                             "another recorded command")
    parser.add_argument("--input", type=Path,
                        help="check this recorded file; run nothing")
    args = parser.parse_args(argv)

    if args.input is not None:
        record = json.loads(args.input.read_text())
    else:
        record = record_runs(args.base)
        OUT.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {OUT}")
    for workload, data in record["workloads"].items():
        for name, entry in data["summary"].items():
            print(f"{workload:13s} {name:20s} "
                  f"{entry['base']['median']:12.6g} -> "
                  f"{entry['change']['median']:12.6g} "
                  f"won {entry['pairs_won']}/{entry['pairs']}")
    if args.check:
        problems = check(record)
        for problem in problems:
            print(f"CHECK: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("check passed: every run correct, simulated totals "
              "identical per seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
