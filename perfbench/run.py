"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload query_cold --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` installs a recording tracer and reports the per-layer
metrics folded from the spans.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric by name with its unit.  The exit
code is nonzero when any output is wrong, a self-check fails, or the
program cannot be found.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import harness
import layers

WORKLOADS = ("query_cold", "serve_zipf", "stream_churn")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("read_latency_p50_ms", "ms"),
    ("read_latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ms", "ms"),
    ("sim_tx", "count"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        harness.bootstrap_program()
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    module = __import__(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        harness.stop_child_processes()

    if args.trace:
        metrics = layers.complete(outcome.metrics)
    else:
        metrics = {name: {"value": float(outcome.metrics[name]),
                          "unit": unit}
                   for name, unit in END_TO_END}
    record = harness.program_record(outcome.info)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for key, value in sorted(record.items()):
        print(f"  {key}: {value}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in outcome.problems:
        print(f"  CORRECTNESS: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
