"""Shared plumbing of the repository benchmark.

Everything here runs outside the program under test: it locates the
``repro`` package in the checkout, builds the fixed data graph, loads
the vetted query pool, draws seeded inputs from it, and provides the
measurement helpers (percentiles, peak RSS, match-set digests, the
registry readers) every workload uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_PATH = HERE / "pool.json"

#: the data graph every workload runs on: a Barabasi-Albert scale-free
#: graph with power-law labels (about 4k vertices and 16k edges)
GRAPH_VERTICES = 4000
GRAPH_EDGES_PER_VERTEX = 4
GRAPH_VERTEX_LABELS = 16
GRAPH_EDGE_LABELS = 8
GRAPH_SEED = 1

#: environment variables that silently swap the program under test
FORBIDDEN_ENV = ("GSI_JOIN_KERNEL", "GSI_EXECUTOR_START_METHOD")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad setup)."""


def bootstrap_program() -> None:
    """Put the checkout's ``src`` on the import path and refuse to run
    when the environment would swap the program under test."""
    for name in FORBIDDEN_ENV:
        if os.environ.get(name):
            raise BenchError(
                f"{name} is set; it replaces a shipped default of the "
                f"measured program, so the benchmark refuses to run")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def build_graph():
    """The fixed data graph (identical for every seed and workload)."""
    from repro.graph.generators import scale_free_graph
    return scale_free_graph(GRAPH_VERTICES, GRAPH_EDGES_PER_VERTEX,
                            GRAPH_VERTEX_LABELS, GRAPH_EDGE_LABELS,
                            seed=GRAPH_SEED)


def graph_digest(graph) -> str:
    """Digest of a graph's labels and edge list."""
    h = hashlib.sha256()
    h.update(json.dumps([int(x) for x in graph.vertex_labels]).encode())
    h.update(json.dumps(sorted(
        (int(u), int(v), int(lab)) for u, v, lab in graph.edges()))
        .encode())
    return h.hexdigest()[:16]


def match_digest(matches: Iterable[Sequence[int]]) -> str:
    """Order-independent digest of a match set."""
    import numpy as np
    rows = [tuple(int(x) for x in m) for m in matches]
    if not rows:
        return hashlib.sha256(b"empty").hexdigest()[:16]
    arr = np.asarray(rows, dtype=np.int64)
    order = np.lexsort(arr.T[::-1])
    return hashlib.sha256(arr[order].tobytes()).hexdigest()[:16]


def query_from_entry(entry: Dict[str, Any]):
    from repro.graph.labeled_graph import LabeledGraph
    return LabeledGraph(entry["labels"],
                        [tuple(e) for e in entry["edges"]])


def load_pool(graph) -> List[Dict[str, Any]]:
    """The vetted query pool, checked against the graph it was made on."""
    if not POOL_PATH.is_file():
        raise BenchError(f"missing {POOL_PATH.name}; run make_pool.py")
    data = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    if data["graph_digest"] != graph_digest(graph):
        raise BenchError(
            "the data graph no longer matches the one the query pool "
            "was made on (the graph generator changed); regenerate the "
            "pool with make_pool.py")
    return data["queries"]


def stratified_pick(entries: List[Dict[str, Any]], count: int, rng,
                    fixed_top: int = 0) -> List[Dict[str, Any]]:
    """``count`` entries in ascending cost order: the ``fixed_top``
    heaviest entries always, plus one drawn from each of the remaining
    contiguous strata of the pool ranked by match count (the driver of
    host join and assembly time).

    Every seed therefore gets a different query set with nearly the
    same cost profile, which keeps the measured totals steady across
    seeds while the same heavy tail stays in every set.
    """
    ranked = sorted(entries, key=lambda e: (e["matches"], e["tx"],
                                            e["id"]))
    if len(ranked) < count:
        raise BenchError(f"pool has {len(ranked)} entries, need {count}")
    top = ranked[len(ranked) - fixed_top:] if fixed_top else []
    rest = ranked[:len(ranked) - fixed_top]
    strata = count - fixed_top
    bounds = [round(i * len(rest) / strata) for i in range(strata + 1)]
    return [rest[int(rng.integers(bounds[i], bounds[i + 1]))]
            for i in range(strata)] + top


def renumber(query, perm):
    """An isomorphic copy of ``query``: old vertex ``v`` becomes
    ``perm[v]``."""
    from repro.graph.labeled_graph import LabeledGraph
    labels = [0] * query.num_vertices
    for old, new in enumerate(perm):
        labels[int(new)] = int(query.vertex_label(old))
    edges = [(int(perm[u]), int(perm[v]), int(lab))
             for u, v, lab in query.edges()]
    return LabeledGraph(labels, edges)


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


#: what a pass is for: timed for the end-to-end metrics, traced for the
#: per-layer ones, or the first pass of a traced run (it runs the
#: correctness checks and is left out of the overhead comparison)
PASS_ROLES = ("plain", "traced", "check")


def pass_role(trace: bool, index: int) -> str:
    """Role of pass ``index``: a traced run alternates traced and
    plain passes after its check pass."""
    if not trace:
        return "plain"
    if index == 0:
        return "check"
    return "traced" if index % 2 == 1 else "plain"


def min_passes(trace: bool, untraced: int) -> int:
    """A traced run needs a check, a traced and a plain pass."""
    return 3 if trace else untraced


def merge_cache(stats_list: Iterable[Any]):
    """Sum of per-batch plan-cache stats deltas."""
    from repro.service.plan_cache import CacheStats
    total = CacheStats()
    for stats in stats_list:
        total = total.merge(stats)
    return total


#: wall time of one :func:`calibration_sample` at the reference host
#: speed (the median on a 2-core x86 VM in a quiet period)
REFERENCE_CALIBRATION_MS = 1.7


def calibration_sample() -> float:
    """Wall ms of a fixed host kernel shaped like the program's host
    work: a pure-Python dict/tuple loop plus small NumPy array ops.

    The benchmark runs on shared 2-core hosts whose speed drifts by
    tens of percent within minutes.  The single-threaded workloads
    interleave these samples with their ops, and :class:`HostClock`
    scales their host times to the reference speed, so most of the
    drift cancels while a change in the program still shows in full.
    """
    import numpy as np
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(1000):
        key = (i * 7919) % 613
        table[key] = table.get(key, 0) + len((i, key))
    keys = np.arange(1024, dtype=np.int64)
    probe = (keys * 31) % 1250
    for _ in range(8):
        np.searchsorted(keys, probe)
        np.unique(probe)
    return (time.perf_counter() - start) * 1000.0


class HostClock:
    """Calibration samples stamped with the time they ran.

    A host time measured over an interval is scaled by the speed the
    samples within ``WINDOW_S`` of that interval show, so drifts that
    last seconds cancel as well as those that last minutes.
    """

    WINDOW_S = 2.0
    #: fewest samples one scale factor rests on
    MIN_SAMPLES = 8

    def __init__(self) -> None:
        self._at: List[float] = []
        self._ms: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            ms = calibration_sample()
            self._at.append(time.perf_counter())
            self._ms.append(ms)

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """Reference speed over the speed measured around
        ``[start, end]`` (``perf_counter`` stamps), or over the whole
        run; below 1 on a slow host."""
        import bisect
        window = self._ms
        if start is not None:
            end = start if end is None else end
            lo = bisect.bisect_left(self._at, start - self.WINDOW_S)
            hi = bisect.bisect_right(self._at, end + self.WINDOW_S)
            if hi - lo < self.MIN_SAMPLES:
                mid = bisect.bisect_left(self._at, (start + end) / 2)
                lo = max(0, min(mid - self.MIN_SAMPLES // 2,
                                len(self._at) - self.MIN_SAMPLES))
                hi = lo + self.MIN_SAMPLES
            window = self._ms[lo:hi]
        return REFERENCE_CALIBRATION_MS / pct(window, 50)

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds * self.factor(start, start + seconds)

    def timed(self, fn):
        """Run ``fn()`` between calibration bursts; returns its
        reference-speed duration in seconds and its result."""
        self.sample(self.MIN_SAMPLES)
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.sample(self.MIN_SAMPLES)
        return self.scale(elapsed, start), result


class OpTimes:
    """Per-op host times over passes, kept with their start stamps so
    they can be scaled to reference speed once all samples are in."""

    def __init__(self) -> None:
        self._ops: Dict[Any, List[Any]] = {}

    def add(self, key: Any, start: float, seconds: float) -> None:
        self._ops.setdefault(key, []).append((start, seconds))

    def __len__(self) -> int:
        return len(self._ops)

    def total_s(self, clock: HostClock) -> float:
        """Sum of every recorded time, at reference speed."""
        return sum(clock.scale(s, t) for runs in self._ops.values()
                   for t, s in runs)

    #: passes an op's latency is the fastest of; fixed, because the
    #: fastest of three runs reads lower than the fastest of two, and
    #: whether a third pass fits the time budget depends on host speed
    LATENCY_PASSES = 2

    def latencies_ms(self, clock: HostClock) -> List[float]:
        """One reference-speed latency per op: the fastest of its first
        ``LATENCY_PASSES`` passes, since interference from a shared host
        only ever adds time."""
        return [min(clock.scale(s, t) * 1000.0
                    for t, s in runs[:self.LATENCY_PASSES])
                for runs in self._ops.values()]


def _vm_hwm_kb(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def child_pids() -> List[int]:
    """Pids of this process's live children."""
    pids: List[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.extend(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def stop_child_processes(grace_s: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers are joined when their executor shuts down.  What stays
    is multiprocessing's resource tracker, which the first shared-memory
    segment starts and which by design outlives its parent; it ends
    once the last copy of its pipe closes.  Any other child still alive
    (a worker a failed run left behind, which also holds that pipe) is
    terminated first, then killed if it outlasts ``grace_s``.
    """
    import signal
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    stray = [pid for pid in child_pids()
             if pid != getattr(tracker, "_pid", None)]
    for pid in stray:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in stray:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass
    tracker._stop()


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus the given children."""
    import resource
    own = max(_vm_hwm_kb(os.getpid()),
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return (own + sum(_vm_hwm_kb(pid) for pid in child_pids)) / 1024.0


def counter_total(snapshot: Dict[str, Any], name: str) -> float:
    """Sum of one registry counter over all its label sets."""
    metric = snapshot.get(name)
    if not metric:
        return 0.0
    return float(sum(v["value"] for v in metric.get("values", [])))


def shm_segments() -> set:
    """Names of the program's shared-memory segments now alive."""
    try:
        return {p.name for p in Path("/dev/shm").iterdir()
                if p.name.startswith("gsi")}
    except OSError:
        return set()


def program_record(extra: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """What exactly was measured: resolved config and host runtime."""
    import dataclasses
    import multiprocessing

    import numpy as np

    from repro.core.config import GSIConfig
    record = {
        "config_gsi_opt": dataclasses.asdict(GSIConfig.gsi_opt()),
        "config_default": dataclasses.asdict(GSIConfig()),
        "start_method": multiprocessing.get_start_method(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if extra:
        record.update(extra)
    return record


def sim_totals(snapshots: Iterable[Any]) -> Dict[str, Any]:
    """Sum meter snapshots into the simulated-clock totals."""
    gld = gst = launches = 0
    labels: Dict[str, int] = {}
    for snap in snapshots:
        gld += int(snap.gld)
        gst += int(snap.gst)
        launches += int(snap.kernel_launches)
        for key, value in snap.labeled_gld.items():
            labels[key] = labels.get(key, 0) + int(value)
    return {"gld": gld, "gst": gst, "kernel_launches": launches,
            "labels": labels}


def sim_layer_metrics(totals: Dict[str, Any]) -> Dict[str, float]:
    """The gpusim per-layer metrics from :func:`sim_totals` output."""
    from repro.gpusim.constants import METER_LABELS
    out = {"sim.gld": float(totals["gld"]),
           "sim.gst": float(totals["gst"]),
           "sim.kernel_launches": float(totals["kernel_launches"])}
    for label in sorted(METER_LABELS):
        out[f"sim.gld.{label}"] = float(totals["labels"].get(label, 0))
    return out


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: correctness problems; any entry makes the run incorrect
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def op_failed(self, message: str) -> None:
        """One op failed, was refused or answered wrongly."""
        self.failed += 1
        self.problem(message)

    def check_sim_exact(self, passes: List[Dict[str, Any]]) -> None:
        """Every pass must charge bit-identical simulated totals."""
        if len(passes) < 2:
            self.problem("simulated-clock self-check needs two passes")
        elif any(p != passes[0] for p in passes[1:]):
            self.problem("simulated totals differ between two passes "
                         "over identical inputs")


def verify_sample(query, graph, matches: Sequence[Sequence[int]],
                  limit: int = 256) -> List[Any]:
    """``verify_all`` over an evenly spaced sample of ``matches``."""
    from repro.core.verify import verify_all
    step = max(1, len(matches) // limit)
    return verify_all(query, graph, matches[::step][:limit])
