"""End-to-end smoke test for the ``serve`` CLI (CI's serve-smoke leg).

Boots a real ``python -m repro.cli serve`` subprocess with the process
executor on the shm data plane, drives ~50 mixed-tenant queries through
the NDJSON TCP front door with :class:`repro.serve.GSIClient`, checks
the responses against a direct in-process engine, asks for a ``stats``
snapshot (which must carry the engine's PCSR storage health, read when
the RPC is served) and the ``metrics`` text, which must agree on every
request count, the served batches and their simulated totals, then
SIGTERMs the server and asserts a clean exit — and that no ``gsi*``
shared-memory segments leaked into ``/dev/shm``.

Run: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

import asyncio
import glob
import signal
import socket
import subprocess
import sys
import time

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.graph import datasets
from repro.graph.generators import random_walk_query
from repro.serve import GSIClient

DATASET = "enron"
NUM_QUERIES = 50
NUM_SHAPES = 6
NUM_TENANTS = 3
STARTUP_DEADLINE_S = 60.0


def free_port() -> int:
    """An OS-assigned free TCP port (the serve CLI rejects --port 0)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/gsi*"))


def wait_until_connectable(port: int, proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early with rc={proc.returncode}:\n"
                f"{proc.stdout.read()}")
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=1.0):
                return
        except OSError:
            time.sleep(0.2)
    raise AssertionError("server never became connectable")


async def drive(port: int) -> tuple:
    graph = datasets.load(DATASET)
    shapes = [random_walk_query(graph, 4, seed=70 + s)
              for s in range(NUM_SHAPES)]
    oracle = GSIEngine(graph, GSIConfig.gsi_opt())
    expected = [oracle.match(q).match_set() for q in shapes]

    async with GSIClient("127.0.0.1", port) as client:
        assert await client.ping(), "ping failed"
        responses = await asyncio.gather(*[
            client.query(shapes[i % NUM_SHAPES],
                         tenant=f"tenant{i % NUM_TENANTS}")
            for i in range(NUM_QUERIES)])
        stats = await client.stats()
        text = await client.metrics()

    for i, response in enumerate(responses):
        assert response["status"] == "ok", \
            f"query {i} failed: {response}"
        got = {tuple(m) for m in response["matches"]}
        want = expected[i % NUM_SHAPES]
        assert got == want, \
            f"query {i}: {len(got)} matches, expected {len(want)}"
    return stats, text


def exported_counters(text: str) -> dict:
    """``{(name, sorted label items): value}`` for the counter series
    of a Prometheus text exposition."""
    counters = {line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ") and line.endswith("counter")}
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, inner = series.partition("{")
        if name in counters:
            labels = tuple(sorted(
                tuple(pair.split("=", 1)) for pair in
                inner.rstrip("}").replace('"', "").split(",") if pair))
            samples[(name, labels)] = float(value)
    return samples


def check_agreement(metrics: dict, text: str) -> None:
    """The ``stats`` RPC and the ``metrics`` text report the same
    serving counts (the server is fresh, so both start from zero)."""
    exported = exported_counters(text)
    outcomes = {}
    for (name, labels), value in exported.items():
        if name == "gsi_serve_requests_total":
            result = dict(labels)["result"]
            outcomes[result] = outcomes.get(result, 0) + int(value)
    requests = metrics["requests"]
    expected = {
        "received": requests["received"],
        "admitted": requests["admitted"],
        "deduped": requests["deduped"],
        "shed": requests["shed"],
        "quota_rejected": requests["quota_rejected"],
        "ok": requests["completed"] - requests["errors"],
        "error": requests["errors"],
    }
    assert {k: outcomes.get(k, 0) for k in expected} == expected, \
        f"stats {expected} != metrics text {outcomes}"
    sizes = {int(dict(labels)["size"]): int(value)
             for (name, labels), value in exported.items()
             if name == "gsi_serve_batches_total"}
    batches = metrics["batches"]
    assert sum(sizes.values()) == batches["executed"], sizes
    assert sum(k * n for k, n in sizes.items()) == \
        batches["executed_queries"], sizes
    for kind in ("gld", "gst"):
        key = ("gsi_serve_transactions_total", (("kind", kind),))
        assert exported[key] == metrics["transactions"][kind], kind
    assert exported[("gsi_serve_simulated_ms_total", ())] == \
        metrics["total_simulated_ms"]


def main() -> int:
    before = shm_segments()
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--dataset", DATASET, "--port", str(port),
         "--executor", "process", "--workers", "2",
         "--max-batch", "8",
         "--max-delay-ms", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        wait_until_connectable(port, proc)
        stats, text = asyncio.run(drive(port))

        metrics = stats["metrics"]
        check_agreement(metrics, text)
        completed = metrics["requests"]["completed"]
        assert completed == NUM_QUERIES, \
            f"completed {completed}, expected {NUM_QUERIES}"
        assert metrics["requests"]["deduped"] > 0, \
            "repeated shapes should dedup in flight"
        assert len(metrics["tenants"]) == NUM_TENANTS
        assert metrics["storage"]["kind"] == "pcsr", \
            f"stats carry no PCSR storage health: {metrics['storage']}"
        print(f"served {completed} queries across "
              f"{len(metrics['tenants'])} tenants "
              f"(deduped={metrics['requests']['deduped']}, "
              f"batches={metrics['batches']['executed']}, "
              f"plan hit rate="
              f"{metrics['cache']['hit_rate']:.2f})")

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait()
        raise

    assert proc.returncode == 0, \
        f"server exited rc={proc.returncode}:\n{output}"
    assert "shutting down" in output, \
        f"no graceful-shutdown banner in output:\n{output}"

    leaked = shm_segments() - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"
    print("serve smoke OK: clean shutdown, no leaked shm segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
