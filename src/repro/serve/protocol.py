"""Wire protocol for the serving subsystem: newline-delimited JSON.

Every message — request or response — is one JSON object on one line,
UTF-8 encoded, terminated by ``\\n``.  The framing is deliberately
primitive: it round-trips through ``nc``/``socat``, every language has a
JSON parser, and an asyncio reader can frame messages with
``readline()`` alone.

Requests
--------

``{"op": "query", "id": 7, "tenant": "alice", "query": {...}}``
    Match one query graph.  ``id`` is an opaque client-chosen
    correlation value echoed back verbatim (clients pipelining several
    requests on one connection need it to pair responses); ``tenant``
    (optional, default ``"default"``) selects the admission quota bucket
    and the per-tenant latency series.
``{"op": "stats", "id": 8}``
    Server-level metrics snapshot: counts since the server was created
    (see :class:`~repro.serve.metrics.ServerMetrics`).
``{"op": "metrics", "id": 10}``
    Prometheus text exposition of the obs metrics registry the server
    records into (:func:`repro.obs.export.prometheus_text`); the
    response carries it in ``text``.
``{"op": "ping", "id": 9}``
    Liveness probe.

Query graphs travel as ``{"vertex_labels": [l0, l1, ...],
"edges": [[u, v, label], ...]}`` — exactly the
:class:`~repro.graph.labeled_graph.LabeledGraph` constructor arguments.

Responses
---------

Every response carries the request's ``id`` and a ``status``:

``"ok"``
    The query ran; ``matches`` holds embeddings as lists indexed by
    query vertex id, plus ``elapsed_ms`` (simulated), ``host_ms``
    (arrival-to-completion wall clock), ``plan_cached`` and ``deduped``
    flags.
``"error"``
    The query was rejected or failed mid-execution; ``error`` explains.
``"overloaded"``
    Admission control shed the request (pending queue full).  Back off
    and retry.
``"quota_exceeded"``
    The tenant's token bucket is empty.  Retry after
    ``retry_after_ms``.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import GraphError
from repro.graph.labeled_graph import LabeledGraph

#: protocol operations a server accepts
OPS = ("query", "stats", "metrics", "ping")

#: response statuses a client must handle
STATUSES = ("ok", "error", "overloaded", "quota_exceeded")


class ProtocolError(ValueError):
    """A message violated the wire protocol (bad JSON, missing fields)."""


def query_to_wire(query: LabeledGraph) -> dict:
    """Serialize a query graph into its wire dict."""
    return {
        "vertex_labels": [int(l) for l in query.vertex_labels.tolist()],
        "edges": [[int(u), int(v), int(lab)]
                  for u, v, lab in query.edges()],
    }


def query_from_wire(obj: dict) -> LabeledGraph:
    """Rebuild a query graph from its wire dict.

    Malformed payloads raise :class:`ProtocolError` — the server turns
    that into a per-request ``"error"`` response instead of dropping
    the connection.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"query must be an object, got "
                            f"{type(obj).__name__}")
    labels = obj.get("vertex_labels")
    edges = obj.get("edges", [])
    if not isinstance(labels, list):
        raise ProtocolError("query.vertex_labels must be a list")
    if not isinstance(edges, list):
        raise ProtocolError("query.edges must be a list")
    try:
        return LabeledGraph(labels, [tuple(e) for e in edges])
    except (GraphError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad query graph: {exc}") from exc


def encode_message(obj: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_message(line: bytes) -> dict:
    """Parse one wire frame into a dict, validating the envelope."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def make_request(op: str, request_id, tenant: Optional[str] = None,
                 query: Optional[LabeledGraph] = None) -> dict:
    """Build a request envelope (the client's encoding half)."""
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    msg: dict = {"op": op, "id": request_id}
    if tenant is not None:
        msg["tenant"] = tenant
    if query is not None:
        msg["query"] = query_to_wire(query)
    return msg
