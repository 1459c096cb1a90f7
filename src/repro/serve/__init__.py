"""Always-on serving subsystem: asyncio front end over the batch service.

See :mod:`repro.serve.server` for the serving semantics (deadline
micro-batching, in-flight dedup, admission control, per-tenant quotas)
and :mod:`repro.serve.protocol` for the NDJSON wire format.
"""

from repro.serve.client import GSIClient
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    make_request,
    query_from_wire,
    query_to_wire,
)
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_MS,
    DEFAULT_MAX_PENDING,
    GSIServer,
    ServeOutcome,
    TokenBucket,
    translate_result,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY_MS",
    "DEFAULT_MAX_PENDING",
    "GSIClient",
    "GSIServer",
    "ProtocolError",
    "ServeOutcome",
    "ServerMetrics",
    "TokenBucket",
    "decode_message",
    "encode_message",
    "make_request",
    "query_from_wire",
    "query_to_wire",
    "translate_result",
]
