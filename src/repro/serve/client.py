"""Asyncio client for the NDJSON serving protocol.

One :class:`GSIClient` holds one TCP connection and pipelines any
number of concurrent requests over it: each request carries a
client-assigned ``id``, a background reader task pairs response frames
back to their waiting futures, so ``asyncio.gather`` over many
:meth:`GSIClient.query` calls is the natural way to generate load
(exactly what the serving benchmark's open/closed loops do).

Example::

    async with GSIClient("127.0.0.1", 8471) as client:
        response = await client.query(query_graph, tenant="alice")
        if response["status"] == "ok":
            print(response["num_matches"], "matches")
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional

from repro.graph.labeled_graph import LabeledGraph
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    make_request,
)

#: longest response frame the client reads (asyncio's default is
#: 64 KiB, which a query with a few thousand matches already exceeds)
RESPONSE_LINE_LIMIT = 1 << 26


class GSIClient:
    """One pipelined NDJSON connection to a :class:`GSIServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiting: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()

    # ------------------------------------------------------------------

    async def connect(self) -> "GSIClient":
        if self._writer is not None:
            raise RuntimeError("client already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=RESPONSE_LINE_LIMIT)
        self._reader_task = asyncio.create_task(self._read_loop(),
                                                name="gsi-client-reader")
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
        self._fail_waiters(ConnectionError("client closed"))

    async def __aenter__(self) -> "GSIClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------

    def _fail_waiters(self, exc: Exception) -> None:
        waiting, self._waiting = self._waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        oversized = False
        try:
            while True:
                try:
                    line = await self._reader.readuntil(b"\n")
                except asyncio.LimitOverrunError as exc:
                    # Skip an over-limit frame piece by piece up to its
                    # newline; the stream then stays aligned.
                    await self._reader.readexactly(exc.consumed)
                    oversized = True
                    continue
                if oversized:
                    # ``line`` is the skipped frame's tail.  Its id is
                    # unknown, so no pending request can be told apart.
                    oversized = False
                    self._fail_waiters(ProtocolError(
                        f"response frame exceeds the "
                        f"{RESPONSE_LINE_LIMIT}-byte line limit"))
                    continue
                try:
                    msg = decode_message(line)
                except ProtocolError:
                    continue  # not ours to crash on; skip bad frame
                future = self._waiting.pop(msg.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(msg)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._fail_waiters(
                ConnectionError("server closed the connection"))

    async def _request(self, msg: dict) -> dict:
        if self._writer is None:
            raise RuntimeError("client is not connected")
        future = asyncio.get_running_loop().create_future()
        self._waiting[msg["id"]] = future
        async with self._write_lock:
            self._writer.write(encode_message(msg))
            await self._writer.drain()
        return await future

    # ------------------------------------------------------------------

    async def query(self, query: LabeledGraph,
                    tenant: Optional[str] = None) -> dict:
        """Submit one query; resolves to its response frame."""
        return await self._request(make_request(
            "query", next(self._ids), tenant=tenant, query=query))

    async def stats(self) -> dict:
        """The server's ``stats`` payload (config + metrics)."""
        response = await self._request(make_request("stats",
                                                    next(self._ids)))
        if response.get("status") != "ok":
            raise ProtocolError(f"stats failed: {response}")
        return response["stats"]

    async def metrics(self) -> str:
        """The server's obs registry in Prometheus text format."""
        response = await self._request(make_request("metrics",
                                                    next(self._ids)))
        if response.get("status") != "ok":
            raise ProtocolError(f"metrics failed: {response}")
        return response["text"]

    async def ping(self) -> bool:
        response = await self._request(make_request("ping",
                                                    next(self._ids)))
        return response.get("status") == "ok"
