"""Asyncio client for the repro query server.

One connection, strictly request/response: :meth:`AsyncQueryClient.request`
writes a JSON line and awaits the matching response line. Convenience
wrappers cover the common ops; the raw :meth:`request` takes any protocol
dict. A query result's column-major ``data`` frame comes back as its
``rows`` view, a list of tuples. Used by the load generator, the
concurrency differential harness and the serving tests.

Read-only requests survive one transient connection reset: the client
reconnects after a capped exponential backoff and replays the request,
counting each recovery in the ``serving.reconnects_total`` metric.
Non-idempotent ops (``set``, ``close``) are never replayed — a reset there
surfaces as the original :class:`ConnectionError` because the server may
have acted on the request before the connection died.
"""

from __future__ import annotations

import asyncio
import json

from ..metrics import REGISTRY
from ..operators.tuples import zip_rows
from .protocol import query_to_dict
from .server import STREAM_LIMIT

#: Ops safe to replay after a connection reset: they read state (or, for
#: ``session``, re-establish it) without mutating the database or knobs.
IDEMPOTENT_OPS = frozenset(
    {"query", "sql", "explain", "session", "stats", "metrics", "ping"}
)

#: First-retry backoff and the cap it grows toward on repeated resets.
RECONNECT_BACKOFF_BASE = 0.05
RECONNECT_BACKOFF_CAP = 1.0


def _with_rows(response: dict) -> dict:
    """Replace a result's column-major ``data`` frame by its ``rows`` view:
    a list of tuples built with one ``zip``."""
    data = response.pop("data", None)
    if data is not None:
        response["rows"] = zip_rows(data, response["n_rows"])
    return response


class AsyncQueryClient:
    """Line-protocol client bound to one server connection."""

    def __init__(self, reader, writer, greeting: dict, *,
                 host: str | None = None, port: int | None = None,
                 metrics=None):
        self._reader = reader
        self._writer = writer
        self.greeting = greeting
        self.session_id = greeting.get("session_id")
        self._host = host
        self._port = port
        self._metrics = metrics if metrics is not None else REGISTRY
        self._consecutive_resets = 0

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0, metrics=None
    ) -> "AsyncQueryClient":
        """Open a connection and consume the server greeting."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=STREAM_LIMIT
        )
        greeting = json.loads(await reader.readline())
        return cls(reader, writer, greeting,
                   host=host, port=port, metrics=metrics)

    async def request(self, payload: dict) -> dict:
        """Send one protocol dict, await and parse the response line.

        Idempotent (read-only) ops get one transparent retry on a
        transient reset; everything else propagates the failure.
        """
        try:
            result = await self._send(payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            if (
                payload.get("op") not in IDEMPOTENT_OPS
                or self._host is None
            ):
                raise
            await self._reconnect()
            result = await self._send(payload)
        self._consecutive_resets = 0
        return result

    async def _send(self, payload: dict) -> dict:
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _with_rows(json.loads(line))

    async def _reconnect(self) -> None:
        """Replace the dead connection after a capped exponential backoff."""
        backoff = min(
            RECONNECT_BACKOFF_BASE * 2 ** self._consecutive_resets,
            RECONNECT_BACKOFF_CAP,
        )
        self._consecutive_resets += 1
        await asyncio.sleep(backoff)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=STREAM_LIMIT
        )
        self.greeting = json.loads(await self._reader.readline())
        self.session_id = self.greeting.get("session_id")
        self._metrics.counter("serving.reconnects_total").inc()

    # ----------------------------------------------------------- conveniences

    async def sql(self, statement: str, **knobs) -> dict:
        return await self.request({"op": "sql", "sql": statement, **knobs})

    async def query(self, query, **knobs) -> dict:
        """Run a logical SelectQuery/JoinQuery object."""
        return await self.request(
            {"op": "query", "query": query_to_dict(query), **knobs}
        )

    async def explain(self, statement: str, analyze: bool = True, **knobs) -> dict:
        return await self.request(
            {"op": "explain", "sql": statement, "analyze": analyze, **knobs}
        )

    async def set_knobs(self, **knobs) -> dict:
        return await self.request({"op": "set", "knobs": knobs})

    async def session(self) -> dict:
        return await self.request({"op": "session"})

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def metrics(self, format: str = "prometheus") -> dict:
        """Fetch the server's metrics exposition (``prometheus`` text or
        ``json`` registry export + live serving stats)."""
        return await self.request({"op": "metrics", "format": format})

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def close(self) -> None:
        """Polite close: send the close op, then tear the socket down."""
        try:
            await self.request({"op": "close"})
        except (ConnectionError, json.JSONDecodeError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
