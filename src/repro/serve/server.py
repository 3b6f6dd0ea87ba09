"""A thin line-protocol front over :class:`~repro.serve.service.QueryService`.

The wire format is JSON lines over TCP: one request object per line, one
response object per line, in order, per connection.  It is deliberately
minimal -- the protocol exists so the service can be driven from any
language (and from the repo's own benchmark/CI load generators) without
pulling in a framework dependency.

Requests (``op`` selects the operation)::

    {"op": "ping"}
    {"op": "query", "s": 17, "t": 912}
    {"op": "batch_query", "pairs": [[17, 912], [3, 4]]}
    {"op": "update", "updates": [[17, 18, 42.5], [3, 4, 7.0]]}
    {"op": "stats"}

Responses always carry ``ok``.  Successful queries answer with the
distance(s), the answering ``tier`` (``"fast"``/``"fallback"``, queries
only) and the ``version`` of the generation that answered -- the handle a
client needs to check answers against per-version oracles.  Updates answer
with the version their batch committed as.  Unreachable distances
(``inf``) cross the wire as ``null``.  Failures answer ``{"ok": false,
"error": <message>, "code": <exception class name>}`` and keep the
connection open; only an unparseable line (no way to stay in sync) closes
it after the error response.

An update is a ``(u, v, new_weight)`` triple: the old weight is resolved
server-side at commit time, so concurrent clients cannot race each other
(or the maintenance loop) on weight reads.  Vertex ids must be JSON integers
and weights JSON numbers: ``1.9``, ``true`` or ``"1"`` answer a
``ServiceError`` instead of being rounded into some other vertex or edge.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.serve.service import QueryService, encode_distance
from repro.utils.errors import ServiceError

#: Maximum request-line length accepted (guards the reader buffer).
MAX_LINE_BYTES = 1 << 20


class QueryServer:
    """Serve a :class:`QueryService` over TCP JSON lines.

    ``port=0`` binds an ephemeral port (the default, right for tests and
    benchmarks); read the bound address from :attr:`address` after
    :meth:`start`.  The server does not own the service's life cycle --
    callers start/stop the service around the server (the CLI in
    :mod:`repro.serve.__main__` shows the pattern).
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        # Live connection handlers and their writers, so stop() can end them.
        self._handlers: dict[Any, asyncio.StreamWriter] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not running")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )

    async def stop(self) -> None:
        """Stop listening, close every open connection and await its handler.

        A client still connected reads EOF; no handler outlives the call.
        """
        if self._server is None:
            return
        self._server.close()
        handlers = list(self._handlers.items())
        for _, writer in handlers:
            writer.close()
        await asyncio.gather(*(task for task, _ in handlers), return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's main loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._server is None or not self._server.is_serving():
            # Accepted just before stop() closed the server.
            writer.close()
            return
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, _error(ServiceError("request line too long")))
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    request = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    # Framing is gone; answer once and drop the connection.
                    await self._send(writer, _error(ServiceError(f"bad JSON: {exc}")))
                    break
                response = await self._dispatch(request)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            del self._handlers[task]

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode("ascii") + b"\n")
        await writer.drain()

    async def _dispatch(self, request: Any) -> dict:
        try:
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "op": "ping", "version": self.service.version}
            if op == "query":
                s, t = _vertex(request["s"]), _vertex(request["t"])
                distance, tier, version = await self.service.distance(s, t)
                return {
                    "ok": True,
                    "distance": encode_distance(distance),
                    "tier": tier,
                    "version": version,
                }
            if op == "batch_query":
                pairs = [(_vertex(s), _vertex(t)) for s, t in _rows(request, "pairs", 2)]
                distances, version = await self.service.batch_distance(pairs)
                return {
                    "ok": True,
                    "distances": [encode_distance(d) for d in distances],
                    "version": version,
                }
            if op == "update":
                rows = _rows(request, "updates", 3)
                triples = [(_vertex(u), _vertex(v), _weight(w)) for u, v, w in rows]
                version = await self.service.submit(triples)
                return {"ok": True, "version": version}
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}
            raise ServiceError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - every failure answers in-band
            return _error(exc)


def _vertex(value: Any) -> int:
    """A vertex id off the wire: a JSON integer (``true`` is not one)."""
    if type(value) is not int:
        raise ServiceError(f"vertex ids must be JSON integers, got {value!r}")
    return value


def _weight(value: Any) -> float:
    """A weight off the wire: a JSON number (range checks are the service's)."""
    if type(value) not in (int, float):
        raise ServiceError(f"weights must be JSON numbers, got {value!r}")
    return float(value)


def _rows(request: dict, key: str, width: int) -> list:
    """``request[key]``, checked to be a list of ``width``-element lists."""
    rows = request[key]
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != width for row in rows
    ):
        raise ServiceError(f"{key!r} must be a list of {width}-element lists")
    return rows


def _error(exc: Exception) -> dict:
    return {"ok": False, "error": str(exc), "code": type(exc).__name__}
