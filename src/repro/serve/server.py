"""Asyncio HTTP front end for the exploration service.

Stdlib only: ``asyncio.start_server`` plus a minimal HTTP/1.1
request parser.  Every connection serves exactly one request
(``Connection: close``) — the service is a batch API, not a byte-
shaving RPC plane, and one-shot connections keep the parser honest and
the failure modes boring.

All JSON endpoints delegate to :func:`repro.serve.handlers.route`; the
only transport-level specialization is ``GET /v1/jobs/{id}/events``
with ``Accept: text/event-stream``-style semantics: the handler polls
the job's append-only event list and writes each record as one SSE
``event:``/``data:`` frame, closing with an ``end`` frame once the job
finishes.  Job execution happens on the service's worker threads, so
the event loop only ever formats bytes — a slow sweep never blocks
health checks or other submissions.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ConfigurationError
from repro.serve.handlers import ExplorationService, route
from repro.serve.protocol import error_envelope

#: Largest accepted request body; a sweep spec is small by nature.
MAX_BODY_BYTES = 1_000_000

#: Seconds between event-list polls while streaming SSE.
SSE_POLL_S = 0.02

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _http_payload(status: int, body: bytes, content_type: str) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class ReproServer:
    """One service instance behind one listening socket.

    Usage (see ``repro serve`` in the CLI for the blocking wrapper)::

        server = ReproServer(port=0)
        await server.start()
        host, port = server.address
        ...
        await server.aclose()
    """

    def __init__(
        self,
        service: ExplorationService | None = None,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service if service is not None else ExplorationService()
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        #: Live SSE streams right now — observable from tests so a
        #: client disconnect can be shown to reap its server-side loop.
        self.sse_streams = 0

    @property
    def address(self) -> tuple:
        """Actual ``(host, port)`` once started (port 0 resolves here)."""
        if self._server is None:
            raise ConfigurationError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except _BadRequest as error:
            await self._write_json(
                writer, error.status, error_envelope("bad_json", str(error))
            )
            return
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        try:
            if method == "GET" and path.split("?")[0].endswith("/events"):
                await self._stream_events(writer, path)
            elif path.split("?")[0] == "/v1/metrics":
                # Raw Prometheus text, not a JSON envelope — rendered
                # here at the transport layer, like SSE.
                await self._write_metrics(writer, method)
            else:
                status, payload = route(self.service, method, path, body)
                await self._write_json(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()

    async def _read_request(self, reader) -> tuple:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
        if content_length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body over {MAX_BODY_BYTES} bytes", status=413
            )
        body = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as error:
                raise _BadRequest(f"body is not JSON: {error}") from None
        return method, target, body

    async def _write_metrics(self, writer, method: str) -> None:
        from repro.obs.expo import CONTENT_TYPE

        if method != "GET":
            await self._write_json(
                writer,
                405,
                error_envelope(
                    "method_not_allowed",
                    f"method {method} not allowed on /v1/metrics",
                ),
            )
            return
        body = self.service.metrics_text().encode("utf-8")
        writer.write(_http_payload(200, body, CONTENT_TYPE))
        await writer.drain()
        writer.close()

    async def _write_json(self, writer, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        writer.write(_http_payload(status, body, "application/json"))
        await writer.drain()
        writer.close()

    async def _stream_events(self, writer, path: str) -> None:
        job_id = path.split("?")[0].split("/")[-2]
        try:
            self.service.events_since(job_id, 0)
        except Exception:
            status, payload = route(self.service, "GET", path)
            await self._write_json(writer, status, payload)
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii"))
        cursor = 0
        self.sse_streams += 1
        try:
            while True:
                events, finished = self.service.events_since(job_id, cursor)
                for event in events:
                    frame = (
                        f"event: {event.get('kind', 'message')}\n"
                        f"data: {json.dumps(event)}\n\n"
                    )
                    writer.write(frame.encode("utf-8"))
                cursor += len(events)
                if not events:
                    # SSE comment frame: ignored by clients, but the
                    # write + drain below surfaces a peer disconnect as
                    # ConnectionError even while the job is quiet — the
                    # stream is reaped instead of polling forever.
                    writer.write(b": keepalive\n\n")
                await writer.drain()
                if finished and not events:
                    writer.write(b"event: end\ndata: {}\n\n")
                    await writer.drain()
                    break
                await asyncio.sleep(SSE_POLL_S)
        finally:
            self.sse_streams -= 1
            writer.close()


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_size: int = 256,
    cache_path=None,
    max_workers: int = 4,
    ready=None,
    journal_dir=None,
    tracing: bool = True,
) -> None:
    """Blocking entry point behind ``repro serve``.

    ``ready``, when given, is called with the bound ``(host, port)``
    once the socket listens — the test harness and CLI use it to print
    the resolved port before blocking.  ``journal_dir`` enables
    per-job sweep checkpoints for resumable cancellation.
    """
    from repro.serve.cache import ResultCache

    service = ExplorationService(
        cache=ResultCache(maxsize=cache_size, path=cache_path),
        max_workers=max_workers,
        journal_dir=journal_dir,
        tracing=tracing,
    )
    server = ReproServer(service=service, host=host, port=port)

    async def main() -> None:
        await server.start()
        if ready is not None:
            ready(server.address)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    # KeyboardInterrupt propagates: the CLI entry points translate it
    # into a one-line message and exit code 130.  asyncio.run() already
    # cancels the serve loop and runs the `finally: aclose()` (draining
    # in-flight jobs) before re-raising.
    asyncio.run(main())
