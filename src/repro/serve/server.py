"""Asyncio HTTP front end for the exploration service.

Stdlib only: ``asyncio.start_server`` plus a minimal HTTP/1.1
request parser.  Connections are persistent (HTTP/1.1 keep-alive): one
connection serves request after request until the peer closes it, a
request says ``Connection: close`` or speaks HTTP/1.0, a request is
malformed (the 400/413 path), or the request opens an SSE stream.  Only
the response after which the server closes carries ``Connection:
close``.  A connection whose next request has not arrived within
:data:`KEEPALIVE_IDLE_S` is closed, and :meth:`ReproServer.aclose`
closes such idle connections at once, so shutdown never waits on a
client.

All JSON endpoints delegate to :func:`repro.serve.handlers.route`; the
transport-level specializations are three.  ``GET /v1/metrics`` is
Prometheus text, not a JSON envelope.  ``GET /v1/jobs/{id}/events``
streams the job's append-only event list as SSE ``event:``/``data:``
frames, closing with an ``end`` frame once the job finishes.  A status
long-poll (``GET /v1/jobs/{id}?wait_s=N``) awaits the job's completion
callback on the event loop instead of blocking it, then routes the
status without waiting.  Job execution happens on the service's worker
threads, so the event loop only ever formats bytes — a slow sweep or a
parked long-poll never blocks health checks or other submissions.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ConfigurationError
from repro.serve.handlers import ExplorationService, long_poll, route
from repro.serve.protocol import error_envelope

#: Largest accepted request body; a sweep spec is small by nature.
MAX_BODY_BYTES = 1_000_000

#: Seconds between event-list polls while streaming SSE.
SSE_POLL_S = 0.02

#: Seconds a connection may take to deliver its next whole request
#: (idle time between requests included) before the server closes it.
KEEPALIVE_IDLE_S = 5.0

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


def _http_payload(
    status: int, body: bytes, content_type: str, keep_alive: bool
) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if not keep_alive:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("ascii") + body


def _resolve(future) -> None:
    if not future.done():
        future.set_result(None)


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
        self._closing = False
        #: Writers of connections between responses: waiting for, or
        #: reading, their next request.
        self._idle: set = set()
        #: Futures of status long-polls waiting for their job.
        self._polls: set = set()

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
        """Serve until cancelled, then leave closing to :meth:`aclose`.

        Not ``Server.serve_forever()``: on cancellation it waits in
        ``wait_closed()`` for every connection, idle keep-alive ones
        included, before :meth:`aclose` could close them.
        """
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    async def aclose(self) -> None:
        if self._server is not None:
            self._closing = True
            self._server.close()
            # Server.wait_closed() waits for every open connection (on
            # Python 3.12+): close the idle ones, and answer parked
            # long-polls now — each such response closes its connection.
            for writer in list(self._idle):
                writer.close()
            for future in list(self._polls):
                _resolve(future)
            await self._server.wait_closed()
            self._server = None
        # Draining in-flight jobs off the loop lets it finish writing
        # the responses that are still in flight meanwhile.
        await asyncio.get_running_loop().run_in_executor(
            None, self.service.close
        )

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, writer)
                except _BadRequest as error:
                    await self._write_json(
                        writer,
                        error.status,
                        error_envelope("bad_json", str(error)),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                if not await self._respond(writer, *request):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def _respond(
        self, writer, method: str, path: str, body, keep_alive: bool
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        bare = path.split("?")[0]
        if method == "GET" and bare.endswith("/events"):
            await self._stream_events(writer, path)
            return False
        if bare == "/v1/metrics":
            # Raw Prometheus text, not a JSON envelope — rendered
            # here at the transport layer, like SSE.
            keep_alive = keep_alive and not self._closing
            await self._write_metrics(writer, method, keep_alive)
            return keep_alive
        poll = long_poll(self.service, method, path)
        if poll is not None:
            await self._await_job(*poll)
        status, payload = route(self.service, method, path, body, wait=False)
        keep_alive = keep_alive and not self._closing
        await self._write_json(writer, status, payload, keep_alive)
        return keep_alive

    async def _await_job(self, job_id: str, wait_s: float) -> None:
        """Until the job finishes, ``wait_s`` lapses or the server closes.

        The job's completion callback runs on whichever thread finishes
        it and wakes this loop through ``call_soon_threadsafe``: no
        thread is parked per waiter.
        """
        loop = asyncio.get_running_loop()
        done = loop.create_future()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(_resolve, done)
            except RuntimeError:  # the loop closed: nobody waits now
                pass

        timer = loop.call_later(wait_s, _resolve, done)
        self._polls.add(done)
        self.service.add_done_callback(job_id, wake)
        try:
            await done
        finally:
            timer.cancel()
            self._polls.discard(done)
            self.service.remove_done_callback(job_id, wake)

    async def _read_request(self, reader, writer) -> tuple | None:
        """The next request, or None once the connection has ended.

        The connection is closed if no whole request arrives within
        :data:`KEEPALIVE_IDLE_S`, or at once by :meth:`aclose`.
        """
        self._idle.add(writer)
        reaper = asyncio.get_running_loop().call_later(
            KEEPALIVE_IDLE_S, writer.close
        )
        try:
            return await self._parse_request(reader)
        finally:
            reaper.cancel()
            self._idle.discard(writer)

    async def _parse_request(self, reader) -> tuple | None:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        keep_alive = version == "HTTP/1.1"
        content_length = 0
        while True:
            line = await reader.readline()
            if not line:
                raise asyncio.IncompleteReadError(b"", None)
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
            elif name == "connection":
                tokens = {token.strip().lower() for token in value.split(",")}
                if "close" in tokens:
                    keep_alive = False
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
        return method, target, body, keep_alive

    async def _write_metrics(
        self, writer, method: str, keep_alive: bool
    ) -> None:
        from repro.obs.expo import CONTENT_TYPE

        if method != "GET":
            await self._write_json(
                writer,
                405,
                error_envelope(
                    "method_not_allowed",
                    f"method {method} not allowed on /v1/metrics",
                ),
                keep_alive,
            )
            return
        body = self.service.metrics_text().encode("utf-8")
        writer.write(_http_payload(200, body, CONTENT_TYPE, keep_alive))
        await writer.drain()

    async def _write_json(
        self, writer, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        writer.write(
            _http_payload(status, body, "application/json", keep_alive)
        )
        await writer.drain()

    async def _stream_events(self, writer, path: str) -> None:
        job_id = path.split("?")[0].split("/")[-2]
        try:
            self.service.events_since(job_id, 0)
        except Exception:
            status, payload = route(self.service, "GET", path)
            await self._write_json(writer, status, payload, keep_alive=False)
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
