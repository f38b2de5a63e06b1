"""Test harness for the service: in-process fixtures, live servers.

Two levels of fidelity, both cheap:

* :func:`in_process_service` — a bare :class:`ExplorationService` plus
  :class:`InProcessClient`; contract/cache/concurrency tests live here
  because they exercise the same :func:`~repro.serve.handlers.route`
  dispatch the socket server uses, minus the socket.
* :func:`running_server` — a real asyncio server on an ephemeral port,
  driven from a background thread; socket-level tests (SSE framing, N
  HTTP clients hammering one server, the chaos test) use this.

Both are context managers so a failing test can never leak a thread or
an executor into the rest of the suite.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.serve.client import InProcessClient, ServeClient
from repro.serve.handlers import ExplorationService
from repro.serve.server import ReproServer


@contextmanager
def in_process_service(
    cache=None,
    max_workers: int = 4,
    journal_dir=None,
    tracing: bool = True,
):
    """Yields ``(service, client)`` with guaranteed teardown.

    ``journal_dir`` forwards to :class:`ExplorationService`.
    ``tracing=False`` disables trace-context minting, for pinning the
    off-by-default byte-identity contract.
    """
    service = ExplorationService(
        cache=cache,
        max_workers=max_workers,
        journal_dir=journal_dir,
        tracing=tracing,
    )
    try:
        yield service, InProcessClient(service)
    finally:
        service.close()


@contextmanager
def running_server(
    service: ExplorationService | None = None,
    startup_timeout_s: float = 10.0,
):
    """Boots a real server on port 0; yields ``(server, ServeClient)``.

    The event loop runs in a daemon thread; teardown stops the loop and
    joins the thread, closing the service (and its worker pool) with
    it.
    """
    server = ReproServer(service=service, host="127.0.0.1", port=0)
    started = threading.Event()
    failure: list = []
    loop_holder: list = []

    async def main() -> None:
        await server.start()
        loop_holder.append(asyncio.get_running_loop())
        started.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    def runner() -> None:
        try:
            asyncio.run(main())
        except Exception as error:  # pragma: no cover - startup failures
            failure.append(error)
            started.set()

    thread = threading.Thread(
        target=runner, name="repro-serve-test", daemon=True
    )
    thread.start()
    if not started.wait(startup_timeout_s):
        raise ConfigurationError("server did not start in time")
    if failure:
        raise failure[0]
    host, port = server.address
    try:
        yield server, ServeClient(f"http://{host}:{port}")
    finally:
        loop = loop_holder[0]
        loop.call_soon_threadsafe(
            lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
        )
        thread.join(timeout=10.0)
