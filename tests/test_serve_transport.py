"""Transport tests: persistent connections and the long-poll, over a
real socket.

The server keeps a connection open across requests (HTTP/1.1
keep-alive) until the peer closes it, a request asks for ``Connection:
close`` or speaks HTTP/1.0, a request is malformed, or it opens an SSE
stream.  :class:`~repro.serve.client.ServeClient` keeps one connection
per thread and per process and retries once when the server closed a
reused one while it sat idle.  Connections are counted by wrapping
``ReproServer._handle``, which runs once per accepted connection.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.serve import server as server_module
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.serve.testing import in_process_service, running_server
from repro.serve.workloads import register_workload, unregister_workload
from tests.serve_helpers import gated_workload, open_gate, reset_gate

JOB = {
    "kind": "sweep",
    "workload": "edram_tradeoff",
    "axes": {"width": [16, 32], "banks": [2]},
}


@pytest.fixture
def accepts(monkeypatch):
    """Peer addresses of every connection the server accepts."""
    peers: list = []
    handle = ReproServer._handle

    async def counting(self, reader, writer):
        peers.append(writer.get_extra_info("peername"))
        await handle(self, reader, writer)

    monkeypatch.setattr(ReproServer, "_handle", counting)
    return peers


@pytest.fixture
def gated():
    register_workload("t_gated", gated_workload, replace=True)
    yield
    unregister_workload("t_gated")


def _instant_workload(x: int = 0) -> dict:
    return {"x": x}


def _gated_job(gate: str) -> dict:
    reset_gate(gate)
    return {"kind": "sweep", "workload": "t_gated", "axes": {"gate": [gate]}}


def _read_response(sock) -> tuple:
    """One response off a raw socket: ``(head text, body bytes)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    head = head.decode("latin-1")
    length = next(
        int(line.split(":", 1)[1])
        for line in head.split("\r\n")
        if line.lower().startswith("content-length:")
    )
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head, body


def _closed_by_server(sock) -> bool:
    """Whether the server has closed the connection (EOF within 5 s)."""
    sock.settimeout(5.0)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def _raw(server, request: bytes) -> tuple:
    """Send raw request bytes; ``(head, body, closed by server)``."""
    sock = socket.create_connection(server.address, timeout=5.0)
    try:
        sock.sendall(request)
        head, body = _read_response(sock)
        return head, body, _closed_by_server(sock)
    finally:
        sock.close()


class TestKeepAlive:
    def test_one_client_in_one_thread_makes_one_connection(self, accepts):
        with running_server() as (server, client):
            assert client.healthz()["status"] == "healthy"
            result = client.run(JOB, timeout_s=60.0)
            job_id = client.submit(JOB)["job_id"]
            client.wait(job_id, timeout_s=60.0)
            assert json.loads(client.result_bytes(job_id)) == result
            assert "repro_serve_executions" in client.metrics_text()
            assert client.stats()["submitted"] == 2
            status, _ = client.request("GET", "/v1/no-such-endpoint")
            assert status == 404
            assert client.healthz()["status"] == "healthy"
            assert len(accepts) == 1

    def test_keep_alive_response_has_no_connection_close(self):
        with running_server() as (server, _):
            sock = socket.create_connection(server.address, timeout=5.0)
            try:
                for _ in range(3):
                    sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                    head, body = _read_response(sock)
                    assert head.startswith("HTTP/1.1 200")
                    assert "connection: close" not in head.lower()
                    assert json.loads(body)["status"] == "healthy"
            finally:
                sock.close()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nConnection: keep-alive, Close"
            b"\r\n\r\n",
            b"GET /v1/healthz HTTP/1.0\r\n\r\n",
            b"GET /v1/metrics HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "close-token", "http-1.0", "metrics-1.0"],
    )
    def test_close_requests_get_a_closed_connection(self, request_bytes):
        with running_server() as (server, _):
            head, _, closed = _raw(server, request_bytes)
        assert head.startswith("HTTP/1.1 200")
        assert "Connection: close" in head
        assert closed

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"garbage\r\n\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ],
        ids=["request-line", "body", "content-length"],
    )
    def test_bad_request_closes_the_connection(self, request_bytes):
        with running_server() as (server, _):
            head, body, closed = _raw(server, request_bytes)
        assert head.startswith("HTTP/1.1 400")
        assert "Connection: close" in head
        assert json.loads(body)["error"]["code"] == "bad_json"
        assert closed

    def test_sse_stream_closes_the_connection(self):
        with running_server() as (server, client):
            job_id = client.submit(JOB)["job_id"]
            client.wait(job_id, timeout_s=60.0)
            sock = socket.create_connection(server.address, timeout=5.0)
            try:
                sock.sendall(
                    f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode()
                )
                stream = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    stream += chunk
            finally:
                sock.close()
        assert b"Connection: close" in stream.split(b"\r\n\r\n")[0]
        assert stream.endswith(b"event: end\ndata: {}\n\n")


class TestClientConnections:
    def test_server_reaped_idle_connection_is_retried_once(
        self, accepts, monkeypatch
    ):
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 0.05)
        with running_server() as (server, client):
            assert client.healthz()["status"] == "healthy"
            # The server closes the idle connection; the client only
            # learns so on its next request, and retries it.
            time.sleep(0.3)
            assert client.healthz()["status"] == "healthy"
            assert len(accepts) == 2

    def test_retry_is_made_exactly_once(self, accepts, monkeypatch):
        # After the first connection, the server drops every new one
        # unanswered: the reused connection's failure is retried once,
        # the fresh connection's failure is raised.
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 0.05)
        counting = ReproServer._handle

        async def drop_after_first(self, reader, writer):
            if accepts:
                accepts.append(writer.get_extra_info("peername"))
                writer.close()
                return
            await counting(self, reader, writer)

        monkeypatch.setattr(ReproServer, "_handle", drop_after_first)
        with running_server() as (server, client):
            assert client.healthz()["status"] == "healthy"
            time.sleep(0.3)
            with pytest.raises(ConnectionError):
                client.healthz()
            assert len(accepts) == 2
            # A fresh connection's failure is never retried.
            with pytest.raises(ConnectionError):
                client.healthz()
            assert len(accepts) == 3

    def test_threads_never_share_a_socket(self, accepts):
        with running_server() as (server, client):
            names: dict = {}
            barrier = threading.Barrier(2)

            def call(slot: int) -> None:
                barrier.wait(timeout=10.0)
                client.healthz()
                first = client._connection().sock.getsockname()
                client.healthz()
                names[slot] = (first, client._connection().sock.getsockname())

            threads = [
                threading.Thread(target=call, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            # Each thread keeps its own socket across calls ...
            assert all(first == again for first, again in names.values())
            # ... and no two threads share one.
            assert names[0][0] != names[1][0]
            assert len(accepts) == 2
            assert {names[0][0], names[1][0]} == set(accepts)

    def test_forked_child_opens_its_own_connection(self, accepts):
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        with running_server() as (server, client):
            client.healthz()
            parent_name = client._connection().sock.getsockname()
            read_end, write_end = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork() from a multi-threaded process.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                try:
                    client.healthz()
                    name = client._connection().sock.getsockname()
                    os.write(write_end, json.dumps(list(name)).encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end, "rb") as pipe:
                child_name = tuple(json.loads(pipe.read()))
            os.waitpid(pid, 0)
            assert child_name != parent_name
            assert len(accepts) == 2
            # The parent's connection still works after the child left.
            assert client.healthz()["status"] == "healthy"
            assert client._connection().sock.getsockname() == parent_name

    def test_close_closes_every_connection(self, accepts):
        with running_server() as (server, client):
            with ServeClient("http://%s:%d" % server.address) as own:
                own.healthz()
                sock = own._connection().sock
            assert sock.fileno() == -1
            # A closed client reconnects on its next call.
            assert own.healthz()["status"] == "healthy"
            own.close()
            assert len(accepts) == 2


class TestLongPoll:
    def test_healthz_answers_while_another_thread_long_polls(self, gated):
        with running_server() as (server, client):
            job_id = client.submit(_gated_job("long-poll"))["job_id"]
            polled: dict = {}

            def poll() -> None:
                started = time.monotonic()
                polled["status"] = client.status(job_id, wait_s=2.0)["status"]
                polled["elapsed"] = time.monotonic() - started

            poller = threading.Thread(target=poll)
            poller.start()
            time.sleep(0.2)  # let the long-poll reach the server
            started = time.monotonic()
            assert client.healthz()["status"] == "healthy"
            healthz_s = time.monotonic() - started
            open_gate("long-poll")
            poller.join(timeout=10.0)
            assert healthz_s < 0.5
            # The poll woke on the job's completion, not on its timeout.
            assert polled["status"] == "done"
            assert polled["elapsed"] < 2.0

    def test_long_poll_returns_the_status_when_wait_lapses(self, gated):
        with running_server() as (server, client):
            job_id = client.submit(_gated_job("lapse"))["job_id"]
            started = time.monotonic()
            status = client.status(job_id, wait_s=0.2)["status"]
            elapsed = time.monotonic() - started
            open_gate("lapse")
            assert status == "running"
            assert 0.15 <= elapsed < 2.0
            assert client.wait(job_id, timeout_s=30.0)["status"] == "done"

    def test_bad_long_polls_answer_like_the_router(self):
        with running_server() as (server, client):
            client.run(JOB, timeout_s=60.0)
            assert client.request("GET", "/v1/jobs/job-9?wait_s=1")[0] == 404
            assert client.request("GET", "/v1/jobs/job-1?wait_s=x")[0] == 400
            assert client.request("GET", "/v1/jobs/job-1?wait_s=5")[0] == 200


    def test_done_callbacks_run_once_each_under_contention(self):
        # No lost or doubled wake-up: a callback added while its job
        # finishes runs exactly once, whichever side wins the race.
        register_workload("t_instant", _instant_workload, replace=True)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        calls: collections.Counter = collections.Counter()
        count_lock = threading.Lock()
        try:
            with in_process_service(max_workers=8) as (service, _):
                job_ids = [
                    service.submit(
                        {
                            "kind": "sweep",
                            "workload": "t_instant",
                            "axes": {"x": [index]},
                        }
                    )["job_id"]
                    for index in range(64)
                ]

                def register(slot: int) -> None:
                    for job_id in job_ids:
                        def callback(key=(slot, job_id)) -> None:
                            with count_lock:
                                calls[key] += 1

                        service.add_done_callback(job_id, callback)

                threads = [
                    threading.Thread(target=register, args=(slot,))
                    for slot in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
            # Leaving the block joined every job, callbacks included.
        finally:
            sys.setswitchinterval(previous)
            unregister_workload("t_instant")
        assert calls == collections.Counter(
            {(slot, job_id): 1 for slot in range(8) for job_id in job_ids}
        )


class TestShutdown:
    def test_aclose_closes_idle_connections_and_answers_polls(
        self, gated, monkeypatch
    ):
        # Idle reaping must not be what closes the connection here.
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 60.0)

        async def scenario() -> tuple:
            server = ReproServer(port=0)
            await server.start()
            address = server.address
            idle_reader, idle_writer = await asyncio.open_connection(*address)
            idle_writer.write(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            head = await idle_reader.readuntil(b"\r\n\r\n")
            assert b"Connection: close" not in head
            job_id = server.service.submit(_gated_job("shutdown"))["job_id"]
            poll_reader, poll_writer = await asyncio.open_connection(*address)
            poll_writer.write(
                f"GET /v1/jobs/{job_id}?wait_s=30 HTTP/1.1\r\n\r\n".encode()
            )
            try:
                for _ in range(500):
                    if server._polls:
                        break
                    await asyncio.sleep(0.01)
                started = time.monotonic()
                closing = asyncio.ensure_future(server.aclose())
                poll_response = await asyncio.wait_for(poll_reader.read(), 2.0)
                idle_rest = await asyncio.wait_for(idle_reader.read(), 2.0)
                elapsed = time.monotonic() - started
            finally:
                open_gate("shutdown")  # lets service.close() join its worker
            await asyncio.wait_for(closing, 10.0)
            for writer in (idle_writer, poll_writer):
                writer.close()
            return elapsed, idle_rest, poll_response

        elapsed, idle_rest, poll_response = asyncio.run(scenario())
        assert elapsed < 2.0
        # The server closed the idle connection: the rest of its stream
        # is the healthz body, then EOF.
        assert json.loads(idle_rest)["status"] == "healthy"
        # The parked long-poll was answered at once, closing its
        # connection, while its job was still running.
        head, _, body = poll_response.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "running"
