"""Clients for the exploration service: HTTP and in-process.

:class:`ServeClient` speaks to a live socket server over
``http.client`` (stdlib, blocking — matches the CLI's needs).
:class:`InProcessClient` presents the identical interface but calls
:func:`repro.serve.handlers.route` directly against a service instance:
the contract-test fixture, the fuzz harness and the benchmark all use
it to exercise the exact wire-dispatch path without a socket.

Both expose the raw ``request`` primitive — returning ``(status,
payload)`` without raising on 4xx/5xx, which contract tests need — and
convenience wrappers (``submit``/``wait``/``result``/…) that raise
:class:`ServeClientError` on any non-2xx, which scripts want.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse

from repro.errors import ReproError
from repro.serve.handlers import route


class ServeClientError(ReproError):
    """A service call returned a non-2xx response.

    Attributes:
        status: HTTP status code.
        payload: Decoded error envelope (when the body was JSON).
    """

    def __init__(self, status: int, payload) -> None:
        error = (payload or {}).get("error", {})
        message = error.get("message", "request failed")
        code = error.get("code", "error")
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.payload = payload


class _ClientCore:
    """Shared convenience layer over a ``request`` primitive."""

    def request(self, method: str, path: str, payload=None) -> tuple:
        raise NotImplementedError

    def _call(self, method: str, path: str, payload=None) -> dict:
        status, response = self.request(method, path, payload)
        if status != 200:
            raise ServeClientError(status, response)
        return response

    def submit(self, job: dict) -> dict:
        return self._call("POST", "/v1/jobs", job)

    def status(self, job_id: str, wait_s: float | None = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait_s={wait_s}"
        return self._call("GET", path)

    def result(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}/result")

    def report(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}/report")

    def stats(self) -> dict:
        return self._call("GET", "/v1/stats")

    def healthz(self) -> dict:
        return self._call("GET", "/v1/healthz")

    def cancel(self, job_id: str) -> dict:
        """Request cooperative cancellation of a running job."""
        return self._call("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(
        self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.05
    ) -> dict:
        """Block until the job finishes; returns its final status.

        Polls with exponential backoff (``poll_s`` doubling to at most
        1 s, jittered) on top of the server's long-poll ``wait_s`` —
        a long-running job costs a bounded handful of requests, and a
        thundering herd of waiters decorrelates instead of beating on
        the service in lockstep.
        """
        deadline = time.monotonic() + timeout_s
        delay = max(poll_s, 1e-4)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    409,
                    {
                        "error": {
                            "code": "timeout",
                            "message": f"job {job_id} still running "
                            f"after {timeout_s}s",
                        }
                    },
                )
            status = self.status(job_id, wait_s=min(remaining, 5.0))
            if status["status"] in ("done", "failed", "cancelled"):
                return status
            time.sleep(min(remaining, delay * random.uniform(0.5, 1.0)))
            delay = min(delay * 2.0, 1.0)

    def run(self, job: dict, timeout_s: float = 60.0) -> dict:
        """Submit, wait, and return the result envelope."""
        deadline = time.monotonic() + timeout_s
        job_id = self.submit(job)["job_id"]
        final = self.wait(
            job_id, timeout_s=max(0.0, deadline - time.monotonic())
        )
        if final["status"] == "failed":
            raise ServeClientError(500, final)
        if final["status"] == "cancelled":
            raise ServeClientError(409, final)
        return self.result(job_id)


class InProcessClient(_ClientCore):
    """Socketless client bound to an :class:`ExplorationService`."""

    def __init__(self, service) -> None:
        self.service = service

    def request(self, method: str, path: str, payload=None) -> tuple:
        return route(self.service, method, path, payload)

    def events(self, job_id: str, timeout_s: float = 60.0):
        """Yield the job's events, polling until it finishes."""
        deadline = time.monotonic() + timeout_s
        cursor = 0
        while time.monotonic() < deadline:
            events, finished = self.service.events_since(job_id, cursor)
            yield from events
            cursor += len(events)
            if finished and not events:
                return
            time.sleep(0.01)

    def metrics_text(self) -> str:
        """The Prometheus exposition text (no transport involved)."""
        return self.service.metrics_text()


class ServeClient(_ClientCore):
    """HTTP client for a live ``repro serve`` instance."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ServeClientError(
                400,
                {
                    "error": {
                        "code": "bad_url",
                        "message": f"only http:// supported, got {base_url!r}",
                    }
                },
            )
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8765
        self.timeout_s = timeout_s

    def request(self, method: str, path: str, payload=None) -> tuple:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else None
            except json.JSONDecodeError:
                decoded = {"raw": raw.decode("utf-8", "replace")}
            return response.status, decoded
        finally:
            connection.close()

    def metrics_text(self) -> str:
        """Raw body of ``GET /v1/metrics`` (Prometheus text format)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServeClientError(
                    response.status, json.loads(raw or b"{}")
                )
            return raw.decode("utf-8")
        finally:
            connection.close()

    def result_bytes(self, job_id: str) -> bytes:
        """The result endpoint's exact response body (byte-identity
        checks compare these across cold and warm requests)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/result")
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServeClientError(
                    response.status, json.loads(raw or b"{}")
                )
            return raw
        finally:
            connection.close()

    def events(self, job_id: str, timeout_s: float = 60.0):
        """Yield decoded SSE events until the server's ``end`` frame."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout_s
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raise ServeClientError(
                    response.status, json.loads(response.read() or b"{}")
                )
            kind = None
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event: "):
                    kind = line[len("event: "):]
                elif line.startswith("data: "):
                    if kind == "end":
                        return
                    yield json.loads(line[len("data: "):])
        finally:
            connection.close()
