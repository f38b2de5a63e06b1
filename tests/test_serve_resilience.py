"""Tests for the service's overload protection and cancellation.

Covers the resilience primitives (admission, breakers, cancel tokens)
in isolation, then the service-level behaviors they compose into:
shedding with 429, breaker trips with 503, cooperative cancellation
with journaled partials, deadline enforcement, readiness reporting,
and the client's bounded-backoff wait/retry loops.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import CancelledError, ConfigurationError
from repro.serve.client import InProcessClient, ServeClientError
from repro.serve.resilience import (
    AdmissionController,
    CancelToken,
    CircuitBreaker,
    ResilienceConfig,
)
from repro.serve.testing import in_process_service
from repro.serve.workloads import register_workload, unregister_workload
from tests.serve_helpers import gated_workload, open_gate, reset_gate


def sleepy_workload(x: float = 0.0, delay_s: float = 0.01) -> dict:
    time.sleep(delay_s)
    return {"x": x}


def failing_workload(x: float = 0.0) -> dict:
    raise ConfigurationError("always broken")


class TestResilienceConfig:
    def test_defaults_valid(self):
        config = ResilienceConfig()
        assert config.max_depth == 64
        assert config.workload_limit() == 64

    def test_per_workload_caps_at_max_depth(self):
        config = ResilienceConfig(max_depth=4, per_workload=100)
        assert config.workload_limit() == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 0},
            {"per_workload": 0},
            {"shed_retry_after_s": 0.0},
            {"breaker_threshold": -1},
            {"breaker_cooldown_s": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)


class TestAdmissionController:
    def test_global_depth_bound(self):
        admission = AdmissionController(ResilienceConfig(max_depth=2))
        assert admission.try_admit("a")
        assert admission.try_admit("b")
        assert not admission.try_admit("c")
        assert admission.shed == 1
        admission.release("a")
        assert admission.try_admit("c")

    def test_per_workload_bound(self):
        admission = AdmissionController(
            ResilienceConfig(max_depth=10, per_workload=1)
        )
        assert admission.try_admit("a")
        assert not admission.try_admit("a")
        assert admission.try_admit("b")
        admission.release("a")
        assert admission.try_admit("a")

    def test_snapshot(self):
        admission = AdmissionController(ResilienceConfig(max_depth=3))
        admission.try_admit("a")
        snapshot = admission.snapshot()
        assert snapshot["depth"] == 1
        assert snapshot["max_depth"] == 3
        assert snapshot["per_workload"] == {"a": 1}


class TestCircuitBreaker:
    def config(self, **overrides):
        defaults = {"breaker_threshold": 2, "breaker_cooldown_s": 0.1}
        defaults.update(overrides)
        return ResilienceConfig(**defaults)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        assert breaker.state_of("w") == "closed"
        breaker.record_failure("w")
        assert breaker.state_of("w") == "open"
        allowed, retry_after = breaker.allow("w")
        assert not allowed
        assert retry_after > 0

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        breaker.record_success("w")
        breaker.record_failure("w")
        assert breaker.state_of("w") == "closed"

    def test_half_open_admits_single_probe(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        breaker.record_failure("w")
        time.sleep(0.12)
        allowed, _ = breaker.allow("w")
        assert allowed
        assert breaker.state_of("w") == "half_open"
        # A second caller during the probe is rejected.
        allowed, retry_after = breaker.allow("w")
        assert not allowed
        assert retry_after == pytest.approx(0.1)

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        breaker.record_failure("w")
        time.sleep(0.12)
        breaker.allow("w")
        breaker.record_success("w")
        assert breaker.state_of("w") == "closed"
        assert breaker.allow("w") == (True, None)

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        breaker.record_failure("w")
        time.sleep(0.12)
        breaker.allow("w")
        breaker.record_failure("w")
        assert breaker.state_of("w") == "open"

    def test_cancelled_probe_reopens_instead_of_stranding(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("w")
        breaker.record_failure("w")
        time.sleep(0.12)
        breaker.allow("w")
        assert breaker.state_of("w") == "half_open"
        breaker.record_cancelled("w")
        # Open again with a fresh cooldown — a later window gets a
        # new probe instead of rejecting forever.
        assert breaker.state_of("w") == "open"
        time.sleep(0.12)
        allowed, _ = breaker.allow("w")
        assert allowed

    def test_threshold_zero_disables(self):
        breaker = CircuitBreaker(self.config(breaker_threshold=0))
        for _ in range(10):
            breaker.record_failure("w")
        assert breaker.allow("w") == (True, None)

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure("bad")
        breaker.record_failure("bad")
        assert breaker.state_of("bad") == "open"
        assert breaker.allow("good") == (True, None)


class TestCancelToken:
    def test_first_cancel_wins(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.cancel("first")
        assert not token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_deadline_self_cancels(self):
        token = CancelToken(deadline_s=0.02)
        assert token.remaining_s() <= 0.02
        time.sleep(0.03)
        assert token.cancelled
        assert token.reason == "deadline"

    def test_raise_if_cancelled(self):
        token = CancelToken()
        token.raise_if_cancelled()
        token.cancel("test")
        with pytest.raises(CancelledError, match="test"):
            token.raise_if_cancelled()

    def test_rejects_bad_deadline(self):
        with pytest.raises(ConfigurationError):
            CancelToken(deadline_s=0.0)


class TestSheddingService:
    def test_flood_is_shed_with_429(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2,
                resilience=ResilienceConfig(
                    max_depth=1, shed_retry_after_s=0.07
                ),
            ) as (service, client):
                reset_gate("shed")
                first = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_gated",
                        "axes": {"x": [1], "gate": ["shed"]},
                    }
                )
                status, payload = client.request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "sweep",
                        "workload": "t_gated",
                        "axes": {"x": [2], "gate": ["shed"]},
                    },
                )
                assert status == 429
                assert payload["error"]["code"] == "overloaded"
                assert payload["error"]["retry_after_s"] == 0.07
                # The rejected submission never became a job.
                assert service.stats["submitted"] == 1
                assert service.stats["shed"] == 1
                assert len(service._jobs) == 1
                # Saturated: readyz reports not-ready with the depth.
                status, ready = client.request("GET", "/v1/readyz")
                assert status == 503
                assert ready["ready"] is False
                assert ready["admission"]["depth"] == 1
                open_gate("shed")
                final = client.wait(first["job_id"], timeout_s=30.0)
                assert final["status"] == "done"
                # The admission slot is released just *after* the job
                # resolves (executor-thread finally) — poll briefly.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    status, ready = client.request("GET", "/v1/readyz")
                    if status == 200:
                        break
                    time.sleep(0.01)
                assert status == 200
                assert ready["ready"] is True
                assert ready["admission"]["depth"] == 0
        finally:
            unregister_workload("t_gated")

    def test_shed_and_depth_scrape_from_live_snapshots(self):
        # /v1/metrics samples shed counts and queue depth from the
        # service's own stats and admission snapshot.
        from repro.obs.expo import parse_prometheus, sample_value

        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2,
                resilience=ResilienceConfig(max_depth=1),
            ) as (service, client):
                reset_gate("scrape")
                first = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_gated",
                        "axes": {"x": [1], "gate": ["scrape"]},
                    }
                )
                status, _ = client.request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "sweep",
                        "workload": "t_gated",
                        "axes": {"x": [2], "gate": ["scrape"]},
                    },
                )
                assert status == 429
                parsed = parse_prometheus(service.metrics_text())
                assert sample_value(parsed, "repro_serve_shed") == 1
                assert sample_value(parsed, "repro_serve_queue_depth") == 1
                assert (
                    sample_value(parsed, "repro_serve_queue_depth_limit")
                    == 1
                )
                open_gate("scrape")
                final = client.wait(first["job_id"], timeout_s=30.0)
                assert final["status"] == "done"
        finally:
            open_gate("scrape")
            unregister_workload("t_gated")

    def test_cache_hits_and_followers_bypass_admission(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2,
                resilience=ResilienceConfig(max_depth=1),
            ) as (service, client):
                reset_gate("bypass")
                job = {
                    "kind": "sweep",
                    "workload": "t_gated",
                    "axes": {"x": [1], "gate": ["bypass"]},
                }
                primary = client.submit(job)
                # Identical job coalesces — no admission slot needed
                # even though the service is saturated.
                follower = client.submit(job)
                assert follower["coalesced_with"] == primary["job_id"]
                open_gate("bypass")
                client.wait(primary["job_id"], timeout_s=30.0)
                # Warm hit while notionally saturated: also admitted.
                warm = client.submit(job)
                assert warm["cached"] is True
        finally:
            unregister_workload("t_gated")

    def test_resilience_false_disables_shedding(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2, resilience=False
            ) as (service, client):
                assert service.admission is None
                assert service.breakers is None
                for index in range(8):
                    client.submit(
                        {
                            "kind": "sweep",
                            "workload": "t_sleepy",
                            "axes": {"x": [float(index)]},
                        }
                    )
                assert service.stats["submitted"] == 8
                status, ready = client.request("GET", "/v1/readyz")
                assert status == 200
                assert ready["admission"] is None
        finally:
            unregister_workload("t_sleepy")


class TestBreakerService:
    def test_broken_workload_trips_and_recovers_503(self):
        register_workload("t_failing", failing_workload, replace=True)
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2,
                resilience=ResilienceConfig(
                    breaker_threshold=1, breaker_cooldown_s=30.0
                ),
            ) as (service, client):
                bad = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_failing",
                        "axes": {"x": [1.0]},
                    }
                )
                final = client.wait(bad["job_id"], timeout_s=30.0)
                assert final["status"] == "failed"
                status, payload = client.request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "sweep",
                        "workload": "t_failing",
                        "axes": {"x": [2.0]},
                    },
                )
                assert status == 503
                assert payload["error"]["code"] == "circuit_open"
                assert payload["error"]["retry_after_s"] > 0
                # Other workloads are unaffected (per-key breakers),
                # and the breaker rejection released its admission
                # slot: the healthy job occupies the only capacity it
                # needs.
                healthy = client.run(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {"x": [1.0]},
                    },
                    timeout_s=30.0,
                )
                assert healthy["result"]["n_ok"] == 1
                snapshot = service.breakers.snapshot()
                assert snapshot["states"]["t_failing"] == "open"
                assert snapshot["rejected"] == 1
        finally:
            unregister_workload("t_failing")
            unregister_workload("t_sleepy")


class TestCancellation:
    def test_cancel_endpoint_cancels_running_sweep(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, client):
                submitted = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {
                            "x": [float(i) for i in range(200)],
                            "delay_s": [0.01],
                        },
                    }
                )
                job_id = submitted["job_id"]
                response = client.cancel(job_id)
                assert response["cancelled"] is True
                final = client.wait(job_id, timeout_s=30.0)
                assert final["status"] == "cancelled"
                assert final["error"]["code"] == "cancelled"
                assert "client_cancel" in final["error"]["message"]
                # The result endpoint refuses with 409/cancelled.
                status, payload = client.request(
                    "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 409
                assert payload["error"]["code"] == "cancelled"
                # Nothing partial reached the cache.
                assert service.cache.get(submitted["fingerprint"]) is None
                assert service.stats["cancelled"] == 1
                # A repeated cancel is a no-op.
                again = client.cancel(job_id)
                assert again["cancelled"] is False
        finally:
            unregister_workload("t_sleepy")

    def test_cancelled_job_emits_partial_progress_event(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, client):
                submitted = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {
                            "x": [float(i) for i in range(200)],
                            "delay_s": [0.01],
                        },
                    }
                )
                # Let a few points land before cancelling so the
                # partial snapshot is non-trivial.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    progress = client.status(submitted["job_id"]).get(
                        "progress"
                    )
                    if progress and progress.get("done", 0) >= 1:
                        break
                    time.sleep(0.005)
                client.cancel(submitted["job_id"])
                client.wait(submitted["job_id"], timeout_s=30.0)
                events, finished = service.events_since(
                    submitted["job_id"], 0
                )
                assert finished
                cancelled = [
                    event
                    for event in events
                    if event.get("kind") == "cancelled"
                ]
                assert len(cancelled) == 1
                partial = cancelled[0]["partial"]
                assert partial is not None
                assert 0 < partial["done"] < partial["total"]
        finally:
            unregister_workload("t_sleepy")

    def test_deadline_cancels_and_journals_partial(self, tmp_path):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2, journal_dir=tmp_path / "journals"
            ) as (service, client):
                submitted = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {
                            "x": [float(i) for i in range(300)],
                            "delay_s": [0.01],
                        },
                        "deadline_s": 0.15,
                    }
                )
                final = client.wait(submitted["job_id"], timeout_s=30.0)
                assert final["status"] == "cancelled"
                assert "deadline" in final["error"]["message"]
                journal = (
                    tmp_path
                    / "journals"
                    / f"{submitted['fingerprint']}.jsonl"
                )
                assert journal.exists()
                assert journal.stat().st_size > 0
        finally:
            unregister_workload("t_sleepy")

    def test_completed_job_journal_is_removed(self, tmp_path):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2, journal_dir=tmp_path / "journals"
            ) as (service, client):
                result = client.run(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {"x": [1.0], "delay_s": [0.0]},
                    },
                    timeout_s=30.0,
                )
                assert result["result"]["n_ok"] == 1
                journal = (
                    tmp_path
                    / "journals"
                    / f"{result['fingerprint']}.jsonl"
                )
                assert not journal.exists()
        finally:
            unregister_workload("t_sleepy")

    def test_cancel_follower_detaches_without_stopping_primary(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, client):
                reset_gate("detach")
                job = {
                    "kind": "sweep",
                    "workload": "t_gated",
                    "axes": {"x": [1], "gate": ["detach"]},
                }
                primary = client.submit(job)
                follower = client.submit(job)
                assert follower["coalesced_with"] == primary["job_id"]
                response = client.cancel(follower["job_id"])
                assert response["cancelled"] is True
                open_gate("detach")
                final = client.wait(primary["job_id"], timeout_s=30.0)
                assert final["status"] == "done"
                follower_status = client.status(follower["job_id"])
                assert follower_status["status"] == "cancelled"
        finally:
            unregister_workload("t_gated")

    def test_cancel_finished_job_reports_not_cancelled(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, client):
                result = client.run(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {"x": [1.0], "delay_s": [0.0]},
                    },
                    timeout_s=30.0,
                )
                assert result["result"]["n_ok"] == 1
                jobs = list(service._jobs)
                response = client.cancel(jobs[0])
                assert response["cancelled"] is False
                assert response["status"] == "done"
        finally:
            unregister_workload("t_sleepy")

    def test_cancel_requires_post(self):
        with in_process_service(max_workers=1) as (service, client):
            status, payload = client.request(
                "GET", "/v1/jobs/job-1/cancel"
            )
            assert status == 405


class _CountingClient(InProcessClient):
    """In-process client that counts requests and defeats long-polling
    (models a proxy or server without ``wait_s`` support)."""

    def __init__(self, service) -> None:
        super().__init__(service)
        self.requests = 0

    def request(self, method, path, payload=None):
        self.requests += 1
        path = path.split("?")[0]  # strip wait_s: force real polling
        return super().request(method, path, payload)


class TestClientBackoff:
    def test_wait_backoff_bounds_request_count(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, _):
                client = _CountingClient(service)
                submitted = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {
                            "x": [float(i) for i in range(60)],
                            "delay_s": [0.015],
                        },
                    }
                )
                final = client.wait(
                    submitted["job_id"], timeout_s=60.0, poll_s=0.05
                )
                assert final["status"] == "done"
                # ~0.9s of polling without long-poll support: fixed
                # 0.05s polling would need ~18 requests; exponential
                # backoff keeps it under 10 (submit included).
                assert client.requests <= 10
        finally:
            unregister_workload("t_sleepy")

    def test_run_retries_shed_submissions(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2,
                resilience=ResilienceConfig(
                    max_depth=1, shed_retry_after_s=0.05
                ),
            ) as (service, client):
                blocker = client.submit(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {
                            "x": [float(i) for i in range(20)],
                            "delay_s": [0.02],
                        },
                    }
                )
                # Saturated now: a direct submit is shed ...
                with pytest.raises(ServeClientError) as excinfo:
                    client.submit(
                        {
                            "kind": "sweep",
                            "workload": "t_sleepy",
                            "axes": {"x": [99.0]},
                        }
                    )
                assert excinfo.value.status == 429
                # ... but run() keeps retrying on the server's hint
                # until capacity frees up.
                result = client.run(
                    {
                        "kind": "sweep",
                        "workload": "t_sleepy",
                        "axes": {"x": [99.0]},
                    },
                    timeout_s=30.0,
                )
                assert result["result"]["n_ok"] == 1
                client.wait(blocker["job_id"], timeout_s=30.0)
                assert service.stats["shed"] >= 2
        finally:
            unregister_workload("t_sleepy")


class TestStatsDocument:
    def test_stats_expose_resilience_snapshots(self):
        with in_process_service(
            max_workers=1,
            resilience=ResilienceConfig(max_depth=7),
        ) as (service, client):
            stats = client.stats()
            assert stats["admission"]["max_depth"] == 7
            assert stats["breakers"]["states"] == {}
            assert stats["shed"] == 0
            assert stats["cancelled"] == 0

    def test_bookkeeping_invariant_with_resilience_on(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(
                max_workers=2, resilience=ResilienceConfig(max_depth=2)
            ) as (service, client):
                job = {
                    "kind": "sweep",
                    "workload": "t_sleepy",
                    "axes": {"x": [5.0], "delay_s": [0.0]},
                }
                client.run(job, timeout_s=30.0)
                client.run(job, timeout_s=30.0)  # warm hit
                stats = client.stats()
                assert (
                    stats["submitted"]
                    == stats["executions"]
                    + stats["cache_hits"]
                    + stats["coalesced"]
                )
        finally:
            unregister_workload("t_sleepy")
