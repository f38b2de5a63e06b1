"""Tests for the service's acceptance and cancellation behavior.

Covers the cancel token in isolation, then the service-level
behaviors: every valid cold submission is queued (none refused),
cooperative cancellation with journaled partials, deadline
enforcement, the client's bounded-backoff wait loop, and the surface
the service no longer has (serve flags, metric series, constructor
arguments) so none of it creeps back.
"""

from __future__ import annotations

import argparse
import inspect
import time

import pytest

from repro.errors import CancelledError, ConfigurationError
from repro.obs.expo import parse_prometheus, sample_value
from repro.serve import resilience
from repro.serve.cli import add_serve_arguments, build_client_parser
from repro.serve.client import InProcessClient, ServeClientError
from repro.serve.handlers import ExplorationService
from repro.serve.protocol import error_envelope
from repro.serve.resilience import CancelToken
from repro.serve.testing import in_process_service, running_server
from repro.verify.chaos import PROFILES, scenario_names
from repro.serve.workloads import register_workload, unregister_workload
from tests.serve_helpers import (
    CONTRACT_JOB,
    contract_env,
    gated_workload,
    open_gate,
    reset_gate,
)


def sleepy_workload(x: float = 0.0, delay_s: float = 0.01) -> dict:
    time.sleep(delay_s)
    return {"x": x}


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

    def test_no_deadline_never_self_cancels(self):
        token = CancelToken()
        assert token.remaining_s() is None
        assert not token.cancelled
        token.raise_if_cancelled()

    def test_explicit_cancel_before_deadline_keeps_its_reason(self):
        token = CancelToken(deadline_s=0.02)
        assert token.cancel("client_cancel")
        time.sleep(0.03)
        assert token.cancelled
        assert token.reason == "client_cancel"


def _gated_job(index: int, gate: str) -> dict:
    return {
        "kind": "sweep",
        "workload": "t_gated",
        "axes": {"x": [index], "gate": [gate]},
    }


def _assert_bookkeeping(stats: dict) -> None:
    assert (
        stats["submitted"]
        == stats["executions"] + stats["cache_hits"] + stats["coalesced"]
    )


class TestAcceptance:
    def test_every_cold_job_is_queued_never_refused(self):
        # One executor thread held by a gated job: 65 distinct cold
        # jobs all wait their turn instead of any being refused.
        register_workload("t_gated", gated_workload, replace=True)
        n_jobs = 65
        try:
            with in_process_service(max_workers=1) as (service, client):
                reset_gate("queue")
                submitted = []
                for index in range(n_jobs):
                    status, payload = client.request(
                        "POST",
                        "/v1/jobs",
                        {
                            "kind": "sweep",
                            "workload": "t_gated",
                            "axes": {"x": [index], "gate": ["queue"]},
                        },
                    )
                    assert status == 200, payload
                    submitted.append(payload["job_id"])
                assert service.stats["submitted"] == n_jobs
                assert client.stats()["in_flight"] == n_jobs
                open_gate("queue")
                for index, job_id in enumerate(submitted):
                    final = client.wait(job_id, timeout_s=60.0)
                    assert final["status"] == "done"
                    result = client.result(job_id)["result"]
                    assert result["n_ok"] == 1
                    assert result["points"][0]["result"] == {"x": index}
                assert service.stats["executions"] == n_jobs
                status, payload = client.request("GET", "/v1/readyz")
                assert status == 404
                assert payload["error"]["code"] == "not_found"
        finally:
            open_gate("queue")
            unregister_workload("t_gated")

    def test_identical_flood_coalesces_onto_one_execution(self):
        # 100 copies of one cold job while it is held: every copy is
        # accepted, one runs, the rest follow it to the same result.
        register_workload("t_gated", gated_workload, replace=True)
        n_jobs = 100
        try:
            with in_process_service(max_workers=1) as (service, client):
                reset_gate("flood")
                job = _gated_job(7, "flood")
                primary = client.submit(job)
                followers = [client.submit(job) for _ in range(n_jobs - 1)]
                assert all(
                    follower["coalesced_with"] == primary["job_id"]
                    for follower in followers
                )
                assert client.stats()["in_flight"] == 1
                open_gate("flood")
                for submitted in [primary, *followers]:
                    final = client.wait(submitted["job_id"], timeout_s=30.0)
                    assert final["status"] == "done"
                    result = client.result(submitted["job_id"])["result"]
                    assert result["points"][0]["result"] == {"x": 7}
                stats = client.stats()
                assert stats["submitted"] == n_jobs
                assert stats["executions"] == 1
                assert stats["coalesced"] == n_jobs - 1
                assert stats["in_flight"] == 0
                _assert_bookkeeping(stats)
        finally:
            open_gate("flood")
            unregister_workload("t_gated")

    def test_cache_hit_answers_while_the_pool_is_busy(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(max_workers=1) as (service, client):
                open_gate("warm")
                warm = _gated_job(3, "warm")
                client.run(warm, timeout_s=30.0)
                reset_gate("busy")
                blocker = client.submit(_gated_job(0, "busy"))
                hit = client.submit(warm)
                # Answered from the cache, not queued behind the
                # blocker on the only executor thread.
                assert hit["cached"] is True
                assert hit["status"] == "done"
                result = client.result(hit["job_id"])["result"]
                assert result["points"][0]["result"] == {"x": 3}
                assert client.status(blocker["job_id"])["status"] in (
                    "queued",
                    "running",
                )
                open_gate("busy")
                client.wait(blocker["job_id"], timeout_s=30.0)
                stats = client.stats()
                assert stats["cache_hits"] == 1
                _assert_bookkeeping(stats)
        finally:
            open_gate("busy")
            unregister_workload("t_gated")

    def test_in_flight_gauge_counts_queued_cold_jobs(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(max_workers=1) as (service, client):
                reset_gate("gauge")
                ids = [
                    client.submit(_gated_job(index, "gauge"))["job_id"]
                    for index in range(5)
                ]
                parsed = parse_prometheus(client.metrics_text())
                assert sample_value(parsed, "repro_serve_in_flight") == 5
                open_gate("gauge")
                for job_id in ids:
                    client.wait(job_id, timeout_s=30.0)
                parsed = parse_prometheus(client.metrics_text())
                assert sample_value(parsed, "repro_serve_in_flight") == 0
        finally:
            open_gate("gauge")
            unregister_workload("t_gated")

    def test_http_server_queues_every_cold_job(self):
        # The same no-refusal contract over a real socket.
        register_workload("t_gated", gated_workload, replace=True)
        n_jobs = 65
        service = ExplorationService(max_workers=1)
        try:
            with running_server(service=service) as (_, client):
                reset_gate("http")
                ids = []
                for index in range(n_jobs):
                    status, payload = client.request(
                        "POST", "/v1/jobs", _gated_job(index, "http")
                    )
                    assert status == 200, payload
                    ids.append(payload["job_id"])
                open_gate("http")
                for index, job_id in enumerate(ids):
                    final = client.wait(job_id, timeout_s=60.0)
                    assert final["status"] == "done"
                    result = client.result(job_id)["result"]
                    assert result["points"][0]["result"] == {"x": index}
                stats = client.stats()
                assert stats["executions"] == n_jobs
                _assert_bookkeeping(stats)
        finally:
            open_gate("http")
            unregister_workload("t_gated")


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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_resumed_job_credits_only_unjournaled_points(
        self, tmp_path, workers
    ):
        # Three of four points are already journaled: the serial and
        # the pool path alike evaluate, and credit, only the fourth.
        from repro.core.parallel import PointOutcome
        from repro.core.sweep import Sweep, SweepJournal
        from repro.serve.protocol import parse_job
        from repro.serve.workloads import edram_tradeoff

        job = {
            "kind": "sweep",
            "workload": "edram_tradeoff",
            "axes": {"width": [32, 64, 128, 256]},
            "workers": workers,
        }
        spec = parse_job(job)
        sweep = Sweep(axes=dict(spec.axes))
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir()
        journal = SweepJournal(
            journal_dir / f"{spec.fingerprint()}.jsonl", sweep.signature()
        )
        for index, parameters in enumerate(sweep.combinations()[:3]):
            value = edram_tradeoff(**parameters)
            journal.append(index, PointOutcome(ok=True, value=value))
        journal.close()
        with in_process_service(
            max_workers=1, journal_dir=journal_dir
        ) as (service, client):
            result = client.run(job, timeout_s=60.0)
            assert result["result"]["n_ok"] == 4
            assert service.stats["evaluations"] == 1

    def test_cancelled_job_credits_its_evaluated_points(self, tmp_path):
        # A cancelled job is credited the points it evaluated before
        # the cancel: exactly the ones its journal kept.
        from repro.core.sweep import Sweep, SweepJournal
        from repro.serve.protocol import parse_job

        register_workload("t_sleepy", sleepy_workload, replace=True)
        job = {
            "kind": "sweep",
            "workload": "t_sleepy",
            "axes": {
                "x": [float(i) for i in range(300)],
                "delay_s": [0.01],
            },
            "deadline_s": 0.15,
        }
        try:
            with in_process_service(
                max_workers=1, journal_dir=tmp_path / "journals"
            ) as (service, client):
                submitted = client.submit(job)
                final = client.wait(submitted["job_id"], timeout_s=30.0)
                assert final["status"] == "cancelled"
                evaluations = service.stats["evaluations"]
            spec = parse_job(job)
        finally:
            unregister_workload("t_sleepy")
        journaled = SweepJournal(
            tmp_path / "journals" / f"{spec.fingerprint()}.jsonl",
            Sweep(axes=dict(spec.axes)).signature(),
        ).load()
        assert 0 < evaluations == len(journaled) < 300

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

    def test_queued_job_cancelled_before_it_starts(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(max_workers=1) as (service, client):
                reset_gate("hold")
                blocker = client.submit(_gated_job(0, "hold"))
                queued = client.submit(_gated_job(1, "hold"))
                response = client.cancel(queued["job_id"])
                assert response["cancelled"] is True
                open_gate("hold")
                assert (
                    client.wait(blocker["job_id"], timeout_s=30.0)["status"]
                    == "done"
                )
                final = client.wait(queued["job_id"], timeout_s=30.0)
                assert final["status"] == "cancelled"
                assert "client_cancel" in final["error"]["message"]
                assert service.cache.get(queued["fingerprint"]) is None
                stats = client.stats()
                assert stats["cancelled"] == 1
                assert stats["in_flight"] == 0
        finally:
            open_gate("hold")
            unregister_workload("t_gated")

    def test_deadline_lapses_while_queued(self):
        register_workload("t_gated", gated_workload, replace=True)
        try:
            with in_process_service(max_workers=1) as (service, client):
                reset_gate("slow")
                blocker = client.submit(_gated_job(0, "slow"))
                doomed = client.submit(
                    {**_gated_job(1, "slow"), "deadline_s": 0.05}
                )
                time.sleep(0.1)
                open_gate("slow")
                client.wait(blocker["job_id"], timeout_s=30.0)
                final = client.wait(doomed["job_id"], timeout_s=30.0)
                assert final["status"] == "cancelled"
                assert "deadline" in final["error"]["message"]
                assert client.stats()["in_flight"] == 0
        finally:
            open_gate("slow")
            unregister_workload("t_gated")

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


class _RefusingClient(InProcessClient):
    """In-process client whose submissions all come back 429."""

    def __init__(self, service) -> None:
        super().__init__(service)
        self.requests = 0

    def request(self, method, path, payload=None):
        self.requests += 1
        return 429, error_envelope("too_many_requests", "refused")


class TestClientBackoff:
    def test_run_raises_on_first_refusal_without_retrying(self):
        with in_process_service(max_workers=1) as (service, _):
            client = _RefusingClient(service)
            with pytest.raises(ServeClientError) as caught:
                client.run({"kind": "sweep"}, timeout_s=5.0)
            assert caught.value.status == 429
            assert client.requests == 1

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


class TestStatsDocument:
    def test_stats_expose_counters_and_in_flight(self):
        with in_process_service(max_workers=1) as (service, client):
            stats = client.stats()
            assert stats["in_flight"] == 0
            assert stats["cancelled"] == 0
            assert "admission" not in stats
            assert "breakers" not in stats
            assert "shed" not in stats

    def test_bookkeeping_invariant(self):
        register_workload("t_sleepy", sleepy_workload, replace=True)
        try:
            with in_process_service(max_workers=2) as (service, client):
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


#: `repro serve` options the retired overload layer used to take.
RETIRED_SERVE_FLAGS = (
    ["--max-depth", "64"],
    ["--per-workload", "16"],
    ["--breaker-threshold", "5"],
    ["--breaker-cooldown-s", "1.0"],
    ["--no-resilience"],
)

#: Metric series the retired overload layer used to export.
RETIRED_SERIES = (
    "repro_serve_shed",
    "repro_serve_queue_depth",
    "repro_serve_queue_depth_limit",
    "repro_serve_workload_depth",
    "repro_serve_breaker_opened",
    "repro_serve_breaker_rejected",
    "repro_serve_breaker_state",
)


class TestRetiredSurface:
    @pytest.mark.parametrize(
        "argv", RETIRED_SERVE_FLAGS, ids=lambda argv: argv[0]
    )
    def test_serve_rejects_retired_flag(self, argv, capsys):
        parser = argparse.ArgumentParser(prog="repro serve")
        add_serve_arguments(parser)
        parser.parse_args([])
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_client_commands_mirror_the_routes(self):
        parser = build_client_parser()
        commands = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(commands.choices) == [
            "cancel",
            "events",
            "healthz",
            "metrics",
            "report",
            "result",
            "stats",
            "status",
            "submit",
        ]

    @pytest.mark.parametrize("family", RETIRED_SERIES)
    def test_metrics_omit_retired_series(self, family):
        with contract_env(max_workers=1) as (service, client):
            client.run(CONTRACT_JOB, timeout_s=30.0)
            client.run(CONTRACT_JOB, timeout_s=30.0)
            text = client.metrics_text()
        names = {
            line.split("{")[0].split()[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert "repro_serve_in_flight" in names
        assert family not in names
        assert f"# TYPE {family} " not in text

    @pytest.mark.parametrize(
        "factory", [ExplorationService, in_process_service]
    )
    def test_service_factories_take_no_overload_argument(self, factory):
        assert "resilience" not in inspect.signature(factory).parameters
        with pytest.raises(TypeError):
            factory(resilience=None)

    def test_resilience_module_keeps_only_the_cancel_token(self):
        defined = {
            name
            for name, value in vars(resilience).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == resilience.__name__
        }
        assert defined == {"CancelToken"}

    def test_error_envelope_is_code_and_message_only(self):
        envelope = error_envelope("bad_request", "nope")
        assert envelope["ok"] is False
        assert envelope["error"] == {"code": "bad_request", "message": "nope"}
        with pytest.raises(TypeError):
            error_envelope("bad_request", "nope", hint=1.0)


class TestChaosProfiles:
    def test_smoke_profile_is_kill_and_deadline_cancel(self):
        assert PROFILES["smoke"] == ("kill_worker", "deadline_cancel")

    def test_full_profile_runs_every_scenario(self):
        assert sorted(PROFILES["full"]) == scenario_names()
        assert set(PROFILES["smoke"]) <= set(PROFILES["full"])
        assert scenario_names() == [
            "deadline_cancel",
            "freeze_worker",
            "kill_worker",
            "torn_files",
        ]
