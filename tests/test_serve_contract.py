"""Contract tests for the exploration service's wire protocol.

The golden fixtures in ``tests/data/serve/contract_goldens.json`` pin
the exact request→response mapping — envelopes, error codes, messages,
fingerprints — for the submit/status/result endpoints plus every
malformed-request path.  A change that alters any byte of the contract
must come with a regenerated golden file and a schema-version bump
when it breaks compatibility.

Everything here drives :func:`repro.serve.handlers.route` through the
in-process client — the same dispatch the socket server uses — except
the transport-level cases (malformed JSON bodies, SSE) which need a
real socket.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.serve import SCHEMA_VERSION
from repro.serve.protocol import RequestError, parse_job
from tests.serve_helpers import (
    CONTRACT_JOB,
    GOLDENS_PATH,
    contract_env,
    gated_env,
    open_gate,
    reset_gate,
    scrub,
)


def load_goldens() -> list:
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldens:
    def test_scenario_matches_goldens(self):
        """Replay the full golden scenario against a fresh service."""
        goldens = load_goldens()
        with contract_env() as (service, client):
            for step in goldens:
                request = step["request"]
                status, response = client.request(
                    request["method"],
                    request["path"],
                    request.get("body"),
                )
                assert status == step["status"], step["name"]
                assert scrub(response, step["volatile"]) == step[
                    "response"
                ], step["name"]

    def test_every_response_carries_schema_version(self):
        goldens = load_goldens()
        assert goldens, "golden file is empty"
        for step in goldens:
            assert step["response"]["schema_version"] == SCHEMA_VERSION

    def test_error_paths_cover_every_4xx_code(self):
        codes = {
            step["response"]["error"]["code"]
            for step in load_goldens()
            if not step["response"].get("ok")
        }
        assert {
            "bad_request",
            "unknown_workload",
            "too_large",
            "not_found",
            "method_not_allowed",
        } <= codes


class TestEndpoints:
    def test_report_endpoint_renders_job_ledger(self, contract_service):
        service, client = contract_service
        submitted = client.submit(CONTRACT_JOB)
        client.wait(submitted["job_id"])
        report = client.report(submitted["job_id"])
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["status"] == "done"
        assert report["markdown"].startswith("# Run report")
        assert "sweep" in report["markdown"]

    def test_events_endpoint_returns_full_stream(self, contract_service):
        service, client = contract_service
        submitted = client.submit(CONTRACT_JOB)
        client.wait(submitted["job_id"])
        status, payload = client.request(
            "GET", f"/v1/jobs/{submitted['job_id']}/events"
        )
        assert status == 200
        kinds = [event["kind"] for event in payload["events"]]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "progress" in kinds
        assert payload["finished"] is True

    def test_result_before_completion_is_409(self):
        with gated_env() as (service, client):
            reset_gate("contract")
            submitted = client.submit(
                {
                    "kind": "sweep",
                    "workload": "t_gated",
                    "axes": {"x": [1], "gate": ["contract"]},
                }
            )
            status, payload = client.request(
                "GET", f"/v1/jobs/{submitted['job_id']}/result"
            )
            assert status == 409
            assert payload["error"]["code"] == "not_ready"
            open_gate("contract")
            client.wait(submitted["job_id"])

    def test_failed_job_reports_evaluation_error(self, contract_service):
        service, client = contract_service
        submitted = client.submit(
            {
                "kind": "sweep",
                "workload": "t_contract",
                "axes": {"x": [-1]},
            }
        )
        final = client.wait(submitted["job_id"])
        assert final["status"] == "failed"
        assert final["error"]["code"] == "evaluation_failed"
        assert "x must be >= 0" in final["error"]["message"]
        status, payload = client.request(
            "GET", f"/v1/jobs/{submitted['job_id']}/result"
        )
        assert status == 500
        assert payload["error"]["code"] == "evaluation_failed"

    def test_skip_errors_quarantines_instead(self, contract_service):
        service, client = contract_service
        submitted = client.submit(
            {
                "kind": "sweep",
                "workload": "t_contract",
                "axes": {"x": [-1, 1]},
                "skip_errors": True,
            }
        )
        final = client.wait(submitted["job_id"])
        assert final["status"] == "done"
        result = client.result(submitted["job_id"])["result"]
        assert result["n_ok"] == 1
        assert result["n_failed"] == 1
        assert "x must be >= 0" in result["failures"][0]["error"]


class TestTransport:
    """Socket-level cases the in-process client cannot express."""

    def test_malformed_json_body_is_400(self):
        from repro.serve.testing import running_server

        with running_server() as (server, client):
            connection = http.client.HTTPConnection(
                client.host, client.port, timeout=10
            )
            try:
                connection.request(
                    "POST",
                    "/v1/jobs",
                    body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 400
            assert payload["error"]["code"] == "bad_json"
            assert payload["schema_version"] == SCHEMA_VERSION

    def test_missing_body_on_submit_is_400(self):
        from repro.serve.testing import running_server

        with running_server() as (server, client):
            status, payload = client.request("POST", "/v1/jobs")
            assert status == 400
            assert payload["ok"] is False


class TestParseJob:
    def test_parse_is_strict_about_scalar_axis_values(self):
        with contract_env():
            with pytest.raises(RequestError, match="scalar"):
                parse_job(
                    {
                        "kind": "sweep",
                        "workload": "t_contract",
                        "axes": {"x": [[1, 2]]},
                    }
                )

    def test_parse_rejects_non_object_payloads(self):
        for payload in (None, [], "job", 7):
            with pytest.raises(RequestError):
                parse_job(payload)

    def test_explore_preset_expands_to_mpeg2(self):
        spec = parse_job({"kind": "explore", "requirements": "mpeg2"})
        assert spec.requirements_dict["name"] == "MPEG2 decoder"
        assert spec.to_requirements().max_latency_ns == 400.0

    def test_sweep_backends_parse_to_one_job(self):
        # "scalar" stays accepted on the wire but names the same work as
        # "auto"; the explore backend keeps its choice.
        with contract_env():
            scalar = parse_job(dict(CONTRACT_JOB, backend="scalar"))
            auto = parse_job(dict(CONTRACT_JOB, backend="auto"))
            assert scalar == auto == parse_job(CONTRACT_JOB)
            assert scalar.canonical()["backend"] == "auto"
            with pytest.raises(RequestError, match="job.backend"):
                parse_job(dict(CONTRACT_JOB, backend="batched"))
        explore = parse_job(
            {"kind": "explore", "requirements": "mpeg2", "backend": "scalar"}
        )
        assert explore.canonical()["backend"] == "scalar"

    def test_cli_client_submit_wait_round_trip(self, capsys):
        """`repro client submit --wait` against a live server."""
        from repro.serve.cli import client_main
        from repro.serve.testing import running_server

        job = {
            "kind": "sweep",
            "workload": "edram_tradeoff",
            "axes": {"width": [16, 32]},
        }
        with running_server() as (server, client):
            url = f"http://{client.host}:{client.port}"
            exit_code = client_main(
                [
                    "--url",
                    url,
                    "submit",
                    "--job",
                    json.dumps(job),
                    "--wait",
                ]
            )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["result"]["n_ok"] == 2

    def test_root_cli_forwards_client_with_leading_url(self, capsys):
        """`repro client --url ... healthz` — the root CLI must forward
        a leading option verbatim (argparse REMAINDER alone rejects
        it before the remainder positional can capture it)."""
        from repro.cli import main as repro_main
        from repro.serve.testing import running_server

        with running_server() as (server, client):
            url = f"http://{client.host}:{client.port}"
            exit_code = repro_main(["client", "--url", url, "healthz"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "healthy"
