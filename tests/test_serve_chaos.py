"""Chaos test: a seeded simulation sweep served over HTTP.

A live server sweeps the ``sim_fingerprint`` workload across seeds and
run lengths and must stay deterministic: the runs complete, invalid
corners are quarantined instead of killing the sweep, and an identical
re-submission returns byte-identical results from the cache.
"""

from __future__ import annotations

from repro.serve.testing import running_server

CHAOS_JOB = {
    "kind": "sweep",
    "workload": "sim_fingerprint",
    "axes": {
        "cycles": [600, 900],
        "seed": [3, 4],
    },
}


class TestServeChaos:
    def test_sim_sweep_is_deterministic_over_http(self):
        with running_server() as (server, client):
            first = client.submit(CHAOS_JOB)
            final = client.wait(first["job_id"], timeout_s=120.0)
            assert final["status"] == "done"
            cold = client.result_bytes(first["job_id"])

            document = client.result(first["job_id"])["result"]
            assert document["n_ok"] == 4
            assert document["n_failed"] == 0
            fingerprints = [point["result"] for point in document["points"]]
            assert len({repr(f) for f in fingerprints}) == 4

            # The sweep replays exactly: same job, same bytes, no rerun.
            second = client.submit(CHAOS_JOB)
            assert second["cached"] is True
            assert client.result_bytes(second["job_id"]) == cold
            assert server.service.stats["executions"] == 1

    def test_invalid_corners_are_quarantined(self):
        job = {
            "kind": "sweep",
            "workload": "sim_fingerprint",
            "axes": {
                "cycles": [600, -5],
                "seed": [0, 1],
            },
            "skip_errors": True,
        }
        with running_server() as (server, client):
            submitted = client.submit(job)
            final = client.wait(submitted["job_id"], timeout_s=120.0)
            assert final["status"] == "done"
            document = client.result(submitted["job_id"])["result"]
            assert document["n_ok"] == 2
            assert document["n_failed"] == 2
            for failure in document["failures"]:
                assert failure["parameters"]["cycles"] == -5
            report = client.report(submitted["job_id"])
            assert "quarantine" in report["markdown"].lower()
