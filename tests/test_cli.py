"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "discrete" in out and "embedded" in out

    def test_mpeg2_pal(self, capsys):
        assert main(["mpeg2"]) == 0
        out = capsys.readouterr().out
        assert "PAL" in out
        assert "fits 16 Mbit: True" in out

    def test_mpeg2_ntsc_reduced(self, capsys):
        assert main(["mpeg2", "--ntsc", "--reduced"]) == 0
        out = capsys.readouterr().out
        assert "NTSC" in out and "reduced-output" in out

    def test_explore(self, capsys):
        code = main(
            [
                "explore",
                "--capacity-mbit", "8",
                "--bandwidth-gbs", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantized solutions" in out
        assert "balanced" in out

    def test_explore_infeasible(self, capsys):
        code = main(
            [
                "explore",
                "--capacity-mbit", "8",
                "--bandwidth-gbs", "100",
            ]
        )
        assert code == 1

    def test_feasibility(self, capsys):
        assert main(["feasibility"]) == 0
        out = capsys.readouterr().out
        assert "500k" in out
        assert "128 Mbit" in out

    def test_testcost(self, capsys):
        assert main(["testcost"]) == 0
        out = capsys.readouterr().out
        assert "BIST" in out

    def test_partition(self, capsys):
        assert main(["partition"]) == 0
        out = capsys.readouterr().out
        assert "frame stores" in out
        assert "edram" in out

    def test_partition_infeasible_budget(self, capsys):
        assert main(["partition", "--area-budget-mm2", "1"]) == 1


class TestWorkersCommand:
    def test_status_requires_existing_queue(self, tmp_path, capsys):
        code = main(
            ["workers", "status", "--queue", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "no work-queue directory" in capsys.readouterr().err

    def test_status_reports_queue_snapshot(self, tmp_path, capsys):
        import json

        from repro.core.executor import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], [0], None)
        code = main(["workers", "status", "--queue", str(tmp_path / "q")])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["pending"] == 1
        assert snapshot["completed"] == 0
        assert not snapshot["done"]

    def test_start_single_worker_exits_on_done_queue(
        self, tmp_path, capsys
    ):
        from repro.core.executor import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.mark_done("test")
        code = main(
            [
                "workers",
                "start",
                "--queue",
                str(tmp_path / "q"),
                "--max-idle-s",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spawned=1 respawned=0" in out
        assert "spent=False" in out

    def test_start_exits_1_when_a_respawn_budget_is_spent(
        self, tmp_path, capsys
    ):
        from repro.core.executor import WorkQueue, atomic_write_json

        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], [0], None)
        atomic_write_json(
            queue.root / "manifest.json", {"lease_timeout_s": 5.0}
        )
        (queue.root / "task.pkl").write_bytes(b"not a pickle")
        code = main(
            [
                "workers",
                "start",
                "--queue",
                str(tmp_path / "q"),
                "--max-respawns",
                "1",
                "--backoff-s",
                "0.01",
            ]
        )
        assert code == 1
        assert "spawned=2 respawned=1" in capsys.readouterr().out

    def test_start_rejects_worker_id(self, capsys):
        # A stable worker id names one unsupervised worker:
        # `python -m repro.core.worker --worker-id ID`.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "workers",
                    "start",
                    "--queue",
                    "ignored",
                    "--worker-id",
                    "w1",
                ]
            )
        assert exit_info.value.code == 2


class TestInterrupt:
    """Ctrl-C during the long-running commands: one line, exit 130."""

    def _interrupt(self, argv, ready_line, timeout_s=20.0):
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,  # isolate from pytest's signals
        )
        try:
            deadline = time.monotonic() + timeout_s
            banner = ""
            while time.monotonic() < deadline:
                line = proc.stdout.readline().decode()
                banner += line
                if ready_line in line:
                    break
            else:
                raise AssertionError(
                    f"never saw {ready_line!r} in {banner!r}"
                )
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=timeout_s)
            return proc.returncode, stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_serve_sigint_exits_130_without_traceback(self):
        code, stderr = self._interrupt(
            ["serve", "--port", "0"], "listening on http://"
        )
        assert code == 130
        assert "repro: interrupted" in stderr
        assert "Traceback" not in stderr

    def test_workers_sigint_exits_130_without_traceback(self, tmp_path):
        from repro.core.executor import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        queue.reset()  # empty, not done: workers idle until signalled
        code, stderr = self._interrupt(
            [
                "workers",
                "start",
                "--queue",
                str(tmp_path / "q"),
                "--n",
                "2",
                "--max-idle-s",
                "60",
            ],
            "starting 2 worker(s)",
        )
        assert code == 130
        assert "repro: interrupted" in stderr
        assert "Traceback" not in stderr
