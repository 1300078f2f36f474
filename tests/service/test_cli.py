"""CLI surface of the service layer.

``test_service_path_output_identical_to_direct`` pins the service's
bit-identity contract at the layer ``repro run`` uses: the service's
:func:`execute_job` returns, and the CLI prints, exactly what a plain
:func:`run_workload` call does.
"""

import json

import numpy as np
import pytest

from repro.__main__ import _print_run_summary, main
from repro.config import GpuConfig
from repro.harness.runner import run_workload
from repro.obs.live import LiveAggregator
from repro.service import JobSpec, execute_job
from repro.service.daemon import EngineDaemon, ServiceConfig
from repro.service.server import ServiceServer

FRAMES = 2


class TestRunRoutesThroughService:
    def test_service_path_output_identical_to_direct(self, capsys):
        service, _info = execute_job(JobSpec("ccs", "re", num_frames=3))
        direct = run_workload("ccs", "re", GpuConfig.small(), num_frames=3)
        assert np.array_equal(service.tile_color_crcs,
                              direct.tile_color_crcs)
        assert service.counters == direct.counters
        _print_run_summary(service)
        service_out = capsys.readouterr().out
        _print_run_summary(direct)
        assert service_out == capsys.readouterr().out
        assert main(["--frames", "3", "run", "ccs",
                     "--no-registry"]) == 0
        assert capsys.readouterr().out == service_out
        assert "ccs under re" in service_out

    def test_run_rejects_bad_tenant_before_rendering(self, tmp_path,
                                                     monkeypatch, capsys):
        # Plain, manifest-writing and supervised runs all refuse the
        # tenant up front: exit 2, nothing rendered, nothing written.
        monkeypatch.chdir(tmp_path)
        run = ["run", "ccs", "--tenant", "a/b", "--no-registry"]
        for argv in (["--frames", "2"] + run,
                     ["--frames", "1"] + run + ["--manifest", "m.json"],
                     ["--frames", "1", "--retries", "0"] + run):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert "tenant" in captured.err, argv
            assert "ccs under re" not in captured.out, argv
            assert not (tmp_path / "m.json").exists(), argv

    def test_checkpoint_resume_and_manifest_match_a_plain_run(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run = ["--frames", "4", "run", "ccs", "--no-registry"]
        assert main(run) == 0
        plain = capsys.readouterr().out
        assert main(run + ["--checkpoint-at", "2", "--checkpoint-out", "ck",
                           "--manifest", "m.json"]) == 0
        assert capsys.readouterr().out == plain
        assert main(run + ["--resume", "ck"]) == 0
        first, rest = capsys.readouterr().out.split("\n", 1)
        assert first == "resumed from checkpoint ck"
        assert rest == plain
        manifest = json.loads((tmp_path / "m.json").read_text())
        direct = run_workload("ccs", "re", GpuConfig.small(), num_frames=4)
        assert manifest["final_frame_crc"] == direct.final_frame_crc
        assert manifest["checkpoint_path"] == "ck"

    def test_run_records_into_tenant_namespace(self, tmp_path, capsys):
        registry = str(tmp_path / "reg")
        assert main(["--frames", "2", "run", "ccs",
                     "--registry", registry, "--tenant", "alice"]) == 0
        assert "registered as" in capsys.readouterr().out
        assert main(["runs", "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "tenants: alice" in out
        assert main(["runs", "--registry", registry,
                     "--tenant", "alice"]) == 0
        assert "ccs" in capsys.readouterr().out


class TestSubmitAndStatus:
    @pytest.fixture()
    def served(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        daemon = EngineDaemon(ServiceConfig(workers=1)).start()
        server = ServiceServer(daemon, sock).start_in_thread()
        try:
            yield sock
        finally:
            server.stop()
            daemon.close()

    def test_submit_wait_then_status(self, served, capsys):
        assert main(["--frames", str(FRAMES), "submit", "ccs",
                     "--socket", served, "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted 1 job(s)" in out
        assert "ccs/re done (cold" in out
        assert main(["status", "--socket", served]) == 0
        out = capsys.readouterr().out
        assert "daemon pid" in out
        assert "1 submitted / 1 done" in out

    def test_submit_sweep_batches(self, served, capsys):
        assert main(["--frames", str(FRAMES), "submit", "ccs",
                     "--socket", served,
                     "--set", "tile_size=8,16", "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted 2 job(s)" in out

    def test_submit_unreachable_socket_fails_cleanly(self, tmp_path,
                                                     capsys):
        missing = str(tmp_path / "nope.sock")
        assert main(["submit", "ccs", "--socket", missing]) == 1
        assert "cannot reach service socket" in capsys.readouterr().err


class TestStatusHeartbeatFallback:
    def test_falls_back_to_heartbeat_file(self, tmp_path, capsys):
        heartbeat = tmp_path / "live.json"
        live = LiveAggregator(path=str(heartbeat), stream=None,
                              owner="repro-serve:12345")
        live.tick(force=True)
        live.close()
        assert main(["status", "--socket", str(tmp_path / "nope.sock"),
                     "--heartbeat", str(heartbeat)]) == 0
        out = capsys.readouterr().out
        assert "daemon unreachable" in out
        assert "repro-serve:12345" in out

    def test_no_daemon_and_no_heartbeat_fails(self, tmp_path, capsys):
        assert main(["status", "--socket", str(tmp_path / "nope.sock"),
                     "--heartbeat", str(tmp_path / "none.json")]) == 1
        assert "status failed" in capsys.readouterr().err
