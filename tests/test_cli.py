"""Tests for the command-line front end (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.matrix == "fem_b4_s0"
        assert args.method == "lu"
        assert args.bound == 32


class TestCommands:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--family", "waveguide"]) == 0
        out = capsys.readouterr().out
        assert "wave_n2048_b4" in out
        assert "fem_b2_s0" not in out

    def test_solve_suite_matrix(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out
        assert "blocks" in out

    def test_solve_scalar_jacobi(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--method", "scalar"])
        assert rc == 0

    def test_solve_mtx_file(self, tmp_path, capsys):
        from repro.sparse import fem_block_2d, write_matrix_market

        path = tmp_path / "a.mtx"
        write_matrix_market(fem_block_2d(6, 6, 3, seed=0), path)
        rc = main(["solve", "--mtx", str(path), "--solver", "bicgstab"])
        assert rc == 0

    def test_project(self, capsys):
        rc = main(["project", "lu_factor", "-m", "32", "-n", "40000",
                   "--precision", "single"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GFLOPS" in out
        # the headline number of the paper
        gf = float(out.split(":")[1].split("GFLOPS")[0])
        assert 480 < gf < 750

    def test_blocks(self, capsys):
        rc = main(["blocks", "fem_b4_s0", "--bound", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "supervariables" in out

    def test_nonconverged_exit_code(self):
        # 3 iterations cannot converge: exit code must be 1
        rc = main(["solve", "fem_b2_s1", "--method", "scalar",
                   "--maxiter", "3"])
        assert rc == 1

    def test_solve_prints_setup_report(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradation[raise]" in out
        assert "condition estimate" in out

    def test_solve_on_singular_flag_accepted(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16",
                   "--on-singular", "identity"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradation[identity]" in out

    def test_solve_on_singular_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["solve", "fem_b8_s1", "--on-singular", "panic"])

    def test_solve_with_runtime_backend(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16",
                   "--backend", "binned"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "runtime[binned]" in out
        assert "converged" in out

    def test_solve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["solve", "fem_b8_s1", "--backend", "cuda"])


class TestResilienceFlags:
    def test_solve_resilient(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16", "--resilient"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "runtime[binned]" in out

    def test_solve_with_watchdog(self, capsys):
        rc = main(["solve", "fem_b8_s1", "--bound", "16", "--watchdog"])
        assert rc == 0

    def test_chaos_argument_parsing(self):
        from repro.cli import _parse_chaos

        assert _parse_chaos(None) is None
        assert _parse_chaos(True) == 0
        assert _parse_chaos("") == 0
        assert _parse_chaos("seed=7") == 7
        assert _parse_chaos("7") == 7
        with pytest.raises(SystemExit):
            _parse_chaos("seed=lots")

    def test_verify_parser_accepts_chaos_forms(self):
        p = build_parser()
        assert p.parse_args(["verify", "--quick"]).chaos is None
        assert p.parse_args(["verify", "--quick", "--chaos"]).chaos is True
        args = p.parse_args(["verify", "--quick", "--chaos", "seed=3"])
        assert args.chaos == "seed=3"


class TestTelemetryFlags:
    def test_solve_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.telemetry import (
            NULL_TRACER,
            get_tracer,
            validate_chrome_trace,
        )

        path = tmp_path / "out.trace.json"
        rc = main(["solve", "fem_b8_s1", "--bound", "16",
                   "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace written to {path}" in out
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "precond.setup" in names
        assert any(n.startswith("solver.") for n in names)
        # the global tracer was restored after the command
        assert get_tracer() is NULL_TRACER

    def test_solve_metrics_prints_snapshot(self, capsys):
        import json

        rc = main(["solve", "fem_b8_s1", "--bound", "16", "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        start = out.index("{")
        snap = json.loads(out[start:])
        assert "repro_solves_total" in snap

    def test_trace_summary_check(self, tmp_path, capsys):
        path = tmp_path / "out.trace.json"
        assert main(["solve", "fem_b8_s1", "--bound", "16",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        rc = main(["trace-summary", str(path), "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 9" in out
        assert "trace OK" in out

    def test_trace_summary_check_fails_on_invalid(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "b", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
        ]}))
        rc = main(["trace-summary", str(path), "--check"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "INVALID" in out

    def test_telemetry_overhead_smoke(self, capsys):
        # tiny workload, generous threshold: exercises the gate wiring,
        # not the perf claim (CI runs the real thresholded version)
        rc = main(["telemetry-overhead", "--repeats", "1", "--nb", "16",
                   "--solves", "1", "--threshold", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: within threshold" in out
