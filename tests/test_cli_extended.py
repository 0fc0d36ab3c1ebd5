"""Tests for the simulate/validate CLI subcommands."""

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_runs_policies(self, capsys):
        code = main([
            "simulate", "--speeds", "1,4", "--utilization", "0.5",
            "--duration", "5000", "--replications", "1",
            "--policies", "ORR,WRR",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ORR" in out and "WRR" in out
        assert "mean resp ratio" in out

    def test_bad_speeds(self, capsys):
        assert main([
            "simulate", "--speeds", "x", "--utilization", "0.5",
        ]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_bad_utilization(self, capsys):
        assert main([
            "simulate", "--speeds", "1,2", "--utilization", "2.0",
        ]) == 2

    def test_unknown_policy(self, capsys):
        assert main([
            "simulate", "--speeds", "1,2", "--utilization", "0.5",
            "--policies", "NOPE",
        ]) == 2
        assert "unknown policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [[], ["--paired"], ["--precision", "0.05"]],
        ids=["plain", "paired", "precision"],
    )
    def test_zero_replications_rejected(self, capsys, mode):
        assert main([
            "simulate", "--speeds", "1,2", "--utilization", "0.5",
            "--policies", "ORR,WRR", "--replications", "0", *mode,
        ]) == 2
        assert "error: --replications must be positive" in capsys.readouterr().err

    def test_least_load_via_cli(self, capsys):
        code = main([
            "simulate", "--speeds", "1,4", "--utilization", "0.5",
            "--duration", "5000", "--replications", "1",
            "--policies", "LEAST_LOAD",
        ])
        assert code == 0
        assert "LEAST_LOAD" in capsys.readouterr().out


class TestValidateCommand:
    def test_poisson_validation(self, capsys):
        code = main([
            "validate", "--speeds", "1,4", "--utilization", "0.5",
            "--duration", "50000", "--replications", "2",
            "--arrival-cv", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "Poisson arrivals" in out

    def test_bursty_message(self, capsys):
        code = main([
            "validate", "--speeds", "1,1", "--utilization", "0.5",
            "--duration", "20000", "--replications", "1",
            "--arrival-cv", "3.0",
        ])
        assert code == 0
        assert "burstiness penalty" in capsys.readouterr().out

    def test_dynamic_policy_rejected(self, capsys):
        assert main([
            "validate", "--speeds", "1,1", "--utilization", "0.5",
            "--policy", "LEAST_LOAD", "--duration", "5000",
        ]) == 2
        assert "no static fraction" in capsys.readouterr().err

    def test_bad_speeds(self, capsys):
        assert main([
            "validate", "--speeds", ",", "--utilization", "0.5",
        ]) == 2


class TestRunJsonExport:
    def test_json_for_sweep(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out_path = tmp_path / "fig.json"
        # smoke scale keeps this test feasible; figure6 is the cheapest
        # sweep in job count per point at small utilization coverage.
        from repro.cli import main as cli_main
        code = cli_main(["run", "figure3", "--json", str(out_path),
                         "--scale", "smoke"])
        assert code == 0
        assert out_path.exists()
        import json
        data = json.loads(out_path.read_text())
        assert data["experiment_id"] == "figure3"

    def test_json_rejected_for_tables(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["run", "table2", "--json", "/tmp/x.json"]) == 2
        assert "--json supports" in capsys.readouterr().err

    def test_all_rejects_json(self, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["run", "all", "--json", "/tmp/x.json"]) == 2


class TestCharacterizeCommand:
    def test_characterize_trace(self, capsys, tmp_path):
        import numpy as np
        from repro.rng import StreamFactory
        from repro.sim import JobTrace, Workload

        w = Workload(total_speed=10.0, utilization=0.7)
        trace = JobTrace.synthesize(w, StreamFactory(1).arrivals, 5.0e4)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)

        assert main(["characterize", str(path), "--speeds", "2,8"]) == 0
        out = capsys.readouterr().out
        assert "suggested synthetic model" in out
        assert "offered load" in out

    def test_missing_file(self, capsys):
        assert main(["characterize", "/nonexistent/trace.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_speeds(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,1.0\n1.0,1.0\n2.0,1.0\n")
        assert main(["characterize", str(path), "--speeds", "zz"]) == 2
