"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "table1", "--scale", "smoke"])
        assert args.experiment == "table1"
        assert args.scale == "smoke"

    def test_invalid_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_run_n_jobs_and_cache_args(self):
        args = build_parser().parse_args(
            ["run", "figure3", "--n-jobs", "auto", "--cache", "/tmp/c"]
        )
        assert args.n_jobs == "auto"
        assert args.cache == "/tmp/c"

    def test_simulate_n_jobs_arg(self):
        args = build_parser().parse_args(
            ["simulate", "--speeds", "1,2", "--utilization", "0.5",
             "--n-jobs", "2"]
        )
        assert args.n_jobs == "2"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.scale == "smoke"
        assert args.output == "BENCH_sweep.json"
        assert args.n_jobs is None and args.cache is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "table1" in out

    def test_allocate(self, capsys):
        code = main(["allocate", "--speeds", "1,1.5,2", "--utilization", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimized alpha" in out
        assert "predicted mean response ratio" in out

    def test_allocate_drops_slow_machines(self, capsys):
        main(["allocate", "--speeds", "0.05,1,10", "--utilization", "0.3"])
        out = capsys.readouterr().out
        assert "zero work" in out

    def test_allocate_bad_speeds(self, capsys):
        assert main(["allocate", "--speeds", "a,b", "--utilization", "0.5"]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_allocate_empty_speeds(self, capsys):
        assert main(["allocate", "--speeds", ",", "--utilization", "0.5"]) == 2

    def test_allocate_bad_utilization(self, capsys):
        assert main(["allocate", "--speeds", "1,2", "--utilization", "1.5"]) == 2
        assert "utilization" in capsys.readouterr().err

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "ORR" in capsys.readouterr().out

    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "figure99"])

    def test_run_rejects_bad_n_jobs(self, capsys):
        assert main(["run", "table2", "--n-jobs", "bogus"]) == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_simulate_rejects_bad_n_jobs(self, capsys):
        code = main(["simulate", "--speeds", "1,2", "--utilization", "0.5",
                     "--n-jobs", "-3"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        """Fail the test if an experiment starts running."""
        import repro.experiments

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started despite a bad flag")

        monkeypatch.setattr(repro.experiments, "run_experiment", refuse)

    def assert_usage_error(self, code, capsys, flag):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag}")
        assert "Traceback" not in err
        return err

    def test_run_rejects_negative_retries(self, capsys, no_sweep):
        code = main(["run", "figure3", "--scale", "smoke", "--retries", "-1"])
        self.assert_usage_error(code, capsys, "--retries")

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_run_rejects_bad_task_timeout(self, capsys, no_sweep, bad):
        code = main(["run", "figure3", "--scale", "smoke", "--n-jobs", "2",
                     "--task-timeout", bad])
        self.assert_usage_error(code, capsys, "--task-timeout")

    def test_simulate_rejects_nan_precision(self, capsys, monkeypatch):
        import repro.core

        def refuse(*args, **kwargs):
            raise AssertionError("the precision loop started despite NaN")

        monkeypatch.setattr(repro.core, "evaluate_cell_to_precision", refuse)
        code = main(["simulate", "--speeds", "1,2", "--utilization", "0.5",
                     "--precision", "nan"])
        self.assert_usage_error(code, capsys, "--precision")

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--duration", "nan", "duration"), ("--speeds", "1,nan", "speeds")],
    )
    def test_simulate_rejects_nan_config(self, capsys, monkeypatch, flag,
                                         value, field):
        import repro.core

        def refuse(*args, **kwargs):
            raise AssertionError("replications started despite NaN")

        monkeypatch.setattr(repro.core, "evaluate_cell", refuse)
        args = {"--speeds": "1,2", "--duration": "5e3", flag: value}
        code = main(["simulate", "--utilization", "0.5", "--replications",
                     "1", *(x for kv in args.items() for x in kv)])
        self.assert_usage_error(code, capsys, field)

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        """Fail the test if ``simulate`` starts evaluating."""
        import repro.core

        def refuse(*args, **kwargs):
            raise AssertionError("replications started despite a bad list")

        for name in ("evaluate_cell", "evaluate_cell_to_precision"):
            monkeypatch.setattr(repro.core, name, refuse)

    SIMULATE_MODES = pytest.mark.parametrize(
        "mode", [[], ["--paired"], ["--precision", "0.1"],
                 ["--paired", "--precision", "0.1"]],
        ids=["plain", "paired", "precision", "paired-precision"],
    )

    @SIMULATE_MODES
    def test_simulate_rejects_empty_policy_list(self, capsys, no_simulation,
                                                mode):
        code = main(["simulate", "--speeds", "1,2", "--utilization", "0.5",
                     "--policies", ",", *mode])
        err = self.assert_usage_error(code, capsys, "--policies")
        assert "at least one policy" in err

    @SIMULATE_MODES
    def test_simulate_rejects_duplicate_policies(self, capsys, no_simulation,
                                                 mode):
        code = main(["simulate", "--speeds", "1,2", "--utilization", "0.5",
                     "--policies", "ORR,WRR,orr", *mode])
        err = self.assert_usage_error(code, capsys, "--policies")
        assert "duplicate" in err

    def test_simulate_parallel_matches_serial(self, capsys):
        base = ["simulate", "--speeds", "1,1,10", "--utilization", "0.6",
                "--policies", "ORR", "--duration", "5e3",
                "--replications", "2"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--n-jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_run_with_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(["run", "figure3", "--scale", "smoke",
                     "--cache", str(cache_dir)])
        assert code == 0
        assert "ORR" in capsys.readouterr().out
        assert any(p.suffix == ".json" for p in cache_dir.iterdir())


class TestBench:
    def test_bench_appends_trajectory(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_sweep.json"
        assert main(["bench", "--output", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "FCFS kernel" in text and "cache" in text
        trajectory = json.loads(out_path.read_text())
        assert len(trajectory) == 1
        record = trajectory[0]
        assert record["sweep"]["grid_identical"] is True
        assert record["replication"]["ps"]["agree"] is True
        assert record["replication"]["fcfs"]["agree"] is True
        assert record["sweep"]["cache_warm_hits"] > 0
        assert record["cell"]["cell_identical"] is True
        assert record["cell"]["cell_speedup"] > 0
        for point in record["cell"]["paired"]:
            assert point["paired_half_width"] >= 0
            assert point["unpaired_half_width"] > 0
            assert point["verdict"] in ("a_wins", "b_wins", "tie")

        # A second invocation appends rather than overwrites.
        assert main(["bench", "--output", str(out_path), "--serve",
                     "--net"]) == 0
        capsys.readouterr()
        trajectory = json.loads(out_path.read_text())
        assert len(trajectory) == 2

        # check_gate skips a path it cannot find, so every path the gate
        # reads must resolve in a full record or that check is off.
        from repro.obs import gate

        record = trajectory[1]
        paths = [p for p, _ in gate._RATIOS] + list(gate._IDENTITY_FLAGS)
        for table in (gate._FLOORS, gate._CEILINGS):
            for path, _, _, _, guard in table:
                paths.append(path)
                if guard is not None:
                    assert gate._lookup(record, guard[0]) is not None, guard
        c_kernel = record["kernels"]["fcfs_backend"] == "c"
        for path in paths:
            value = gate._lookup(record, path)
            if path == "kernels.fcfs_bit_identical" and not c_kernel:
                assert value is None
                continue
            assert isinstance(value, (bool, int, float)), (path, value)

    def test_failed_section_exits_1_and_appends_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.bench.sections as sections

        out_path = tmp_path / "BENCH_sweep.json"
        out_path.write_text('[{"scale": "smoke"}]\n')
        before = out_path.read_bytes()
        real = sections.fcfs_replay

        def perturbed(times, work, speed):
            out = real(times, work, speed)
            out[len(out) // 2] += 1.0
            return out

        monkeypatch.setattr(sections, "fcfs_replay", perturbed)
        assert main(["bench", "--output", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: FCFS kernel disagrees with reference loop"
        )
        assert captured.out == ""
        assert out_path.read_bytes() == before

    def test_corrupt_trajectory_exits_2_untouched(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_sweep.json"
        history = [{"scale": "smoke", "timestamp": f"t{i}"} for i in range(20)]
        out_path.write_text(json.dumps(history, indent=2)[:200])  # truncated
        before = out_path.read_bytes()
        code = main(["bench", "--scale", "smoke", "--gate",
                     "--output", str(out_path)])
        assert code == 2
        assert str(out_path) in capsys.readouterr().err
        assert out_path.read_bytes() == before

    def test_bench_rejects_bad_n_jobs(self, capsys, tmp_path):
        code = main(["bench", "--n-jobs", "zero",
                     "--output", str(tmp_path / "b.json")])
        assert code == 2
        assert "n_jobs" in capsys.readouterr().err


class TestServe:
    def test_serve_json_smoke(self, capsys):
        import json

        code = main(["serve", "--speeds", "1,2,3", "--duration", "500",
                     "--resolve-period", "100", "--seed", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean_shutdown"] is True
        assert payload["jobs_dispatched"] > 0
        assert payload["resolves"] == 5
        assert len(payload["final_alphas"]) == 3

    def test_serve_human_output(self, capsys):
        code = main(["serve", "--speeds", "1,2", "--duration", "300",
                     "--resolve-period", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs dispatched" in out
        assert "final allocation" in out

    def test_serve_step_workload(self, capsys):
        import json

        code = main(["serve", "--speeds", "1,2,3", "--duration", "1000",
                     "--resolve-period", "100", "--workload", "step",
                     "--step-factor", "1.5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean_shutdown"] is True
        # the step raises the late arrival rate above the early one
        windows = payload["windows"]
        early = sum(w["offered"] for w in windows[:5])
        late = sum(w["offered"] for w in windows[5:])
        assert late > early

    def test_serve_replay_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.csv"
        trace.write_text(
            "".join(f"{t * 0.1:.3f},1.0\n" for t in range(200))
        )
        code = main(["serve", "--speeds", "1,1", "--duration", "20",
                     "--resolve-period", "5", "--replay", str(trace),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_dispatched"] == 200

    def test_serve_bad_speeds(self, capsys):
        assert main(["serve", "--speeds", "x,y", "--duration", "100",
                     "--resolve-period", "10"]) == 2
        assert "could not parse" in capsys.readouterr().err

    def test_serve_bad_utilization(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--utilization", "1.3",
                     "--duration", "100", "--resolve-period", "10"]) == 2
        assert "utilization" in capsys.readouterr().err

    def test_serve_missing_trace(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--duration", "100",
                     "--resolve-period", "10",
                     "--replay", "/nonexistent/trace.csv"]) == 2
        assert "could not read" in capsys.readouterr().err

    def test_serve_bad_period(self, capsys):
        assert main(["serve", "--speeds", "1,2", "--duration", "10",
                     "--resolve-period", "100"]) == 2
        assert "control_period" in capsys.readouterr().err
