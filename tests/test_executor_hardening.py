"""Tests for executor hardening: retries, timeouts, crash recovery,
quarantine, and sweep checkpointing.

Crash/stall injection uses the module-level ``_TEST_WORKER_HOOK`` seam:
set before the pool forks, it runs inside each worker ahead of the real
task.  Hooks coordinate through flag files so a task can fail exactly
once and then succeed — the retry path must finish the job.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import executor as ex
from repro.core.checkpoint import SweepCheckpoint
from repro.core.executor import (
    CellTask,
    GridTaskError,
    ReplicationTask,
    TaskFailure,
    run_cell_grid,
    run_replication_grid,
    shutdown_shared_executor,
)
from repro.rng import replication_seeds
from repro.sim import SimulationConfig

SMOKE = dict(speeds=(1.0, 1.0, 10.0), utilization=0.6, duration=5.0e3)


def _tasks(policies=("ORR",), replications=2):
    config = SimulationConfig(**SMOKE)
    seeds = replication_seeds(2000, replications)
    return [
        ReplicationTask(
            key=(1.0, p, r), config=config, policy_name=p,
            estimation_error=None, seed=seed,
        )
        for p in policies
        for r, seed in enumerate(seeds)
    ]


def _cells(xs=(1.0, 2.0), policies=("ORR", "WRR"), replications=3):
    seeds = tuple(replication_seeds(2000, replications))
    return [
        CellTask(x=x, config=SimulationConfig(**SMOKE), policy_names=policies,
                 base_names=policies, estimation_errors=(None,) * len(policies),
                 seeds=seeds)
        for x in xs
    ]


@pytest.fixture
def worker_hook():
    """Install a worker hook with a clean pool; restore both after."""
    shutdown_shared_executor()

    def install(hook):
        ex._TEST_WORKER_HOOK = hook

    yield install
    ex._TEST_WORKER_HOOK = None
    shutdown_shared_executor()


def _crash_once_hook(flag: str, victim_key, sig=None):
    """Crash (or raise) the first time *victim_key* is seen."""

    def hook(task):
        if task.key == victim_key and not os.path.exists(flag):
            with open(flag, "w") as fh:
                fh.write("crashed")
            if sig is None:
                raise RuntimeError("injected task failure")
            os.kill(os.getpid(), sig)

    return hook


class TestRetries:
    def test_serial_retry_recovers(self, worker_hook, tmp_path):
        tasks = _tasks()
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[0].key))
        report = run_replication_grid(tasks, n_jobs=1, retries=2)
        assert report.retried == 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_serial_no_retries_still_aggregates_error(self, worker_hook,
                                                      tmp_path):
        tasks = _tasks()
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[0].key))
        with pytest.raises(GridTaskError, match="grid tasks failed"):
            run_replication_grid(tasks, n_jobs=1)

    def test_parallel_retry_recovers(self, worker_hook, tmp_path):
        tasks = _tasks(replications=3)
        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[1].key))
        report = run_replication_grid(tasks, n_jobs=2, retries=2)
        assert report.retried >= 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_replication_grid(_tasks(), retries=-1)


class TestCrashRecovery:
    def test_killed_worker_matches_undisturbed_run(self, worker_hook,
                                                   tmp_path):
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        undisturbed = run_replication_grid(tasks, n_jobs=1)

        flag = str(tmp_path / "flag")
        worker_hook(_crash_once_hook(flag, tasks[2].key, sig=signal.SIGKILL))
        report = run_replication_grid(tasks, n_jobs=2, retries=2)

        assert os.path.exists(flag)  # the kill really happened
        assert set(report.outcomes) == set(undisturbed.outcomes)
        for key, expected in undisturbed.outcomes.items():
            got = report.outcomes[key]
            assert got[:4] == expected[:4]
            np.testing.assert_array_equal(got[4], expected[4])

    def test_unrecoverable_crash_raises_structured_error(self, worker_hook):
        def always_die(task):
            if task.key[1] == "WRR":
                os.kill(os.getpid(), signal.SIGKILL)

        tasks = _tasks(policies=("ORR", "WRR"), replications=1)
        worker_hook(always_die)
        with pytest.raises(GridTaskError, match="grid tasks failed") as err:
            run_replication_grid(tasks, n_jobs=2, retries=1)
        assert all(isinstance(f, TaskFailure) for f in err.value.failures)
        assert {f.key[1] for f in err.value.failures} == {"WRR"}


def _die_on(victim_key):
    def hook(task):
        if task.key == victim_key:
            os._exit(1)

    return hook


class TestDeadWorkerOnDefaultPath:
    """No retries, no timeout: a worker that dies costs only its own
    unit, the error names that unit's members, and the shared pool
    serves the next grid."""

    def test_flat_grid(self, worker_hook, tmp_path):
        tasks = _tasks(policies=("ORR", "WRR"), replications=3)
        victim = tasks[4].key
        worker_hook(_die_on(victim))
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(GridTaskError) as err:
            run_replication_grid(tasks, n_jobs=2,
                                 checkpoint=SweepCheckpoint(path))
        assert [f.key for f in err.value.failures] == [victim]
        assert "killed its worker" in err.value.failures[0].error
        healthy = {t.key for t in tasks} - {victim}
        assert set(SweepCheckpoint(path).load()) == healthy

        report = run_replication_grid(
            [t for t in tasks if t.key != victim], n_jobs=2
        )
        assert set(report.outcomes) == healthy

    def test_worker_dies_while_rows_are_filed(self, worker_hook, tmp_path):
        # More tasks than slots, so the scheduler submits again after
        # filing the first rows; the victim dies while the parent is
        # still inside the slow checkpoint write.
        tasks = _tasks(policies=("ORR", "WRR"), replications=5)
        victim = tasks[1].key
        filing = tmp_path / "filing"

        class SlowCheckpoint(SweepCheckpoint):
            def record(self, key, outcome):
                if not filing.exists():
                    filing.touch()
                    time.sleep(0.3)
                super().record(key, outcome)

        def die_while_filing(task):
            if task.key == victim:
                deadline = time.monotonic() + 10.0
                while not filing.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                os._exit(1)

        worker_hook(die_while_filing)
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(GridTaskError) as err:
            run_replication_grid(tasks, n_jobs=2,
                                 checkpoint=SlowCheckpoint(path))
        assert [f.key for f in err.value.failures] == [victim]
        healthy = {t.key for t in tasks} - {victim}
        assert set(SweepCheckpoint(path).load()) == healthy

        report = run_replication_grid(
            [t for t in tasks if t.key != victim], n_jobs=2
        )
        assert set(report.outcomes) == healthy

    def test_cell_grid(self, worker_hook, tmp_path):
        first, second = _cells()
        # Two workers slice replications {0, 2} and {1}: the culprit's
        # slice is every policy of replication 1.
        worker_hook(_die_on(first.member_key(1, 1)))
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(GridTaskError) as err:
            run_cell_grid([first, second], n_jobs=2,
                          checkpoint=SweepCheckpoint(path))
        culprits = {first.member_key(pi, 1) for pi in range(2)}
        assert {f.key for f in err.value.failures} == culprits
        everyone = {
            cell.member_key(pi, r)
            for cell in (first, second) for pi in range(2) for r in range(3)
        }
        assert set(SweepCheckpoint(path).load()) == everyone - culprits

        report = run_cell_grid([second], n_jobs=2)
        assert set(report.outcomes) == {
            second.member_key(pi, r) for pi in range(2) for r in range(3)
        }


class TestTimeout:
    def test_stuck_task_times_out_and_retries(self, worker_hook, tmp_path):
        flag = str(tmp_path / "flag")
        tasks = _tasks(replications=2)

        def stall_once(task):
            if task.key == tasks[0].key and not os.path.exists(flag):
                with open(flag, "w") as fh:
                    fh.write("stalled")
                time.sleep(15.0)

        worker_hook(stall_once)
        t0 = time.monotonic()
        report = run_replication_grid(tasks, n_jobs=2, retries=1,
                                      task_timeout=1.5)
        assert time.monotonic() - t0 < 14.0  # did not wait out the stall
        assert set(report.outcomes) == {t.key for t in tasks}
        assert report.retried >= 1

    def test_budget_starts_when_a_worker_is_free(self, worker_hook):
        # Four 1 s tasks on two workers take two rounds: the budget
        # must not run while a task waits for a worker.
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        worker_hook(lambda task: time.sleep(1.0))
        report = run_replication_grid(tasks, n_jobs=2, task_timeout=1.5)
        assert set(report.outcomes) == {t.key for t in tasks}
        assert report.retried == 0

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            run_replication_grid(_tasks(), task_timeout=0.0)


class TestQuarantine:
    def test_quarantine_reports_instead_of_raising(self, worker_hook):
        def poison(task):
            if task.key[1] == "WRR":
                raise RuntimeError("poison task")

        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        worker_hook(poison)
        report = run_replication_grid(tasks, n_jobs=1, quarantine=True)
        assert {f.key[1] for f in report.failures} == {"WRR"}
        assert {k[1] for k in report.outcomes} == {"ORR"}
        described = report.failures[0].describe()
        assert "WRR" in described and "point" in described

    def test_failure_names_point_policy_replication(self):
        failure = TaskFailure(
            key=(4.0, "ORR", 1), policy_name="ORR", attempts=3,
            error="Traceback ...\nRuntimeError: boom",
        )
        text = failure.describe()
        assert "point 4.0" in text
        assert "policy ORR" in text
        assert "replication 1" in text
        assert "3 attempt" in text
        assert "boom" in text

    def test_sweep_survives_quarantined_policy(self, worker_hook):
        from repro.experiments import SCALES, run_policy_sweep
        from repro.experiments.configs import skewness_config

        def poison(task):
            if task.key[1] == "WRR":
                raise RuntimeError("poison task")

        worker_hook(poison)
        result = run_policy_sweep(
            "t", "t", "x", [4.0],
            lambda x: skewness_config(x, 0.6),
            ["ORR", "WRR"],
            SCALES["smoke"].with_replications(1),
            quarantine=True,
        )
        assert "ORR" in result.cells[4.0]
        assert "WRR" not in result.cells[4.0]
        assert len(result.failures) == 1


class TestCheckpoint:
    def test_resume_skips_finished_cells(self, worker_hook, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        first = run_replication_grid(tasks, n_jobs=1,
                                     checkpoint=SweepCheckpoint(path))
        assert first.checkpoint_hits == 0
        assert len(SweepCheckpoint(path)) == len(tasks)

        # Any recomputation would now blow up inside the worker.
        def explode(task):
            raise AssertionError("cell recomputed despite checkpoint")

        worker_hook(explode)
        second = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert second.checkpoint_hits == len(tasks)
        assert set(second.outcomes) == set(first.outcomes)
        for key in first.outcomes:
            assert second.outcomes[key][:4] == first.outcomes[key][:4]

    def test_retried_grid_checkpoints_cells_as_they_finish(self, worker_hook,
                                                           tmp_path):
        path = tmp_path / "sweep.jsonl"
        seen = tmp_path / "seen"
        tasks = _tasks(policies=("ORR", "WRR"), replications=4)
        n_jobs = 2

        def count_finished(task):
            if task.key == tasks[-1].key:
                lines = path.read_text().count("\n") if path.exists() else 0
                seen.write_text(str(lines))

        worker_hook(count_finished)
        report = run_replication_grid(tasks, n_jobs=n_jobs, retries=1,
                                      checkpoint=SweepCheckpoint(path))
        assert set(report.outcomes) == {t.key for t in tasks}
        # The last task starts once a slot frees: at most 2 * n_jobs
        # tasks are in flight, and every one that finished before it is
        # already on disk.
        assert int(seen.read_text()) >= len(tasks) - 2 * n_jobs

    def test_partial_checkpoint_completes_rest(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(policies=("ORR", "WRR"), replications=2)
        half = tasks[: len(tasks) // 2]
        run_replication_grid(half, n_jobs=1, checkpoint=SweepCheckpoint(path))

        report = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert report.checkpoint_hits == len(half)
        assert set(report.outcomes) == {t.key for t in tasks}
        # The file now covers the full grid.
        assert len(SweepCheckpoint(path)) == len(tasks)

    def test_corrupt_lines_recompute(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = _tasks(replications=2)
        run_replication_grid(tasks, n_jobs=1, checkpoint=SweepCheckpoint(path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # torn append
        path.write_text("\n".join(lines) + "\n")

        report = run_replication_grid(tasks, n_jobs=1,
                                      checkpoint=SweepCheckpoint(path))
        assert report.checkpoint_hits == len(tasks) - 1
        assert set(report.outcomes) == {t.key for t in tasks}

    def test_checkpoint_round_trips_outcomes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cp = SweepCheckpoint(path)
        outcome = (1.5, 0.75, 0.2, 123, np.asarray([0.25, 0.75]), 0.01)
        cp.record((2.0, "ORR", 0), outcome)
        loaded = cp.load()[(2.0, "ORR", 0)]
        assert loaded[:4] == outcome[:4]
        np.testing.assert_array_equal(loaded[4], outcome[4])
        assert loaded[5] == outcome[5]
