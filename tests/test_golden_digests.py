"""Golden seed-stability digests: pinned SHAs over packed result vectors.

Every digest below is the SHA-256 of the little-endian float64 bytes of
the pinned-config result vectors (see :mod:`repro.obs.digest`).  They
freeze two things at once:

* **seed stability** — the RNG layout (base_seed 2000, spawn-key
  substreams) keeps producing the same trajectories release to release;
* **cross-path bit-identity** — the serial flat grid, the parallel
  grid, the cell-batched sweep, and the pure-Python PS kernel must all
  hash to the same digest, not merely be "close".

If a digest changes legitimately (an intentional RNG or kernel-order
change), recompute it with the corresponding ``run_*``/digest call and
update the constant — and bump ``KERNEL_VERSION`` if replay bits moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core import get_policy
from repro.core.evaluate import run_policy_once
from repro.distributions import distribution_from_mean_cv
from repro.experiments.base import SCALES, run_policy_sweep
from repro.experiments.configs import skewness_config
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import UTILIZATION, run_figure3
from repro.faults.models import FaultConfig, FaultEvent
from repro.net import run_in_process
from repro.obs.digest import figure2_digest, results_digest, sweep_digest
from repro.service import (
    SchedulerService,
    ServerBank,
    ServiceConfig,
    SyntheticJobSource,
)
from repro.sim import SimulationConfig, ckernel, fcfs_replay, ps_replay
from repro.sim.arrivals import Workload

SMOKE = SCALES["smoke"]
FIGURE3_KWARGS = dict(fast_speeds=(1.0, 10.0), policies=("WRR", "ORR"))

#: SHA-256 of the figure3 smoke subset (2 points x WRR/ORR x 2 reps).
FIGURE3_SMOKE_DIGEST = (
    "946e55683b6f73e4d06256288a60a38ffb46ee7d66c47d97887e7ea151a0c97a"
)
#: The same subset under the FCFS discipline (the sweep-fcfs workload's
#: replay path: one Lindley step per job in the compiled cell kernel).
FIGURE3_FCFS_SMOKE_DIGEST = (
    "9729246cc4d11896033e7c198183458652179a13647be576b739bb43fc7f42c5"
)
#: SHA-256 of the figure2 smoke deviation series (round-robin + random).
FIGURE2_SMOKE_DIGEST = (
    "1e49e7190c02216636e14be0a08dc17127c5d540a5db4ed7198a6f1ba32fe954"
)
#: SHA-256 of one pinned ORR replication (speeds 1,1,10 at rho=0.7).
SINGLE_REPLICATION_DIGEST = (
    "e037a940ceeec49cb288dbf2c2699abaa73e348e3c289a120645ca6a5dca7b4b"
)


class TestFigure3GoldenDigest:
    def test_serial_flat_grid(self):
        result = run_figure3(SMOKE, cell_batch=False, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_parallel_grid(self):
        result = run_figure3(
            SMOKE, cell_batch=False, n_jobs=2, **FIGURE3_KWARGS
        )
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_cell_batched(self):
        result = run_figure3(SMOKE, cell_batch=True, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST

    def test_python_kernel(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)  # force the Python loop
        result = run_figure3(SMOKE, cell_batch=False, **FIGURE3_KWARGS)
        assert sweep_digest(result) == FIGURE3_SMOKE_DIGEST


def _figure3_fcfs(**kw):
    return run_policy_sweep(
        "figure3-fcfs", "figure 3 smoke subset, FCFS", "fast speed",
        FIGURE3_KWARGS["fast_speeds"],
        lambda x: dataclasses.replace(
            skewness_config(x, UTILIZATION), discipline="fcfs"
        ),
        FIGURE3_KWARGS["policies"], SMOKE, **kw,
    )


class TestFigure3FcfsGoldenDigest:
    def test_serial_flat_grid(self):
        result = _figure3_fcfs(cell_batch=False)
        assert sweep_digest(result) == FIGURE3_FCFS_SMOKE_DIGEST

    def test_cell_batched(self):
        result = _figure3_fcfs(cell_batch=True)
        assert sweep_digest(result) == FIGURE3_FCFS_SMOKE_DIGEST

    def test_python_kernel(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)  # force the numpy path
        result = _figure3_fcfs(cell_batch=False)
        assert sweep_digest(result) == FIGURE3_FCFS_SMOKE_DIGEST


def test_substream_replays_identical_across_kernel_paths(monkeypatch):
    """Public ps_replay/fcfs_replay: compiled and fallback, same bits.

    At rho = 1.3 the queue never drains for long, so most jobs sit in
    multi-job busy periods — the heap replay, not the singleton closed
    form, decides the PS bits.
    """
    rng = np.random.default_rng(8)
    times = np.cumsum(rng.exponential(1.0, 20_000))
    work = rng.lognormal(0.0, 1.5, 20_000)
    speed = float(work.mean()) / 1.3
    compiled = (ps_replay(times, work, speed), fcfs_replay(times, work, speed))
    opens = np.flatnonzero(times[1:] >= compiled[1][:-1])
    assert opens.size < times.size / 10  # few, long busy periods

    monkeypatch.setattr(ckernel, "_fns", False)
    fallback = (ps_replay(times, work, speed), fcfs_replay(times, work, speed))
    assert np.array_equal(compiled[0], fallback[0])
    assert np.array_equal(compiled[1], fallback[1])


class TestOtherGoldenDigests:
    def test_figure2_deviations(self):
        assert figure2_digest(run_figure2("smoke")) == FIGURE2_SMOKE_DIGEST

    def test_single_replication(self):
        config = SimulationConfig(
            speeds=(1.0, 1.0, 10.0), utilization=0.7,
            duration=SMOKE.duration, warmup=SMOKE.warmup,
        )
        result = run_policy_once(
            config, get_policy("ORR"), seed=SMOKE.base_seed
        )
        assert results_digest(result) == SINGLE_REPLICATION_DIGEST

    def test_single_replication_python_kernel(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_fns", False)
        config = SimulationConfig(
            speeds=(1.0, 1.0, 10.0), utilization=0.7,
            duration=SMOKE.duration, warmup=SMOKE.warmup,
        )
        result = run_policy_once(
            config, get_policy("ORR"), seed=SMOKE.base_seed
        )
        assert results_digest(result) == SINGLE_REPLICATION_DIGEST


# ----------------------------------------------------------------------
# Serve and net reports
# ----------------------------------------------------------------------
#
# SHA-256 of ``json.dumps(report.as_dict(), sort_keys=True)``.  Every
# config's windows tile its duration exactly, so the final window ends
# at ``duration`` however the window geometry is computed.

SERVE_SPEEDS = (1.0, 2.0, 3.0, 2.0)
CONTROL_PERIOD = 100.0

#: Fault-free with p99-SLO shedding engaged.
SLO_SHEDDING_DIGEST = (
    "e54b8678221bd61fd811f395ce809112e04e421b0fb702889233bb7966f1dd89"
)
#: Markov crash/repair timeline, bounced jobs retried.
MARKOV_RETRY_DIGEST = (
    "6467cbdc41b4344b8d849efea71f08b1eaef43bf3523b996634c90c2643c65a6"
)
#: Scripted DOWN/UP/DEGRADE timeline.
SCRIPTED_TIMELINE_DIGEST = (
    "8b34341e08c4b1d6cb29bb7e6f01f2b23dcfa0e15e1629372722009155381a92"
)
#: In-process 2-shard net run, server 2 killed after window 9 and
#: re-registered for window 14 (one digest per shard).
NET_KILL_REJOIN_DIGESTS = (
    "e110ddc7e4e61fac3a80262f415160f8b3495288f13764478429da2f1c2262f9",
    "1f4037dc20bdd6103f0be776c484ecbaf726264437b9150c5407548d785a471e",
)

SCRIPTED_EVENTS = [
    FaultEvent(1050.0, "down", 2),
    FaultEvent(1450.0, "up", 2),
    FaultEvent(1620.0, "degrade_start", 1),
    FaultEvent(1780.0, "degrade_end", 1),
]


def _serve_config(**kw) -> ServiceConfig:
    kw.setdefault("duration", 3000.0)
    return ServiceConfig(
        speeds=SERVE_SPEEDS, control_period=CONTROL_PERIOD, **kw
    )


def _serve_source(utilization: float, seed: int) -> SyntheticJobSource:
    workload = Workload(
        total_speed=sum(SERVE_SPEEDS),
        utilization=utilization,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(workload, seed)


def _report_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(report.as_dict(), sort_keys=True).encode()
    ).hexdigest()


@pytest.fixture(params=["compiled", "python"])
def kernel_path(request, monkeypatch):
    """Run once on the compiled kernels, once on the numpy fallbacks."""
    if request.param == "python":
        monkeypatch.setattr(ckernel, "_fns", False)
    return request.param


class TestServeGoldenDigests:
    def test_slo_shedding(self, kernel_path):
        config = _serve_config(slo_target=20.0, min_responses_to_shed=10)
        report = SchedulerService(config, _serve_source(0.9, 5)).run()
        assert report.jobs_shed > 0
        assert _report_digest(report) == SLO_SHEDDING_DIGEST

    def test_markov_faults_with_retry(self, kernel_path):
        config = _serve_config(
            faults=FaultConfig(mtbf=800.0, mttr=150.0, on_failure="retry"),
            fault_seed=3,
        )
        report = SchedulerService(config, _serve_source(0.7, 11)).run()
        assert report.jobs_retried > 0
        assert _report_digest(report) == MARKOV_RETRY_DIGEST

    def test_scripted_timeline(self, kernel_path, monkeypatch):
        # Record every window's completions: the digest must cover a
        # window whose completion list is not server-major, i.e. where
        # the completion fold has to regroup witnesses by server.
        windows: list[list[int]] = []
        take = ServerBank.take_completions

        def recording(bank):
            out = take(bank)
            windows.append(out[0][:, 0].astype(int).tolist())
            return out

        monkeypatch.setattr(ServerBank, "take_completions", recording)
        report = SchedulerService(
            _serve_config(), _serve_source(0.7, 11),
            fault_events=SCRIPTED_EVENTS,
        ).run()
        assert _report_digest(report) == SCRIPTED_TIMELINE_DIGEST

        assert len(windows) == len(report.windows)
        regrouped = [k for k, s in enumerate(windows) if s != sorted(s)]
        assert regrouped, "no window's completions span two fault segments"

    def test_net_two_shards_kill_and_rejoin(self, kernel_path):
        net = run_in_process(
            _serve_config(duration=2000.0), _serve_source(0.6, 21),
            n_shards=2, kill={2: 9}, rejoin={2: 14},
        )
        assert net.reports[0].jobs_lost > 0
        assert net.reports[0].membership_changes == 2
        digests = tuple(_report_digest(r) for r in net.reports)
        assert digests == NET_KILL_REJOIN_DIGESTS
