"""The grid ledger: checkpoint → cache → pending lookup, and the bytes
both stores write.

Both grid runners (the flat per-replication grid and the whole-cell
grid) share one lookup and one settle step, so a checkpoint or cache
written by either serves the other, and a stored outcome that does not
fit its configuration is recomputed rather than served.
"""

import json

import numpy as np
import pytest

import repro.core.executor as executor
from repro.core.cache import ReplicationCache
from repro.core.checkpoint import SweepCheckpoint
from repro.core.evaluate import Outcome
from repro.core.executor import (
    CellTask,
    ReplicationTask,
    run_cell_grid,
    run_replication_grid,
)
from repro.obs import counters
from repro.rng import replication_seeds
from repro.sim import SimulationConfig

SEEDS = replication_seeds(21, 2)
POLICIES = ("ORR", "WRR", "LEAST_LOAD")
XS = (1.0, 2.0)


def _config(x: float) -> SimulationConfig:
    return SimulationConfig(speeds=(x, 2.0, 4.0), utilization=0.6,
                            duration=3000.0)


def _run(runner, policies=POLICIES, **kwargs):
    """One grid over ``XS × policies × SEEDS`` on the chosen runner."""
    if runner == "flat":
        tasks = [
            ReplicationTask(key=(x, name, r), config=_config(x), policy_name=name,
                            estimation_error=None, seed=seed)
            for x in XS
            for name in policies
            for r, seed in enumerate(SEEDS)
        ]
        return run_replication_grid(tasks, n_jobs=1, **kwargs)
    cells = [
        CellTask(x=x, config=_config(x), policy_names=tuple(policies),
                 base_names=tuple(policies),
                 estimation_errors=(None,) * len(policies), seeds=tuple(SEEDS))
        for x in XS
    ]
    return run_cell_grid(cells, n_jobs=1, **kwargs)


def _assert_same(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, outcome in want.items():
        assert got[key][:4] == outcome[:4], key
        np.testing.assert_array_equal(got[key].dispatch_fractions,
                                      outcome.dispatch_fractions)
        assert got[key].loss_rate == outcome.loss_rate


def _forbid_simulation(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a stored member was simulated again")

    monkeypatch.setattr(executor, "_run_replication", boom)
    monkeypatch.setattr(executor, "_run_cell_members", boom)


RUNNERS = ("flat", "cell")
TOTAL = len(XS) * len(POLICIES) * len(SEEDS)


@pytest.mark.parametrize("writer, reader", [("flat", "cell"), ("cell", "flat")])
def test_checkpoint_serves_the_other_runner_whole(writer, reader, tmp_path,
                                                   monkeypatch):
    path = tmp_path / "sweep.jsonl"
    first = _run(writer, checkpoint=SweepCheckpoint(path))
    assert first.checkpoint_hits == 0

    _forbid_simulation(monkeypatch)
    second = _run(reader, checkpoint=SweepCheckpoint(path))
    assert second.checkpoint_hits == TOTAL
    assert (second.cache_hits, second.cache_misses) == (0, 0)
    _assert_same(second.outcomes, first.outcomes)


@pytest.mark.parametrize("runner", RUNNERS)
def test_misfit_cache_entry_is_a_miss(runner, tmp_path):
    """An entry whose fractions do not cover the config's computers is
    recomputed and rewritten, never broadcast into the summary."""
    cache = ReplicationCache(tmp_path)
    first = _run(runner, policies=("ORR",), cache=cache)
    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == len(first.outcomes)
    for path in entries:
        data = json.loads(path.read_text())
        data["dispatch_fractions"] = [1.0]
        path.write_text(json.dumps(data))

    before = counters.snapshot()
    second = _run(runner, policies=("ORR",), cache=cache)
    delta = counters.diff_since(before)
    assert (second.cache_hits, second.cache_misses) == (0, len(entries))
    assert delta.get("cache.miss") == len(entries)
    assert "cache.hit" not in delta
    _assert_same(second.outcomes, first.outcomes)

    third = _run(runner, policies=("ORR",), cache=cache)
    assert (third.cache_hits, third.cache_misses) == (len(entries), 0)
    _assert_same(third.outcomes, first.outcomes)


@pytest.mark.parametrize("runner", RUNNERS)
def test_misfit_checkpoint_line_recomputes(runner, tmp_path):
    path = tmp_path / "sweep.jsonl"
    first = _run(runner, policies=("ORR",), checkpoint=SweepCheckpoint(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(first.outcomes)
    for entry in lines:
        entry["outcome"]["dispatch_fractions"] = [0.5]
    path.write_text("".join(json.dumps(entry) + "\n" for entry in lines))

    second = _run(runner, policies=("ORR",), checkpoint=SweepCheckpoint(path))
    assert second.checkpoint_hits == 0
    _assert_same(second.outcomes, first.outcomes)

    # The recomputed members were recorded again, and later lines win.
    third = _run(runner, policies=("ORR",), checkpoint=SweepCheckpoint(path))
    assert third.checkpoint_hits == len(lines)
    _assert_same(third.outcomes, first.outcomes)


#: One outcome with floats whose shortest repr is long, stored with and
#: without its loss rate (records written before fault injection).
PINNED = Outcome(
    np.float64(12.345678901234567), 0.1 + 0.2, 1 / 3, np.int64(4242),
    np.array([0.1, 0.2, 0.7]), 0.0125,
)
_FIELDS = (
    '"mean_response_time": 12.345678901234567, '
    '"mean_response_ratio": 0.30000000000000004, '
    '"fairness": 0.3333333333333333, "jobs": 4242, '
    '"dispatch_fractions": [0.1, 0.2, 0.7], '
)
CACHE_ENTRY = "{" + _FIELDS + '"loss_rate": 0.0125, "kernel": "pinned"}'
CACHE_ENTRY_NO_LOSS = "{" + _FIELDS + '"loss_rate": 0.0, "kernel": "pinned"}'
CHECKPOINT_TEXT = (
    '{"key":[2.5,"ORR(-10%)",3],"outcome":{"mean_response_time":'
    '12.345678901234567,"mean_response_ratio":0.30000000000000004,'
    '"fairness":0.3333333333333333,"jobs":4242,"dispatch_fractions":'
    '[0.1,0.2,0.7],"loss_rate":0.0125}}\n'
    '{"key":7,"outcome":{"mean_response_time":12.345678901234567,'
    '"mean_response_ratio":0.30000000000000004,"fairness":'
    '0.3333333333333333,"jobs":4242,"dispatch_fractions":[0.1,0.2,0.7],'
    '"loss_rate":0.0}}\n'
)


class TestOnDiskBytes:
    def test_cache_entry_text_is_pinned(self, tmp_path):
        cache = ReplicationCache(tmp_path, kernel_version="pinned")
        cache.put("k", PINNED)
        cache.put("k5", tuple(PINNED)[:5])
        assert (tmp_path / "k.json").read_text() == CACHE_ENTRY
        assert (tmp_path / "k5.json").read_text() == CACHE_ENTRY_NO_LOSS

    def test_checkpoint_text_is_pinned(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "sweep.jsonl")
        cp.record((2.5, "ORR(-10%)", 3), PINNED)
        cp.record(7, tuple(PINNED)[:5])
        assert cp.path.read_text() == CHECKPOINT_TEXT

    def test_pinned_text_reads_back(self, tmp_path):
        (tmp_path / "k.json").write_text(CACHE_ENTRY)
        got = ReplicationCache(tmp_path, kernel_version="pinned").get("k")
        assert isinstance(got, Outcome)
        assert got[:4] == PINNED[:4] and got.loss_rate == PINNED.loss_rate
        np.testing.assert_array_equal(got.dispatch_fractions,
                                      PINNED.dispatch_fractions)

        (tmp_path / "sweep.jsonl").write_text(CHECKPOINT_TEXT)
        done = SweepCheckpoint(tmp_path / "sweep.jsonl").load()
        assert done[(2.5, "ORR(-10%)", 3)][:4] == PINNED[:4]
        assert done[7].loss_rate == 0.0
