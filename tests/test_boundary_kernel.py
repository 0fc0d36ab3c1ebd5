"""The control boundary and the serving dispatcher against their oracles.

``QuasiStaticController.resolve`` runs its numeric steps — snapshot,
the usable test, the survivor re-solve, the delta and the swap rule —
as one compiled call (``boundary_resolve``) when the kernel is loaded,
and its Python body otherwise.  The two must return the same decision
and leave the same controller, byte for byte, over every branch: the
unusable estimates (no arrivals, a NaN mean size, no survivor with a
positive speed), membership changes with usable and unusable
estimates, total outage, a delta exactly at ``swap_tolerance`` and SLO
mode.

``SequenceRoundRobin`` walks Algorithm 2 from live state; after any
run of swaps and batch sizes that state must be the one a
:class:`RoundRobinDispatcher` reaches, and a position checkpoint must
continue the same sequence.  This file runs with the kernel loaded and
with ``REPRO_DISABLE_CKERNEL=1`` (the boundary comparison then skips).
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch.round_robin import RoundRobinDispatcher, SequenceRoundRobin
from repro.metrics.online import WorkloadEstimate
from repro.service.controller import QuasiStaticController
from repro.sim import ckernel

needs_boundary = pytest.mark.skipif(
    ckernel.entry("boundary") is None, reason="compiled boundary unavailable"
)

WINDOW = 50.0


def _bits(x):
    """*x* with every float as its bytes, recursively."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, WorkloadEstimate):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _decision_bits(decision):
    return {f.name: _bits(getattr(decision, f.name))
            for f in dataclasses.fields(decision)}


def _controller_bits(c: QuasiStaticController):
    return {
        "state": _bits(c.state_dict()),
        "alphas": _bits(c.alphas),
        "up": _bits(c.up),
        "estimator": _bits(c.estimator._state),
        "p2": _bits(c._p2),
        "dirty": c._membership_dirty,
    }


def _python(fn, *args):
    """*fn* with the kernel switched off."""
    saved = ckernel._fns
    ckernel._fns = False
    try:
        return fn(*args)
    finally:
        ckernel._fns = saved


@dataclasses.dataclass
class Case:
    """One controller state, rebuilt identically as often as needed."""

    speeds: np.ndarray
    times: np.ndarray
    sizes: np.ndarray
    witnesses: list  # per server: its speed witnesses
    responses: np.ndarray
    nan_mean: bool
    bad_speed: float | None  # every server's speed EWMA reads this
    alphas: np.ndarray | None
    down: list
    reup: list
    slo: float | None
    min_arrivals: int
    tol: float
    now: float

    def build(self, tol=None) -> QuasiStaticController:
        c = QuasiStaticController(
            self.speeds, window=WINDOW,
            swap_tolerance=self.tol if tol is None else tol,
            slo_target=self.slo, min_responses_to_shed=5,
            min_arrivals_to_shed=self.min_arrivals,
        )
        if self.times.size:
            c.observe_arrivals(self.times, self.sizes)
        offsets = np.cumsum([0] + [len(w) for w in self.witnesses])
        witnesses = np.concatenate([np.asarray(w, float) for w in self.witnesses])
        c.observe_services_grouped(witnesses, offsets, self.responses)
        est = c.estimator
        if self.nan_mean:
            est.mean_size.load_state({"raw": math.nan, "norm": 1.0, "count": 3})
        if self.bad_speed is not None:
            for e in est.speed._ewmas:
                e.load_state({"raw": self.bad_speed, "norm": 1.0, "count": 1})
        if self.alphas is not None:
            c.alphas = self.alphas.copy()
        for s in self.down:
            c.mark_server_down(s, self.now)
        for s in self.reup:
            c.mark_server_up(s, self.now)
        return c


@st.composite
def cases(draw):
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    speeds = rng.lognormal(0.0, 1.0, n)
    k = draw(st.sampled_from([0, 0, 1, 7, 60, 300]))
    span = draw(st.sampled_from([1.0, 40.0, 200.0]))
    times = np.sort(rng.uniform(0.0, span, k))
    sizes = rng.exponential(1.0, k)
    witnesses = [
        rng.lognormal(np.log(s), 0.3, draw(st.integers(0, 4))).tolist()
        if draw(st.booleans()) else []
        for s in speeds
    ]
    responses = rng.exponential(2.0, draw(st.sampled_from([0, 3, 40])))
    membership = draw(st.sampled_from(["none", "some", "all", "flap"]))
    order = rng.permutation(n).tolist()
    down = {"none": [], "some": order[: rng.integers(1, n + 1)],
            "all": order, "flap": order[:1]}[membership]
    reup = order[:1] if membership == "flap" else []
    alphas = None
    if draw(st.booleans()):
        alphas = rng.dirichlet(np.ones(n))
        if draw(st.integers(0, 3)) == 0:  # as a checkpoint can restore it
            alphas[rng.integers(n)] = math.nan
    last = float(times[-1]) if k else 0.0
    return Case(
        speeds=speeds, times=times, sizes=sizes, witnesses=witnesses,
        responses=responses,
        nan_mean=draw(st.booleans()) and k > 0,
        bad_speed=draw(st.sampled_from(
            [None, None, None, 0.0, -1.0, math.inf, math.nan])),
        alphas=alphas, down=down, reup=reup,
        slo=draw(st.sampled_from([None, 0.5, 100.0])),
        min_arrivals=draw(st.sampled_from([1, 200])),
        tol=draw(st.sampled_from([0.0, 0.01, 0.3])),
        now=last + draw(st.sampled_from([0.0, 1.0, 3 * WINDOW])),
    )


def _compare(case: Case, tol=None) -> None:
    compiled, python = case.build(tol), case.build(tol)
    assert _controller_bits(compiled) == _controller_bits(python)
    got = compiled.resolve(case.now)
    want = _python(python.resolve, case.now)
    assert _decision_bits(got) == _decision_bits(want)
    assert _controller_bits(compiled) == _controller_bits(python)


@needs_boundary
@given(case=cases(), at_tolerance=st.booleans())
@settings(max_examples=400, deadline=None)
def test_compiled_boundary_matches_python_body(case, at_tolerance):
    tol = None
    if at_tolerance:
        probe = case.build()
        _, _, delta, _ = _python(probe._boundary, case.now,
                                 probe._membership_dirty)
        if delta is not None and math.isfinite(delta):
            tol = delta
    _compare(case, tol)


def _usable_case(n=4, **changes) -> Case:
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 40.0, 200))
    base = Case(
        speeds=np.arange(1.0, n + 1.0), times=times,
        sizes=rng.exponential(1.0, 200),
        witnesses=[[s * 1.1, s * 0.9] for s in range(1, n + 1)],
        responses=rng.exponential(2.0, 40), nan_mean=False, bad_speed=None,
        alphas=None, down=[], reup=[], slo=None, min_arrivals=200,
        tol=0.01, now=40.0,
    )
    return dataclasses.replace(base, **changes)


@needs_boundary
@pytest.mark.parametrize("changes", [
    {},
    {"times": np.empty(0), "sizes": np.empty(0)},  # no arrivals
    {"nan_mean": True},
    {"bad_speed": 0.0},
    {"bad_speed": -2.0},
    {"down": [1]},  # membership, usable estimate
    {"down": [1], "nan_mean": True},  # membership, unusable: out-of-band
    {"down": [0, 1, 2, 3]},  # total outage
    {"down": [0, 1, 2, 3], "nan_mean": True},
    {"down": [2], "reup": [2]},  # a flap: membership with every server up
    {"slo": 0.1},
    {"slo": 0.1, "down": [3]},
    {"alphas": np.array([0.25, 0.25, 0.25, 0.25]), "tol": 0.0},
], ids=lambda c: ",".join(c) or "usable")
def test_boundary_branches(changes):
    _compare(_usable_case(**changes))


@needs_boundary
def test_delta_exactly_at_tolerance_keeps_the_sequence():
    case = _usable_case(alphas=np.array([0.1, 0.2, 0.3, 0.4]))
    probe = case.build()
    _, _, delta, _ = _python(probe._boundary, case.now, False)
    assert delta > 0.0
    _compare(case, delta)
    decision = case.build(delta).resolve(case.now)
    assert decision.resolved and not decision.swapped
    assert case.build(np.nextafter(delta, 0.0)).resolve(case.now).swapped


@needs_boundary
def test_out_of_band_plan_differing_at_the_first_server_swaps():
    """The out-of-band swap compares every server's share, the first
    one too (a restored allocation need not sum to one)."""
    case = _usable_case(down=[3], nan_mean=True)
    alphas = _python(case.build().resolve, case.now).alphas.copy()
    alphas[0] = np.nextafter(alphas[0], 1.0)
    case = dataclasses.replace(case, alphas=alphas)
    _compare(case)
    assert case.build().resolve(case.now).swapped


@needs_boundary
def test_resolve_takes_the_compiled_boundary(monkeypatch):
    calls = []
    original = ckernel.boundary_resolve_c

    def spy(*args, **kwargs):
        status, out = original(*args, **kwargs)
        calls.append(status)
        return status, out

    monkeypatch.setattr(ckernel, "boundary_resolve_c", spy)
    _usable_case().build().resolve(40.0)
    _usable_case(nan_mean=True).build().resolve(40.0)
    assert calls == [2, 0]


# ----------------------------------------------------------------------
# The serving dispatcher's live Algorithm 2 state
# ----------------------------------------------------------------------

_WEIGHTS = st.lists(
    st.one_of(st.just(0), st.integers(1, 50)), min_size=1, max_size=9
).filter(any)


def _alphas(weights) -> np.ndarray:
    return np.asarray(weights, dtype=float) / sum(weights)


def _assert_same_state(served: SequenceRoundRobin, oracle: RoundRobinDispatcher):
    assign, nxt, started = served._live()
    assert assign == oracle._assign
    assert [x.hex() for x in nxt] == [x.hex() for x in oracle._next]
    assert started == oracle._started


@pytest.mark.parametrize("path", ["compiled", "python"])
@given(swaps=st.lists(
    st.tuples(_WEIGHTS, st.lists(st.integers(0, 250), min_size=1, max_size=4)),
    min_size=1, max_size=4,
))
@settings(max_examples=100, deadline=None)
def test_live_state_matches_oracle_across_swaps(path, swaps):
    """One dispatcher reseeded at every swap, as the serving window does,
    against a fresh oracle per allocation."""
    saved = ckernel._fns
    if path == "python":
        ckernel._fns = False
    try:
        served = SequenceRoundRobin()
        for weights, chunks in swaps:
            alphas = _alphas(weights)
            served.reset(alphas)
            oracle = RoundRobinDispatcher()
            oracle.reset(alphas)
            for k in chunks:
                got = served.select_batch(np.zeros(k))
                want = oracle.select_batch(np.zeros(k))
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
                _assert_same_state(served, oracle)
            assert served.state_dict()["pos"] == sum(chunks)
    finally:
        ckernel._fns = saved


@pytest.mark.parametrize("path", ["compiled", "python"])
@given(weights=_WEIGHTS, pos=st.integers(0, 600), more=st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_position_checkpoint_continues_the_sequence(path, weights, pos, more):
    alphas = _alphas(weights)
    oracle = RoundRobinDispatcher()
    oracle.reset(alphas)
    want = oracle.select_batch(np.zeros(pos + more))
    # The checkpoint format: guard, allocation and position only.
    state = {"guard_init": 1.0, "alphas": [float(a) for a in alphas],
             "pos": pos}
    saved = ckernel._fns
    if path == "python":
        ckernel._fns = False
    try:
        restored = SequenceRoundRobin()
        restored.load_state(state)
        assert restored.state_dict() == state
        np.testing.assert_array_equal(
            restored.select_batch(np.zeros(more)), want[pos:])
    finally:
        ckernel._fns = saved
    replayed = RoundRobinDispatcher()
    replayed.reset(alphas)
    replayed.select_batch(np.zeros(pos + more))
    _assert_same_state(restored, replayed)


@st.composite
def fractions(draw):
    """Allocation vectors on and around validate_allocation's edges."""
    n = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.dirichlet(np.ones(n)) if n else np.empty(0)
    if n and draw(st.booleans()):
        a[rng.random(n) < 0.3] = 0.0
        if a.sum() > 0:
            a /= a.sum()
    if n:
        i = draw(st.integers(0, n - 1))
        a[i] += draw(st.sampled_from(
            [0.0] * 5 + [5e-10, 1e-9, 1.5e-9, -1e-9, 2e-8, n * 1e-9, -0.5]))
        edge = draw(st.sampled_from(
            [None, None, 0.0, -0.0, -1e-10, -1e-9, -2e-9, 1.0 + 1e-10,
             float("nan"), 1e-300]))
        if edge is not None:
            a[draw(st.integers(0, n - 1))] = edge
    return a


def _seeded(alphas):
    """A reset's outcome: its error, or the dispatcher's state."""
    d = SequenceRoundRobin()
    try:
        d.reset(alphas)
    except ValueError as exc:
        return str(exc)
    n = d.alphas.size
    return (_bits(d.alphas), d._f64[:n].tobytes(),
            d._i64[:d._nactive].tolist(), d._live(), d.state_dict())


@pytest.mark.skipif(ckernel.entry("rr_seed") is None,
                    reason="compiled seed unavailable")
@given(alphas=fractions())
@settings(max_examples=400, deadline=None)
def test_compiled_seed_matches_python_reset(alphas):
    """The compiled reset validates as validate_allocation does and
    seeds the state (clipped fractions included) the Python path does."""
    assert _seeded(alphas) == _python(_seeded, alphas)


def test_literal_position_checkpoint_resumes():
    """A checkpoint as the service writes it, resumed on either class."""
    state = {"guard_init": 1.0, "alphas": [0.1, 0.2, 0.3, 0.4], "pos": 17}
    fresh = RoundRobinDispatcher()
    fresh.reset(np.array(state["alphas"]))
    want = fresh.select_batch(np.zeros(40))[17:]
    for cls in (SequenceRoundRobin, RoundRobinDispatcher):
        d = cls()
        d.load_state(state)
        np.testing.assert_array_equal(d.select_batch(np.zeros(23)), want)
