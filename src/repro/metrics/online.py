"""Streaming statistics and online workload estimators.

Two families live here:

* :class:`RunningStats` — Welford/Chan streaming mean/variance for
  million-job runs (per-server → system merges, chunked fast-path
  batches).
* The quasi-static service estimators.  The paper's Algorithm 1 takes
  λ, μ, and the speed vector as *known* constants; a long-running
  service has to estimate them from the live stream.  The control loop
  (:mod:`repro.service`) periodically re-solves Theorems 1–3 over:

  - :class:`EwmaEstimator` — bias-corrected exponentially weighted
    moving average, the building block for level-like quantities
    (mean job size, per-server effective speed);
  - :class:`EwmaRateEstimator` — arrival rate as the reciprocal of an
    EWMA over inter-arrival gaps;
  - :class:`WindowedRateEstimator` — arrival rate as an event count
    over a sliding time window: forgets a step change completely one
    window after it happens, at the cost of more variance.  The window
    is a float64 buffer evicted by one ``searchsorted`` per batch;
  - :class:`ServerSpeedEstimator` — per-server effective speed from
    observed (size, service-time) pairs, nominal-seeded;
  - :class:`P2Quantile` — the Jain–Chlamtac P² streaming quantile
    estimator: five markers, constant memory, no stored samples — the
    response-time p50/p99 the service's SLO gate steers by.
    :meth:`P2Quantile.update_many` folds one batch into several
    estimators in a single compiled pass;
  - :class:`OnlineWorkloadEstimator` — the facade the service feeds:
    per-arrival and per-completion hooks in, a
    :class:`WorkloadEstimate` snapshot (λ̂, m̂, ŝ, ρ̂) out.  A
    membership mask (set by the failure detector) restricts the
    capacity in ρ̂ to the servers currently up.

  All estimators are deterministic functions of the observation
  sequence (no hidden randomness), so service runs replay
  bit-identically under a fixed seed; every batch form leaves the
  state its per-element form leaves, bit for bit.  The rate estimators
  reject non-finite and decreasing timestamps with a ValueError.
  Each one exposes ``state_dict()``/``load_state()`` returning plain
  JSON-serializable values, so the crash-safe service checkpoints can
  snapshot and restore estimator state exactly (floats round-trip
  bit-identically through JSON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def _ckernel():
    """The compiled-kernel module, imported lazily.

    :mod:`repro.sim` imports this module (fastpath uses
    :class:`RunningStats`), so the dependency must not exist at import
    time.  The batch folds below call this once per window — a
    ``sys.modules`` lookup, not a re-import.
    """
    from ..sim import ckernel

    return ckernel


def _finite_time(t: float) -> float:
    """*t* as a float, or a ValueError naming a NaN/infinite timestamp."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"timestamps must be finite, got {t}")
    return t


def _check_times(times: np.ndarray, last: float | None) -> np.ndarray:
    """Validate a timestamp batch; return its steps from *last*.

    Raises ValueError unless every timestamp is finite and the batch is
    non-decreasing, starting no earlier than *last* (the previous
    timestamp, or None).  Returns the successive differences, the first
    one against *last* when given.  A NaN anywhere makes a step NaN,
    which fails ``>= 0``; past that, finite end points bound every
    element, so checking the two ends covers the whole batch.
    """
    steps = np.diff(times) if last is None else np.diff(times, prepend=last)
    if (
        (steps.size == 0 or steps.min() >= 0.0)
        and math.isfinite(times[0])
        and math.isfinite(times[-1])
    ):
        return steps
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"timestamps must be finite, got {float(bad[0])}")
    seq = times if last is None else np.concatenate(([last], times))
    i = int(np.flatnonzero(~(steps >= 0.0))[0])
    raise ValueError(
        f"timestamps must be non-decreasing ({float(seq[i + 1])} after "
        f"{float(seq[i])})"
    )


__all__ = [
    "RunningStats",
    "EwmaEstimator",
    "EwmaRateEstimator",
    "WindowedRateEstimator",
    "ServerSpeedEstimator",
    "P2Quantile",
    "WorkloadEstimate",
    "OnlineWorkloadEstimator",
    "LatencyStats",
]


class RunningStats:
    """Numerically stable streaming mean/variance/extremes."""

    __slots__ = ("count", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, x: float) -> None:
        """Fold one observation in (Welford update)."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self._total += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def add_array(self, xs: np.ndarray) -> None:
        """Fold a whole array in at once (vectorized, then merged)."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return
        other = RunningStats()
        other.count = int(xs.size)
        # One pairwise sum serves both aggregates: numpy's mean is the
        # same pairwise sum divided by the count, bit for bit.
        other._total = float(xs.sum())
        other._mean = other._total / other.count
        other._m2 = float(((xs - other._mean) ** 2).sum())
        other._min = float(xs.min())
        other._max = float(xs.max())
        self.merge(other)

    def merge(self, other: "RunningStats") -> None:
        """Combine another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            self._total = other._total
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total = n1 + n2
        self._mean += delta * n2 / total
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self.count = total
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def total(self) -> float:
        return self._total

    @property
    def variance(self) -> float:
        """Population variance (the paper's fairness metric is a plain
        standard deviation over all jobs, not a sample estimate)."""
        if self.count == 0:
            raise ValueError("no observations")
        return self._m2 / self.count

    @property
    def sample_variance(self) -> float:
        if self.count < 2:
            raise ValueError("need at least two observations")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def sample_std(self) -> float:
        return math.sqrt(max(self.sample_variance, 0.0))

    @property
    def min(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def max(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            return "RunningStats(empty)"
        return f"RunningStats(n={self.count}, mean={self.mean:.6g}, std={self.std:.6g})"


# ----------------------------------------------------------------------
# Quasi-static service estimators
# ----------------------------------------------------------------------


class EwmaEstimator:
    """Bias-corrected exponentially weighted moving average.

    Standard recursion ``raw ← (1−w)·raw + w·x`` with the warm-up
    normalization ``raw / (1 − (1−w)^k)`` so early estimates are the
    weighted mean of the observations seen so far rather than being
    pulled toward the arbitrary zero initialization.  The effective
    memory is ≈ 1/w observations.
    """

    __slots__ = ("weight", "_raw", "_norm", "count")

    def __init__(self, weight: float):
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must lie in (0, 1], got {weight}")
        self.weight = float(weight)
        self.reset()

    def reset(self) -> None:
        self._raw = 0.0
        self._norm = 0.0
        self.count = 0

    def update(self, x: float) -> float:
        keep = 1.0 - self.weight
        self._raw = keep * self._raw + self.weight * float(x)
        self._norm = keep * self._norm + self.weight
        self.count += 1
        return self.value

    def update_batch(self, xs) -> None:
        """Fold a batch of observations, oldest first.

        Bit-identical to calling :meth:`update` per element: the
        compiled fold runs the same ``keep·state + w·x`` recursion with
        the same doubles, and the fallback *is* the per-element loop.
        """
        xs = np.ascontiguousarray(xs, dtype=float)
        if xs.size == 0:
            return
        ck = _ckernel()
        fn = ck.ewma_fn()
        if fn is None:
            for x in xs:
                self.update(float(x))
            return
        state = ck.arena().f64("ewma.state", 2)
        state[0] = self._raw
        state[1] = self._norm
        ck.ewma_fold_c(fn, state, self.weight, xs)
        self._raw = float(state[0])
        self._norm = float(state[1])
        self.count += int(xs.size)

    @property
    def value(self) -> float:
        """Current estimate (NaN before the first observation)."""
        if self.count == 0:
            return math.nan
        return self._raw / self._norm

    def state_dict(self) -> dict:
        return {"raw": self._raw, "norm": self._norm, "count": self.count}

    def load_state(self, state: dict) -> None:
        self._raw = float(state["raw"])
        self._norm = float(state["norm"])
        self.count = int(state["count"])


class EwmaRateEstimator:
    """Arrival rate as the reciprocal of an EWMA over inter-arrival gaps.

    Feed it event timestamps in non-decreasing order; ``rate()`` is
    1/(mean gap).  Smooth but slow to forget: after a step change it
    converges geometrically with the EWMA weight rather than snapping
    after one window.
    """

    __slots__ = ("_gaps", "_last")

    def __init__(self, weight: float = 0.05):
        self._gaps = EwmaEstimator(weight)
        self._last: float | None = None

    def reset(self) -> None:
        self._gaps.reset()
        self._last = None

    def observe(self, t: float) -> None:
        t = _finite_time(t)
        if self._last is not None:
            gap = t - self._last
            if gap < 0.0:
                raise ValueError(
                    f"timestamps must be non-decreasing ({t} after {self._last})"
                )
            if gap > 0.0:
                self._gaps.update(gap)
        self._last = t

    def observe_batch(self, times) -> None:
        """Fold a batch of non-decreasing timestamps in at once.

        Same final state as per-element :meth:`observe` calls: the gaps
        are the identical ``t_i − t_{i−1}`` differences (the first one
        against the carried last timestamp) and the zero-gap filter
        matches the scalar path's ``gap > 0`` guard.
        """
        times = np.ascontiguousarray(times, dtype=float)
        if times.size == 0:
            return
        gaps = _check_times(times, self._last)
        self._gaps.update_batch(gaps[gaps > 0.0])
        self._last = float(times[-1])

    def rate(self, now: float | None = None) -> float:
        """Events per unit time (0.0 until two distinct timestamps)."""
        gap = self._gaps.value
        if not math.isfinite(gap) or gap <= 0.0:
            return 0.0
        return 1.0 / gap

    def state_dict(self) -> dict:
        return {"gaps": self._gaps.state_dict(), "last": self._last}

    def load_state(self, state: dict) -> None:
        last = state["last"]
        last = None if last is None else _finite_time(last)
        self._gaps.load_state(state["gaps"])
        self._last = last


class WindowedRateEstimator:
    """Arrival rate as an event count over a sliding time window.

    Keeps the timestamps of the last ``window`` time units and reports
    ``count / window`` — clock time in the denominator, so an emptying
    window honestly decays toward 0 instead of freezing at the last
    rate.  During the first window after t=0 the denominator is the
    elapsed time, keeping early estimates unbiased.

    The timestamps live in an append-only float64 buffer: the live
    window is ``_buf[_head:_end]``, sorted because input must be
    non-decreasing.  Eviction only advances ``_head``; an append that
    would run past the end first compacts the live slice to the front,
    and the capacity doubles only when the live slice plus the new
    timestamps do not fit.
    """

    __slots__ = ("window", "_buf", "_view", "_head", "_end")

    #: Initial buffer capacity (timestamps).
    _MIN_CAPACITY = 64

    def __init__(self, window: float):
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self._set_buffer(np.empty(self._MIN_CAPACITY))
        self._head = 0
        self._end = 0

    def reset(self) -> None:
        self._head = 0
        self._end = 0

    def _set_buffer(self, buf: np.ndarray) -> None:
        # The memoryview gives the per-job path builtin-float element
        # access, several times cheaper than numpy scalar indexing.
        self._buf = buf
        self._view = memoryview(buf)

    def _reserve(self, k: int) -> None:
        """Make room for *k* more timestamps after ``_end``."""
        buf = self._buf
        if self._end + k <= buf.size:
            return
        live = self._end - self._head
        cap = buf.size
        while live + k > cap:
            cap *= 2
        if cap > buf.size:
            grown = np.empty(cap)
            grown[:live] = buf[self._head : self._end]
            self._set_buffer(grown)
        else:
            buf[:live] = buf[self._head : self._end]
        self._head = 0
        self._end = live

    def observe(self, t: float) -> None:
        t = _finite_time(t)
        buf, head, end = self._view, self._head, self._end
        if end > head and t < buf[end - 1]:
            raise ValueError(
                f"timestamps must be non-decreasing ({t} after {buf[end - 1]})"
            )
        if end == len(buf):
            self._reserve(1)
            buf, head, end = self._view, self._head, self._end
        buf[end] = t
        self._end = end + 1
        # Scalar eviction: the per-job path allocates no array.  It
        # stops at ``t`` itself at the latest (t >= t - window).
        cutoff = t - self.window
        while buf[head] < cutoff:
            head += 1
        self._head = head

    def observe_batch(self, times) -> None:
        """Append a batch of non-decreasing timestamps at once.

        Identical final window to per-element :meth:`observe` calls:
        evictions only ever drop the front against the *latest*
        timestamp's cutoff, so one eviction at the end removes exactly
        the union of what the per-element evictions would.
        """
        times = np.asarray(times, dtype=float)
        k = int(times.size)
        if k == 0:
            return
        live = self._end > self._head
        _check_times(times, float(self._buf[self._end - 1]) if live else None)
        self._reserve(k)
        self._buf[self._end : self._end + k] = times
        self._end += k
        self._evict(float(times[-1]) - self.window)

    def _evict(self, cutoff: float) -> None:
        """Drop every timestamp below *cutoff* — the live slice is
        sorted, so that is one ``searchsorted`` prefix."""
        self._head += int(
            np.searchsorted(
                self._buf[self._head : self._end], cutoff, side="left"
            )
        )

    def rate(self, now: float) -> float:
        """Events per unit time over ``[now − window, now]``."""
        now = float(now)
        if math.isnan(now):
            raise ValueError("rate needs a time, got nan")
        self._evict(now - self.window)
        span = min(now, self.window)
        count = self._end - self._head
        if span <= 0.0 or count == 0:
            return 0.0
        return count / span

    def state_dict(self) -> dict:
        return {"times": self._buf[self._head : self._end].tolist()}

    def load_state(self, state: dict) -> None:
        times = np.array([float(t) for t in state["times"]], dtype=float)
        if times.size:
            _check_times(times, None)
        self._set_buffer(np.empty(max(self._MIN_CAPACITY, times.size)))
        self._buf[: times.size] = times
        self._head = 0
        self._end = int(times.size)


class ServerSpeedEstimator:
    """Per-server effective speed from observed (size, service-time) pairs.

    A completed job of size x that held the server for τ time units
    witnessed speed x/τ; each server keeps an EWMA of those witnesses.
    Servers that have not completed a job yet report their nominal
    speed, so a freshly zero-shared server does not poison the solver
    with NaN.
    """

    __slots__ = ("nominal", "_ewmas")

    def __init__(self, nominal_speeds, weight: float = 0.05):
        self.nominal = np.asarray(nominal_speeds, dtype=float).copy()
        if self.nominal.ndim != 1 or self.nominal.size == 0:
            raise ValueError("nominal_speeds must be a non-empty 1-D vector")
        if np.any(self.nominal <= 0.0):
            raise ValueError(f"speeds must be positive, got {self.nominal}")
        self._ewmas = [EwmaEstimator(weight) for _ in range(self.nominal.size)]

    def reset(self) -> None:
        for e in self._ewmas:
            e.reset()

    def reset_server(self, server: int) -> None:
        """Forget one server's witnesses — it reports nominal again.

        The rejoin warm-up guard: a restarted server's pre-crash EWMA
        is stale state, so it re-enters the solver at nominal speed
        until fresh completions arrive.
        """
        self._ewmas[server].reset()

    def observe(self, server: int, size: float, service_time: float) -> None:
        if service_time <= 0.0:
            raise ValueError(f"service_time must be positive, got {service_time}")
        self._ewmas[server].update(float(size) / float(service_time))

    def observe_grouped(self, witnesses: np.ndarray, offsets) -> None:
        """Fold server-grouped speed witnesses (``size/service_time``).

        ``witnesses`` holds every completion's witnessed speed with
        server ``s`` owning the slice ``[offsets[s], offsets[s+1])`` in
        within-server completion order.  Identical final state to
        per-job :meth:`observe` calls in arrival order: per-server
        EWMAs are independent and a stable grouping preserves each
        server's observation order.  Witness positivity is the caller's
        contract (the replay path guarantees ``service_time > 0``).
        """
        for s, e in enumerate(self._ewmas):
            lo = int(offsets[s])
            hi = int(offsets[s + 1])
            if hi > lo:
                e.update_batch(witnesses[lo:hi])

    def speeds(self) -> np.ndarray:
        """Current estimate per server (nominal where no data yet)."""
        out = self.nominal.copy()
        for i, e in enumerate(self._ewmas):
            if e.count > 0:
                out[i] = e.value
        return out

    def state_dict(self) -> dict:
        return {"ewmas": [e.state_dict() for e in self._ewmas]}

    def load_state(self, state: dict) -> None:
        states = state["ewmas"]
        if len(states) != len(self._ewmas):
            raise ValueError(
                f"speed state has {len(states)} servers, expected {len(self._ewmas)}"
            )
        for e, s in zip(self._ewmas, states):
            e.load_state(s)


class P2Quantile:
    """Streaming quantile estimation by the P² algorithm.

    Jain & Chlamtac (CACM 1985): five markers track the running
    estimate of the *p*-quantile plus the extremes and two midpoints,
    adjusted per observation by a piecewise-parabolic interpolation —
    O(1) memory and time, no stored samples.  Until five observations
    have arrived the estimate is the exact (linearly interpolated)
    sample quantile of what has been seen.

    The update is a deterministic function of the observation sequence,
    so a service run's p50/p99 replay bit-identically, and the five
    markers serialize losslessly for crash-safe checkpoints.
    """

    __slots__ = ("p", "count", "_init", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {p}")
        self.p = float(p)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self._init: list[float] = []
        self._q: list[float] | None = None  # marker heights
        self._n: list[float] | None = None  # actual marker positions
        self._np: list[float] | None = None  # desired marker positions
        self._dn: tuple[float, ...] = ()

    def _start(self) -> None:
        self._init.sort()
        self._q = list(self._init)
        self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
        p = self.p
        self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
        self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        self._init = []

    def update(self, x: float) -> None:
        x = float(x)
        self.count += 1
        if self._q is None:
            self._init.append(x)
            if len(self._init) == 5:
                self._start()
            return
        q, n, np_ = self._q, self._n, self._np
        # Locate the cell k with q[k] <= x < q[k+1], extremes absorbed.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            if x > q[4]:
                q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            np_[i] += self._dn[i]
        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, d)
                if not q[i - 1] < cand < q[i + 1]:
                    cand = self._linear(i, d)
                q[i] = cand
                n[i] += d

    def update_batch(self, xs) -> None:
        """Fold a batch of observations, oldest first.

        Bit-identical to per-element :meth:`update` calls; the one-set
        case of :meth:`update_many`.
        """
        P2Quantile.update_many((self,), xs)

    @staticmethod
    def update_many(quantiles, xs) -> None:
        """Fold the same batch into several estimators, oldest first.

        Bit-identical to per-element :meth:`update` calls on each one.
        Each estimator first takes elements through Python until its
        five-sample warm-up completes — so each starts the compiled
        part at its own index — then one compiled call folds the rest
        into every marker set (the exact locate/shift/parabolic/linear
        operation order per set).  Without the kernel the rest goes
        through the same Python loop, one estimator at a time.
        """
        xs = np.ascontiguousarray(xs, dtype=float)
        total = int(xs.size)
        live = []
        for q in quantiles:
            i = 0
            while q._q is None and i < total:
                q.update(float(xs[i]))
                i += 1
            if i < total:
                live.append((q, i))
        if not live:
            return
        ck = _ckernel()
        fn = ck.p2_fn()
        if fn is None:
            for q, i in live:
                for x in xs[i:].tolist():
                    q.update(x)
            return
        a = ck.arena()
        sets = a.f64("p2.sets", 20 * len(live)).reshape(len(live), 20)
        starts = a.i64("p2.starts", len(live))
        for row, (q, i) in enumerate(live):
            sets[row] = q._q + q._n + q._np + list(q._dn)
            starts[row] = i
        ck.p2_fold_many_c(fn, sets, starts, xs)
        for row, (q, i) in zip(sets.tolist(), live):
            q._q = row[0:5]
            q._n = row[5:10]
            q._np = row[10:15]
            q.count += total - i

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before any observation)."""
        if self._q is not None:
            return self._q[2]
        if not self._init:
            return math.nan
        s = sorted(self._init)
        h = (len(s) - 1) * self.p
        lo = math.floor(h)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (h - lo) * (s[hi] - s[lo])

    def state_dict(self) -> dict:
        return {
            "p": self.p,
            "count": self.count,
            "init": list(self._init),
            "q": None if self._q is None else list(self._q),
            "n": None if self._n is None else list(self._n),
            "np": None if self._np is None else list(self._np),
        }

    def load_state(self, state: dict) -> None:
        if float(state["p"]) != self.p:
            raise ValueError(
                f"checkpointed quantile {state['p']} does not match {self.p}"
            )
        self.reset()
        self.count = int(state["count"])
        self._init = [float(x) for x in state["init"]]
        if state["q"] is not None:
            p = self.p
            self._q = [float(x) for x in state["q"]]
            self._n = [float(x) for x in state["n"]]
            self._np = [float(x) for x in state["np"]]
            self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)


@dataclass(frozen=True)
class WorkloadEstimate:
    """One control-loop snapshot of the estimated workload parameters.

    ``up`` is the membership mask the failure detector reported —
    ``None`` means every server is believed up.  ``utilization`` is the
    offered load over the *surviving* capacity, which is the quantity a
    failure-aware re-solve needs.
    """

    arrival_rate: float
    mean_size: float
    speeds: np.ndarray
    utilization: float
    up: np.ndarray | None = None

    @property
    def usable(self) -> bool:
        """True when every field is finite and positive enough to solve."""
        speeds = self.speeds if self.up is None else self.speeds[self.up]
        return (
            math.isfinite(self.arrival_rate)
            and self.arrival_rate > 0.0
            and math.isfinite(self.mean_size)
            and self.mean_size > 0.0
            and speeds.size > 0
            and bool(np.all(np.isfinite(speeds)))
            and bool(np.all(speeds > 0.0))
        )


class OnlineWorkloadEstimator:
    """Facade tying the stream observations to a solver-ready snapshot.

    The service calls :meth:`observe_arrival` for every arriving job —
    admitted or shed, since the *offered* load is what sizing must
    track — and :meth:`observe_service` for every completed job; ρ̂
    follows as λ̂·m̂ / Σŝᵢ, estimated offered load over estimated
    capacity.  The failure detector narrows the capacity sum to the
    surviving servers via :meth:`set_membership`, so a snapshot taken
    while machines are down reports the utilization the survivors
    actually face.
    """

    def __init__(
        self,
        nominal_speeds,
        *,
        window: float,
        ewma_weight: float = 0.05,
    ):
        self.windowed_rate = WindowedRateEstimator(window)
        self.ewma_rate = EwmaRateEstimator(ewma_weight)
        self.mean_size = EwmaEstimator(ewma_weight)
        self.speed = ServerSpeedEstimator(nominal_speeds, ewma_weight)
        self.arrivals_seen = 0
        self._up: np.ndarray | None = None  # None = everything up

    def observe_arrival(self, t: float, size: float) -> None:
        self.windowed_rate.observe(t)
        self.ewma_rate.observe(t)
        self.mean_size.update(size)
        self.arrivals_seen += 1

    def observe_arrivals(self, times: np.ndarray, sizes: np.ndarray) -> None:
        """Batch form of :meth:`observe_arrival` (one window at once).

        Same final estimator state as the per-job loop — each
        constituent batch fold is bit-identical to its scalar
        recursion.
        """
        if times.size == 0:
            return
        self.windowed_rate.observe_batch(times)
        self.ewma_rate.observe_batch(times)
        self.mean_size.update_batch(sizes)
        self.arrivals_seen += int(times.size)

    def observe_service(self, server: int, size: float, service_time: float) -> None:
        self.speed.observe(server, size, service_time)

    def observe_services_grouped(self, witnesses: np.ndarray, offsets) -> None:
        """Batch form of :meth:`observe_service` over one window.

        ``witnesses`` are the server-grouped ``size/service_time``
        values (see :meth:`ServerSpeedEstimator.observe_grouped`).
        """
        self.speed.observe_grouped(witnesses, offsets)

    def set_membership(self, up) -> None:
        """Record which servers are up (failure-detector health signal).

        An all-up mask restores the fault-free snapshot path exactly.
        """
        up = np.asarray(up, dtype=bool)
        if up.shape != self.speed.nominal.shape:
            raise ValueError(
                f"membership mask has {up.size} entries for "
                f"{self.speed.nominal.size} servers"
            )
        self._up = None if bool(up.all()) else up.copy()

    def arrival_rate(self, now: float) -> float:
        """Windowed estimate, EWMA fallback before the window has data."""
        rate = self.windowed_rate.rate(now)
        if rate > 0.0:
            return rate
        return self.ewma_rate.rate(now)

    def snapshot(self, now: float) -> WorkloadEstimate:
        lam = self.arrival_rate(now)
        mean_size = self.mean_size.value
        speeds = self.speed.speeds()
        if self._up is None:
            capacity = float(speeds.sum())
        else:
            capacity = float(speeds[self._up].sum())
        if (
            lam > 0.0
            and math.isfinite(mean_size)
            and mean_size > 0.0
            and capacity > 0.0
        ):
            rho = lam * mean_size / capacity
        else:
            rho = math.nan
        return WorkloadEstimate(
            arrival_rate=lam,
            mean_size=mean_size,
            speeds=speeds,
            utilization=rho,
            up=None if self._up is None else self._up.copy(),
        )

    def state_dict(self) -> dict:
        return {
            "windowed_rate": self.windowed_rate.state_dict(),
            "ewma_rate": self.ewma_rate.state_dict(),
            "mean_size": self.mean_size.state_dict(),
            "speed": self.speed.state_dict(),
            "arrivals_seen": self.arrivals_seen,
            "up": None if self._up is None else [bool(u) for u in self._up],
        }

    def load_state(self, state: dict) -> None:
        self.windowed_rate.load_state(state["windowed_rate"])
        self.ewma_rate.load_state(state["ewma_rate"])
        self.mean_size.load_state(state["mean_size"])
        self.speed.load_state(state["speed"])
        self.arrivals_seen = int(state["arrivals_seen"])
        up = state["up"]
        self._up = None if up is None else np.asarray(up, dtype=bool)


class LatencyStats:
    """Streaming wall-clock latency accounting for the dispatch plane.

    The networked orchestrator times each window's decision work
    (estimator folds, admission mask, Algorithm 2 batch, partition) and
    folds the measurement here: running mean/extremes over per-window
    latencies plus streaming P² tail quantiles, and the job count the
    time was spent on, so ``bench --net`` can report an amortized
    ``dispatch_ns_per_job`` without keeping per-window samples.
    """

    __slots__ = ("windows", "jobs", "p50", "p99")

    def __init__(self):
        self.windows = RunningStats()
        self.jobs = 0
        self.p50 = P2Quantile(0.5)
        self.p99 = P2Quantile(0.99)

    def observe(self, seconds: float, jobs: int = 0) -> None:
        """Fold one window's decision latency covering *jobs* jobs."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self.windows.add(float(seconds))
        self.jobs += int(jobs)
        self.p50.update(float(seconds))
        self.p99.update(float(seconds))

    @property
    def total_seconds(self) -> float:
        return self.windows.total

    @property
    def ns_per_job(self) -> float:
        """Amortized decision cost; NaN before any jobs were decided."""
        if self.jobs == 0:
            return math.nan
        return self.windows.total * 1e9 / self.jobs

    def as_dict(self) -> dict:
        return {
            "windows": self.windows.count,
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "ns_per_job": self.ns_per_job,
            "window_p50_s": self.p50.value,
            "window_p99_s": self.p99.value,
        }
