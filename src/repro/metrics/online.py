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
    response-time p50/p99 the service's SLO gate steers by;
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

**State layout and the compiled estimator step.**  Each estimator keeps
its state in a small float64 block — given as ``storage`` or its own —
read and written through a memoryview, so the per-element methods and
the compiled kernel share one copy:

* EWMA ``[raw, norm, count]``; EWMA rate: its gap EWMA, then the last
  timestamp (NaN before the first); windowed rate ``[head, end,
  window]`` (its timestamps stay in a growable buffer of their own);
  P² ``[count, p, init×5, q×5, n×5, np×5, dn×5]``.
* :class:`OnlineWorkloadEstimator` lays its estimators out in one
  vector: EWMA rate (0–3), size EWMA (4–6), windowed rate (7–9),
  arrivals seen (10), the EWMA weight (11), then one speed EWMA per
  server (12 + 3·s).  The controller's four P² sets are the four blocks
  of a second vector.  ``_pskernel.c`` mirrors these offsets.

A control window then costs one compiled call per half: ``est_arrivals``
(validate the batch — finite, non-decreasing from the carried last
timestamp — fold the positive gaps and the sizes, append to the rate
window and evict once) and ``est_completions`` (fold the server-grouped
speed witnesses into each server's EWMA and the response times into
the four P² sets, five-sample warm-up included); ``est_snapshot``
computes the boundary's :class:`WorkloadEstimate`.  Each runs the
per-element recursions float op for float op, on the state in place:
nothing is packed or unpacked per window.  Without the kernel the
estimators' batch forms (``observe_batch``, ``update_batch``,
``observe_grouped``) and the Python :meth:`OnlineWorkloadEstimator.snapshot`
body run instead, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ck = None


def _ckernel():
    """The compiled-kernel module, imported on first use.

    :mod:`repro.sim` imports this module (fastpath uses
    :class:`RunningStats`), so the dependency must not exist at import
    time.  The estimator step calls this a few times per window.
    """
    global _ck
    if _ck is None:
        from ..sim import ckernel

        _ck = ckernel
    return _ck


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


#: Block widths of the estimator state (``_pskernel.c`` mirrors them):
#: an EWMA ``[raw, norm, count]``; an EWMA rate, its gap EWMA then the
#: last timestamp; a windowed rate ``[head, end, window]``; a P²
#: quantile ``[count, p, init×5, q×5, n×5, np×5, dn×5]``.
_EW, _RATE, _WIN, _P2 = 3, 4, 3, 27
#: :class:`OnlineWorkloadEstimator`'s vector: the EWMA rate, the size
#: EWMA, the windowed rate, arrivals seen, the EWMA weight, then one
#: speed EWMA per server.
_ES_RATE, _ES_SIZE, _ES_WIN, _ES_SEEN, _ES_WEIGHT, _ES_SPEED = 0, 4, 7, 10, 11, 12


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
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

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

    The state is the block ``[raw, norm, count]`` of *storage* (its own
    three doubles when none is given), so a facade can lay several
    estimators out in one vector that the compiled estimator step
    updates in place.
    """

    __slots__ = ("weight", "_s")

    def __init__(self, weight: float, *, storage: np.ndarray | None = None):
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must lie in (0, 1], got {weight}")
        self.weight = float(weight)
        self._s = memoryview(np.zeros(_EW) if storage is None else storage)
        self.reset()

    def reset(self) -> None:
        s = self._s
        s[0] = s[1] = s[2] = 0.0

    def update(self, x: float) -> float:
        s = self._s
        keep = 1.0 - self.weight
        s[0] = keep * s[0] + self.weight * float(x)
        s[1] = keep * s[1] + self.weight
        s[2] += 1.0
        return self.value

    def update_batch(self, xs) -> None:
        """Fold a batch of observations, oldest first, one by one."""
        for x in np.asarray(xs, dtype=float).tolist():
            self.update(x)

    @property
    def count(self) -> int:
        return int(self._s[2])

    @property
    def value(self) -> float:
        """Current estimate (NaN before the first observation)."""
        s = self._s
        if s[2] == 0.0:
            return math.nan
        return s[0] / s[1]

    def state_dict(self) -> dict:
        s = self._s
        return {"raw": s[0], "norm": s[1], "count": int(s[2])}

    def load_state(self, state: dict) -> None:
        s = self._s
        s[0] = float(state["raw"])
        s[1] = float(state["norm"])
        s[2] = int(state["count"])


class EwmaRateEstimator:
    """Arrival rate as the reciprocal of an EWMA over inter-arrival gaps.

    Feed it event timestamps in non-decreasing order; ``rate()`` is
    1/(mean gap).  Smooth but slow to forget: after a step change it
    converges geometrically with the EWMA weight rather than snapping
    after one window.  State: the gap EWMA's block, then the last
    timestamp (NaN before the first).
    """

    __slots__ = ("_gaps", "_s")

    def __init__(self, weight: float = 0.05, *, storage: np.ndarray | None = None):
        storage = np.zeros(_RATE) if storage is None else storage
        self._gaps = EwmaEstimator(weight, storage=storage[:_EW])
        self._s = memoryview(storage)
        self._s[_EW] = math.nan

    def reset(self) -> None:
        self._gaps.reset()
        self._s[_EW] = math.nan

    @property
    def _last(self) -> float | None:
        last = self._s[_EW]
        return None if math.isnan(last) else last

    def observe(self, t: float) -> None:
        t = _finite_time(t)
        last = self._s[_EW]
        if not math.isnan(last):
            gap = t - last
            if gap < 0.0:
                raise ValueError(
                    f"timestamps must be non-decreasing ({t} after {last})"
                )
            if gap > 0.0:
                self._gaps.update(gap)
        self._s[_EW] = t

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
        self._s[_EW] = float(times[-1])

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
        last = math.nan if last is None else _finite_time(last)
        self._gaps.load_state(state["gaps"])
        self._s[_EW] = last


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
    timestamps do not fit.  State: ``[head, end, window]``.
    """

    __slots__ = ("window", "_buf", "_view", "_addr", "_s")

    #: Initial buffer capacity (timestamps).
    _MIN_CAPACITY = 64

    def __init__(self, window: float, *, storage: np.ndarray | None = None):
        if not window > 0.0:  # NaN fails too
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self._s = memoryview(np.zeros(_WIN) if storage is None else storage)
        self._s[2] = self.window
        self._set_buffer(np.empty(self._MIN_CAPACITY))
        self.reset()

    def reset(self) -> None:
        self._s[0] = self._s[1] = 0.0

    @property
    def _head(self) -> int:
        return int(self._s[0])

    @property
    def _end(self) -> int:
        return int(self._s[1])

    def _set_buffer(self, buf: np.ndarray) -> None:
        # The memoryview gives the per-job path builtin-float element
        # access, several times cheaper than numpy scalar indexing; the
        # address is what the compiled estimator step appends through.
        self._buf = buf
        self._view = memoryview(buf)
        self._addr = buf.ctypes.data

    def _reserve(self, k: int) -> None:
        """Make room for *k* more timestamps after ``_end``."""
        buf = self._buf
        head, end = self._head, self._end
        if end + k <= buf.size:
            return
        live = end - head
        cap = buf.size
        while live + k > cap:
            cap *= 2
        if cap > buf.size:
            grown = np.empty(cap)
            grown[:live] = buf[head:end]
            self._set_buffer(grown)
        else:
            buf[:live] = buf[head:end]
        self._s[0] = 0.0
        self._s[1] = live

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
        self._s[1] = end + 1
        # Scalar eviction: the per-job path allocates no array.  It
        # stops at ``t`` itself at the latest (t >= t - window).
        cutoff = t - self.window
        while buf[head] < cutoff:
            head += 1
        self._s[0] = head

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
        head, end = self._head, self._end
        _check_times(times, float(self._buf[end - 1]) if end > head else None)
        self._reserve(k)
        end = self._end
        self._buf[end : end + k] = times
        self._s[1] = end + k
        self._evict(float(times[-1]) - self.window)

    def _evict(self, cutoff: float) -> None:
        """Drop every timestamp below *cutoff* — the live slice is
        sorted, so that is one ``searchsorted`` prefix."""
        head = self._head
        self._s[0] = head + int(
            np.searchsorted(self._buf[head : self._end], cutoff, side="left")
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
        self._s[0] = 0.0
        self._s[1] = times.size


class ServerSpeedEstimator:
    """Per-server effective speed from observed (size, service-time) pairs.

    A completed job of size x that held the server for τ time units
    witnessed speed x/τ; each server keeps an EWMA of those witnesses.
    Servers that have not completed a job yet report their nominal
    speed, so a freshly zero-shared server does not poison the solver
    with NaN.  State: one EWMA block per server, in server order.
    """

    __slots__ = ("nominal", "_nominal_addr", "_ewmas")

    def __init__(self, nominal_speeds, weight: float = 0.05, *,
                 storage: np.ndarray | None = None):
        self.nominal = np.asarray(nominal_speeds, dtype=float).copy()
        if self.nominal.ndim != 1 or self.nominal.size == 0:
            raise ValueError("nominal_speeds must be a non-empty 1-D vector")
        if np.any(self.nominal <= 0.0):
            raise ValueError(f"speeds must be positive, got {self.nominal}")
        self._nominal_addr = self.nominal.ctypes.data
        n = self.nominal.size
        if storage is None:
            storage = np.zeros(_EW * n)
        self._ewmas = [
            EwmaEstimator(weight, storage=storage[_EW * i : _EW * (i + 1)])
            for i in range(n)
        ]

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
            e.update_batch(witnesses[int(offsets[s]) : int(offsets[s + 1])])

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
    markers serialize losslessly for crash-safe checkpoints.  State:
    the block ``[count, p, init×5, q×5, n×5, np×5, dn×5]`` — the
    warm-up samples, marker heights, actual and desired positions and
    the fixed desired-position increments.
    """

    __slots__ = ("p", "_s", "_init", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float, *, storage: np.ndarray | None = None):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {p}")
        self.p = float(p)
        s = memoryview(np.zeros(_P2) if storage is None else storage)
        self._s = s
        self._init, self._q, self._n, self._np, self._dn = (
            s[i : i + 5] for i in range(2, _P2, 5)
        )
        s[1] = p
        for i, d in enumerate((0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)):
            self._dn[i] = d
        self.reset()

    def reset(self) -> None:
        self._s[0] = 0.0

    @property
    def count(self) -> int:
        return int(self._s[0])

    def _start(self) -> None:
        q, n, np_ = self._q, self._n, self._np
        for i, x in enumerate(sorted(self._init.tolist())):
            q[i] = x
            n[i] = float(i)
        p = self.p
        np_[0] = 0.0
        np_[1] = 2.0 * p
        np_[2] = 4.0 * p
        np_[3] = 2.0 + 2.0 * p
        np_[4] = 4.0

    def update(self, x: float) -> None:
        x = float(x)
        s = self._s
        c = s[0]
        s[0] = c + 1.0
        if c < 5.0:
            self._init[int(c)] = x
            if c == 4.0:
                self._start()
            return
        q, n, np_, dn = self._q, self._n, self._np, self._dn
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
            np_[i] += dn[i]
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
        """Fold a batch of observations, oldest first, one by one."""
        for x in np.asarray(xs, dtype=float).tolist():
            self.update(x)

    @staticmethod
    def update_many(quantiles, xs) -> None:
        """Fold the same batch into several estimators, oldest first."""
        for q in quantiles:
            q.update_batch(xs)

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
        c = self.count
        if c >= 5:
            return self._q[2]
        if c == 0:
            return math.nan
        s = sorted(self._init.tolist()[:c])
        h = (len(s) - 1) * self.p
        lo = math.floor(h)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (h - lo) * (s[hi] - s[lo])

    def state_dict(self) -> dict:
        c = self.count
        started = c >= 5
        return {
            "p": self.p,
            "count": c,
            "init": [] if started else self._init.tolist()[:c],
            "q": self._q.tolist() if started else None,
            "n": self._n.tolist() if started else None,
            "np": self._np.tolist() if started else None,
        }

    def load_state(self, state: dict) -> None:
        if float(state["p"]) != self.p:
            raise ValueError(
                f"checkpointed quantile {state['p']} does not match {self.p}"
            )
        count = int(state["count"])
        init = [float(x) for x in state["init"]]
        started = state["q"] is not None
        if started != (count >= 5) or (not started and len(init) != count):
            raise ValueError(
                f"inconsistent quantile state: count {count} with "
                f"{len(init)} warm-up samples and "
                f"{'started' if started else 'no'} markers"
            )
        self._s[0] = count
        for i, x in enumerate(init):
            self._init[i] = x
        if started:
            for dst, key in ((self._q, "q"), (self._n, "n"), (self._np, "np")):
                for i, x in enumerate(state[key]):
                    dst[i] = float(x)


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
            and all(math.isfinite(s) and s > 0.0 for s in speeds.tolist())
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

    Every estimator's state is a block of one float64 vector,
    ``state`` (layout in the module docstring), which the compiled
    estimator step folds a window into in place.
    """

    def __init__(
        self,
        nominal_speeds,
        *,
        window: float,
        ewma_weight: float = 0.05,
    ):
        n = np.asarray(nominal_speeds, dtype=float).size
        self._state = st = np.zeros(_ES_SPEED + _EW * n)
        self.windowed_rate = WindowedRateEstimator(
            window, storage=st[_ES_WIN : _ES_WIN + _WIN]
        )
        self.ewma_rate = EwmaRateEstimator(
            ewma_weight, storage=st[_ES_RATE : _ES_RATE + _RATE]
        )
        self.mean_size = EwmaEstimator(
            ewma_weight, storage=st[_ES_SIZE : _ES_SIZE + _EW]
        )
        self.speed = ServerSpeedEstimator(
            nominal_speeds, ewma_weight, storage=st[_ES_SPEED:]
        )
        st[_ES_WEIGHT] = self.mean_size.weight
        self._addr = st.ctypes.data
        # The compiled snapshot's output (λ̂, m̂, ρ̂, speeds) and scratch.
        self._snap = np.zeros(2 * n + 3)
        self._snap_addr = self._snap.ctypes.data
        self._up: np.ndarray | None = None  # None = everything up
        self._up_addr = None

    @property
    def arrivals_seen(self) -> int:
        return int(self._state[_ES_SEEN])

    def observe_arrival(self, t: float, size: float) -> None:
        self.windowed_rate.observe(t)
        self.ewma_rate.observe(t)
        self.mean_size.update(size)
        self._state[_ES_SEEN] += 1

    def observe_arrivals(self, times: np.ndarray, sizes: np.ndarray) -> None:
        """Batch form of :meth:`observe_arrival` (one window at once).

        One compiled call (``est_arrivals``) validates the batch, then
        folds the gaps and sizes and appends to the rate window — the
        same final state as the per-job loop, and nothing written when
        a timestamp is non-finite or out of order.  Without the kernel,
        each estimator's batch form runs in turn.
        """
        if times.size == 0:
            return
        ck = _ckernel()
        fn = ck.entry("arrivals")
        if fn is None:
            self.windowed_rate.observe_batch(times)
            self.ewma_rate.observe_batch(times)
            self.mean_size.update_batch(sizes)
            self._state[_ES_SEEN] += times.size
            return
        times = np.ascontiguousarray(times, np.float64)
        sizes = np.ascontiguousarray(sizes, np.float64)
        win = self.windowed_rate
        win._reserve(times.size)
        if not ck.est_arrivals_c(fn, self._addr, win._addr, times, sizes):
            # Name the offending timestamp as the batch forms would.
            head, end = win._head, win._end
            _check_times(times, float(win._buf[end - 1]) if end > head else None)
            _check_times(times, self.ewma_rate._last)

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
        self._set_up(None if bool(up.all()) else up.copy())

    def _set_up(self, up: np.ndarray | None) -> None:
        self._up = up
        self._up_addr = None if up is None else up.ctypes.data

    def arrival_rate(self, now: float) -> float:
        """Windowed estimate, EWMA fallback before the window has data."""
        rate = self.windowed_rate.rate(now)
        if rate > 0.0:
            return rate
        return self.ewma_rate.rate(now)

    def snapshot(self, now: float) -> WorkloadEstimate:
        """The solver's inputs at *now* (evicts the rate window to it).

        One compiled call (``est_snapshot``) when the kernel is loaded;
        it runs the steps below, numpy's summation order included.
        """
        ck = _ckernel()
        fn = ck.entry("snapshot")
        if fn is not None:
            now = float(now)
            if math.isnan(now):
                raise ValueError("rate needs a time, got nan")
            n = self.speed.nominal.size
            snap = self._snap
            ck.est_snapshot_c(
                fn, self._addr, self.windowed_rate._addr,
                self.speed._nominal_addr, self._up_addr, n, now,
                self._snap_addr,
            )
            lam, mean_size, rho = snap[:3].tolist()
            return WorkloadEstimate(
                arrival_rate=lam,
                mean_size=mean_size,
                speeds=snap[3 : 3 + n].copy(),
                utilization=rho,
                up=None if self._up is None else self._up.copy(),
            )
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
        up = state["up"]
        if up is not None:
            # Checked before anything is written: the compiled snapshot
            # reads one mask entry per server.
            up = np.asarray(up, dtype=bool)
            n = self.speed.nominal.size
            if up.shape != (n,):
                raise ValueError(
                    f"estimator state field 'up' has {up.size} entries, "
                    f"expected {n}"
                )
        self.windowed_rate.load_state(state["windowed_rate"])
        self.ewma_rate.load_state(state["ewma_rate"])
        self.mean_size.load_state(state["mean_size"])
        self.speed.load_state(state["speed"])
        self._state[_ES_SEEN] = int(state["arrivals_seen"])
        self._set_up(up)


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
