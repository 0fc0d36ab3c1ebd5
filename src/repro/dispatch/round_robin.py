"""Round-robin based job dispatching — the paper's Algorithm 2 (Section 3.2).

The strategy equalizes the number of *overall* arrivals falling between
successive jobs sent to the same computer, which smooths each computer's
substream without measuring inter-arrival times.  Each computer carries
two attributes:

* ``assign`` — jobs sent to it so far;
* ``next``   — expected number of further arrivals before its next job.

On each arrival the computer with the smallest ``next`` wins; ties go to
the smallest ``(assign + 1)/α`` (step 2.c.3 — the algorithm listing
normalizes by the workload fraction, which is the speed-proportional
quantity under weighted allocation).  The winner's ``next`` is advanced
by 1/α — it expects one job out of every 1/α arrivals — and every
computer that has started receiving jobs counts the dispatched arrival
down (step 2.h).

The guard initialization ``next = 1`` (step 1) staggers *first*
assignments: big-fraction computers start immediately (smallest
normalized assign), while small-fraction computers are held off until a
started computer's ``next`` drops below the guard, spreading their first
jobs evenly through a cycle.  When all fractions are equal the whole
scheme degenerates to the classic round robin.

Implementation notes: this is a *bit-exact* transcription of the paper's
listing (the test suite checks it against an independent oracle), with
state in plain Python lists — ``select`` runs once per arriving job and
small-list access is several times faster than numpy scalar indexing.
Only computers with α > 0 are scanned (step 2.c.1's ``continue``), and
the step 2.h decrement touches only started computers, exactly as the
guard semantics require.  ``next`` values stay bounded (they decrease by
1 per arrival and rise by 1/α on selection), so no drift accumulates
over multi-million-job runs beyond the ±ulp rounding the paper's own
float implementation had.
"""

from __future__ import annotations

import numpy as np

from ..queueing.network import validate_allocation
from .base import StaticDispatcher

__all__ = [
    "RoundRobinDispatcher",
    "SequenceRoundRobin",
    "build_dispatch_sequence",
    "dispatch_sequence_slice",
    "sequence_memo_key",
]


class RoundRobinDispatcher(StaticDispatcher):
    """Deterministic weighted round robin per Algorithm 2.

    Parameters
    ----------
    guard_init:
        Initial value of every ``next`` field.  The paper uses 1 (the
        guard that staggers first assignments); the ablation benchmark
        sets 0 to show the resulting early-cycle clumping.
    """

    name = "round_robin"

    def __init__(self, guard_init: float = 1.0):
        super().__init__()
        if guard_init < 0:
            raise ValueError(f"guard_init must be non-negative, got {guard_init}")
        self.guard_init = float(guard_init)
        self._assign: list[int] = []
        self._next: list[float] = []
        self._started: list[int] = []  # indices with assign > 0, scan order
        self._active: list[int] = []   # indices with alpha > 0
        self._inv_alpha: list[float] = []

    def _setup(self) -> None:
        alphas = self.alphas.tolist()
        n = len(alphas)
        active = [i for i, a in enumerate(alphas) if a > 0]
        if not active:
            raise ValueError("round robin needs at least one positive fraction")
        self._assign = [0] * n
        self._next = [self.guard_init] * n
        self._started = []
        self._active = active
        self._inv_alpha = [(1.0 / a if a > 0 else float("inf")) for a in alphas]

    def select(self, size: float) -> int:
        """One iteration of Algorithm 2's dispatch loop (steps 2.b–2.h)."""
        self._require_reset()
        assign = self._assign
        nxt = self._next
        inv = self._inv_alpha

        # Steps 2.b/2.c: smallest `next` wins; ties by smallest
        # (assign + 1)/alpha.  Only alpha > 0 computers participate
        # (the `continue` of step 2.c.1).
        select = -1
        minnext = 0.0
        norassign = 0.0
        for i in self._active:
            ni = nxt[i]
            if select == -1 or ni < minnext:
                minnext = ni
                norassign = (assign[i] + 1) * inv[i]
                select = i
            elif ni == minnext:
                cand = (assign[i] + 1) * inv[i]
                if cand < norassign:
                    norassign = cand
                    select = i

        # Step 2.d: a first-time winner resets its `next` to 0 ("now").
        if assign[select] == 0:
            nxt[select] = 0.0
            self._started.append(select)
        # Steps 2.e/2.f: it expects its next job 1/alpha arrivals out.
        nxt[select] += inv[select]
        assign[select] += 1
        # Step 2.h: the dispatched arrival counts down every computer
        # that has started receiving jobs (assign != 0).
        for i in self._started:
            nxt[i] -= 1.0
        return select

    # ------------------------------------------------------------------
    # Introspection helpers used by tests
    # ------------------------------------------------------------------

    @property
    def assigned_counts(self) -> np.ndarray:
        """Jobs dispatched per computer so far (copy)."""
        self._require_reset()
        return np.asarray(self._assign, dtype=np.int64)

    @property
    def next_fields(self) -> np.ndarray:
        """Current ``next`` values (copy)."""
        self._require_reset()
        return np.asarray(self._next, dtype=float)

    # ------------------------------------------------------------------
    # Crash-safe service checkpoints
    # ------------------------------------------------------------------
    #
    # The service swaps sequences only at some window boundaries, so a
    # checkpoint usually lands mid-sequence; `assign`/`next` must be
    # restored exactly or the resumed run walks a different sequence.

    def state_dict(self) -> dict:
        return {
            "guard_init": self.guard_init,
            "alphas": None if self.alphas is None else [float(a) for a in self.alphas],
            "assign": [int(a) for a in self._assign],
            "next": [float(x) for x in self._next],
            "started": [int(i) for i in self._started],
        }

    def load_state(self, state: dict) -> None:
        self.guard_init = float(state["guard_init"])
        if state["alphas"] is None:
            self.alphas = None
            return
        self.reset(np.asarray(state["alphas"], dtype=float))
        if "assign" in state:
            self._assign = [int(a) for a in state["assign"]]
            self._next = [float(x) for x in state["next"]]
            self._started = [int(i) for i in state["started"]]
        else:
            # A SequenceRoundRobin checkpoint stores only the sequence
            # position; Algorithm 2 is a pure function of the arrival
            # count, so replaying `pos` selections reconstructs the
            # exact (assign, next, started) state.
            self.select_batch(np.zeros(int(state["pos"])))


# ----------------------------------------------------------------------
# Memoized sequence builder
# ----------------------------------------------------------------------
#
# Algorithm 2 never looks at job sizes or random numbers, so the target
# sequence is a pure function of (alphas, guard_init, arrival count) and
# the sequence for N jobs is a prefix of the sequence for M > N jobs.
# The memo computes each sequence once per process and extends it
# statefully: every entry owns a *private* dispatcher that nothing else
# can reset, so a caller reusing one dispatcher object across different
# allocations cannot corrupt a cached prefix (extending a corrupted
# entry used to leak zero-share servers into the sequence).  The key
# carries the full byte pattern of the allocation vector, so allocations
# that differ only in *which* server holds the zero share occupy
# distinct entries.  Targets are stored as int16 (a network never has
# 32k computers) and entries are LRU-bounded.

_SEQUENCE_MEMO_ENTRIES = 4
_sequence_memo: dict[tuple, tuple[np.ndarray, "RoundRobinDispatcher"]] = {}


def _extend_targets(private: "RoundRobinDispatcher", count: int) -> np.ndarray:
    """The next ``count`` Algorithm 2 targets from a live dispatcher.

    Advances ``private``'s state exactly as ``count`` ``select`` calls
    would, through the compiled ``rr_sequence_extend`` loop when the
    kernel is available (the tie-break products use the identical
    ``_inv_alpha`` doubles, so the sequence and the post-call state are
    bit-identical to the Python loop; the kernel also reports the first
    winners in the order ``select`` appends them to ``_started``, which
    checkpoints serialize).  Falls back to ``select_batch`` otherwise.
    Returns int16 (the memo's storage dtype).
    """
    if count <= 0:
        return np.empty(0, dtype=np.int16)
    from ..sim import ckernel  # local: repro.sim.fastpath imports us

    fn = ckernel.entry("rr_extend")
    if fn is None:
        return private.select_batch(np.zeros(count)).astype(np.int16)
    out, assign, nxt, started = ckernel.rr_extend_c(
        fn, private._inv_alpha, private._active, private._assign,
        private._next, count,
    )
    private._assign = assign.tolist()
    private._next = nxt.tolist()
    private._started.extend(started.tolist())
    return out.astype(np.int16)


def _memo_entry(alphas: np.ndarray, guard_init: float, key: tuple,
                count: int) -> tuple:
    """The memo entry under ``key``, extended to at least ``count``.

    On a miss, a private dispatcher adopts ``alphas``, which the caller
    has validated (``validate_allocation``), and extends the sequence.
    Extension is geometric (to ``max(count, 2 × cached)``), keeping the
    amortized per-job cost constant across a long run; over-extension
    is harmless because the sequence for N jobs is a prefix of the
    sequence for M > N jobs.  The entry is re-inserted as the most
    recently used.
    """
    entry = _sequence_memo.pop(key, None)
    if entry is None:
        private = RoundRobinDispatcher(guard_init=guard_init)
        private.alphas = alphas.copy()
        private._setup()
        entry = (_extend_targets(private, count), private)
    else:
        targets, private = entry
        if count > targets.size:
            grow_to = max(count, 2 * targets.size)
            extra = _extend_targets(private, grow_to - targets.size)
            entry = (np.concatenate([targets, extra]), private)
    _sequence_memo[key] = entry  # re-insert: dict preserves LRU order
    while len(_sequence_memo) > _SEQUENCE_MEMO_ENTRIES:
        _sequence_memo.pop(next(iter(_sequence_memo)))
    return entry


def sequence_memo_key(alphas: np.ndarray, guard_init: float = 1.0) -> tuple:
    """Memo key for Algorithm 2's target sequence.

    Includes the vector length and every byte of every entry: two
    allocations whose nonzero values match but whose zero share sits on
    a different server produce different sequences and must not share a
    cache line.
    """
    a = np.ascontiguousarray(np.asarray(alphas, dtype=float))
    return ("round_robin", float(guard_init), a.size, a.tobytes())


def build_dispatch_sequence(
    alphas: np.ndarray, count: int, *, guard_init: float = 1.0
) -> tuple[np.ndarray, str]:
    """First ``count`` dispatch targets of Algorithm 2, memoized.

    Bit-identical to resetting a fresh :class:`RoundRobinDispatcher`
    with ``alphas`` and calling ``select_batch`` on ``count`` jobs.
    Returns ``(targets, status)`` where ``targets`` is an int64 array of
    length ``count`` and ``status`` is ``"miss"``, ``"extend"``, or
    ``"hit"`` (exposed for telemetry).  Servers with an exactly zero
    share never appear in the sequence.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    key = sequence_memo_key(alphas, guard_init)
    entry = _sequence_memo.pop(key, None)
    if entry is None:
        status = "miss"
        private = RoundRobinDispatcher(guard_init=guard_init)
        private.reset(np.array(alphas, dtype=float, copy=True))
        targets = _extend_targets(private, count)
        entry = (targets, private)
    else:
        targets, private = entry
        if count > targets.size:
            status = "extend"
            extra = _extend_targets(private, count - targets.size)
            targets = np.concatenate([targets, extra])
            entry = (targets, private)
        else:
            status = "hit"
    _sequence_memo[key] = entry  # re-insert: dict preserves LRU order
    while len(_sequence_memo) > _SEQUENCE_MEMO_ENTRIES:
        _sequence_memo.pop(next(iter(_sequence_memo)))
    return entry[0][:count].astype(np.int64), status


def dispatch_sequence_slice(
    alphas: np.ndarray, start: int, stop: int, *, guard_init: float = 1.0
) -> np.ndarray:
    """Targets ``[start, stop)`` of Algorithm 2's sequence, memoized.

    The window-serving counterpart of :func:`build_dispatch_sequence`:
    where that returns (and copies) the whole prefix, this copies only
    the requested slice, so a service dispatching window after window
    pays O(window) per call instead of O(total dispatched so far).
    Extension is geometric (see :func:`_memo_entry`).
    """
    if not 0 <= start <= stop:
        raise ValueError(f"invalid sequence slice [{start}, {stop})")
    key = sequence_memo_key(alphas, guard_init)
    if key not in _sequence_memo:
        alphas = validate_allocation(alphas)
    entry = _memo_entry(alphas, guard_init, key, stop)
    return entry[0][start:stop].astype(np.int64)


class SequenceRoundRobin(StaticDispatcher):
    """Algorithm 2 served as slices of the memoized target sequence.

    Dispatch-wise indistinguishable from :class:`RoundRobinDispatcher`
    — the sequence is the same bits — but O(window) per batch with no
    per-job Python scan: the serving loop's fast path.  Carries only a
    position into the sequence; checkpoints interoperate both ways
    (either class restores the other's ``state_dict``, see
    ``load_state``).
    """

    name = "round_robin"

    def __init__(self, guard_init: float = 1.0):
        super().__init__()
        if guard_init < 0:
            raise ValueError(f"guard_init must be non-negative, got {guard_init}")
        self.guard_init = float(guard_init)
        self._pos = 0
        self._key = None

    def _setup(self) -> None:
        if not np.any(self.alphas > 0):
            raise ValueError("round robin needs at least one positive fraction")
        self._pos = 0
        self._key = sequence_memo_key(self.alphas, self.guard_init)

    def _slice(self, count: int) -> np.ndarray:
        """The next ``count`` targets; ``alphas`` were validated by
        ``reset``, so a memo miss adopts them without re-validating."""
        self._require_reset()
        stop = self._pos + count
        entry = _memo_entry(self.alphas, self.guard_init, self._key, stop)
        targets = entry[0][self._pos:stop].astype(np.int64)
        self._pos = stop
        return targets

    def select(self, size: float) -> int:
        return int(self._slice(1)[0])

    def select_batch(self, sizes: np.ndarray) -> np.ndarray:
        return self._slice(int(np.asarray(sizes).size))

    def state_dict(self) -> dict:
        return {
            "guard_init": self.guard_init,
            "alphas": None if self.alphas is None else [float(a) for a in self.alphas],
            "pos": int(self._pos),
        }

    def load_state(self, state: dict) -> None:
        self.guard_init = float(state["guard_init"])
        if state["alphas"] is None:
            self.alphas = None
            return
        self.reset(np.asarray(state["alphas"], dtype=float))
        if "pos" in state:
            self._pos = int(state["pos"])
        else:
            # Legacy RoundRobinDispatcher checkpoint: the sequence
            # position is the total number of jobs dispatched.
            self._pos = int(sum(int(a) for a in state["assign"]))
