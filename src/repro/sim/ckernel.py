"""On-demand compiled core for the FCFS/PS replay kernels.

The multi-job PS busy-period loop is the one part of the static fast
path that resists numpy vectorization: every departure changes the
service rate of every remaining job, so the recurrence is inherently
sequential (the pure-numpy lockstep formulations explored for kernel v3
topped out at ~2x — see DESIGN.md).  :mod:`repro.sim._pskernel.c`
therefore carries the whole replay pipeline, compiled here with the
system ``gcc`` and loaded through :mod:`ctypes` — no third-party build
dependency, no wheels.  Every exported entry point is declared once,
in ``_ENTRIES``, and handed out by :func:`entry`, which reads None
wherever the compiled path cannot run.  There are two replay entry
points, which share one FCFS Lindley step and one counting-sort
grouping prologue, and the fault-mode window:

* ``cell_replay_batch`` (``entry("cell")``) — every unique dispatch
  plan of one replication in one call, FCFS or PS (grouping, per-(plan,
  server) replay and scatter-back, OpenMP-parallel over disjoint
  slices).  The sweep calls it, and so does the public
  :func:`~repro.sim.fastpath.ps_replay`, as one plan on one server;
* ``fcfs_window_sweep`` (``"window"``) — one serving window with the
  servers' free-up instants carried across windows;
* ``fault_window`` (``"fault_window"``) — one whole fault-mode window:
  for each segment between two fault events, its jobs one by one
  through the max-plus step ``max(free_at, t) + size/speed`` with down
  servers bouncing (the static ``fcfs_dispatch_segment``), each
  accepted job pushed onto its server's in-flight ring in the bank's
  record block; every finished record of every ring popped up to the
  event (the static ``inflight_collect``); then the event itself — a
  failure, a repair or a speed change.  At its end the static
  ``completion_fold_inputs`` turns the window's popped rows into the
  estimator fold's inputs.

Beside them sit:

* the searchsorted-style uniform→target mapping of the random
  dispatchers (``map_uniform``);
* Algorithm 2: ``rr_sequence_extend`` (``"rr_extend"``) walks a
  :class:`~repro.dispatch.round_robin.SequenceRoundRobin`'s live state
  in its pinned blocks (:func:`rr_walk_c`), and ``rr_seed`` validates
  an allocation and seeds such a state (:func:`rr_seed_c`);
* the two halves of the quasi-static controller's estimator step —
  ``est_arrivals`` and ``est_completions``, one call each per control
  window over state vectors :mod:`repro.metrics.online` owns, the
  latter advancing the controller's four P² sets as the four lanes of
  one AVX2 vector where the CPU has it (``p2_probe`` runs either loop
  for tests);
* the scalar Algorithm 1 re-solve (``est_snapshot``,
  ``optimized_alloc``, ``survivor_alloc``) and the control boundary
  (``boundary_resolve``, ``"boundary"``): the snapshot, the usable
  test, the survivor re-solve, the delta and the swap rule of one
  ``QuasiStaticController.resolve`` in one call.

The re-solve entries, the boundary and ``rr_seed`` sum as numpy does
and so run only where :func:`_sum_order` knows numpy's summation
order.

Bit-identity with the interpreted path is a hard requirement (the
replication cache and the grid executor both assume replay kernels are
deterministic functions of their inputs): the C source copies the float
operation order verbatim and is compiled with ``-ffp-contract=off`` so
the compiler cannot fuse multiply-adds into FMA instructions.  OpenMP
is applied only across slices with disjoint outputs, so the thread
count cannot affect the bits either; the cross-checking tests assert
``np.array_equal`` against the Python formulations at 1 and N threads.

The shared object is cached under ``$XDG_CACHE_HOME/repro-sched`` (or
the system temp directory), keyed by the SHA-256 of the C source and
the OpenMP variant, and published with an atomic rename so concurrent
grid workers never race.  Everything degrades gracefully: no compiler,
a failed compile, or ``REPRO_DISABLE_CKERNEL=1`` simply leaves the
numpy/Python path in place; a toolchain without ``-fopenmp`` gets a
serial compile and a ``ckernel.openmp_unavailable`` counter, never a
failure.

Scratch memory for the static replay entry points comes from a
per-process :class:`Arena` — named buffers grown to the largest
replication seen and reused forever after, so steady-state replay
performs no numpy allocation at all.  A serving bank's window and
fault-mode entries write into its own :class:`InflightRings` instead,
whose addresses are cached.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..obs import counters

__all__ = [
    "entry",
    "kernel_available",
    "compiled_library_path",
    "compile_flags",
    "openmp_enabled",
    "omp_max_threads",
    "set_omp_threads",
    "Arena",
    "arena",
    "InflightRings",
    "replay_cell_c",
    "map_uniform_c",
    "replay_window_c",
    "fault_window_c",
    "rr_walk_c",
    "rr_seed_c",
    "est_arrivals_c",
    "est_completions_c",
    "p2_fold_probe_c",
    "est_snapshot_c",
    "optimized_alloc_c",
    "survivor_alloc_c",
    "boundary_resolve_c",
]

_SOURCE = Path(__file__).with_name("_pskernel.c")

#: Compile flags: -ffp-contract=off is load-bearing — FMA contraction
#: would change rounding and break bit-identity with the Python loop.
#: -fopenmp is appended when the toolchain supports it (probed with a
#: graceful serial fallback, never a hard failure).
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_OMP_FLAG = "-fopenmp"

#: Array arguments cross as bare addresses (``arr.ctypes.data``); the
#: names only document the element type the C side reads.  The typed
#: ``arr.ctypes.data_as(POINTER(...))`` route goes through
#: ``ctypes.cast``, which leaves a ``c_void_p`` reference cycle behind
#: per pointer, so every kernel call would feed the cycle collector.
_c_double_p = ctypes.c_void_p
_c_i64_p = ctypes.c_void_p

_from_buffer = (ctypes.c_char * 0).from_buffer


def _addr(arr: np.ndarray) -> int:
    """The data address of a contiguous array, the cheap way.

    ``arr.ctypes.data`` builds a ``_ctypes`` helper per call (~2 µs);
    a zero-length ctypes view over a writable array's buffer yields the
    same address in about a third of that.  Read-only arrays (which
    refuse a writable view) take ``arr.ctypes.data``.  The window,
    fault-mode window, sequence-extension and estimator-step wrappers
    pass their inputs through here.
    """
    if arr.flags.writeable:
        return ctypes.addressof(_from_buffer(arr))
    return arr.ctypes.data


class _Entry(NamedTuple):
    """One exported C entry point: its symbol and its ctypes signature."""

    symbol: str
    restype: object
    argtypes: tuple
    #: Sums as numpy's ndarray.sum does, so usable only when
    #: :func:`_sum_order` knows this numpy's reduction order.
    sum_ordered: bool = False


_i64 = ctypes.c_longlong
_f64 = ctypes.c_double

#: Every exported C entry point, once: the name :func:`entry` answers
#: to → its symbol in ``_pskernel.c`` and its signature.  Adding an
#: entry point takes one row here plus its call wrapper below.
_ENTRIES: dict[str, _Entry] = {
    "cell": _Entry("cell_replay_batch", _i64, (
        _c_double_p,  # times (shared stream)
        _c_double_p,  # work (shared stream)
        _i64,  # n
        _c_double_p,  # speeds
        _i64,  # nservers
        _c_i64_p,  # targets (nplans × n)
        _i64,  # nplans
        _i64,  # use_ps
        _c_double_p,  # completions (out, nplans × n, arrival order)
        _c_double_p,  # gt scratch
        _c_double_p,  # gw scratch
        _c_double_p,  # gc scratch
        _c_i64_p,  # order scratch
        _c_i64_p,  # offsets (out, nplans × (nservers+1))
        _c_i64_p,  # pos scratch
        _c_double_p,  # ht scratch (per thread)
        _c_i64_p,  # hi scratch (per thread)
        _i64,  # nthreads
        _i64,  # cut (post-warmup start; >= n skips phase D)
        _c_double_p,  # resp (out, nplans × (n-cut))
        _c_double_p,  # ratio (out, nplans × (n-cut))
        _c_i64_p,  # pcounts (out, nplans × nservers)
    )),
    "map_uniform": _Entry("map_uniform_right", None, (
        _c_double_p,  # cum
        _i64,  # nbins
        _c_double_p,  # u
        _i64,  # n
        _c_i64_p,  # out
    )),
    "window": _Entry("fcfs_window_sweep", _i64, (
        _c_double_p,  # times (arrival order)
        _c_double_p,  # work (arrival order)
        _i64,  # n
        _c_double_p,  # speeds
        _i64,  # nservers
        _c_i64_p,  # targets
        _c_double_p,  # free_at (in/out)
        _c_double_p,  # departures (out)
        _c_double_p,  # service_times (out)
        _c_i64_p,  # order (out, stable grouping permutation)
        _c_i64_p,  # offsets (out, nservers + 1)
        _c_i64_p,  # cursor scratch (nservers)
        _c_double_p,  # state scratch (2 * nservers)
    )),
    "fault_window": _Entry("fault_window", _i64, (
        _c_double_p,  # jobs (4 × n: times, origins, sizes, attempts)
        _c_i64_p,  # targets
        _i64,  # n
        _c_double_p,  # events (nev × 4: time, code, server, factor)
        _i64,  # nev
        _f64,  # end
        _c_double_p,  # speeds
        _c_double_p,  # speed factors (in/out)
        ctypes.c_void_p,  # up (bool per server, in/out)
        _i64,  # nservers
        _c_double_p,  # free_at (in/out)
        _c_double_p,  # departures (out, NaN = bounced)
        _c_double_p,  # ring record block (in/out, nservers × cap × 5)
        _i64,  # cap (records per server)
        _c_i64_p,  # ring heads (in/out)
        _c_i64_p,  # ring tails (in/out)
        _c_i64_p,  # per-server job count scratch (nservers)
        _c_double_p,  # completion rows (in/out, server, origin, size, svc, dep)
        _i64,  # first row this window writes
        _c_double_p,  # witnesses (out, grouped by server)
        _c_i64_p,  # fold offsets (out, nservers + 1) and cursor scratch
        _c_double_p,  # responses (out, row order)
        _c_double_p,  # bounce rows (out, time, origin, size, attempts)
        ctypes.c_void_p,  # applied (out, bool per event)
        _c_i64_p,  # out: rows collected, bounce rows, servers up
    )),
    "rr_extend": _Entry("rr_sequence_extend", _i64, (
        _c_double_p,  # inv (1/alpha per server)
        _c_i64_p,  # active indices
        _i64,  # nactive
        _c_i64_p,  # assign (in/out)
        _c_double_p,  # next credits (in/out)
        _i64,  # count
        _c_i64_p,  # out targets
        _c_i64_p,  # out first winners (room for nactive)
    )),
    "rr_seed": _Entry("rr_seed", _i64, (
        _c_double_p,  # alphas (in place: the third row of the f64 block)
        _i64,  # n
        _f64,  # atol
        _f64,  # guard
        _i64,  # sum seeded
        _c_double_p,  # out: 1/alpha, next, clipped alphas (3n)
        _c_i64_p,  # out: active indices, assign (2n)
    ), sum_ordered=True),
    "arrivals": _Entry("est_arrivals", _i64, (
        _c_double_p,  # estimator state (in/out)
        _c_double_p,  # windowed-rate buffer (in/out, room reserved)
        _c_double_p,  # times
        _i64,  # k
        _c_double_p,  # sizes
        _i64,  # nsizes
    )),
    "completions": _Entry("est_completions", _i64, (
        _c_double_p,  # estimator state (in/out)
        _c_double_p,  # server-grouped speed witnesses
        _i64,  # nwit
        _c_i64_p,  # offsets (nservers + 1), or NULL
        _i64,  # nservers
        _c_double_p,  # P² blocks (in/out)
        _i64,  # nsets
        _c_double_p,  # response times
        _i64,  # m
    )),
    "snapshot": _Entry("est_snapshot", None, (
        _c_double_p,  # estimator state (in/out: the rate window evicts)
        _c_double_p,  # windowed-rate buffer
        _c_double_p,  # nominal speeds
        ctypes.c_void_p,  # up (bool per server), or NULL for all up
        _i64,  # n
        _f64,  # now
        _i64,  # sum seeded
        _c_double_p,  # out: rate, mean size, utilization, n speeds
        _c_double_p,  # scratch (n)
    ), sum_ordered=True),
    "alloc": _Entry("optimized_alloc", _i64, (
        _c_double_p,  # speeds
        _i64,  # n
        _f64,  # mu
        _f64,  # arrival rate
        _f64,  # cutoff rtol
        _i64,  # sum seeded
        _c_double_p,  # alphas (out)
        _c_i64_p,  # i64 scratch (2n)
        _c_double_p,  # f64 scratch (4n)
    ), sum_ordered=True),
    "survivors": _Entry("survivor_alloc", _i64, (
        _c_double_p,  # speeds
        ctypes.c_void_p,  # up (bool per server)
        _i64,  # n
        _f64,  # utilization
        _f64,  # cutoff rtol
        _i64,  # sum seeded
        _c_double_p,  # out (full-length alphas)
        _c_i64_p,  # i64 scratch (3n)
        _c_double_p,  # f64 scratch (6n)
    ), sum_ordered=True),
    "boundary": _Entry("boundary_resolve", _i64, (
        _c_double_p,  # estimator state (in/out: the rate window evicts)
        _c_double_p,  # windowed-rate buffer
        _c_double_p,  # nominal speeds
        ctypes.c_void_p,  # estimator's up (bool per server), or NULL
        ctypes.c_void_p,  # controller's up (bool per server)
        _i64,  # n
        _f64,  # now
        _i64,  # membership changed
        _f64,  # rho cap
        _f64,  # swap tolerance
        _f64,  # cutoff rtol
        _i64,  # sum seeded
        _c_double_p,  # running alphas
        _c_double_p,  # out: snapshot, scratch (n), delta, target alphas
        _c_i64_p,  # i64 scratch (3n)
        _c_double_p,  # f64 scratch (6n)
    ), sum_ordered=True),
    "p2_probe": _Entry("p2_fold_probe", _i64, (
        _c_double_p,  # P² blocks (in/out)
        _i64,  # nsets
        _c_double_p,  # response times
        _i64,  # m
        _i64,  # lanes allowed
    )),
    "np_sum": _Entry("np_sum_probe", _f64, (
        _c_double_p,  # a
        _i64,  # n
        _i64,  # seeded
    )),
    "max_threads": _Entry("pk_max_threads", _i64, ()),
    "set_threads": _Entry("pk_set_threads", None, (_i64,)),
}


@dataclass(frozen=True)
class _Lib:
    """One loaded kernel library: its bound entries and probe facts."""

    #: Every ``_ENTRIES`` name → its bound function, or None for a
    #: sum-ordered entry this numpy's summation order rules out.
    entries: dict
    #: How this numpy's ndarray.sum reduces (the ``np_sum`` probe): 1
    #: when it seeds with the first element, 0 when not, None when
    #: neither (see :func:`_sum_order`).
    sum_seeded: int | None
    openmp: bool
    flags: tuple[str, ...]


#: None = not yet attempted; False = attempted and unavailable;
#: otherwise the loaded :class:`_Lib`.
_fns: object = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path(tempfile.gettempdir())
    return base / "repro-sched"


def _lib_path(openmp: bool) -> Path:
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    suffix = "-omp" if openmp else ""
    return _cache_dir() / f"pskernel-{digest}{suffix}.so"


def compiled_library_path() -> Path:
    """Where the compiled shared object lives (keyed by source hash).

    Prefers the OpenMP variant; falls back to the serial variant's path
    when only that one has been built on this host.
    """
    omp = _lib_path(openmp=True)
    if omp.exists():
        return omp
    plain = _lib_path(openmp=False)
    if plain.exists():
        return plain
    return omp


def _compile_variant(gcc: str, target: Path, flags: tuple[str, ...]) -> Path | None:
    """Compile one flag variant, publishing atomically; None on failure."""
    target.parent.mkdir(parents=True, exist_ok=True)
    # Stage to a pid-unique name and publish atomically: concurrent
    # workers compiling the same source never see a half-written .so.
    staging = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [gcc, *flags, "-o", str(staging), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(staging, target)
    except (OSError, subprocess.SubprocessError):
        try:
            staging.unlink()
        except OSError:
            pass
        if target.exists():
            return target
        return None
    return target


def _compile() -> tuple[Path, bool] | None:
    """The usable shared object and whether it carries OpenMP.

    Tries the OpenMP variant first; a toolchain without ``-fopenmp``
    degrades to the serial variant with a ``ckernel.openmp_unavailable``
    counter — the run itself never fails on a stripped-down compiler.
    """
    omp_target = _lib_path(openmp=True)
    if omp_target.exists():
        return omp_target, True
    plain_target = _lib_path(openmp=False)
    gcc = shutil.which("gcc") or shutil.which("cc")
    if gcc is None:
        if plain_target.exists():
            return plain_target, False
        counters.inc("ckernel.unavailable", reason="no-compiler")
        return None
    built = _compile_variant(gcc, omp_target, (*_CFLAGS, _OMP_FLAG))
    if built is not None:
        return built, True
    counters.inc("ckernel.openmp_unavailable")
    if plain_target.exists():
        return plain_target, False
    built = _compile_variant(gcc, plain_target, _CFLAGS)
    if built is not None:
        return built, False
    counters.inc("ckernel.unavailable", reason="compile-failed")
    return None


def _load(path: Path, openmp: bool) -> _Lib:
    lib = ctypes.CDLL(str(path))
    entries = {}
    for name, e in _ENTRIES.items():
        fn = getattr(lib, e.symbol)
        fn.argtypes = list(e.argtypes)
        fn.restype = e.restype
        entries[name] = fn
    sum_seeded = _sum_order(entries["np_sum"])
    if sum_seeded is None:
        for name, e in _ENTRIES.items():
            if e.sum_ordered:
                entries[name] = None
    flags = (*_CFLAGS, _OMP_FLAG) if openmp else _CFLAGS
    return _Lib(entries, sum_seeded, openmp, flags)


def _sum_order(probe) -> int | None:
    """Which float64 add-reduce this numpy runs: 0 or 1, or None.

    ``ndarray.sum`` pairwise-sums a contiguous vector, but numpy
    releases differ in whether the reduction first seeds with element 0
    (1) or not (0).  The re-solve entries reproduce either; a numpy
    matching neither keeps the re-solve on its numpy body.
    """
    # Inexact values over six decades, so the two orders round apart
    # (on 8, 15, 127 and 300 elements).  Plain Python arithmetic: no
    # RNG or transcendental ufunc gets loaded just for the probe.
    cases = [np.array([1.0 / (k + 3) + (k % 7) * 1e3 for k in range(n)])
             for n in (2, 3, 5, 8, 9, 15, 16, 17, 40, 127, 129, 300)]
    for seeded in (0, 1):
        if all(probe(a.ctypes.data, a.size, seeded) == float(a.sum())
               for a in cases):
            return seeded
    counters.inc("ckernel.sum_order_unknown")
    return None


def _ensure_fns():
    """Resolve the compiled entry points once per process.

    Never raises: every failure mode — explicit disable, no compiler on
    PATH, a failed compile, a bad .so — degrades to the bit-identical
    numpy/Python path with a telemetry counter recording why
    (``ckernel.disabled`` / ``ckernel.unavailable{reason=...}``), so a
    stripped-down host runs correctly and the trace still shows the
    kernel never engaged.
    """
    global _fns
    if _fns is False:
        return None
    if _fns is not None:
        return _fns
    if os.environ.get("REPRO_DISABLE_CKERNEL"):
        _fns = False
        counters.inc("ckernel.disabled")
        return None
    try:
        compiled = _compile()
        if compiled is None:
            _fns = False
            return None
        path, openmp = compiled
        _fns = _load(path, openmp)
    except Exception:  # noqa: BLE001 — degrade, never break the run
        _fns = False
        counters.inc("ckernel.unavailable", reason="load-failed")
        return None
    return _fns


def entry(name: str):
    """The compiled entry point ``name`` (a key of ``_ENTRIES``), or None.

    The library is compiled and loaded on the first call and cached for
    the process.  None when the kernel is disabled
    (``REPRO_DISABLE_CKERNEL``), no compiler exists, compilation or
    loading failed, or the entry sums as numpy does and this numpy's
    summation order is unknown: the caller then runs its numpy/Python
    path, which computes the exact same bits.
    """
    lib = _ensure_fns()
    return lib.entries[name] if lib else None


def kernel_available() -> bool:
    """True when the compiled core is (or can be made) usable."""
    return _ensure_fns() is not None


def compile_flags() -> tuple[str, ...]:
    """The gcc flags the loaded kernel was built with (() if none)."""
    lib = _ensure_fns()
    return lib.flags if lib else ()


def openmp_enabled() -> bool:
    """True when the loaded kernel was compiled with OpenMP support."""
    lib = _ensure_fns()
    return bool(lib and lib.openmp)


# GNU OpenMP thread teams do not survive fork(): a worker forked after
# the parent ran a parallel region deadlocks on its first own region.
# Replay is bit-identical at any thread count, so forked children are
# simply clamped to serial.  Spawned workers re-import this module and
# get their own pid recorded, keeping threads available there.
_IMPORT_PID = os.getpid()


def omp_max_threads() -> int:
    """Threads the kernel's parallel regions may use (1 when serial)."""
    lib = _ensure_fns()
    if not lib or not lib.openmp:
        return 1
    if os.getpid() != _IMPORT_PID:
        return 1
    return int(lib.entries["max_threads"]())


def set_omp_threads(n: int) -> None:
    """Cap the kernel's OpenMP thread count (no-op on serial builds).

    Exists for the threads=1 vs threads=N bit-identity tests; normal
    runs control threading with ``OMP_NUM_THREADS``.
    """
    lib = _ensure_fns()
    if lib and lib.openmp:
        lib.entries["set_threads"](int(n))


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------


class Arena:
    """Named, monotonically grown scratch buffers for the compiled core.

    Each buffer is keyed by (name, dtype) and only ever grows — sized to
    the largest replication a worker has seen — so steady-state replay
    reuses the same memory instead of allocating fresh numpy arrays per
    plan.  Requests return a length-``size`` view of the underlying
    buffer (contiguous from the start, as the C entry points require).
    Not thread-safe by design: parallelism in this codebase is
    process-based, and each process owns one arena.
    """

    def __init__(self):
        self._bufs: dict[tuple[str, str], np.ndarray] = {}
        self.requests = 0
        self.grows = 0

    def _get(self, name: str, size: int, dtype) -> np.ndarray:
        self.requests += 1
        key = (name, np.dtype(dtype).char)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            # Grow geometrically so a sequence of slightly-larger
            # replications does not reallocate every time.
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
            self.grows += 1
            counters.inc("arena.grow", buffer=name)
        return buf[:size]

    def f64(self, name: str, size: int) -> np.ndarray:
        """A float64 scratch view of ``size`` elements."""
        return self._get(name, int(size), np.float64)

    def i64(self, name: str, size: int) -> np.ndarray:
        """An int64 scratch view of ``size`` elements."""
        return self._get(name, int(size), np.int64)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._bufs.values())

    def reset(self) -> None:
        """Drop every buffer (tests and memory-pressure escapes)."""
        self._bufs.clear()


_arena: Arena | None = None


def arena() -> Arena:
    """The per-process scratch arena (created on first use)."""
    global _arena
    if _arena is None:
        _arena = Arena()
    return _arena


# ----------------------------------------------------------------------
# ctypes call wrappers
# ----------------------------------------------------------------------


def replay_cell_c(
    fn,
    times: np.ndarray,
    work: np.ndarray,
    speeds: np.ndarray,
    plans,
    use_ps: bool,
    warmup_cut: int | None = None,
):
    """Replay every unique dispatch plan of one replication in one call.

    ``plans`` is a sequence of int64 target arrays (one per unique
    plan), each aligned with the shared ``times``/``work`` streams.
    Returns ``(completions, grouped_work, offsets, tail, ok)`` where
    ``completions`` is (nplans, n) in arrival order, ``grouped_work``
    is the server-grouped job sizes (for per-server busy-time sums),
    ``offsets`` is (nplans, nservers+1), and ``ok`` is False when a
    target was out of range (caller falls back to the numpy path).

    When ``warmup_cut`` is given (the index of the first post-warmup
    arrival), the kernel also emits the per-plan summarize precursors
    and ``tail`` is ``(resp, ratio, pcounts)``: response times and
    response ratios of the post-warmup jobs, (nplans, n-warmup_cut)
    each, plus per-server post-warmup dispatch counts,
    (nplans, nservers).  All elementwise or integer work, so the
    arrays are bit-identical to the numpy expressions they replace.
    ``tail`` is None when ``warmup_cut`` is omitted or >= n.

    All returned arrays are arena-backed views: consume them before the
    next replay call, never store them.
    """
    n = int(times.size)
    nplans = len(plans)
    nservers = int(speeds.size)
    nthreads = max(1, omp_max_threads())
    a = arena()
    if (
        nplans == 1
        and plans[0].dtype == np.int64
        and plans[0].flags.c_contiguous
    ):
        targets = plans[0]
    else:
        targets = a.i64("cell.targets", nplans * n).reshape(nplans, n)
        for k, plan in enumerate(plans):
            np.copyto(targets[k], plan)
    completions = a.f64("cell.comp", nplans * n)
    gt = a.f64("cell.gt", nplans * n)
    gw = a.f64("cell.gw", nplans * n)
    gc = a.f64("cell.gc", nplans * n)
    order = a.i64("cell.order", nplans * n)
    offsets = a.i64("cell.offsets", nplans * (nservers + 1))
    pos = a.i64("cell.pos", nplans * (nservers + 1))
    # Matches the kernel's per-thread scratch stride: the PS heap needs
    # n entries, the fused FCFS pass 2*nservers of per-server state.
    stride = max(n, 2 * nservers)
    ht = a.f64("cell.ht", nthreads * stride)
    hi = a.i64("cell.hi", nthreads * stride)
    cut = n if warmup_cut is None else min(max(int(warmup_cut), 0), n)
    tail_len = n - cut
    resp = a.f64("cell.resp", nplans * tail_len)
    ratio = a.f64("cell.ratio", nplans * tail_len)
    pcounts = a.i64("cell.pcounts", nplans * nservers)
    status = fn(
        times.ctypes.data,
        work.ctypes.data,
        ctypes.c_longlong(n),
        speeds.ctypes.data,
        ctypes.c_longlong(nservers),
        targets.ctypes.data,
        ctypes.c_longlong(nplans),
        ctypes.c_longlong(1 if use_ps else 0),
        completions.ctypes.data,
        gt.ctypes.data,
        gw.ctypes.data,
        gc.ctypes.data,
        order.ctypes.data,
        offsets.ctypes.data,
        pos.ctypes.data,
        ht.ctypes.data,
        hi.ctypes.data,
        ctypes.c_longlong(nthreads),
        ctypes.c_longlong(cut),
        resp.ctypes.data,
        ratio.ctypes.data,
        pcounts.ctypes.data,
    )
    tail = None
    if tail_len > 0:
        tail = (
            resp.reshape(nplans, tail_len),
            ratio.reshape(nplans, tail_len),
            pcounts.reshape(nplans, nservers),
        )
    return (
        completions.reshape(nplans, n),
        gw.reshape(nplans, n),
        offsets.reshape(nplans, nservers + 1),
        tail,
        status == 0,
    )


def replay_window_c(
    fn,
    rings: "InflightRings",
    times: np.ndarray,
    work: np.ndarray,
    targets: np.ndarray,
) -> bool:
    """Replay one serving window through the carry-state compiled core.

    ``times``/``work`` are the window's admitted jobs in arrival order
    (contiguous float64), ``targets`` the dispatch decisions (contiguous
    int64); ``rings.reserve(times.size)`` must have run.  The bank's
    ``free_at`` is updated **in place** with the post-window state;
    departures and service times land in ``rings.dep``/``rings.svc`` in
    arrival order, the stable group-by-server permutation in
    ``rings.order`` and the per-server group bounds in the first
    ``n + 1`` of ``rings.scratch``.  False when a target was out of
    range: the kernel's counting sort rejects every target before any
    state is written, so ``free_at`` is then untouched and only the
    outputs are garbage.
    """
    r = rings
    return fn(_addr(times), _addr(work), times.size, r.speeds_addr, r.n,
              _addr(targets), r.free_at_addr, r.dep_addr, r.svc_addr,
              r.order_addr, r.scratch_addr, r.scratch_addr + 8 * (r.n + 1),
              r.state_addr) == 0


def fault_window_c(fn, rings: "InflightRings", jobs: np.ndarray,
                   targets: np.ndarray, events: np.ndarray, end: float,
                   row: int) -> int:
    """Run one fault-mode window through the compiled core.

    ``jobs`` is the window's contiguous ``(4, n)`` float64 block of
    times, origins, sizes and attempts, ``targets`` contiguous int64 and
    ``events`` a contiguous ``(nev, 4)`` float64 block of ``[time, code,
    server, factor]`` rows; ``rings.reserve_window(row, n, nev)`` must
    have run.  The bank's state is updated **in place**.  Departures
    land in ``rings.dep`` (NaN for a bounced job), completion rows in
    ``rings.done`` from row ``row`` on, the fold inputs of all of
    ``done``'s rows — each row's speed witness ``size / svc`` regrouped
    by server (stable), the group bounds in the first ``n + 1`` of
    ``rings.fold_scratch``, each row's response time ``dep - origin`` —
    in ``rings.wit``/``fold_scratch``/``resp``, bounce rows in
    ``rings.bounce``, each event's membership flag in ``rings.applied``
    and the row counts and servers up in ``rings.window_out``.  Every
    server's live records plus its jobs must fit in ``rings.cap``.
    Returns the kernel status: 0 on success, 1 when an input is out of
    range, 2 when a ring lacks room — on 1 and 2 no bank state has
    changed.
    """
    r = rings
    return fn(_addr(jobs), _addr(targets), targets.size,
              _addr(events) if len(events) else None, len(events), end,
              r.speeds_addr, r.factor_addr, r.up_addr, r.n, r.free_at_addr,
              r.dep_addr, r.ring_addr, r.cap, r.head_addr, r.tail_addr,
              r.scratch_addr, r.done_addr, row, r.wit_addr,
              r.fold_scratch_addr, r.resp_addr, r.bounce_addr,
              r.applied_addr, r.window_out_addr)


class InflightRings:
    """A bank's in-flight records and scratch, addresses cached.

    ``ring`` is one float64 block of ``n × cap`` records
    ``[origin, size, svc, dep, attempts]``: server ``s`` owns
    ``ring[s]``, its live records ``ring[s, head[s]:tail[s]]`` oldest
    first.  ``done`` collects a window's completion rows
    ``(server, origin, size, svc, dep)``, and ``wit``/``resp`` their
    speed witnesses (grouped by server, bounds in ``fold_scratch``) and
    response times.  A fault-mode window writes its departures into
    ``dep``, its ``[time, origin, size, attempts]`` bounce rows into
    ``bounce``, one membership flag per event into ``applied``, its
    completion and bounce row counts and its servers up into
    ``window_out`` and its fold inputs into ``wit``, ``fold_scratch``
    and ``resp``, and counts each server's jobs in ``scratch``.  A
    fault-free window writes ``dep``, ``svc`` and ``order``, its group
    bounds into ``scratch`` and its per-server Lindley registers into
    ``state``.  ``speeds``, ``free_at``, ``up`` and ``factor`` (the
    speed factors) are the bank's own vectors, which it only ever
    updates in place.  Every address is taken when its array is
    (re)allocated, so a kernel call looks up only its input arrays.
    Per process and not thread-safe, like the :class:`Arena`.
    """

    #: Initial records per server.
    MIN_CAPACITY = 16

    def __init__(self, speeds: np.ndarray, free_at: np.ndarray,
                 up: np.ndarray, factor: np.ndarray):
        n = int(free_at.size)
        self.n = n
        self.speeds_addr = speeds.ctypes.data
        self.free_at_addr = free_at.ctypes.data
        self.up_addr = up.ctypes.data
        self.factor_addr = factor.ctypes.data
        self.head = np.zeros(n, dtype=np.int64)
        self.tail = np.zeros(n, dtype=np.int64)
        self.head_addr = self.head.ctypes.data
        self.tail_addr = self.tail.ctypes.data
        # Offsets (n + 1) and cursor (n) of a fault-free window's
        # grouping, or a fault-mode window's per-server job counts.
        self.scratch = np.zeros(2 * n + 1, dtype=np.int64)
        self.scratch_addr = self.scratch.ctypes.data
        # A window's running (acc, m) Lindley registers per server.
        self.state = np.empty(2 * n)
        self.state_addr = self.state.ctypes.data
        self.fold_scratch = np.zeros(2 * n + 1, dtype=np.int64)
        self.fold_scratch_addr = self.fold_scratch.ctypes.data
        self.cap = 0
        self.grow(self.MIN_CAPACITY)
        self.dep = np.empty(0)
        self.reserve(self.MIN_CAPACITY)
        self.done = np.empty((0, 5))
        self.reserve_done(0, 2 * n * self.cap)
        self.bounce = np.empty((0, 4))
        self.applied = np.empty(0, dtype=bool)
        self.reserve_window(0, 0, 1)
        self.window_out = np.zeros(3, dtype=np.int64)
        self.window_out_addr = self.window_out.ctypes.data

    def grow(self, cap: int) -> None:
        """Re-allocate the ring block at ``cap`` records per server,
        each server's live records moved to the front of its slot."""
        ring = np.empty((self.n, cap, 5))
        if self.cap:
            for s in range(self.n):
                h, t = int(self.head[s]), int(self.tail[s])
                ring[s, :t - h] = self.ring[s, h:t]
            self.tail -= self.head
            self.head[:] = 0
        self.ring = ring
        self.ring_addr = ring.ctypes.data
        self.cap = int(cap)

    def reserve(self, k: int) -> None:
        """Room for ``k`` jobs in ``dep``, ``svc`` and ``order``."""
        if k > self.dep.size:
            k = max(k, 2 * self.dep.size)
            self.dep = np.empty(k)
            self.dep_addr = self.dep.ctypes.data
            self.svc = np.empty(k)
            self.svc_addr = self.svc.ctypes.data
            self.order = np.empty(k, dtype=np.int64)
            self.order_addr = self.order.ctypes.data

    def reserve_done(self, rows: int, extra: int) -> None:
        """Room for ``extra`` more rows after the first ``rows`` of
        ``done``, which a re-allocation keeps."""
        if rows + extra > len(self.done):
            done = np.empty((max(rows + extra, 2 * len(self.done)), 5))
            done[:rows] = self.done[:rows]
            self.done = done
            self.done_addr = done.ctypes.data
            self.wit = np.empty(len(done))
            self.wit_addr = self.wit.ctypes.data
            self.resp = np.empty(len(done))
            self.resp_addr = self.resp.ctypes.data

    def reserve_window(self, rows: int, k: int, nev: int) -> None:
        """Room for a fault-mode window of ``k`` jobs and ``nev``
        events after the first ``rows`` of ``done``: ``k`` departures,
        and completion and bounce rows for every live record and job."""
        self.reserve(k)
        extra = self.n * self.cap + k
        self.reserve_done(rows, extra)
        if extra > len(self.bounce):
            self.bounce = np.empty((max(extra, 2 * len(self.bounce)), 4))
            self.bounce_addr = self.bounce.ctypes.data
        if nev > self.applied.size:
            self.applied = np.empty(max(nev, 2 * self.applied.size), dtype=bool)
            self.applied_addr = self.applied.ctypes.data


class _Pinned:
    """Pinned scratch rows of a once-per-window entry, addresses cached.

    ``f64`` and ``i64`` hold ``f64_rows`` and ``i64_rows`` rows of ``n``
    elements, ``up`` one bool row; ``n`` grows to the widest network
    seen and never shrinks.  A swap or a control window calls these
    entries once, so copying a few inputs into place beats taking fresh
    arrays' addresses.  Per process and not thread-safe, like the
    :class:`Arena`.
    """

    def __init__(self, f64_rows: int, i64_rows: int):
        self.rows = (f64_rows, i64_rows)
        self.n = -1

    def reserve(self, n: int) -> "_Pinned":
        if n > self.n:
            self.n = max(n, 2 * self.n, 8)
            f64_rows, i64_rows = self.rows
            self.f64 = np.zeros(f64_rows * self.n)
            self.i64 = np.zeros(i64_rows * self.n, dtype=np.int64)
            self.up = np.zeros(self.n, dtype=bool)
            self.f64_addr = self.f64.ctypes.data
            self.i64_addr = self.i64.ctypes.data
            self.up_addr = self.up.ctypes.data
        return self


#: Algorithm 1 entries.  ``f64``: speeds in, alphas out, then six rows
#: of kernel scratch; ``i64``: three rows; ``up``: the membership mask.
_alloc_scratch = _Pinned(8, 3)
#: The control boundary.  ``f64``: the snapshot, its scratch, the delta
#: and the target alphas (4 + 3n doubles, within four rows), six rows of
#: re-solve scratch, then the running alphas; ``i64``: three rows.
_boundary_scratch = _Pinned(11, 3)


def rr_walk_c(fn, f64_addr: int, i64_addr: int, n: int, nactive: int,
              nstarted: int, count: int) -> tuple[np.ndarray, int]:
    """Walk a live Algorithm 2 state ``count`` targets further, in place.

    The state is a dispatcher's own pinned blocks, rows ``n`` wide: at
    ``f64_addr`` 1/alpha, then ``next``; at ``i64_addr`` the
    ``nactive`` participant indices, then ``assign``, then the servers
    that have won, in first-win order (the first ``nstarted`` filled).
    Returns a fresh int64 array of the targets and how many servers won
    for the first time, which the kernel appended to that row.
    """
    out = np.empty(count, dtype=np.int64)
    k = fn(f64_addr, i64_addr, nactive, i64_addr + 8 * n, f64_addr + 8 * n,
           count, _addr(out), i64_addr + 8 * (2 * n + nstarted))
    return out, k


def rr_seed_c(fn, n: int, guard: float, f64_addr: int, i64_addr: int,
              atol: float) -> int:
    """Validate an allocation and seed a live Algorithm 2 state from it.

    The blocks are :func:`rr_walk_c`'s, ``n`` wide, with a third
    float64 row that holds the ``n`` fractions on entry and the clipped
    fractions on return.  Returns the number of active servers, 0 when
    none is, or -1 when ``validate_allocation`` would raise (the kernel
    then writes nothing).
    """
    return fn(f64_addr + 16 * n, n, atol, guard, _fns.sum_seeded,
              f64_addr, i64_addr)


def est_arrivals_c(fn, state: int, buf: int, times: np.ndarray,
                   sizes: np.ndarray) -> bool:
    """One window's arrivals into the estimator state, in place.

    ``state`` and ``buf`` are the addresses of the estimator vector and
    of the windowed rate's buffer, which must have room for
    ``times.size`` more timestamps past its live slice; ``times`` and
    ``sizes`` contiguous float64.  False when the batch is not finite
    and non-decreasing — the kernel then wrote nothing.
    """
    return fn(state, buf, _addr(times), times.size, _addr(sizes),
              sizes.size) == 0


def est_completions_c(fn, state: int, witnesses: np.ndarray, offsets,
                      nservers: int, p2: int, nsets: int,
                      responses: np.ndarray) -> bool:
    """One window's completions into the estimator state and P² blocks.

    ``witnesses`` contiguous float64, grouped by ``offsets`` (contiguous
    int64 of ``nservers + 1`` bounds, or None to fold no witnesses);
    ``p2`` the address of ``nsets`` contiguous P² blocks; ``responses``
    contiguous float64.  False when the offsets are not non-decreasing
    bounds into the witnesses — the kernel then wrote nothing.
    """
    if offsets is None:
        wit = off = None
        nwit = 0
    else:
        wit, off = _addr(witnesses), _addr(offsets)
        nwit = witnesses.size
    return fn(state, wit, nwit, off, nservers, p2, nsets,
              _addr(responses), responses.size) == 0


def p2_fold_probe_c(fn, blocks: np.ndarray, responses: np.ndarray,
                    lanes: bool) -> bool:
    """Fold *responses* into the P² blocks of *blocks*, in place.

    The response-time half of ``est_completions`` alone, for tests:
    ``blocks`` a contiguous float64 array of whole 27-double P² blocks,
    ``responses`` contiguous float64.  ``lanes=False`` keeps every set
    on the scalar loop; ``lanes=True`` lets each full group of four take
    the AVX2 lane loop once its sets are past their warm-up, where this
    build and CPU have one.  True when some group took the lane loop.
    """
    for a in (blocks, responses):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError("P² blocks and responses must be contiguous float64")
    if blocks.size % 27:
        raise ValueError(f"{blocks.size} doubles are not whole 27-double P² blocks")
    return fn(_addr(blocks), blocks.size // 27, _addr(responses),
              responses.size, int(lanes)) == 1


def est_snapshot_c(fn, state: int, buf: int, nominal: int, up, n: int,
                   now: float, out: int) -> None:
    """The re-solve's inputs at *now* into the doubles at ``out``.

    ``state``, ``buf`` and ``nominal`` are the addresses of the
    estimator vector, the windowed rate's buffer and the ``n`` nominal
    speeds, ``up`` that of the membership mask (None: all up).  Writes
    rate, mean size, utilization and ``n`` speeds from ``out`` on, and
    uses the ``n`` doubles after them as scratch.
    """
    fn(state, buf, nominal, up, n, now, _fns.sum_seeded, out,
       out + 8 * (n + 3))


def optimized_alloc_c(fn, speeds: np.ndarray, mu: float, lam: float,
                      rtol: float) -> np.ndarray | None:
    """Algorithm 1 through the scalar kernel; None defers to numpy."""
    n = int(speeds.size)
    sc = _alloc_scratch.reserve(n)
    sc.f64[:n] = speeds
    status = fn(sc.f64_addr, n, mu, lam, rtol, _fns.sum_seeded,
                       sc.f64_addr + 8 * n, sc.i64_addr,
                       sc.f64_addr + 16 * n)
    return None if status else sc.f64[n:2 * n].copy()


def survivor_alloc_c(fn, speeds: np.ndarray, up: np.ndarray, u: float,
                     rtol: float) -> tuple[int, np.ndarray | None]:
    """FA_ORR's survivor re-solve through the scalar kernel.

    ``(0, alphas)``; ``(1, None)`` on total outage; ``(2, None)`` to
    defer to the numpy body.
    """
    n = int(speeds.size)
    sc = _alloc_scratch.reserve(n)
    sc.f64[:n] = speeds
    sc.up[:n] = up
    status = fn(sc.f64_addr, sc.up_addr, n, u, rtol, _fns.sum_seeded,
                sc.f64_addr + 8 * n, sc.i64_addr, sc.f64_addr + 16 * n)
    if status:
        return int(status), None
    return 0, sc.f64[n:2 * n].copy()


def boundary_resolve_c(fn, state: int, buf: int, nominal: int, est_up,
                       up: np.ndarray, now: float, membership: bool,
                       rho_cap: float, tol: float, rtol: float,
                       alphas: np.ndarray) -> tuple[int, np.ndarray]:
    """One control boundary's re-solve through the compiled core.

    ``state``, ``buf``, ``nominal`` and ``est_up`` are the estimator's
    addresses as :func:`est_snapshot_c` takes them; ``up`` is the
    controller's contiguous bool membership mask and ``alphas`` its
    running contiguous float64 allocation.  Returns ``(status, out)``:
    the kernel's status (0 nothing re-planned, 1 resolved, 2 resolved
    and swapped, 3 out-of-band swap, -1 defer to the Python body) and a
    view of the pinned block holding λ̂, m̂, ρ̂ and the ``n`` speeds,
    ``n`` scratch doubles, the delta and the ``n`` target alphas.
    Consume the view before the next call.
    """
    n = int(alphas.size)
    sc = _boundary_scratch.reserve(n)
    w = sc.n
    # Copied in, not passed by address: a buffer export leaves numpy's
    # buffer info on the array for its lifetime, and every swap's
    # alphas live on in the report's window records.
    sc.f64[10 * w:10 * w + n] = alphas
    status = fn(state, buf, nominal, est_up, _addr(up), n, now,
                membership, rho_cap, tol, rtol, _fns.sum_seeded,
                sc.f64_addr + 80 * w, sc.f64_addr, sc.i64_addr,
                sc.f64_addr + 32 * w)
    return status, sc.f64


def map_uniform_c(fn, cum: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """searchsorted(cum, u, side="right") through the compiled mapper.

    ``cum`` and ``u`` contiguous float64, ``out`` contiguous int64 of
    ``u``'s length.  Integer output: bit-identical to numpy by
    construction.
    """
    fn(
        cum.ctypes.data,
        ctypes.c_longlong(cum.size),
        u.ctypes.data,
        ctypes.c_longlong(u.size),
        out.ctypes.data,
    )
