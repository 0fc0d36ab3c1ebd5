/* Exact FCFS/PS replay kernels for the static fast path.
 *
 * Compiled on demand by repro.sim.ckernel (gcc -O3 -fPIC -shared
 * -ffp-contract=off, plus -fopenmp when the toolchain supports it) and
 * called through ctypes from repro.sim.fastpath.  The float arithmetic
 * mirrors the numpy/Python reference formulations operation for
 * operation, and -ffp-contract=off forbids fused multiply-adds, so on
 * the standard SSE2 double pipeline the completions are bit-identical
 * to the interpreted path.
 *
 * The heap is a binary min-heap over (tag, index) pairs ordered
 * lexicographically — exactly the tuple ordering heapq applies to
 * (tag, j) in the Python loop, so ties retire in the same order.
 *
 * OpenMP is used only across (plan, server) slices whose outputs are
 * disjoint: no reduction crosses a slice boundary, so the schedule and
 * thread count cannot affect the bits.
 */
#include <math.h>
#include <stddef.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef long long i64;

static inline int heap_lt(const double *ht, const i64 *hi, i64 a, i64 b) {
    if (ht[a] < ht[b]) return 1;
    if (ht[a] > ht[b]) return 0;
    return hi[a] < hi[b];
}

static void sift_down(double *ht, i64 *hi, i64 n, i64 pos) {
    double t = ht[pos]; i64 ix = hi[pos];
    for (;;) {
        i64 c = 2 * pos + 1;
        if (c >= n) break;
        if (c + 1 < n && heap_lt(ht, hi, c + 1, c)) c++;
        if (ht[c] < t || (ht[c] == t && hi[c] < ix)) {
            ht[pos] = ht[c]; hi[pos] = hi[c]; pos = c;
        } else break;
    }
    ht[pos] = t; hi[pos] = ix;
}

static void sift_up(double *ht, i64 *hi, i64 pos) {
    double t = ht[pos]; i64 ix = hi[pos];
    while (pos > 0) {
        i64 p = (pos - 1) / 2;
        if (t < ht[p] || (t == ht[p] && ix < hi[p])) {
            ht[pos] = ht[p]; hi[pos] = hi[p]; pos = p;
        } else break;
    }
    ht[pos] = t; hi[pos] = ix;
}

/* Exact virtual-time PS replay of one multi-job busy period
 * [start, end): float-op-for-float-op the Python _ps_busy_period loop. */
static void replay_period(const double *times, const double *work, double speed,
                          i64 start, i64 end, double *completions,
                          double *ht, i64 *hi) {
    i64 n = 0;           /* active jobs (heap size) */
    double v = 0.0;      /* virtual PS clock, fresh per busy period */
    double t_last = times[start];
    for (i64 j = start; j < end; j++) {
        double t_a = times[j];
        while (n > 0) {
            double tag = ht[0];
            double dt = (tag - v) * (double)n / speed;
            if (dt < 0.0) dt = 0.0;
            double t_dep = t_last + dt;
            if (t_dep > t_a) break;
            completions[hi[0]] = t_dep;
            t_last = t_dep;
            v = tag;
            n--;
            if (n > 0) { ht[0] = ht[n]; hi[0] = hi[n]; sift_down(ht, hi, n, 0); }
        }
        if (n > 0) v += (t_a - t_last) * speed / (double)n;
        t_last = t_a;
        ht[n] = v + work[j]; hi[n] = j; sift_up(ht, hi, n); n++;
    }
    while (n > 0) {
        double tag = ht[0];
        double dt = (tag - v) * (double)n / speed;
        if (dt < 0.0) dt = 0.0;
        t_last += dt;
        v = tag;
        completions[hi[0]] = t_last;
        n--;
        if (n > 0) { ht[0] = ht[n]; hi[0] = hi[n]; sift_down(ht, hi, n, 0); }
    }
}

/* One FCFS Lindley step, D_j = max(D_{j-1}, T_j) + svc_j, in the
 * vectorized float order of fastpath.lindley_window —
 *   acc_j = acc_{j-1} + svc                  (np.cumsum is sequential)
 *   m_j   = max(m_{j-1}, t - (acc_j - svc))  (the running prefix max)
 *   dep_j = acc_j + m_j
 * acc starts at 0; m starts at the server's carried free-up instant
 * (-INFINITY for a fresh server).  Seeding the running max instead of
 * taking the elementwise maximum afterwards is exact: max never
 * rounds.  Every FCFS replay and the PS busy-period segmentation in
 * this file run through this one step. */
static inline double lindley_step(double *acc, double *m, double t,
                                  double svc) {
    double a = *acc + svc;
    *acc = a;
    double d = t - (a - svc);
    if (d > *m) *m = d;
    return a + *m;
}

/* Stable counting-sort prologue over one plan's targets: off
 * (nservers+1) receives the per-server group bounds and cur (nservers)
 * the starting write cursors, so `order[cur[tg[j]]++] = j` over the
 * jobs in arrival order yields numpy's stable argsort permutation.
 * Returns 1 as soon as a target lies outside [0, nservers), leaving
 * off and cur partial; the caller must write nothing else then. */
static int group_offsets(const i64 *tg, i64 n, i64 nservers, i64 *off,
                         i64 *cur) {
    for (i64 s = 0; s <= nservers; s++) off[s] = 0;
    for (i64 j = 0; j < n; j++) {
        i64 t = tg[j];
        if (t < 0 || t >= nservers) return 1;
        off[t + 1]++;
    }
    for (i64 s = 0; s < nservers; s++) off[s + 1] += off[s];
    for (i64 s = 0; s < nservers; s++) cur[s] = off[s];
    return 0;
}

/* Full per-substream PS pipeline for one server slice, single pass:
 * the Lindley depletion recursion and the busy-period segmentation
 * (job j opens a period iff it arrives at or after the depletion of
 * everything before it) run fused — each completed period is resolved
 * immediately, the singleton closed form t[b] + w[b]/speed for the
 * common case, the virtual-time heap otherwise.  The depletion instant
 * is carried in a register instead of a scratch array, so the float
 * values — and hence the segmentation and the bits — are exactly those
 * of the two-pass numpy formulation.  ht/hi: heap scratch of at least
 * n entries each. */
static void ps_slice(const double *t, const double *w, double sp, i64 n,
                     double *comp, double *ht, i64 *hi) {
    if (n <= 0) return;
    double acc = 0.0, m = -INFINITY, dep_prev = 0.0;
    i64 b = 0;
    for (i64 j = 0; j < n; j++) {
        if (j > b && t[j] >= dep_prev) {
            if (j - b == 1) comp[b] = t[b] + w[b] / sp;
            else replay_period(t, w, sp, b, j, comp, ht, hi);
            b = j;
        }
        dep_prev = lindley_step(&acc, &m, t[j], w[j] / sp);
    }
    if (n - b == 1) comp[b] = t[b] + w[b] / sp;
    else replay_period(t, w, sp, b, n, comp, ht, hi);
}

/* numpy searchsorted(cum, u, side="right"): for each u[j] the first
 * index i with cum[i] > u[j].  Integer output — any correct upper-bound
 * search yields the identical targets, ties included.
 *
 * Accelerated with a 256-bucket index over [0, 1): bucket k caches the
 * answer for its left edge k/256, and the answer is monotone in u, so
 * each in-range uniform finishes with a short forward scan from
 * lut[k] — usually zero or one comparison.  Out-of-range inputs take
 * the plain binary search. */
void map_uniform_right(const double *cum, i64 nbins, const double *u,
                       i64 n, i64 *out) {
    i64 lut[257];
    i64 i = 0;
    for (i64 k = 0; k <= 256; k++) {
        double x = (double)k / 256.0;
        while (i < nbins && cum[i] <= x) i++;
        lut[k] = i;
    }
    for (i64 j = 0; j < n; j++) {
        double x = u[j];
        if (x >= 0.0 && x < 1.0) {
            i64 lo = lut[(i64)(x * 256.0)];
            while (lo < nbins && cum[lo] <= x) lo++;
            out[j] = lo;
        } else {
            i64 lo = 0, hi = nbins;
            while (lo < hi) {
                i64 mid = (lo + hi) >> 1;
                if (x < cum[mid]) hi = mid; else lo = mid + 1;
            }
            out[j] = lo;
        }
    }
}

/* OpenMP introspection/control for the Python side (1/no-op without). */
i64 pk_max_threads(void) {
#ifdef _OPENMP
    return (i64)omp_get_max_threads();
#else
    return 1;
#endif
}

void pk_set_threads(i64 n) {
#ifdef _OPENMP
    if (n > 0) omp_set_num_threads((int)n);
#else
    (void)n;
#endif
}

i64 pk_openmp_enabled(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* ------------------------------------------------------------------
 * Serve hot path (quasi-static service loop)
 * ------------------------------------------------------------------ */

/* Carry-state FCFS window sweep: one control window of dispatched jobs
 * through the per-server Lindley recursion, with the servers' free-up
 * instants carried in from the previous window and written back out.
 *
 * Mirrors ServerBank.replay_window's numpy formulation bit for bit:
 * grouping jobs by server with a stable counting sort (the same
 * permutation as numpy's stable argsort on the targets), then one
 * arrival-order pass of lindley_step with per-server (acc, m)
 * registers in the state scratch, m seeded with the carried free_at.
 *
 * Outputs: departures/service_times in arrival order, plus the stable
 * grouping permutation (order) and per-server group bounds (offsets,
 * nservers+1), which the service loop reuses to fold per-server speed
 * witnesses without a second argsort.  free_at (nservers) is updated
 * in place; servers with no jobs in the window keep their value.
 * cursor (nservers) and state (2*nservers) are caller scratch.
 *
 * Returns 0 on success, 1 if any target lies outside [0, nservers);
 * the counting sort rejects it before free_at or any output is written.
 */
i64 fcfs_window_sweep(const double *times, const double *work, i64 n,
                      const double *speeds, i64 nservers,
                      const i64 *targets, double *free_at,
                      double *departures, double *service_times,
                      i64 *order, i64 *offsets, i64 *cursor,
                      double *state) {
    if (group_offsets(targets, n, nservers, offsets, cursor)) return 1;
    double *acc = state;
    double *m = state + nservers;
    for (i64 s = 0; s < nservers; s++) {
        acc[s] = 0.0;
        m[s] = free_at[s];
    }
    for (i64 j = 0; j < n; j++) {
        i64 s = targets[j];
        double svc = work[j] / speeds[s];
        double dep = lindley_step(&acc[s], &m[s], times[j], svc);
        departures[j] = dep;
        service_times[j] = svc;
        free_at[s] = dep;
        order[cursor[s]++] = j;
    }
    return 0;
}

/* Fault-mode segment dispatch: the jobs of one fault segment (between
 * two fault events) queued on their target servers in arrival order.
 *
 * Mirrors the per-job step of ServerBank's fault mode, float op for
 * float op: svc = w / eff[s], then dep = max(free_at[s], t) + svc with
 * Python's max (the first argument on ties, so t wins only when it is
 * strictly later), then free_at[s] = dep.  eff is the servers'
 * effective speeds (speeds * speed_factor, elementwise).  A job aimed
 * at a down server (up[s] == 0) bounces: its dep reads NaN and free_at
 * is left alone.  This is a plain max-plus step, not the cumulative
 * lindley_step: the two round differently, and fault mode's bits are
 * pinned to this one.
 *
 * Like fcfs_window_sweep it also emits the stable grouping permutation
 * (order) and per-server group bounds (offsets, nservers+1), which the
 * bank uses to append each server's jobs to its in-flight FIFO.
 * cursor (nservers) is caller scratch.
 *
 * Returns 0 on success, 1 if any target lies outside [0, nservers);
 * the counting sort rejects it before free_at, dep, svc or order is
 * written (offsets and cursor are left partial).
 */
i64 fcfs_dispatch_segment(const double *times, const double *work, i64 n,
                          const double *eff, const unsigned char *up,
                          i64 nservers, const i64 *targets, double *free_at,
                          double *dep, double *svc, i64 *order,
                          i64 *offsets, i64 *cursor) {
    if (group_offsets(targets, n, nservers, offsets, cursor)) return 1;
    for (i64 j = 0; j < n; j++) {
        i64 s = targets[j];
        double v = work[j] / eff[s];
        svc[j] = v;
        order[cursor[s]++] = j;
        if (!up[s]) {
            dep[j] = NAN;
            continue;
        }
        double t = times[j], f = free_at[s];
        double d = (t > f ? t : f) + v;
        dep[j] = d;
        free_at[s] = d;
    }
    return 0;
}

/* Algorithm 2 sequence extension: `count` further dispatch targets from
 * live (assign, next) state — the compiled mirror of
 * RoundRobinDispatcher.select, float op for float op (see
 * repro/dispatch/round_robin.py for the step-by-step commentary).
 * active/inv are the alpha > 0 participant indices and their
 * precomputed 1/alpha (the Python _setup values, so the tie-break
 * products use the identical doubles).  assign/nxt are updated in
 * place, exactly as `count` Python select() calls would leave them.
 */
void rr_sequence_extend(const double *inv, const i64 *active, i64 nactive,
                        i64 *assign, double *nxt, i64 count, i64 *out) {
    for (i64 k = 0; k < count; k++) {
        i64 sel = -1;
        double minnext = 0.0, norassign = 0.0;
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            double ni = nxt[i];
            if (sel == -1 || ni < minnext) {
                minnext = ni;
                norassign = (double)(assign[i] + 1) * inv[i];
                sel = i;
            } else if (ni == minnext) {
                double cand = (double)(assign[i] + 1) * inv[i];
                if (cand < norassign) { norassign = cand; sel = i; }
            }
        }
        if (assign[sel] == 0) nxt[sel] = 0.0;
        nxt[sel] += inv[sel];
        assign[sel] += 1;
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            if (assign[i] > 0) nxt[i] -= 1.0;
        }
        out[k] = sel;
    }
}

/* Bias-corrected EWMA fold: the sequential recursion of
 * EwmaEstimator.update over a batch of observations.
 *     raw  = (1-w)*raw  + w*x
 *     norm = (1-w)*norm + w
 * state = [raw, norm], updated in place.  The Python update computes
 * keep = 1.0 - weight per call with the same doubles, so the fold is
 * bit-identical to the per-observation loop.
 */
void ewma_fold(double *state, double weight, const double *xs, i64 n) {
    double raw = state[0], norm = state[1];
    double keep = 1.0 - weight;
    for (i64 j = 0; j < n; j++) {
        raw = keep * raw + weight * xs[j];
        norm = keep * norm + weight;
    }
    state[0] = raw;
    state[1] = norm;
}

/* One P² (Jain–Chlamtac) streaming-quantile update: the post-warmup
 * marker update of P2Quantile.update, with the locate / position-shift
 * / parabolic-else-linear adjustment copied operation for operation
 * from the Python method.  q/n/np_ are the five marker heights, actual
 * positions, and desired positions (updated in place); dn the fixed
 * desired-position increments.
 */
static inline void p2_step(double *restrict q, double *restrict n,
                           double *restrict np_, const double *restrict dn,
                           double x) {
    i64 k;
    if (x < q[0]) {
        q[0] = x;
        k = 0;
    } else if (x >= q[4]) {
        if (x > q[4]) q[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= q[k + 1]) k++;
    }
    for (i64 i = k + 1; i < 5; i++) n[i] += 1.0;
    for (i64 i = 0; i < 5; i++) np_[i] += dn[i];
    for (i64 i = 1; i <= 3; i++) {
        double d = np_[i] - n[i];
        if ((d >= 1.0 && n[i + 1] - n[i] > 1.0) ||
            (d <= -1.0 && n[i - 1] - n[i] < -1.0)) {
            d = d >= 1.0 ? 1.0 : -1.0;
            double cand = q[i] + d / (n[i + 1] - n[i - 1]) *
                ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) /
                     (n[i + 1] - n[i]) +
                 (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) /
                     (n[i] - n[i - 1]));
            if (!(q[i - 1] < cand && cand < q[i + 1])) {
                i64 j = i + (i64)d;
                cand = q[i] + d * (q[j] - q[i]) / (n[j] - n[i]);
            }
            q[i] = cand;
            n[i] += d;
        }
    }
}

#define P2_SET 20   /* doubles per marker set: q, n, np_, dn */
#define P2_GROUP 4  /* sets interleaved per pass over xs */

/* Fold one batch into k P² marker sets at once.
 *
 * sets: k row-major marker sets of P2_SET doubles, [q | n | np_ | dn]
 * (q, n, np_ updated in place); starts[s]: the first element of xs that
 * set s takes — each set folds xs[starts[s] .. m).  A set whose start
 * is >= m is left untouched.
 *
 * Sets are independent, so interleaving them element by element
 * overlaps their division chains without changing any set's
 * operation sequence: each one's markers are bit-identical to folding
 * it alone.  Groups of P2_GROUP sets run in local copies so the
 * compiler can keep them apart from xs.
 */
void p2_fold_many(double *sets, const i64 *starts, i64 k, const double *xs,
                  i64 m) {
    for (i64 g = 0; g < k; g += P2_GROUP) {
        i64 kg = k - g < P2_GROUP ? k - g : P2_GROUP;
        double st[P2_GROUP][P2_SET];
        i64 lo = m;
        for (i64 s = 0; s < kg; s++) {
            for (i64 i = 0; i < P2_SET; i++) st[s][i] = sets[(g + s) * P2_SET + i];
            if (starts[g + s] < lo) lo = starts[g + s];
        }
        for (i64 t = lo; t < m; t++) {
            double x = xs[t];
            for (i64 s = 0; s < kg; s++)
                if (t >= starts[g + s])
                    p2_step(st[s], st[s] + 5, st[s] + 10, st[s] + 15, x);
        }
        for (i64 s = 0; s < kg; s++)
            for (i64 i = 0; i < 15; i++) sets[(g + s) * P2_SET + i] = st[s][i];
    }
}

/* Whole-cell fused replay: every unique dispatch plan of one
 * replication in a single call.
 *
 * times/work: the replication's shared arrival/size streams (length n);
 * targets: nplans contiguous rows of n server indices (one dispatch
 * plan per row); completions: nplans rows of n output instants in
 * arrival order.  use_ps selects the PS pipeline (else FCFS).
 *
 * Scratch (caller-provided, reused across calls via the Python arena):
 *   gt/gw/gc        nplans*n   server-grouped times/work/completions
 *   order           nplans*n   grouping permutation (for scatter-back)
 *   offsets         nplans*(nservers+1)  per-plan group bounds (output:
 *                   the Python side reads them for per-server stats)
 *   pos             nplans*(nservers+1)  counting-sort cursors
 *   ht/hi           nthreads*n per-thread heap scratch
 *
 * Three phases, each an OpenMP parallel-for over disjoint outputs with
 * an implicit barrier between phases, so threaded output is
 * bit-identical to serial by construction:
 *   A. counting-sort grouping per plan — stable (arrival order kept
 *      within a server), the same permutation as numpy's stable argsort
 *      on the target keys;
 *   B. replay each (plan, server) slice;
 *   C. scatter each plan's completions back to arrival order.
 *
 * Returns 0 on success, 1 if any target is out of [0, nservers) (the
 * caller falls back to the numpy path, which raises cleanly).
 */
/* Phase D — per-plan summarize precursors for the post-warmup tail.
 * Response times and response ratios are elementwise (one subtract, one
 * divide per job — bit-identical wherever they are computed) and the
 * per-server dispatch counts are integers, so hoisting them out of the
 * per-plan numpy passes changes no bits.  Skipped when cut >= n. */
static void summarize_tail(const double *times, const double *work, i64 n,
                           i64 nservers, const i64 *targets, i64 nplans,
                           const double *completions, i64 cut,
                           double *resp, double *ratio, i64 *pcounts,
                           i64 nthreads) {
    (void)nthreads;  /* read only by the OpenMP pragma */
    i64 m = n - cut;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *tg = targets + p * n;
        const double *out = completions + p * n;
        i64 *pc = pcounts + p * nservers;
        double *pr = resp + p * m;
        double *pq = ratio + p * m;
        for (i64 s = 0; s < nservers; s++) pc[s] = 0;
        for (i64 j = cut; j < n; j++) {
            double r = out[j] - times[j];
            pr[j - cut] = r;
            pq[j - cut] = r / work[j];
            pc[tg[j]]++;
        }
    }
}

i64 cell_replay_batch(const double *times, const double *work, i64 n,
                      const double *speeds, i64 nservers,
                      const i64 *targets, i64 nplans, i64 use_ps,
                      double *completions,
                      double *gt, double *gw, double *gc,
                      i64 *order, i64 *offsets, i64 *pos,
                      double *ht, i64 *hi, i64 nthreads,
                      i64 cut, double *resp, double *ratio, i64 *pcounts) {
    i64 bad = 0;
    if (nthreads < 1) nthreads = 1;
    /* Per-thread scratch stride, mirrored by the Python caller when it
     * sizes ht/hi: the PS heap needs n entries, the fused FCFS pass
     * needs 2*nservers doubles of per-server state. */
    i64 stride = n > 2 * nservers ? n : 2 * nservers;

    if (!use_ps) {
        /* FCFS fused path: the Lindley recursion is online — carrying
         * per-server (acc, m) state through one arrival-order sweep
         * performs the same float ops in the same per-server order as
         * grouping + per-server replay + scatter, so the bits match while
         * the grouped-times copy, the order index, and the scatter
         * pass all disappear.  Only the server-grouped sizes (the
         * per-server busy-time sums) still need the counting sort,
         * and that write fuses into the same sweep. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads) \
    reduction(|:bad)
#endif
        for (i64 p = 0; p < nplans; p++) {
            const i64 *tg = targets + p * n;
            i64 *off = offsets + p * (nservers + 1);
            i64 *cur = pos + p * (nservers + 1);
            if (group_offsets(tg, n, nservers, off, cur)) { bad |= 1; continue; }
            i64 tid = 0;
#ifdef _OPENMP
            tid = (i64)omp_get_thread_num();
#endif
            double *acc = ht + tid * stride;
            double *m = acc + nservers;
            for (i64 s = 0; s < nservers; s++) {
                acc[s] = 0.0;
                m[s] = -INFINITY;
            }
            double *pw = gw + p * n;
            double *out = completions + p * n;
            /* Phase D fused in: the completion is still in a register
             * when the post-warmup response/ratio are derived, saving
             * the re-read pass the PS path needs. */
            i64 dcut = (cut >= 0 && cut < n) ? cut : n;
            i64 *pc = pcounts + p * nservers;
            double *pr = resp + p * (n - dcut);
            double *pq = ratio + p * (n - dcut);
            if (dcut < n)
                for (i64 s = 0; s < nservers; s++) pc[s] = 0;
            for (i64 j = 0; j < n; j++) {
                i64 s = tg[j];
                pw[cur[s]++] = work[j];
                double c = lindley_step(&acc[s], &m[s], times[j],
                                        work[j] / speeds[s]);
                out[j] = c;
                if (j >= dcut) {
                    double r = c - times[j];
                    pr[j - dcut] = r;
                    pq[j - dcut] = r / work[j];
                    pc[s]++;
                }
            }
        }
        (void)gt; (void)gc; (void)order; (void)hi;
        return bad ? 1 : 0;
    }

    /* Phase A — group each plan's jobs by target server. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads) \
    reduction(|:bad)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *tg = targets + p * n;
        i64 *off = offsets + p * (nservers + 1);
        i64 *cur = pos + p * (nservers + 1);
        if (group_offsets(tg, n, nservers, off, cur)) { bad |= 1; continue; }
        i64 *ord = order + p * n;
        double *pt = gt + p * n, *pw = gw + p * n;
        for (i64 j = 0; j < n; j++) {
            i64 k = cur[tg[j]]++;
            ord[k] = j; pt[k] = times[j]; pw[k] = work[j];
        }
    }
    if (bad) return 1;

    /* Phase B — replay every (plan, server) slice. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 q = 0; q < nplans * nservers; q++) {
        i64 p = q / nservers, s = q % nservers;
        const i64 *off = offsets + p * (nservers + 1);
        i64 lo = off[s], cnt = off[s + 1] - lo;
        if (cnt <= 0) continue;
        i64 tid = 0;
#ifdef _OPENMP
        tid = (i64)omp_get_thread_num();
#endif
        const double *pt = gt + p * n + lo, *pw = gw + p * n + lo;
        double *pc = gc + p * n + lo;
        ps_slice(pt, pw, speeds[s], cnt, pc, ht + tid * stride,
                 hi + tid * stride);
    }

    /* Phase C — scatter back to arrival order. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *ord = order + p * n;
        const double *pc = gc + p * n;
        double *out = completions + p * n;
        for (i64 k = 0; k < n; k++) out[ord[k]] = pc[k];
    }
    if (cut >= 0 && cut < n)
        summarize_tail(times, work, n, nservers, targets, nplans,
                       completions, cut, resp, ratio, pcounts, nthreads);
    return 0;
}
