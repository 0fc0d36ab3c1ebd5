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
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
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

/* ------------------------------------------------------------------
 * Serve hot path (quasi-static service loop)
 * ------------------------------------------------------------------ */

/* Carry-state FCFS window sweep: one control window of dispatched jobs
 * through the per-server Lindley recursion, with the servers' free-up
 * instants carried in from the previous window and written back out.
 *
 * Mirrors ServerBank.replay_window_grouped's numpy fallback bit for bit:
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

/* Fault-mode in-flight rings.  A ServerBank keeps every server's
 * in-flight jobs in one float64 block of nservers * cap records, five
 * doubles each — [origin, size, svc, dep, attempts], the RING_* fields
 * below — with server s owning records [s * cap, (s + 1) * cap).  Its
 * live records are [head[s], tail[s]), oldest first; departures do not
 * decrease along them.  Python allocates and grows the block; these
 * entries only move records within it. */
#define RING_FIELDS 5
#define RING_ORIGIN 0
#define RING_SIZE 1
#define RING_SVC 2
#define RING_DEP 3
#define RING_ATTEMPTS 4
/* A collected row: [server, origin, size, svc, dep]. */
#define ROW_FIELDS 5

/* A fault window's jobs: one float64 block of JOB_FIELDS rows of n
 * doubles, row JOB_* holding that field of every job in arrival order.
 * A bounce row is [bounce time, origin, size, attempts] and an event
 * row [time, code, server, factor], EV_* codes. */
#define JOB_FIELDS 4
#define JOB_TIME 0
#define JOB_ORIGIN 1
#define JOB_SIZE 2
#define JOB_ATTEMPTS 3
#define BOUNCE_FIELDS 4
#define EVENT_FIELDS 4
#define EV_DOWN 0
#define EV_UP 1
#define EV_SPEED 2

/* Fault-mode segment dispatch: jobs [lo, hi) of a fault window (those
 * between two fault events) queued on their target servers in arrival
 * order.
 *
 * Mirrors ServerBank._dispatch_python float op for float op: svc =
 * w / (speeds[s] * factor[s]), then dep = max(free_at[s], t) + svc with
 * Python's max (the first argument on ties, so t wins only when it is
 * strictly later), then free_at[s] = dep.  A job aimed at a down server
 * (up[s] == 0) bounces: its dep reads NaN, free_at is left alone,
 * nothing is queued, and its bounce row (at its own arrival time) is
 * appended at row b of bounce.  This is a plain max-plus step, not the
 * cumulative lindley_step: the two round differently, and fault mode's
 * bits are pinned to this one.  Each accepted job is pushed onto its
 * server's ring as the record [origin, size, svc, dep, attempts]; the
 * caller has made room.  Returns the new bounce count. */
static i64 fcfs_dispatch_segment(const double *jobs, i64 n, const i64 *targets,
                                 i64 lo, i64 hi, const double *speeds,
                                 const double *factor, const unsigned char *up,
                                 double *free_at, double *dep, double *ring,
                                 i64 cap, i64 *tail, double *bounce, i64 b) {
    const double *times = jobs + JOB_TIME * n;
    const double *origins = jobs + JOB_ORIGIN * n;
    const double *work = jobs + JOB_SIZE * n;
    const double *attempts = jobs + JOB_ATTEMPTS * n;
    for (i64 j = lo; j < hi; j++) {
        i64 s = targets[j];
        double v = work[j] / (speeds[s] * factor[s]);
        if (!up[s]) {
            double *o = bounce + b++ * BOUNCE_FIELDS;
            dep[j] = NAN;
            o[0] = times[j];
            o[1] = origins[j];
            o[2] = work[j];
            o[3] = attempts[j];
            continue;
        }
        double t = times[j], f = free_at[s];
        double d = (t > f ? t : f) + v;
        dep[j] = d;
        free_at[s] = d;
        double *r = ring + (s * cap + tail[s]++) * RING_FIELDS;
        r[RING_ORIGIN] = origins[j];
        r[RING_SIZE] = work[j];
        r[RING_SVC] = v;
        r[RING_DEP] = d;
        r[RING_ATTEMPTS] = attempts[j];
    }
    return b;
}

/* Fault-mode completion collect: pops every in-flight record with
 * dep <= now, server by server and in FIFO order within a server, as
 * the rows [server, origin, size, svc, dep] of out (row-major, five
 * doubles each; the caller reserves room for every live record).
 * Departures do not decrease along a ring, so each server's finished
 * records are a prefix of its live ones.  A ring left empty restarts
 * at the front of its slot.  Returns the number of rows written. */
static i64 inflight_collect(double *ring, i64 cap, i64 nservers, i64 *head,
                            i64 *tail, double now, double *out) {
    i64 m = 0;
    for (i64 s = 0; s < nservers; s++) {
        const double *slot = ring + s * cap * RING_FIELDS;
        i64 h = head[s], t = tail[s];
        while (h < t && slot[h * RING_FIELDS + RING_DEP] <= now) {
            const double *r = slot + h * RING_FIELDS;
            double *o = out + m * ROW_FIELDS;
            o[0] = (double)s;
            o[1] = r[RING_ORIGIN];
            o[2] = r[RING_SIZE];
            o[3] = r[RING_SVC];
            o[4] = r[RING_DEP];
            h++;
            m++;
        }
        if (h == t) head[s] = tail[s] = 0;
        else head[s] = h;
    }
    return m;
}

/* The estimator-fold inputs of a window's completion rows (the
 * inflight_collect rows, in collect order, so every row's server is an
 * index in [0, nservers)): wit receives each row's speed witness
 * size / svc regrouped by server — stable, so each server's witnesses
 * keep their collect order, the permutation of a counting sort on the
 * rows' server column — with the group bounds in offsets
 * (nservers + 1); resp receives each row's response time dep - origin
 * in row order.  cursor is nservers of scratch. */
static void completion_fold_inputs(const double *rows, i64 m, i64 nservers,
                                   double *wit, i64 *offsets, i64 *cursor,
                                   double *resp) {
    for (i64 s = 0; s <= nservers; s++) offsets[s] = 0;
    for (i64 j = 0; j < m; j++) offsets[(i64)rows[j * ROW_FIELDS] + 1]++;
    for (i64 s = 0; s < nservers; s++) offsets[s + 1] += offsets[s];
    for (i64 s = 0; s < nservers; s++) cursor[s] = offsets[s];
    for (i64 j = 0; j < m; j++) {
        const double *r = rows + j * ROW_FIELDS;
        wit[cursor[(i64)r[0]]++] = r[2] / r[3];
        resp[j] = r[4] - r[1];
    }
}

/* ServerBank.set_speed_factor's rescale: server s runs at speeds[s] * f
 * from now on.  Everything on one FCFS server after now is service
 * work at the old effective speed, so every live record still busy
 * (dep > now) and the free-up instant move affinely, x' = now +
 * (x - now) * scale with scale = s_old / s_new, and the busy records'
 * svc scales by the same factor. */
static void rescale_server(i64 s, double now, double f, const double *speeds,
                           double *factor, double *free_at, double *ring,
                           i64 cap, const i64 *head, const i64 *tail) {
    double old = speeds[s] * factor[s];
    factor[s] = f;
    double scale = old / (speeds[s] * f);
    if (scale == 1.0) return;
    double *slot = ring + s * cap * RING_FIELDS;
    for (i64 h = head[s]; h < tail[s]; h++) {
        double *r = slot + h * RING_FIELDS;
        if (r[RING_DEP] > now) {
            r[RING_DEP] = now + (r[RING_DEP] - now) * scale;
            r[RING_SVC] *= scale;
        }
    }
    if (free_at[s] > now) free_at[s] = now + (free_at[s] - now) * scale;
}

/* One fault-mode control window in one call: ServerBank's per-segment
 * loop (its interpreted fallback) compiled whole.
 *
 * jobs is the window's JOB_FIELDS x n block, times non-decreasing, and
 * targets their servers; events holds nev rows, times non-decreasing.
 * Event e closes a segment: the jobs not yet placed whose time is at
 * or before the event's (every job left, after the last event) go
 * through fcfs_dispatch_segment, every record with dep <= the event's
 * time (end, after the last event) is collected into done, and then
 * the event applies:
 *   EV_DOWN on an up server takes it down: its residents bounce at the
 *     event's time in FIFO order, its ring empties and free_at = time;
 *   EV_UP on a down server brings it back, empty, with free_at = time;
 *   EV_SPEED sets the server's speed factor (rescale_server).
 * applied[e] is 1 for a DOWN or UP that changed membership, else 0.
 * dep (n) receives each job's departure, NaN for a bounced job; the
 * completion rows go to done from row `row` on, and the fold inputs
 * of done's first row + m rows (completion_fold_inputs) to wit, fold
 * (2 * nservers + 1: offsets, then cursor scratch) and resp; the
 * bounce rows go to bounce in bounce order.  out[0] counts the rows
 * written to done, out[1] the bounce rows and out[2] the servers up
 * at the end.  The caller reserves done and bounce for every live
 * record plus n.
 *
 * Before anything is written, the call checks its inputs: it returns 1
 * if a target or an event's server is not an index in [0, nservers),
 * an event time is not finite, an event code is unknown or a speed
 * factor is not positive and finite.  It then counts each server's jobs into counts (nservers)
 * and returns 2 if some server's live records plus its jobs exceed
 * cap: Python grows the block and calls again, so a window never stops
 * midway.  A server whose jobs would run past the end of its slot has
 * its live records compacted to the front first.  Within the window a
 * ring's tail then only grows by its own jobs, or restarts at 0, so no
 * push leaves the slot. */
i64 fault_window(const double *jobs, const i64 *targets, i64 n,
                 const double *events, i64 nev, double end,
                 const double *speeds, double *factor, unsigned char *up,
                 i64 nservers, double *free_at, double *dep, double *ring,
                 i64 cap, i64 *head, i64 *tail, i64 *counts, double *done,
                 i64 row, double *wit, i64 *fold, double *resp,
                 double *bounce, unsigned char *applied, i64 *out) {
    for (i64 s = 0; s < nservers; s++) counts[s] = 0;
    for (i64 j = 0; j < n; j++) {
        i64 s = targets[j];
        if (s < 0 || s >= nservers) return 1;
        counts[s]++;
    }
    for (i64 e = 0; e < nev; e++) {
        const double *ev = events + e * EVENT_FIELDS;
        double code = ev[1], srv = ev[2], f = ev[3];
        if (!(ev[0] > -INFINITY && ev[0] < INFINITY)) return 1;
        if (!(srv >= 0.0 && srv < (double)nservers) || srv != (double)(i64)srv)
            return 1;
        if (code != EV_DOWN && code != EV_UP && code != EV_SPEED) return 1;
        if (code == EV_SPEED && !(f > 0.0 && f < INFINITY)) return 1;
    }
    for (i64 s = 0; s < nservers; s++)
        if (tail[s] - head[s] + counts[s] > cap) return 2;
    for (i64 s = 0; s < nservers; s++) {
        if (tail[s] + counts[s] > cap) {
            double *slot = ring + s * cap * RING_FIELDS;
            i64 live = tail[s] - head[s];
            memmove(slot, slot + head[s] * RING_FIELDS,
                    (size_t)(live * RING_FIELDS) * sizeof(double));
            head[s] = 0;
            tail[s] = live;
        }
    }
    const double *times = jobs + JOB_TIME * n;
    i64 j = 0, m = 0, b = 0;
    for (i64 e = 0; e <= nev; e++) {
        const double *ev = e < nev ? events + e * EVENT_FIELDS : NULL;
        double now = ev ? ev[0] : end;
        i64 stop = n;
        if (ev)
            for (stop = j; stop < n && times[stop] <= now; stop++) {}
        b = fcfs_dispatch_segment(jobs, n, targets, j, stop, speeds, factor,
                                  up, free_at, dep, ring, cap, tail, bounce,
                                  b);
        j = stop;
        m += inflight_collect(ring, cap, nservers, head, tail, now,
                              done + (row + m) * ROW_FIELDS);
        if (!ev) break;
        i64 s = (i64)ev[2];
        applied[e] = 0;
        if (ev[1] == EV_DOWN) {
            if (!up[s]) continue;
            const double *slot = ring + s * cap * RING_FIELDS;
            for (i64 h = head[s]; h < tail[s]; h++) {
                const double *r = slot + h * RING_FIELDS;
                double *o = bounce + b++ * BOUNCE_FIELDS;
                o[0] = now;
                o[1] = r[RING_ORIGIN];
                o[2] = r[RING_SIZE];
                o[3] = r[RING_ATTEMPTS];
            }
            head[s] = tail[s] = 0;
            up[s] = 0;
            free_at[s] = now;
            applied[e] = 1;
        } else if (ev[1] == EV_UP) {
            if (up[s]) continue;
            up[s] = 1;
            free_at[s] = now;
            applied[e] = 1;
        } else {
            rescale_server(s, now, ev[3], speeds, factor, free_at, ring, cap,
                           head, tail);
        }
    }
    completion_fold_inputs(done, row + m, nservers, wit, fold,
                           fold + nservers + 1, resp);
    i64 nup = 0;
    for (i64 s = 0; s < nservers; s++) nup += up[s] != 0;
    out[0] = m;
    out[1] = b;
    out[2] = nup;
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
 * started (room for nactive) receives the servers that win for the
 * first time (assign was 0), in the order they first win — what the
 * Python loop appends to its _started list.  Returns how many.
 */
i64 rr_sequence_extend(const double *inv, const i64 *active, i64 nactive,
                       i64 *assign, double *nxt, i64 count, i64 *out,
                       i64 *started) {
    i64 nstarted = 0;
    for (i64 k = 0; k < count; k++) {
        i64 sel = -1;
        double minnext = 0.0;
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            double ni = nxt[i];
            /* The previous selection's step 2.h, one pass with this
             * scan: the same subtraction on the same values. */
            if (k > 0 && assign[i] > 0) nxt[i] = ni = ni - 1.0;
            if (sel == -1 || ni < minnext) {
                minnext = ni;
                sel = i;
            } else if (ni == minnext) {
                /* The tie-break products, recomputed from the
                 * unchanged assign: the doubles select compares. */
                if ((double)(assign[i] + 1) * inv[i] <
                    (double)(assign[sel] + 1) * inv[sel])
                    sel = i;
            }
        }
        if (assign[sel] == 0) {
            nxt[sel] = 0.0;
            started[nstarted++] = sel;
        }
        nxt[sel] += inv[sel];
        assign[sel] += 1;
        out[k] = sel;
    }
    if (count > 0)
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            if (assign[i] > 0) nxt[i] -= 1.0;
        }
    return nstarted;
}

/* ------------------------------------------------------------------
 * Estimator step (quasi-static controller)
 *
 * The controller's estimators live in two flat float64 vectors that
 * repro.metrics.online owns and these entries update in place; the
 * offsets below mirror the _ES_, _EW_ and _P2_ constants there.  Every
 * fold is the per-element recursion of the Python estimator it stands
 * for, float op for float op, so state is bit-identical to
 * per-element updates.
 * ------------------------------------------------------------------ */

/* EWMA block (EwmaEstimator): raw, norm, count. */
#define EW_RAW 0
#define EW_NORM 1
#define EW_COUNT 2
#define EW_SIZE 3

/* Estimator vector (OnlineWorkloadEstimator). */
#define ES_GAP 0     /* EWMA block of the positive inter-arrival gaps */
#define ES_LAST 3    /* last arrival timestamp; NaN before the first */
#define ES_SIZE 4    /* EWMA block of the job sizes */
#define ES_HEAD 7    /* windowed rate: live slice [head, end) of the buffer */
#define ES_END 8
#define ES_WINDOW 9  /* windowed rate: window width */
#define ES_SEEN 10   /* arrivals observed */
#define ES_WEIGHT 11 /* EWMA weight of every block */
#define ES_SPEED 12  /* one EWMA block of speed witnesses per server */

/* P² block (P2Quantile): count, p, the warm-up samples, then the
 * marker heights, actual and desired positions and the fixed
 * desired-position increments, each five wide. */
#define P2_COUNT 0
#define P2_P 1
#define P2_INIT 2
#define P2_Q 7
#define P2_N 12
#define P2_NP 17
#define P2_DN 22
#define P2_SIZE 27

/* EwmaEstimator.update over xs[0..n): raw = (1-w)*raw + w*x and
 * norm = (1-w)*norm + w per observation, the Python keep = 1.0 - w
 * computed from the same doubles. */
static void ewma_fold(double *b, double w, const double *xs, i64 n) {
    double raw = b[EW_RAW], norm = b[EW_NORM];
    double keep = 1.0 - w;
    for (i64 j = 0; j < n; j++) {
        raw = keep * raw + w * xs[j];
        norm = keep * norm + w;
    }
    b[EW_RAW] = raw;
    b[EW_NORM] = norm;
    b[EW_COUNT] += (double)n;
}

/* The arrival half of the estimator step: one window's offered
 * arrivals (times, non-decreasing) and sizes.
 *
 * Validates before writing anything: every timestamp finite, and the
 * batch non-decreasing from the carried last timestamp and from the
 * windowed rate's newest live one.  Then, as OnlineWorkloadEstimator's
 * per-arrival hook would: the positive gaps t_j - t_{j-1} into the gap
 * EWMA (the first against the carried last timestamp), the sizes into
 * the size EWMA, and the times appended to the windowed rate's buffer
 * at [end, end+k) — the caller reserved the room — with one
 * lower-bound eviction against the newest timestamp's cutoff, which
 * drops exactly what the per-arrival evictions would.
 *
 * Returns 0, or 1 on an invalid batch (nothing written; the caller
 * names the offending timestamp). */
i64 est_arrivals(double *st, double *buf, const double *times, i64 k,
                 const double *sizes, i64 nsizes) {
    i64 head = (i64)st[ES_HEAD], end = (i64)st[ES_END];
    double prev = st[ES_LAST];
    if (k > 0 && end > head && times[0] < buf[end - 1]) return 1;
    for (i64 j = 0; j < k; j++) {
        double t = times[j];
        if (!isfinite(t) || t < prev) return 1;
        prev = t;
    }
    double w = st[ES_WEIGHT], keep = 1.0 - w;
    double *gap = st + ES_GAP;
    double raw = gap[EW_RAW], norm = gap[EW_NORM];
    i64 folded = 0;
    prev = st[ES_LAST];
    for (i64 j = 0; j < k; j++) {
        double g = times[j] - prev;  /* NaN against no last timestamp */
        if (g > 0.0) {
            raw = keep * raw + w * g;
            norm = keep * norm + w;
            folded++;
        }
        prev = times[j];
    }
    gap[EW_RAW] = raw;
    gap[EW_NORM] = norm;
    gap[EW_COUNT] += (double)folded;
    ewma_fold(st + ES_SIZE, w, sizes, nsizes);
    if (k > 0) {
        st[ES_LAST] = times[k - 1];
        for (i64 j = 0; j < k; j++) buf[end + j] = times[j];
        end += k;
        double cutoff = times[k - 1] - st[ES_WINDOW];
        i64 lo = head, hi = end;
        while (lo < hi) {
            i64 mid = lo + ((hi - lo) >> 1);
            if (buf[mid] < cutoff) lo = mid + 1; else hi = mid;
        }
        st[ES_HEAD] = (double)lo;
        st[ES_END] = (double)end;
    }
    st[ES_SEEN] += (double)k;
    return 0;
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

/* P2Quantile's warm-up: take samples into the block until it holds
 * five, then start the markers as P2Quantile._start does — the samples
 * sorted (a stable insertion sort: the order Python's list.sort leaves),
 * positions 0..4, desired positions from p.  Returns how many of xs
 * the warm-up took; the marker fold starts there. */
static i64 p2_warm(double *b, const double *xs, i64 m) {
    i64 c = (i64)b[P2_COUNT], j = 0;
    if (c >= 5) return 0;
    double *init = b + P2_INIT;
    while (c < 5 && j < m) init[c++] = xs[j++];
    b[P2_COUNT] = (double)c;
    if (c == 5) {
        double *q = b + P2_Q, *n = b + P2_N, *np_ = b + P2_NP;
        double p = b[P2_P];
        for (i64 i = 0; i < 5; i++) {
            double v = init[i];
            i64 h = i;
            while (h > 0 && v < q[h - 1]) { q[h] = q[h - 1]; h--; }
            q[h] = v;
        }
        for (i64 i = 0; i < 5; i++) n[i] = (double)i;
        np_[0] = 0.0;
        np_[1] = 2.0 * p;
        np_[2] = 4.0 * p;
        np_[3] = 2.0 + 2.0 * p;
        np_[4] = 4.0;
    }
    return j;
}

#define P2_GROUP 4  /* marker sets interleaved per pass over xs */

#if defined(__x86_64__) && defined(__GNUC__)
/* The marker update of p2_step for a full group, the four sets as the
 * four lanes of 256-bit vectors: lane s of q[i], n[i], np_[i] and dn[i]
 * is loc[s][i], loc[s][5 + i], loc[s][10 + i] and loc[s][15 + i].
 * Every lane runs p2_step's IEEE operations in p2_step's order — a
 * compare picks the locate branch, a blend stands for each assignment
 * under a condition — so each set's bits are those of the scalar loop.
 * A marker no lane adjusts is skipped, and so is the linear fallback
 * when no adjusting lane needs it.  Compiled for AVX2 alone (no FMA:
 * with -ffp-contract=off nothing fuses either way); callers take it
 * only where p2_lanes_ok() holds. */
static __attribute__((target("avx2"))) void p2_lanes(double loc[P2_GROUP][20],
                                                     const double *xs, i64 m) {
    __m256d q[5], n[5], np_[5], dn[5];
    for (int i = 0; i < 5; i++) {
        q[i] = _mm256_set_pd(loc[3][i], loc[2][i], loc[1][i], loc[0][i]);
        n[i] = _mm256_set_pd(loc[3][5 + i], loc[2][5 + i], loc[1][5 + i],
                             loc[0][5 + i]);
        np_[i] = _mm256_set_pd(loc[3][10 + i], loc[2][10 + i],
                               loc[1][10 + i], loc[0][10 + i]);
        dn[i] = _mm256_set_pd(loc[3][15 + i], loc[2][15 + i],
                              loc[1][15 + i], loc[0][15 + i]);
    }
    const __m256d one = _mm256_set1_pd(1.0), mone = _mm256_set1_pd(-1.0);
    for (i64 t = 0; t < m; t++) {
        __m256d x = _mm256_set1_pd(xs[t]);
        /* Locate: lo takes k = 0 and q[0] = x; hi (x >= q[4], not lo)
         * takes k = 3 and q[4] = x where x > q[4]; the rest walk k up
         * while x >= q[k + 1].  n[i] += 1 for i > k, i.e. unless hi or
         * (not lo and the walk passed marker i). */
        __m256d lo = _mm256_cmp_pd(x, q[0], _CMP_LT_OQ);
        __m256d hi = _mm256_andnot_pd(lo, _mm256_cmp_pd(x, q[4], _CMP_GE_OQ));
        __m256d past = _mm256_cmp_pd(x, q[1], _CMP_GE_OQ);
        __m256d stay1 = _mm256_or_pd(hi, _mm256_andnot_pd(lo, past));
        past = _mm256_and_pd(past, _mm256_cmp_pd(x, q[2], _CMP_GE_OQ));
        __m256d stay2 = _mm256_or_pd(hi, _mm256_andnot_pd(lo, past));
        past = _mm256_and_pd(past, _mm256_cmp_pd(x, q[3], _CMP_GE_OQ));
        __m256d stay3 = _mm256_or_pd(hi, _mm256_andnot_pd(lo, past));
        q[4] = _mm256_blendv_pd(
            q[4], x, _mm256_and_pd(hi, _mm256_cmp_pd(x, q[4], _CMP_GT_OQ)));
        q[0] = _mm256_blendv_pd(q[0], x, lo);
        n[1] = _mm256_blendv_pd(_mm256_add_pd(n[1], one), n[1], stay1);
        n[2] = _mm256_blendv_pd(_mm256_add_pd(n[2], one), n[2], stay2);
        n[3] = _mm256_blendv_pd(_mm256_add_pd(n[3], one), n[3], stay3);
        n[4] = _mm256_add_pd(n[4], one);
        for (int i = 0; i < 5; i++) np_[i] = _mm256_add_pd(np_[i], dn[i]);
        for (int i = 1; i <= 3; i++) {
            __m256d d = _mm256_sub_pd(np_[i], n[i]);
            __m256d rgap = _mm256_sub_pd(n[i + 1], n[i]);
            __m256d ge = _mm256_cmp_pd(d, one, _CMP_GE_OQ);
            __m256d adj = _mm256_or_pd(
                _mm256_and_pd(ge, _mm256_cmp_pd(rgap, one, _CMP_GT_OQ)),
                _mm256_and_pd(
                    _mm256_cmp_pd(d, mone, _CMP_LE_OQ),
                    _mm256_cmp_pd(_mm256_sub_pd(n[i - 1], n[i]), mone,
                                  _CMP_LT_OQ)));
            if (!_mm256_movemask_pd(adj)) continue;
            d = _mm256_blendv_pd(mone, one, ge);
            __m256d lgap = _mm256_sub_pd(n[i], n[i - 1]);
            __m256d cand = _mm256_add_pd(q[i], _mm256_mul_pd(
                _mm256_div_pd(d, _mm256_sub_pd(n[i + 1], n[i - 1])),
                _mm256_add_pd(
                    _mm256_div_pd(
                        _mm256_mul_pd(_mm256_add_pd(lgap, d),
                                      _mm256_sub_pd(q[i + 1], q[i])),
                        rgap),
                    _mm256_div_pd(
                        _mm256_mul_pd(_mm256_sub_pd(rgap, d),
                                      _mm256_sub_pd(q[i], q[i - 1])),
                        lgap))));
            __m256d inside = _mm256_and_pd(
                _mm256_cmp_pd(q[i - 1], cand, _CMP_LT_OQ),
                _mm256_cmp_pd(cand, q[i + 1], _CMP_LT_OQ));
            __m256d lin = _mm256_andnot_pd(inside, adj);
            if (_mm256_movemask_pd(lin)) {
                __m256d qj = _mm256_blendv_pd(q[i - 1], q[i + 1], ge);
                __m256d nj = _mm256_blendv_pd(n[i - 1], n[i + 1], ge);
                cand = _mm256_blendv_pd(cand, _mm256_add_pd(q[i], _mm256_div_pd(
                    _mm256_mul_pd(d, _mm256_sub_pd(qj, q[i])),
                    _mm256_sub_pd(nj, n[i]))), lin);
            }
            q[i] = _mm256_blendv_pd(q[i], cand, adj);
            n[i] = _mm256_blendv_pd(n[i], _mm256_add_pd(n[i], d), adj);
        }
    }
    double out[4][4];
    for (int i = 0; i < 5; i++) {
        _mm256_storeu_pd(out[0], q[i]);
        _mm256_storeu_pd(out[1], n[i]);
        _mm256_storeu_pd(out[2], np_[i]);
        for (int s = 0; s < P2_GROUP; s++) {
            loc[s][i] = out[0][s];
            loc[s][5 + i] = out[1][s];
            loc[s][10 + i] = out[2][s];
        }
    }
}

/* Whether this CPU (and its OS) runs AVX2, asked once. */
static int p2_lanes_ok(void) {
    static int ok = -1;
    if (ok < 0) {
        __builtin_cpu_init();
        ok = __builtin_cpu_supports("avx2") ? 1 : 0;
    }
    return ok;
}
#else
/* No lane loop off x86-64: every set stays on the scalar loop. */
static int p2_lanes_ok(void) { return 0; }
static void p2_lanes(double loc[P2_GROUP][20], const double *xs, i64 m) {
    (void)loc; (void)xs; (void)m;
}
#endif

/* The response-time half of est_completions: resp[0..m) into the nsets
 * P² blocks of p2.  Each set first finishes its warm-up, then the
 * marker updates run with the sets interleaved element by element,
 * which overlaps their division chains without changing any set's
 * operation sequence.  Groups of P2_GROUP sets run in local copies so
 * the compiler can keep them apart from resp.  With lanes set, a full
 * group takes p2_lanes from the first response on which all its sets
 * are past their warm-up, where this build and CPU run it.  Returns 1
 * when some group took the lane path. */
static i64 p2_fold(double *p2, i64 nsets, const double *resp, i64 m,
                   int lanes) {
    i64 laned = 0;
    lanes = lanes && p2_lanes_ok();
    for (i64 g = 0; g < nsets; g += P2_GROUP) {
        i64 kg = nsets - g < P2_GROUP ? nsets - g : P2_GROUP;
        double loc[P2_GROUP][20];
        i64 start[P2_GROUP];
        i64 lo = m, hi = 0;
        for (i64 s = 0; s < kg; s++) {
            double *b = p2 + (g + s) * P2_SIZE;
            start[s] = p2_warm(b, resp, m);  /* m: still warming up */
            for (i64 i = 0; i < 20; i++) loc[s][i] = b[P2_Q + i];
            if (start[s] < lo) lo = start[s];
            if (start[s] > hi) hi = start[s];
        }
        i64 stop = lanes && kg == P2_GROUP && hi < m ? hi : m;
        for (i64 t = lo; t < stop; t++) {
            double x = resp[t];
            for (i64 s = 0; s < kg; s++)
                if (t >= start[s])
                    p2_step(loc[s], loc[s] + 5, loc[s] + 10, loc[s] + 15, x);
        }
        if (stop < m) {
            p2_lanes(loc, resp + stop, m - stop);
            laned = 1;
        }
        for (i64 s = 0; s < kg; s++) {
            double *b = p2 + (g + s) * P2_SIZE;
            if (start[s] >= m) continue;
            for (i64 i = 0; i < 15; i++) b[P2_Q + i] = loc[s][i];
            b[P2_COUNT] += (double)(m - start[s]);
        }
    }
    return laned;
}

/* The completion half of the estimator step: one window's completions.
 *
 * Speed witnesses wit[0..nwit) (size / service time), grouped by server
 * — server s owns [offsets[s], offsets[s+1]) in its completion order —
 * fold into the estimator vector's per-server EWMA blocks (offsets
 * NULL: none).  The response times resp[0..m) fold into the nsets P²
 * blocks of p2 (p2_fold, on the lane path where the CPU has one).
 *
 * Returns 0, or 1 when the offsets are not non-decreasing bounds
 * within [0, nwit] — checked before anything is written. */
i64 est_completions(double *st, const double *wit, i64 nwit,
                    const i64 *offsets, i64 nservers, double *p2,
                    i64 nsets, const double *resp, i64 m) {
    double w = st[ES_WEIGHT];
    if (offsets) {
        if (offsets[0] < 0 || offsets[nservers] > nwit) return 1;
        for (i64 s = 0; s < nservers; s++)
            if (offsets[s + 1] < offsets[s]) return 1;
    }
    if (offsets)
        for (i64 s = 0; s < nservers; s++) {
            i64 lo = offsets[s], hi = offsets[s + 1];
            if (hi > lo) ewma_fold(st + ES_SPEED + s * EW_SIZE, w, wit + lo, hi - lo);
        }
    p2_fold(p2, nsets, resp, m, 1);
    return 0;
}

/* The probe of the two P² loops: p2_fold over the nsets blocks, with
 * the lane path allowed (lanes != 0) or not.  Returns 1 when a group
 * took the lane path, so a caller can tell a CPU without one. */
i64 p2_fold_probe(double *p2, i64 nsets, const double *resp, i64 m,
                  i64 lanes) {
    return p2_fold(p2, nsets, resp, m, lanes != 0);
}

/* ------------------------------------------------------------------
 * Algorithm 1 re-solve (scalar)
 * ------------------------------------------------------------------ */

/* numpy's pairwise summation (pairwise_sum in its loops): a plain
 * loop below 8 elements, eight accumulators up to 128, halves beyond. */
static double pairwise_sum(const double *a, i64 n) {
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 i;
        for (i64 j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (i64 j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* ndarray.sum() of a contiguous float64 vector.  Depending on the numpy
 * release the add-reduce either pairwise-sums the whole vector or seeds
 * with the first element and pairwise-sums the rest; the Python side
 * probes which one at load time and passes it as `seeded`. */
static double np_sum(const double *a, i64 n, i64 seeded) {
    if (seeded && n > 0) return a[0] + pairwise_sum(a + 1, n - 1);
    return pairwise_sum(a, n);
}

/* The probe itself: np_sum over a[0..n). */
double np_sum_probe(const double *a, i64 n, i64 seeded) {
    return np_sum(a, n, seeded);
}

/* SequenceRoundRobin.reset: validate_allocation's tests on alphas[0..n)
 * (every entry within [-atol, 1 + atol], NaN failing; the ndarray.sum
 * within max(atol, 1e-9 n) of 1), then the live Algorithm 2 state
 * seeded from the clipped fractions as RoundRobinDispatcher._setup
 * seeds its lists.  f: 1/alpha (inf where the clipped alpha is not
 * positive), then n guards, then the clipped alphas (alphas may be that
 * row: each entry is read before it is written); iw: the active
 * indices, then n zero assign counts.  Returns how many servers are
 * active (0: none), or -1 when a test fails, with nothing written. */
i64 rr_seed(const double *alphas, i64 n, double atol, double guard,
            i64 seeded, double *f, i64 *iw) {
    for (i64 i = 0; i < n; i++)
        if (!(-atol <= alphas[i] && alphas[i] <= 1.0 + atol)) return -1;
    double tol = 1e-9 * (double)n;
    if (!(fabs(np_sum(alphas, n, seeded) - 1.0) <= (tol > atol ? tol : atol)))
        return -1;
    i64 nactive = 0;
    for (i64 i = 0; i < n; i++) {
        double a = alphas[i] < 0.0 ? 0.0 : (alphas[i] > 1.0 ? 1.0 : alphas[i]);
        f[2 * n + i] = a;
        f[n + i] = guard;
        iw[n + i] = 0;
        if (a > 0.0) {
            f[i] = 1.0 / a;
            iw[nactive++] = i;
        } else {
            f[i] = INFINITY;
        }
    }
    return nactive;
}

/* OnlineWorkloadEstimator.snapshot at `now`, its numpy body's steps:
 * the windowed rate evicted to now - window in place (rate(now)), the
 * EWMA rate when that reads zero, the size EWMA's value, per-server
 * speeds (nominal until a server's first witness), and ρ̂ over the
 * capacity of the servers up (up NULL: all), summed as ndarray.sum
 * does.  out: λ̂, m̂, ρ̂ (NaN when not estimable), then the n speeds;
 * ss: n scratch. */
void est_snapshot(double *st, const double *buf, const double *nominal,
                  const unsigned char *up, i64 n, double now, i64 seeded,
                  double *out, double *ss) {
    double window = st[ES_WINDOW];
    double cutoff = now - window;
    i64 lo = (i64)st[ES_HEAD], hi = (i64)st[ES_END];
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1);
        if (buf[mid] < cutoff) lo = mid + 1; else hi = mid;
    }
    st[ES_HEAD] = (double)lo;
    double span = window < now ? window : now;
    i64 count = (i64)st[ES_END] - lo;
    double lam = (span <= 0.0 || count == 0) ? 0.0 : (double)count / span;
    if (!(lam > 0.0)) {
        const double *gap = st + ES_GAP;
        double g = gap[EW_COUNT] == 0.0 ? NAN : gap[EW_RAW] / gap[EW_NORM];
        lam = (!isfinite(g) || g <= 0.0) ? 0.0 : 1.0 / g;
    }
    const double *size = st + ES_SIZE;
    double mean = size[EW_COUNT] == 0.0 ? NAN : size[EW_RAW] / size[EW_NORM];
    double *speeds = out + 3;
    i64 k = 0;
    for (i64 i = 0; i < n; i++) {
        const double *b = st + ES_SPEED + i * EW_SIZE;
        speeds[i] = b[EW_COUNT] > 0.0 ? b[EW_RAW] / b[EW_NORM] : nominal[i];
        if (!up || up[i]) ss[k++] = speeds[i];
    }
    double capacity = np_sum(ss, k, seeded);
    out[0] = lam;
    out[1] = mean;
    out[2] = (lam > 0.0 && isfinite(mean) && mean > 0.0 && capacity > 0.0)
                 ? lam * mean / capacity : NAN;
}

/* Stable argsort of v[0..n) into order (numpy's kind="stable"): a
 * bottom-up merge sort, ties kept in index order; tmp is n scratch. */
static void stable_argsort(const double *v, i64 n, i64 *order, i64 *tmp) {
    for (i64 i = 0; i < n; i++) order[i] = i;
    for (i64 width = 1; width < n; width *= 2) {
        for (i64 lo = 0; lo < n; lo += 2 * width) {
            i64 mid = lo + width < n ? lo + width : n;
            i64 hi = lo + 2 * width < n ? lo + 2 * width : n;
            i64 a = lo, b = mid, k = lo;
            while (a < mid && b < hi)
                tmp[k++] = v[order[b]] < v[order[a]] ? order[b++] : order[a++];
            while (a < mid) tmp[k++] = order[a++];
            while (b < hi) tmp[k++] = order[b++];
        }
        for (i64 i = 0; i < n; i++) order[i] = tmp[i];
    }
}

/* optimized_fractions: Algorithm 1 on n computers of positive finite
 * speeds with base-line rate mu at arrival rate lam, the numpy body's
 * operations in its order — stable sort, sequential suffix sums,
 * binary-search cutoff whose drop predicate is relaxed by rtol
 * (CUTOFF_RTOL), the Theorem 1 closed form over the active suffix,
 * clip at zero, renormalise, and the capacity-proportional split of
 * the active set when the total cancels to <= 0.  alphas receives the
 * result in the original order.  Scratch: iw 2n, dw 4n.  Returns 0, or
 * 1 when the cutoff drops every computer (the numpy path raises). */
static i64 alg1(const double *speeds, i64 n, double mu, double lam,
                double rtol, i64 seeded, double *alphas, i64 *iw,
                double *dw) {
    i64 *order = iw;
    double *rates = dw, *sq = dw + n;
    double *suf_rate = dw + 2 * n, *suf_sqrt = dw + 3 * n;
    stable_argsort(speeds, n, order, iw + n);
    for (i64 i = 0; i < n; i++) {
        rates[i] = speeds[order[i]] * mu;
        sq[i] = sqrt(rates[i]);
    }
    suf_rate[n - 1] = rates[n - 1];
    suf_sqrt[n - 1] = sq[n - 1];
    for (i64 i = n - 2; i >= 0; i--) {
        suf_rate[i] = suf_rate[i + 1] + rates[i];
        suf_sqrt[i] = suf_sqrt[i + 1] + sq[i];
    }
    i64 lower = 0, upper = n - 1;
    while (lower <= upper) {
        i64 mid = (lower + upper) / 2;
        double gap = (suf_rate[mid] - lam) - sq[mid] * suf_sqrt[mid];
        double bound = lam > suf_rate[mid] ? lam : suf_rate[mid];
        if (gap > rtol * bound) lower = mid + 1;
        else upper = mid - 1;
    }
    i64 m = lower;
    if (m >= n) return 1;
    i64 na = n - m;
    const double *active = rates + m, *sq_active = sq + m;
    double c = (np_sum(active, na, seeded) - lam) / np_sum(sq_active, na, seeded);
    for (i64 i = 0; i < m; i++) alphas[order[i]] = 0.0;
    for (i64 i = 0; i < na; i++)
        alphas[order[m + i]] = (active[i] - sq_active[i] * c) / lam;
    for (i64 i = 0; i < n; i++)
        if (alphas[i] < 0.0) alphas[i] = 0.0;
    double total = np_sum(alphas, n, seeded);
    if (!isfinite(total) || total <= 0.0) {
        double s = np_sum(active, na, seeded);
        for (i64 i = 0; i < na; i++) alphas[order[m + i]] = active[i] / s;
        return 0;
    }
    for (i64 i = 0; i < n; i++) alphas[i] /= total;
    return 0;
}

/* optimized_fractions entry: 0 with alphas written, 1 to defer to the
 * numpy body (a speed that is not positive and finite, or a cutoff
 * that drops every computer). */
i64 optimized_alloc(const double *speeds, i64 n, double mu, double lam,
                    double rtol, i64 seeded, double *alphas, i64 *iw,
                    double *dw) {
    for (i64 i = 0; i < n; i++)
        if (!(isfinite(speeds[i]) && speeds[i] > 0.0)) return 1;
    return alg1(speeds, n, mu, lam, rtol, seeded, alphas, iw, dw);
}

/* survivor_fractions: Algorithm 1 over the servers with up[i] set, at
 * utilization u of their capacity, scattered into a full-length out
 * with zeros on the down servers.  The survivors' speeds are gathered
 * in index order; HeterogeneousNetwork's arrival rate u*mu*sum with
 * mu = 1; the solve runs when u lies in (0, 1) and the network is
 * usable (positive arrival rate, utilization below 1 after rounding),
 * else — as when the numpy solve raises ValueError — the survivors get
 * the capacity-proportional split.  Scratch: iw 3n, dw 6n.
 * Returns 0 with out written, 1 on total outage (out untouched), 2 to
 * defer to the numpy body (a survivor speed that is not positive and
 * finite, or a cutoff that drops every survivor). */
i64 survivor_alloc(const double *speeds, const unsigned char *up, i64 n,
                   double u, double rtol, i64 seeded, double *out, i64 *iw,
                   double *dw) {
    i64 *idx = iw + 2 * n;
    double *sub = dw + 4 * n, *sub_alphas = dw + 5 * n;
    i64 k = 0;
    for (i64 i = 0; i < n; i++)
        if (up[i]) {
            double v = speeds[i];
            if (!(isfinite(v) && v > 0.0)) return 2;
            idx[k] = i;
            sub[k++] = v;
        }
    if (k == 0) return 1;
    int solved = 0;
    if (u > 0.0 && u < 1.0) {
        double total = np_sum(sub, k, seeded);
        double lam = u * 1.0 * total;
        if (lam > 0.0 && lam / (total * 1.0) < 1.0) {
            if (alg1(sub, k, 1.0, lam, rtol, seeded, sub_alphas, iw, dw)) return 2;
            solved = 1;
        }
    }
    if (!solved) {
        double total = np_sum(sub, k, seeded);
        for (i64 i = 0; i < k; i++) sub_alphas[i] = sub[i] / total;
    }
    for (i64 i = 0; i < n; i++) out[i] = 0.0;
    for (i64 i = 0; i < k; i++) out[idx[i]] = sub_alphas[i];
    return 0;
}

/* One control boundary of QuasiStaticController.resolve, its numeric
 * steps in its order: est_snapshot at now; the WorkloadEstimate.usable
 * test (λ̂ and m̂ finite and positive, and every speed of the servers
 * est_up marks — all when NULL — finite and positive, at least one);
 * then survivor_alloc over the controller's membership mask up, at
 * min(ρ̂, rho_cap) over the estimated speeds, or — estimate unusable
 * after a membership change — at NaN load over the nominal speeds (the
 * out-of-band capacity-proportional plan); the L∞ delta against the
 * running alphas, NaN-propagating as ndarray.max; and the swap rule
 * (delta above tol, or a membership change and any delta).
 * out: λ̂, m̂, ρ̂ and the n speeds (est_snapshot's layout), n scratch,
 * the delta, then the n target alphas.  Scratch: iw 3n, dw 6n.
 * Returns 0 when nothing is re-planned (estimate unusable and no
 * out-of-band swap), 1 resolved without a swap, 2 resolved with a swap,
 * 3 an out-of-band swap to the target, or -1 to defer to the Python
 * body (survivor_alloc deferred); the snapshot's eviction has then
 * happened, which a second snapshot at the same now repeats as a no-op. */
i64 boundary_resolve(double *st, const double *buf, const double *nominal,
                     const unsigned char *est_up, const unsigned char *up,
                     i64 n, double now, i64 membership, double rho_cap,
                     double tol, double rtol, i64 seeded,
                     const double *alphas, double *out, i64 *iw,
                     double *dw) {
    est_snapshot(st, buf, nominal, est_up, n, now, seeded, out, out + 3 + n);
    double lam = out[0], mean = out[1], rho = out[2];
    const double *speeds = out + 3;
    double *delta = out + 3 + 2 * n, *target = delta + 1;
    int usable = isfinite(lam) && lam > 0.0 && isfinite(mean) && mean > 0.0;
    i64 k = 0;
    for (i64 i = 0; i < n; i++)
        if (!est_up || est_up[i]) {
            k++;
            if (!(isfinite(speeds[i]) && speeds[i] > 0.0)) usable = 0;
        }
    if (k == 0) usable = 0;
    if (!usable) {
        if (!membership) return 0;
        i64 s = survivor_alloc(nominal, up, n, NAN, rtol, seeded, target,
                               iw, dw);
        if (s == 2) return -1;
        if (s == 1) return 0;
        for (i64 i = 0; i < n; i++)
            if (target[i] != alphas[i]) return 3;
        return 0;
    }
    double u = rho_cap < rho ? rho_cap : rho;
    i64 s = survivor_alloc(speeds, up, n, u, rtol, seeded, target, iw, dw);
    if (s == 2) return -1;
    if (s == 1)  /* total outage: keep the running allocation */
        for (i64 i = 0; i < n; i++) target[i] = alphas[i];
    double d = fabs(target[0] - alphas[0]);
    for (i64 i = 1; i < n && !isnan(d); i++) {
        double x = fabs(target[i] - alphas[i]);
        if (isnan(x) || x > d) d = x;
    }
    *delta = d;
    return (d > tol || (membership && d > 0.0)) ? 2 : 1;
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
