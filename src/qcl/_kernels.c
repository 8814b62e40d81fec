/* The compiled kernels of qcl, loaded through ctypes by qcl._ckernel; qcl
 * has no other implementation of them.  tests/reference.py holds the list
 * code that each one ports, as the differential oracle of the test suite,
 * and the build self-check (qcl._kernel_check) pins their outputs on fixed
 * inputs by a sha256 that the tests recompute from that reference.
 *
 * qcl_resolve: one whole resolve of qcl.dynamics.resolve_sliding under
 * either quantizer and any policy (Sliding, SequentialSlow or FixedAlpha),
 * and the closest threshold arrival of its velocity: the set scan, the
 * trivially held midpoints and the pins, the dense hold solves with their
 * releases, the departure re-check, projected Gauss-Seidel (for more
 * surface agents that listen to someone than the dense cutoff, a singular
 * hold system, a departure that the re-check finds sign-inconsistent), the
 * release of stale pins, the velocities and the hit scan, in one call.  A
 * uniform quantizer's lattice is computed; a general one comes as its table
 * of thresholds and levels (struct qcl_quantizer).  Where no selection can
 * be computed it declines with a reason code and the agent it concerns in
 * struct qcl_work (see QCL_STATE below), from which the binding raises the
 * error: a state that is not finite or lies off the uniform lattice,
 * projected Gauss-Seidel that does not converge or ends on an agent that
 * neither holds nor departs, a pinned agent whose velocity is NaN, a
 * departure against its velocity, a selection outside its box.
 *
 * qcl_advance: the event loop of qcl.dynamics.simulate around qcl_resolve,
 * over the segments of a graph schedule (struct qcl_schedule: its starts,
 * one struct qcl_graph per segment and its period), found at each event as
 * GraphSchedule._lookup finds them, from the start of a run to its end.  It
 * records threshold hits and topology switches alike, each row with its
 * kind; certifies a state at rest as terminal, with one qcl_resolve per
 * graph still to come, or moves it to the next switch; and takes the last
 * step to the horizon.  It returns only where the run ends (an equilibrium
 * or the horizon), at the event limit, when a resolve declines, or when the
 * chunk of recorded events is full, which the binding empties before it
 * calls again in the same workspace.
 *
 * qcl_regularized: a whole run of the regularized oracle of
 * qcl.dynamics.simulate_regularized, classical RK4 on x' = -L(t) q(x) with
 * q the ramp through the knots, on the schedule tables of qcl_advance and
 * its lookup, from the initial state to every sample, in one call.
 *
 * qcl_write: the rows of a trajectory's CSV export, or the "events" list of
 * its JSON export, from its columns in one call, each number as CPython
 * writes it: repr for CSV, format(v, ".17g") for JSON.  Zeros and finite
 * numbers with 1e-10 <= |v| < 1e17 get their digits from exact_digits,
 * which computes them in 128-bit integers with no rounding of its own (see
 * there), and their layout from exact_text, which follows Python's rules.
 * Every other number (subnormals, magnitudes outside that range, inf and
 * NaN, and a repr whose two closest shortest decimals tie) goes to
 * CPython's own formatter, reached through pointers that the caller passes,
 * so the library needs no link to libpython; the caller holds the GIL.  A
 * number with the bits of the last one in its column copies that text
 * instead of formatting it again.
 *
 * The static helpers: hold_solve builds and solves one dense hold system,
 * velocity sums one row as numpy does, krasovskii_sets and threshold_hits
 * scan the Krasovskii sets and the closest arrival, lookup finds a
 * schedule's segment (GraphSchedule._lookup), pgs runs projected
 * Gauss-Seidel, and deriv and ramp give the oracle's derivatives.  All
 * keep the operation order of every element of the reference, and none
 * calls BLAS, so the results do not depend on the BLAS build.  Built with
 * -ffp-contract=off and without fast-math, so the results are
 * bit-identical to the reference; qcl checks that before it uses a build.
 *
 * No entry point checks a bound or an index it is given; the bindings in
 * qcl._ckernel establish every precondition:
 * - qcl_regularized (_bind_advance, which wraps it as regularized): the
 *   schedule's tables as for qcl_advance; samples + 1 rows of states and 6
 *   doubles of work per agent, allocated there, with the initial state, of
 *   the schedule's width, in row 0; at least two knots, strictly increasing
 *   (simulate_regularized keeps 2 eps below every gap between thresholds),
 *   and as many values.
 * - qcl_resolve and qcl_advance (_bind_advance): the workspace (_Work) has
 *   at least n agents, hold buffers of at least min(n, floor(cutoff))
 *   unknowns (0 for a negative cutoff), sized by reserve before a resolve
 *   or a run (the guards m <= cutoff of qcl_resolve and pgs keep every dense
 *   hold system within them), and a chunk of at least one event; the
 *   n_stopped last-stopped agents lie in [0, n), in increasing order
 *   (resolve_sliding raises InputError for any other, the binding
 *   ValueError); the pins lie in [0, n), in increasing order (the binding
 *   drops the others, FixedAlpha sorts them); colmap holds -1 for every
 *   agent (set when the workspace is made, restored by hold_solve); the
 *   cutoff is a double, not NaN (resolve_sliding raises InputError for a
 *   value that is not a number); the schedule and quantizer tables come
 *   from a validated GraphSchedule and GeneralQuantizer (every graph of n
 *   agents, starts increasing from 0, thresholds sorted and finite).
 * - qcl_write (_bind_write): the six columns have the dtypes, shapes and
 *   C order that it reads, and the indent is not negative; the C code
 *   checks the indices in kind and src itself.
 * Besides its capacities (rows_cap, ints_cap) and, within a run, the pins
 * (pins, pin_alpha, n_pins), which the binding writes before the run's
 * first call with its start (x, stopped, t, n_stopped and kind), the
 * workspace carries from one call to the next only colmap and the stopped
 * event of a full chunk, from which the next call of the run goes on.
 * qcl_resolve reads x and stopped as the binding writes them.  Every other
 * buffer and field is written before it is read within a call
 * (tests/test_kernels.py poisons them before each call).  qcl_resolve and
 * qcl_advance work in one struct qcl_work, so neither is reentrant;
 * qcl_regularized reads nothing of its states and work but row 0 before it
 * writes it.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Excess precision (x87) would round differently from Python. */
#if FLT_EVAL_METHOD == 2 || FLT_EVAL_METHOD < 0
#error "doubles must be evaluated in double precision"
#endif

/* A graph in CSR form: row i's nonzero weights vals[k] at columns cols[k]
 * for k in [ends[i], ends[i + 1]), in increasing column order, with no
 * diagonal entry; totals[i] is the row sum. */
struct qcl_graph {
    int64_t n;
    const int64_t *ends;
    const int64_t *cols;
    const double *vals;
    const double *totals;
};

/* The buffers of qcl_resolve and qcl_advance, for up to n agents and hold
 * systems of min(n, floor(cutoff)) unknowns (see the preconditions above).
 *
 * x, y and z hold n doubles each: the states, the velocity of a resolve
 * (which its hit scan reads) and its selection.  stopped (n) lists the
 * n_stopped last-stopped agents of a resolve, pins (n) its n_pins pinned
 * agents in increasing order, with their coefficients in pin_alpha (n).  A
 * set scan writes the levels to z, its surface agents to surface (n) with
 * their boxes in bounds (2 n); a hit scan writes the tied agents to hit (n)
 * and their thresholds to threshold (n).  A resolve writes, for surface
 * agent c, its coefficient to alpha[c] and to sign[c] 0 for a hold, or +1 or
 * -1 for a departure up or down; pinned[c] is the index in pins of its pin
 * while it holds, else -1, and mark (n) is the scratch of SequentialSlow.  A
 * hold system or projected Gauss-Seidel reads its agents from active (n) and
 * their boxes from box (2 n); slot (n) maps them to surface agents.  A hold
 * system works in aug (m (m + 1)) and writes its solution to out (m), and
 * colmap (n) holds -1 for each agent on entry and on return.  While a
 * resolve runs, before its hit scan, hit[0..count) lists the surface agents
 * (as indices c) that the dense hold solves released, in the order of their
 * release.  A resolve that declines writes its reason to reason and the
 * agent it names to agent (-1 for none).
 *
 * qcl_advance starts at time t from the state x, an event of kind kind,
 * with the n_stopped last-stopped agents in stopped in increasing order,
 * and leaves there the time, state, kind and last-stopped agents where it
 * stopped: at a full chunk, all that a call carries to the next.  It writes
 * n_rows rows of 4 n + 1 doubles to rows (capacity rows_cap doubles), their
 * kinds to kinds (capacity rows_cap / 5) and n_ints integers to ints
 * (capacity ints_cap); see qcl_advance. */
struct qcl_work {
    double *x;
    double *y;
    double *z;
    int64_t *stopped;
    int64_t *pins;
    double *pin_alpha;
    int64_t *pinned;
    int64_t *surface;
    double *bounds;
    int64_t *hit;
    double *threshold;
    double *alpha;
    int64_t *sign;
    int64_t *mark;
    int64_t *active;
    double *box;
    double *aug;
    double *out;
    int64_t *slot;
    int64_t *colmap;
    double *rows;
    int64_t *ints;
    int64_t *kinds;
    int64_t rows_cap;
    int64_t ints_cap;
    int64_t n_pins;
    int64_t n_surface;
    int64_t count;
    double dt;
    double t;
    int64_t n_stopped;
    int64_t n_rows;
    int64_t n_ints;
    int64_t kind;
    int64_t reason;
    int64_t agent;
};

/* The hold system of the m agents in s->active: unknown c is the convex
 * coefficient of agent active[c] in its box, and row c balances that
 * agent's velocity to zero, with every other agent j fixed at z[j].
 *
 * Elimination uses partial pivoting with ties to the lowest row and fails
 * when the best pivot is at most 1e-12 times the largest matrix entry (at
 * least 1).  Returns 0 with the coefficients in s->out[0..m), or 1 when the
 * system is singular.
 */
static int hold_solve(const struct qcl_graph *g, int64_t m, const double *z,
                      struct qcl_work *s)
{
    const int64_t *active = s->active, *ends = g->ends, *cols = g->cols;
    const double *box = s->box, *vals = g->vals, *totals = g->totals;
    int64_t *colmap = s->colmap;
    double *aug = s->aug, *out = s->out;
    int64_t w = m + 1;
    double top = 0.0, tol;

    for (int64_t c = 0; c < m; c++)
        colmap[active[c]] = c;
    for (int64_t r = 0; r < m; r++) {
        int64_t i = active[r];
        double *row = aug + r * w;
        double w_i = totals[i], b = w_i * box[2 * r];

        for (int64_t c = 0; c < m; c++)
            row[c] = 0.0;
        row[r] = -w_i * (box[2 * r + 1] - box[2 * r]);
        for (int64_t k = ends[i]; k < ends[i + 1]; k++) {
            int64_t j = cols[k], c = colmap[j];
            double a = vals[k];
            if (c < 0) {
                b -= a * z[j];
            } else {
                row[c] += a * (box[2 * c + 1] - box[2 * c]);
                b -= a * box[2 * c];
            }
        }
        row[m] = b;
    }
    for (int64_t c = 0; c < m; c++)
        colmap[active[c]] = -1;

    /* max(1, max over rows of the row's first largest magnitude) */
    for (int64_t r = 0; r < m; r++) {
        const double *row = aug + r * w;
        double big = fabs(row[0]);
        for (int64_t c = 1; c < m; c++)
            if (fabs(row[c]) > big)
                big = fabs(row[c]);
        if (r == 0 || big > top)
            top = big;
    }
    tol = 1e-12 * (top > 1.0 ? top : 1.0);

    for (int64_t col = 0; col < m; col++) {
        int64_t piv = col;
        double best = fabs(aug[col * w + col]);
        double *pivot;

        for (int64_t r = col + 1; r < m; r++) {
            double mag = fabs(aug[r * w + col]);
            if (mag > best) {
                best = mag;
                piv = r;
            }
        }
        if (best <= tol)
            return 1;
        if (piv != col) {
            /* Entries left of col are not read again. */
            for (int64_t k = col; k < w; k++) {
                double t = aug[col * w + k];
                aug[col * w + k] = aug[piv * w + k];
                aug[piv * w + k] = t;
            }
        }
        pivot = aug + col * w;
        for (int64_t r = col + 1; r < m; r++) {
            double *row = aug + r * w;
            double factor = row[col] / pivot[col];
            if (factor != 0.0)
                for (int64_t k = col; k < w; k++)
                    row[k] = row[k] - factor * pivot[k];
        }
    }

    for (int64_t r = m - 1; r >= 0; r--) {
        const double *row = aug + r * w;
        double acc = row[m];
        for (int64_t c = r + 1; c < m; c++)
            acc -= row[c] * out[c];
        out[r] = acc / row[r];
    }
    return 0;
}

/* The sum of the terms vals[k] * (z[cols[k]] - zi), k in [0, n), in the
 * order of numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src),
 * which ndarray.sum uses on a contiguous float64 slice: a sequential fold
 * below 8 terms; up to 128 terms, eight interleaved partial sums combined as
 * a balanced tree, then the tail; above, the two halves split at n / 2
 * rounded down to a multiple of 8. */
static double pairwise_terms(const int64_t *cols, const double *vals, const double *z,
                             double zi, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t k = 0; k < n; k++)
            res += vals[k] * (z[cols[k]] - zi);
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t k;

        for (int j = 0; j < 8; j++)
            r[j] = vals[j] * (z[cols[j]] - zi);
        for (k = 8; k < n - n % 8; k += 8)
            for (int j = 0; j < 8; j++)
                r[j] += vals[k + j] * (z[cols[k + j]] - zi);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; k < n; k++)
            res += vals[k] * (z[cols[k]] - zi);
        return res;
    }
    {
        int64_t half = n / 2;
        half -= half % 8;
        return pairwise_terms(cols, vals, z, zi, half)
            + pairwise_terms(cols + half, vals + half, z, zi, n - half);
    }
}

/* sum_j a_ij (z_j - z_i) over row i of g, summed as numpy sums that row's
 * terms: its reduction starts from the identity 0.0, so terms that are all
 * -0.0 give 0.0. */
static double velocity(const struct qcl_graph *g, const double *z, int64_t i)
{
    int64_t start = g->ends[i];

    return 0.0 + pairwise_terms(g->cols + start, g->vals + start, z, z[i],
                                g->ends[i + 1] - start);
}

/* A quantizer: with levels NULL, the uniform lattice of step delta, else
 * the count thresholds of a qcl.quantizers.GeneralQuantizer in strictly
 * increasing order and its count + 1 levels, levels[k] < thresholds[k] <
 * levels[k + 1]. */
struct qcl_quantizer {
    double delta;
    int64_t count;
    const double *thresholds;
    const double *levels;
};

/* The uniform quantizer of step delta, computed as qcl.quantizers.
 * UniformQuantizer does: threshold k is (k + 0.5) delta and level k is
 * k delta, for an integer k held in a double.  |x| / delta < 2^52, the
 * lattice precondition of qcl's scenarios, keeps every k near x / delta and
 * k + 0.5 exact, so each value rounds as it does in Python; a state outside
 * it, non-finite states included, makes the resolve decline. */

static int on_lattice(double x, double delta)
{
    return fabs(x) / delta < 0x1p52;
}

static double threshold(double k, double delta)
{
    return (k + 0.5) * delta;
}

/* UniformQuantizer._index_above: the first k from floor(x / delta - 0.5) - 1
 * whose threshold lies above x, or 0 when none of the four candidates does. */
static int index_above(double x, double delta, double *k)
{
    double base = floor(x / delta - 0.5);

    for (int j = -1; j <= 2; j++) {
        if (threshold(base + j, delta) <= x)
            continue;
        *k = base + j;
        return 1;
    }
    return 0;
}

/* UniformQuantizer.next_threshold(x, -1): the first threshold below x from
 * floor(x / delta - 0.5) + 1 down, or 0 when none of the four candidates is. */
static int threshold_below(double x, double delta, double *t)
{
    double base = floor(x / delta - 0.5);

    for (int j = 1; j >= -2; j--) {
        *t = threshold(base + j, delta);
        if (*t < x)
            return 1;
    }
    return 0;
}

/* bisect.bisect_left (right 0) or bisect_right (right 1) of x, not NaN, in
 * the n increasing values of a. */
static int64_t bisect(const double *a, int64_t n, double x, int right)
{
    int64_t lo = 0, hi = n;

    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (right ? !(x < a[mid]) : a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The Krasovskii set [lo, hi] of x, as krasovskii_set gives it: for a
 * GeneralQuantizer, x lies on threshold k = bisect_left(thresholds, x) when
 * that threshold equals it, else inside the cell of level k.  Returns 0, or
 * 1 for a state that is not finite or off the uniform lattice. */
static int cell(const struct qcl_quantizer *q, double x, double *lo, double *hi)
{
    double k;
    int64_t i;

    if (q->levels == NULL) {
        if (!on_lattice(x, q->delta) || !index_above(x, q->delta, &k))
            return 1;
        *hi = k * q->delta;
        *lo = threshold(k - 1.0, q->delta) == x ? (k - 1.0) * q->delta : *hi;
        return 0;
    }
    if (!isfinite(x))
        return 1;
    i = bisect(q->thresholds, q->count, x, 0);
    *lo = q->levels[i];
    *hi = i < q->count && q->thresholds[i] == x ? q->levels[i + 1] : *lo;
    return 0;
}

/* The next threshold beyond x in the direction of v (down for a NaN v), as
 * next_threshold gives it: for a GeneralQuantizer, bisect_right up and
 * bisect_left down.  Returns 1 with it in *th, 0 beyond the outermost
 * threshold of a GeneralQuantizer, or -1 for a state that is not finite or
 * off the uniform lattice. */
static int next_threshold(const struct qcl_quantizer *q, double x, double v, double *th)
{
    double k;
    int64_t i;

    if (q->levels == NULL) {
        if (!on_lattice(x, q->delta))
            return -1;
        if (v > 0.0) {
            if (!index_above(x, q->delta, &k))
                return -1;
            *th = threshold(k, q->delta);
            return 1;
        }
        return threshold_below(x, q->delta, th) ? 1 : -1;
    }
    if (!isfinite(x))
        return -1;
    if (v > 0.0)
        i = bisect(q->thresholds, q->count, x, 1);
    else
        i = bisect(q->thresholds, q->count, x, 0) - 1;
    if (i < 0 || i >= q->count)
        return 0;
    *th = q->thresholds[i];
    return 1;
}

/* Why a resolve declines, in w->reason; qcl._ckernel.DECLINES raises the
 * error of each, naming w->agent:
 * QCL_STATE: the state of agent is not finite or lies off the uniform
 *   lattice (|x| / delta < 2^52 fails);
 * QCL_PGS_STALLED: projected Gauss-Seidel did not converge (no agent);
 * QCL_PGS_SPLIT: at its fixed point agent neither holds nor departs;
 * QCL_PIN_NAN: the velocity of pinned agent is NaN;
 * QCL_DEPARTURE: the departure of agent has zero velocity or moves back
 *   onto its surface;
 * QCL_BOX: the selection of agent left its box. */
#define QCL_STATE 1
#define QCL_PGS_STALLED 2
#define QCL_PGS_SPLIT 3
#define QCL_PIN_NAN 4
#define QCL_DEPARTURE 5
#define QCL_BOX 6

/* Records a decline for reason and agent, and returns 1. */
static int decline(struct qcl_work *w, int64_t reason, int64_t agent)
{
    w->reason = reason;
    w->agent = agent;
    return 1;
}

/* The Krasovskii set [lo, hi] of each of the n agents of s->x, in one pass:
 * z[i] = lo for an agent inside a cell (lo == hi); the agents on a threshold
 * in surface[0..n_surface), in increasing order, with (lo, hi) in bounds.
 * Returns 0, or declines (QCL_STATE) when cell refuses a state. */
static int krasovskii_sets(struct qcl_work *s, int64_t n, const struct qcl_quantizer *q)
{
    int64_t n_surface = 0;

    for (int64_t i = 0; i < n; i++) {
        double lo, hi;

        if (cell(q, s->x[i], &lo, &hi))
            return decline(s, QCL_STATE, i);
        if (lo == hi) {
            s->z[i] = lo;
        } else {
            s->surface[n_surface] = i;
            s->bounds[2 * n_surface] = lo;
            s->bounds[2 * n_surface + 1] = hi;
            n_surface++;
        }
    }
    s->n_surface = n_surface;
    return 0;
}

/* The closest threshold arrival of the n agents of h->x moving with
 * velocities h->y: dt = (th - x) / v, the smallest over the agents with
 * nonzero velocity and a next threshold th in the direction of motion,
 * and every agent tied at it, in increasing order, in hit[0..count) with
 * its threshold; +inf and no agent when none arrives.  A NaN velocity looks
 * down and a NaN dt is never closest.  Returns 0, or declines (QCL_STATE)
 * when next_threshold refuses a moving agent's state. */
static int threshold_hits(struct qcl_work *h, int64_t n, const struct qcl_quantizer *q)
{
    double best = INFINITY;
    int64_t count = 0;

    for (int64_t i = 0; i < n; i++) {
        double x = h->x[i], v = h->y[i], th, dt;
        int found;

        if (v == 0.0)
            continue;
        found = next_threshold(q, x, v, &th);
        if (found < 0)
            return decline(h, QCL_STATE, i);
        if (!found)
            continue;
        dt = (th - x) / v;
        if (dt < best) {
            best = dt;
            count = 0;
        }
        if (dt == best) {
            h->hit[count] = i;
            h->threshold[count] = th;
            count++;
        }
    }
    h->count = count;
    h->dt = best;
    return 0;
}

/* A hold coefficient within FEAS_SLACK of [0, 1] is feasible, and one
 * within it of 0 or 1 is snapped there. */
#define FEAS_SLACK 1e-12

/* The snapped coefficient, min and max as Python's (NaN stays NaN). */
static double snap_alpha(double a)
{
    if (fabs(a) <= FEAS_SLACK)
        return 0.0;
    if (fabs(a - 1.0) <= FEAS_SLACK)
        return 1.0;
    a = 0.0 > a ? 0.0 : a;
    return 1.0 < a ? 1.0 : a;
}

/* The selection of coefficient alpha in [lo, hi]. */
static double alpha_to_z(double alpha, double lo, double hi)
{
    if (alpha <= 0.0)
        return lo;
    if (alpha >= 1.0)
        return hi;
    return lo + alpha * (hi - lo);
}

/* Marks of SequentialSlow's release pick in w->mark: bit 1 for a stopped
 * agent, bit 2 for an agent that a stopped one listens to.  An agent is near
 * when it has bit 2 or listens to an agent with bit 1. */
static int near(const struct qcl_graph *g, const int64_t *mark, int64_t i)
{
    if (mark[i] & 2)
        return 1;
    for (int64_t k = g->ends[i]; k < g->ends[i + 1]; k++)
        if (mark[g->cols[k]] & 1)
            return 1;
    return 0;
}

/* The relative tolerance of a projected Gauss-Seidel sweep (on z updates),
 * its most sweeps, and the (scaled) residual velocity that counts as a
 * hold. */
#define PGS_TOL 1e-12
#define PGS_MAX_SWEEPS 100000
#define RESIDUAL_TOL 1e-9

/* Swaps entries r and q of active, slot and box. */
static void swap_unknowns(struct qcl_work *w, int64_t r, int64_t q)
{
    int64_t a = w->active[r], s = w->slot[r];
    double lo = w->box[2 * r], hi = w->box[2 * r + 1];

    w->active[r] = w->active[q];
    w->slot[r] = w->slot[q];
    w->box[2 * r] = w->box[2 * q];
    w->box[2 * r + 1] = w->box[2 * q + 1];
    w->active[q] = a;
    w->slot[q] = s;
    w->box[2 * q] = lo;
    w->box[2 * q + 1] = hi;
}

/* Projected Gauss-Seidel on the hold system of the m agents in w->active,
 * their boxes in w->box, every other agent j fixed at z[j]; the bound scale
 * also counts the k boxes in w->bounds, which hold those of the m agents.
 *
 * Each agent starts at its box's midpoint.  A sweep moves agent active[r]
 * in turn, r = 0, 1, ..., to its target, the sum of a_ij z_j over its row (in
 * the order of velocity) over the row total, clamped into its box; agents
 * that listen to nobody stay.  Then values within the sweep tolerance of a
 * box end are snapped onto it, and each agent is held (residual velocity
 * within the tolerance, or no neighbours) or departs from the end it sits at
 * on the side of its velocity.  At most cutoff held agents are polished by
 * a dense hold solve, taken when it is nonsingular and every coefficient is
 * feasible.
 *
 * Returns 0 with z updated and, for agent r, sign[slot[r]] (0 for a hold)
 * and alpha[slot[r]] = 0.0 + (z - lo) / (hi - lo); active, slot and box are
 * reordered with the held agents first, in their order.  Declines
 * (QCL_PGS_STALLED) when the sweeps do not converge and (QCL_PGS_SPLIT)
 * when an agent neither holds nor departs. */
static int pgs(const struct qcl_graph *g, struct qcl_work *w, int64_t m, int64_t k,
               double cutoff)
{
    const int64_t *active = w->active;
    const double *box = w->box, *totals = g->totals;
    double *z = w->z, scale = 1.0, top = 1.0, snap, residual;
    int64_t held = 0, converged = 0;

    for (int64_t r = 0; r < m; r++)
        z[active[r]] = 0.5 * (box[2 * r] + box[2 * r + 1]);
    for (int64_t c = 0; c < 2 * k; c++)
        if (fabs(w->bounds[c]) > scale)
            scale = fabs(w->bounds[c]);
    for (int64_t i = 0; i < g->n; i++)
        if (fabs(z[i]) > scale)
            scale = fabs(z[i]);

    for (int64_t sweep = 0; sweep < PGS_MAX_SWEEPS && !converged; sweep++) {
        double worst = 0.0;

        for (int64_t r = 0; r < m; r++) {
            int64_t i = active[r], start = g->ends[i];
            double target, step;

            if (totals[i] == 0.0)
                continue;
            target = (0.0 + pairwise_terms(g->cols + start, g->vals + start, z, 0.0,
                                           g->ends[i + 1] - start)) / totals[i];
            target = box[2 * r] > target ? box[2 * r] : target;
            target = box[2 * r + 1] < target ? box[2 * r + 1] : target;
            step = fabs(target - z[i]);
            worst = step > worst ? step : worst;
            z[i] = target;
        }
        converged = worst <= PGS_TOL * scale;
    }
    if (!converged)
        return decline(w, QCL_PGS_STALLED, -1);

    snap = 10.0 * PGS_TOL * scale;
    for (int64_t r = 0; r < m; r++) {
        int64_t i = active[r];
        if (fabs(z[i] - box[2 * r]) <= snap)
            z[i] = box[2 * r];
        else if (fabs(z[i] - box[2 * r + 1]) <= snap)
            z[i] = box[2 * r + 1];
    }

    /* max(1, (largest row total of the agents, 1 for none) * scale) */
    for (int64_t r = 0; r < m; r++)
        if (r == 0 || totals[active[r]] > top)
            top = totals[active[r]];
    top = top * scale;
    residual = RESIDUAL_TOL * (top > 1.0 ? top : 1.0);
    for (int64_t r = 0; r < m; r++) {
        int64_t i = active[r], *sign = w->sign + w->slot[r];
        double v = velocity(g, z, i);

        if (fabs(v) <= residual || totals[i] == 0.0)
            *sign = 0;
        else if (v > 0.0 && z[i] == box[2 * r + 1])
            *sign = 1;
        else if (v < 0.0 && z[i] == box[2 * r])
            *sign = -1;
        else
            return decline(w, QCL_PGS_SPLIT, i);
    }

    for (int64_t r = 0; r < m; r++)
        if (w->sign[w->slot[r]] == 0)
            swap_unknowns(w, r, held++);
    if (held > 0 && !(held > cutoff)) {
        int feasible = 1;

        if (hold_solve(g, held, z, w) == 0) {
            for (int64_t r = 0; r < held; r++)
                feasible &= -FEAS_SLACK <= w->out[r] && w->out[r] <= 1.0 + FEAS_SLACK;
            for (int64_t r = 0; r < held && feasible; r++)
                z[active[r]] = alpha_to_z(snap_alpha(w->out[r]), box[2 * r], box[2 * r + 1]);
        }
    }
    for (int64_t r = 0; r < m; r++)
        w->alpha[w->slot[r]] = 0.0 + (z[active[r]] - box[2 * r]) / (box[2 * r + 1] - box[2 * r]);
    return 0;
}

/* The surface agents of a resolve that listen to someone and are not
 * pinned, in increasing order, in active, slot and box; a pinned agent sits
 * at its pin and one that listens to nobody holds at its box's midpoint.
 * Every sign is reset to 0, and the list of releases emptied.  Returns
 * their number. */
static int64_t candidates(const struct qcl_graph *g, struct qcl_work *w)
{
    int64_t m = 0;

    w->count = 0;
    for (int64_t c = 0; c < w->n_surface; c++) {
        int64_t i = w->surface[c], p = w->pinned[c];
        double lo = w->bounds[2 * c], hi = w->bounds[2 * c + 1];

        w->sign[c] = 0;
        if (p >= 0) {
            w->alpha[c] = w->pin_alpha[p];
            w->z[i] = alpha_to_z(w->alpha[c], lo, hi);
        } else if (g->totals[i] == 0.0) {
            w->z[i] = 0.5 * (lo + hi);
            w->alpha[c] = 0.5;
        } else {
            w->active[m] = i;
            w->slot[m] = c;
            w->box[2 * m] = lo;
            w->box[2 * m + 1] = hi;
            m++;
        }
    }
    return m;
}

/* The dense hold solves of a resolve's m candidates with their releases,
 * listed in hit, and the departure re-check, or projected Gauss-Seidel for
 * a singular system or a departure pushed back onto its surface; returns 0,
 * or what pgs returns. */
static int dense_holds(const struct qcl_graph *g, struct qcl_work *w, int64_t m,
                       int64_t sequential, double cutoff)
{
    double *z = w->z;
    int64_t k = w->n_surface;

    /* Hold every candidate; release the worst infeasible hold and solve again. */
    while (m > 0) {
        int64_t drop = -1, drop_near = 0;
        double worst = 0.0;

        if (hold_solve(g, m, z, w))
            return pgs(g, w, m, k, cutoff);
        for (int64_t r = 0; r < m; r++) {
            double a = w->out[r], e = -a > a - 1.0 ? -a : a - 1.0;
            int64_t r_near;

            if (!(e > FEAS_SLACK))
                continue;
            r_near = sequential && near(g, w->mark, w->active[r]);
            if (drop < 0 || r_near > drop_near || (r_near == drop_near && e > worst)) {
                drop = r;
                drop_near = r_near;
                worst = e;
            }
        }
        if (drop < 0) {
            for (int64_t r = 0; r < m; r++) {
                double alpha = snap_alpha(w->out[r]);
                w->alpha[w->slot[r]] = alpha;
                z[w->active[r]] = alpha_to_z(alpha, w->box[2 * r], w->box[2 * r + 1]);
            }
            break;
        }
        {
            int64_t c = w->slot[drop], up = w->out[drop] > 1.0;
            z[w->active[drop]] = up ? w->box[2 * drop + 1] : w->box[2 * drop];
            w->alpha[c] = up ? 1.0 : 0.0;
            w->sign[c] = up ? 1 : -1;
            w->hit[w->count++] = c;
            m--;
            for (int64_t r = drop; r < m; r++) {
                w->active[r] = w->active[r + 1];
                w->slot[r] = w->slot[r + 1];
                w->box[2 * r] = w->box[2 * r + 2];
                w->box[2 * r + 1] = w->box[2 * r + 3];
            }
        }
    }

    /* A departure with zero velocity is a boundary hold; one pushed back
     * onto its surface sends every candidate to projected Gauss-Seidel. */
    for (int64_t c = 0; c < k; c++) {
        if (w->sign[c] != 0) {
            double v = velocity(g, z, w->surface[c]);
            if (v == 0.0)
                w->sign[c] = 0;
            else if ((v > 0.0) != (w->sign[c] > 0))
                return pgs(g, w, candidates(g, w), k, cutoff);
        }
    }
    return 0;
}

/* The decline of a resolve whose selection fails its final checks, in the
 * order in which the reference checks them: every departure, those that
 * the dense hold solves released in the order of their release (hit), then
 * the others in increasing order, for a velocity w->y of zero or of the
 * other sign (QCL_DEPARTURE); then every surface agent, in increasing
 * order, for a selection outside its box (QCL_BOX). */
static int final_fault(struct qcl_work *w)
{
    int64_t k = w->n_surface;

    for (int64_t r = 0; r < w->count + k; r++) {
        int64_t c = r < w->count ? w->hit[r] : r - w->count, listed = 0, i = w->surface[c];
        double v = w->y[i];

        for (int64_t h = 0; h < w->count && r >= w->count; h++)
            listed |= w->hit[h] == c;
        if (!listed && w->sign[c] != 0 && (v == 0.0 || (v > 0.0) != (w->sign[c] > 0)))
            return decline(w, QCL_DEPARTURE, i);
    }
    for (int64_t c = 0; c < k; c++) {
        int64_t i = w->surface[c];
        if (!(w->bounds[2 * c] <= w->z[i] && w->z[i] <= w->bounds[2 * c + 1]))
            return decline(w, QCL_BOX, i);
    }
    return decline(w, 0, -1);  /* not reached: the caller found a fault */
}

/* One resolve of qcl.dynamics.resolve_sliding of the n = g->n states in w->x
 * under the quantizer q, with releases from the largest
 * excess, ties to the lowest agent, or, when sequential is nonzero, first
 * among the agents near the n_stopped agents in w->stopped (SequentialSlow);
 * then the closest threshold arrival of the resulting velocity.  The stopped
 * agents must lie in the graph.
 *
 * The w->n_pins agents in w->pins (FixedAlpha, never with sequential) that
 * lie on a threshold are pinned at their coefficients in w->pin_alpha while
 * the others are resolved; then the pin with the largest nonzero |velocity|,
 * ties to the lowest agent, is released and everything is resolved again,
 * until no pin moves.  The pins must lie in the graph, in increasing order.
 *
 * Returns 0 with the selection in z, the velocity in y (+0.0 for a held or
 * pinned agent), the surface agents with their coefficients and signs (see
 * struct qcl_work) and the arrival as threshold_hits leaves it; 1 when it
 * declines, with the reason and agent in w (see QCL_STATE), its outputs
 * then unspecified. */
int qcl_resolve(const struct qcl_graph *g, struct qcl_work *w, const struct qcl_quantizer *q,
                int64_t sequential, int64_t n_stopped, double cutoff)
{
    const int64_t *surface = w->surface;
    const double *bounds = w->bounds;
    double *z = w->z;
    int64_t n = g->n, k, m, fault = 0;

    if (krasovskii_sets(w, n, q))
        return 1;
    k = w->n_surface;
    for (int64_t c = 0, p = 0; c < k; c++) {
        while (p < w->n_pins && w->pins[p] < surface[c])
            p++;
        w->pinned[c] = p < w->n_pins && w->pins[p] == surface[c] ? p : -1;
    }
    if (sequential) {
        for (int64_t i = 0; i < n; i++)
            w->mark[i] = 0;
        for (int64_t t = 0; t < n_stopped; t++) {
            int64_t s = w->stopped[t];
            w->mark[s] |= 1;
            for (int64_t e = g->ends[s]; e < g->ends[s + 1]; e++)
                w->mark[g->cols[e]] |= 2;
        }
    }

    for (;;) {
        int64_t stale = -1;
        double worst = 0.0;
        int status;

        m = candidates(g, w);
        status = m > cutoff ? pgs(g, w, m, k, cutoff) : dense_holds(g, w, m, sequential, cutoff);
        if (status)
            return status;
        for (int64_t c = 0; c < k; c++) {
            double v;

            if (w->pinned[c] < 0)
                continue;
            v = fabs(velocity(g, z, surface[c]));
            if (isnan(v))
                return decline(w, QCL_PIN_NAN, surface[c]);
            if (v > worst) {
                stale = c;
                worst = v;
            }
        }
        if (stale < 0)
            break;
        w->pinned[stale] = -1;
    }

    for (int64_t i = 0, c = 0; i < n; i++) {
        int64_t sign = 0, held = 0;

        if (c < k && surface[c] == i) {
            sign = w->sign[c];
            held = sign == 0;
            fault |= !(bounds[2 * c] <= z[i] && z[i] <= bounds[2 * c + 1]);
            c++;
        }
        w->y[i] = held ? 0.0 : velocity(g, z, i);
        fault |= sign != 0 && (w->y[i] == 0.0 || (w->y[i] > 0.0) != (sign > 0));
    }
    return fault ? final_fault(w) : threshold_hits(w, n, q);
}

/* A qcl.graphs.GraphSchedule: segment k has the graph graphs[k] and starts
 * at starts[k], for k < count, with starts[0] = 0 and the starts strictly
 * increasing; with periodic nonzero the segments repeat every period, which
 * exceeds the last start, else the last one holds forever.  Every graph has
 * the same number of agents. */
struct qcl_schedule {
    int64_t count;
    const double *starts;
    const struct qcl_graph *graphs;
    int64_t periodic;
    double period;
};

/* GraphSchedule._lookup of a time t >= 0: returns the segment of the latest
 * switch at or before t, and writes the earliest switch after t (+inf if
 * none) to *after.  The switches are the starts, and with a period the
 * doubles kk * period + start of the cycles kk from floor(t / period) - 1
 * (at least 0) to floor(t / period) + 2; of switches that round to one
 * double the later one starts its segment. */
static int64_t lookup(const struct qcl_schedule *s, double t, double *after)
{
    int64_t idx = 0;
    double latest = -INFINITY, k;

    *after = INFINITY;
    if (!s->periodic) {
        idx = bisect(s->starts, s->count, t, 1) - 1;
        if (idx + 1 < s->count)
            *after = s->starts[idx + 1];
        return idx;
    }
    k = floor(t / s->period);
    for (double kk = k > 1.0 ? k - 1.0 : 0.0; kk <= k + 2.0; kk++) {
        double base = kk * s->period;

        for (int64_t i = 0; i < s->count; i++) {
            double sw = base + s->starts[i];

            if (sw > t) {
                if (sw < *after)
                    *after = sw;
            } else if (sw >= latest) {
                idx = i;
                latest = sw;
            }
        }
    }
    return idx;
}

/* Indices in qcl.dynamics.EVENT_KINDS of the kinds of a run's events. */
#define KIND_HIT 1
#define KIND_SWITCH 3
#define KIND_EQUILIBRIUM 4
#define KIND_HORIZON 5

/* What qcl_advance returns, besides what qcl_resolve returns, when the
 * chunk cannot take another event, and at the event limit. */
#define FULL 2
#define LIMIT 4

/* The event loop of qcl.dynamics.simulate, from the event of kind w->kind at
 * time w->t and state w->x to the end of the run, under the segment of the
 * schedule at each time and the quantizer q.  Each event is resolved with
 * the last stopped agents and recorded.  A state at rest is terminal when
 * qcl_resolve with no last-stopped agents holds it at zero velocity under
 * the graph of every segment from the current one on (of every segment when
 * the schedule is periodic), tried in segment order: its event becomes the
 * equilibrium that ends the run.  Else it waits for the next switch ts, or,
 * with ts past the horizon, stays there until the horizon.  A moving state
 * steps: dt is the smaller of the arrival w->dt and ts - t, and when t + dt
 * passes the horizon every agent steps to x + v (horizon - t) instead.  The
 * event at the horizon, resolved and recorded with no hits even past the
 * event limit, ends the run; after a state at rest, no switch lies between,
 * so it repeats that event.  Else x + v dt for every agent, and then, when
 * the arrival comes first or at the switch, the hit agents are snapped onto
 * their thresholds, become the last stopped and the next event is a
 * threshold hit at t + dt (at ts when they tie); else the next event is a
 * topology switch at ts and the last stopped agents stay.
 *
 * Row r of the chunk is the event's t, x, z, v and alpha (NaN for an agent
 * off the surface), kinds[r] its kind, and ints its record in the layout of
 * qcl.dynamics.Trajectory.records: the number of agents it hits and those
 * agents (the last stopped, for a threshold hit), then the number of
 * departing agents and each agent with its sign.
 *
 * Returns 0 when the run ends, with w->kind KIND_EQUILIBRIUM or
 * KIND_HORIZON; before the resolve, LIMIT when budget events are recorded
 * and the next is not at the horizon, and FULL when the chunk has no room
 * for another event; or 1 when a resolve declines, with nothing of that
 * event recorded.  w->t, w->x, w->kind and the last stopped agents hold the
 * event where it stopped, from which the next call goes on.  A chunk of
 * rows_cap doubles holds at most rows_cap / 5 events of at least one agent. */
int qcl_advance(const struct qcl_schedule *sc, struct qcl_work *w, const struct qcl_quantizer *q,
                int64_t sequential, double cutoff, double horizon, int64_t budget)
{
    int64_t n = sc->graphs[0].n, width = 4 * n + 1;

    w->n_rows = 0;
    w->n_ints = 0;
    for (;;) {
        double t = w->t, ts, dt, *row;
        int64_t idx = lookup(sc, t, &ts), *ints, moving = 0, terminal, k = 0;
        int64_t hits = w->kind == KIND_HIT ? w->n_stopped : 0;
        int status;

        if (w->kind != KIND_HORIZON && w->n_rows >= budget)
            return LIMIT;
        if ((w->n_rows + 1) * width > w->rows_cap || w->n_ints + 3 * n + 2 > w->ints_cap)
            return FULL;
        status = qcl_resolve(sc->graphs + idx, w, q, sequential, w->n_stopped, cutoff);
        if (status)
            return status;

        row = w->rows + w->n_rows * width;
        ints = w->ints + w->n_ints;
        row[0] = t;
        for (int64_t i = 0; i < n; i++) {
            row[1 + i] = w->x[i];
            row[1 + n + i] = w->z[i];
            row[1 + 2 * n + i] = w->y[i];
            row[1 + 3 * n + i] = NAN;
            moving |= w->y[i] != 0.0;
        }
        ints[0] = hits;
        for (int64_t h = 0; h < hits; h++)
            ints[1 + h] = w->stopped[h];
        ints += 1 + hits;
        for (int64_t c = 0; c < w->n_surface; c++) {
            row[1 + 3 * n + w->surface[c]] = w->alpha[c];
            if (w->sign[c] != 0) {
                ints[1 + 2 * k] = w->surface[c];
                ints[2 + 2 * k] = w->sign[c];
                k++;
            }
        }
        ints[0] = k;
        w->kinds[w->n_rows] = w->kind;

        /* The certification overwrites the resolve, not the row. */
        terminal = !moving && w->kind != KIND_HORIZON;
        for (int64_t seg = sc->periodic ? 0 : idx; terminal && seg < sc->count; seg++) {
            status = qcl_resolve(sc->graphs + seg, w, q, sequential, 0, cutoff);
            if (status)
                return status;
            for (int64_t i = 0; i < n; i++)
                terminal &= w->y[i] == 0.0;
        }
        if (terminal)
            w->kind = w->kinds[w->n_rows] = KIND_EQUILIBRIUM;
        w->n_ints += 2 + hits + 2 * k;
        w->n_rows++;
        if (w->kind >= KIND_EQUILIBRIUM)
            return 0;

        /* At rest the arrival is the certification's, and unused. */
        dt = ts - t < w->dt ? ts - t : w->dt;
        if (moving ? !(t + dt <= horizon) : ts > horizon) {
            for (int64_t i = 0; i < n && moving; i++)
                w->x[i] = w->x[i] + w->y[i] * (horizon - t);
            w->t = horizon;
            w->kind = KIND_HORIZON;
            continue;
        }
        for (int64_t i = 0; i < n && moving; i++)
            w->x[i] = w->x[i] + w->y[i] * dt;
        if (!moving || ts - t < w->dt) {
            w->t = ts;
            w->kind = KIND_SWITCH;
            continue;
        }
        for (int64_t h = 0; h < w->count; h++) {
            w->x[w->hit[h]] = w->threshold[h];
            w->stopped[h] = w->hit[h];
        }
        w->n_stopped = w->count;
        w->t = w->dt == ts - t ? ts : t + dt;
        w->kind = KIND_HIT;
    }
}

/* The piecewise-linear ramp through the m knots (xp, fp), clamped outside,
 * on segment bisect_right(xp, v, 1, m - 1) - 1, searched here: calling
 * bisect made the oracle 60 % slower (x86-64, gcc 12 -O2). */
static double ramp(double v, const double *xp, const double *fp, int64_t m)
{
    int64_t lo = 1, hi = m - 1;

    if (v <= xp[0])
        return fp[0];
    if (v >= xp[m - 1])
        return fp[m - 1];
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (v < xp[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    lo -= 1;
    return fp[lo] + (fp[lo + 1] - fp[lo]) * (v - xp[lo]) / (xp[lo + 1] - xp[lo]);
}

/* out = -L q(s) under g, each row in increasing column order: the row total
 * at column i, and acc - (-w_ij) q_j, which is acc + w_ij q_j, elsewhere. */
static void deriv(const struct qcl_graph *g, const double *s, double *q, double *out,
                  const double *xp, const double *fp, int64_t m)
{
    for (int64_t i = 0; i < g->n; i++)
        q[i] = ramp(s[i], xp, fp, m);
    for (int64_t i = 0; i < g->n; i++) {
        double acc = 0.0;
        int64_t k = g->ends[i];
        for (; k < g->ends[i + 1] && g->cols[k] < i; k++)
            acc += g->vals[k] * q[g->cols[k]];
        acc -= g->totals[i] * q[i];
        for (; k < g->ends[i + 1]; k++)
            acc += g->vals[k] * q[g->cols[k]];
        out[i] = acc;
    }
}

/* The samples k * stride, k = 1 .. samples, of the run from row 0 of states
 * to row k: from time t, a stretch ends at the next switch or sample and is
 * crossed in max(1, ceil((end - t) / h - 1e-9)) RK4 steps under its graph.
 * Returns the first sample whose largest |x_i| exceeds blow_up (a NaN
 * counts only in x_0, as in Python's max), or 0 for none. */
int64_t qcl_regularized(const struct qcl_schedule *sc, double *states, const double *xp,
                        const double *fp, int64_t m, double h, double stride, int64_t samples,
                        double blow_up, double *work)
{
    int64_t n = sc->graphs[0].n;
    double t = 0.0, after, *q = work, *tmp = work + n;
    double *k1 = work + 2 * n, *k2 = work + 3 * n, *k3 = work + 4 * n, *k4 = work + 5 * n;

    for (int64_t k = 1; k <= samples; k++) {
        double target = (double)k * stride, *x = states + k * n, top;

        memcpy(x, x - n, n * sizeof *x);
        while (t < target) {
            const struct qcl_graph *g = sc->graphs + lookup(sc, t, &after);
            double end = target < after ? target : after;
            double count = ceil((end - t) / h - 1e-9);
            /* 2^62 steps would not end either. */
            int64_t steps = count > 1.0 ? (count < 0x1p62 ? (int64_t)count : INT64_MAX) : 1;
            double dt = (end - t) / (double)steps, half = 0.5 * dt, sixth = dt / 6.0;

            for (int64_t step = 0; step < steps; step++) {
                deriv(g, x, q, k1, xp, fp, m);
                for (int64_t i = 0; i < n; i++)
                    tmp[i] = x[i] + half * k1[i];
                deriv(g, tmp, q, k2, xp, fp, m);
                for (int64_t i = 0; i < n; i++)
                    tmp[i] = x[i] + half * k2[i];
                deriv(g, tmp, q, k3, xp, fp, m);
                for (int64_t i = 0; i < n; i++)
                    tmp[i] = x[i] + dt * k3[i];
                deriv(g, tmp, q, k4, xp, fp, m);
                for (int64_t i = 0; i < n; i++)
                    x[i] = x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t = end;
        }
        top = fabs(x[0]);
        for (int64_t i = 1; i < n; i++)
            if (fabs(x[i]) > top)
                top = fabs(x[i]);
        if (top > blow_up)
            return k;
    }
    return 0;
}

/* CPython's PyOS_double_to_string and PyMem_Free, which frees its result;
 * the caller passes their addresses, so this library needs no link to
 * libpython, and calls qcl_write holding the GIL. */
typedef char *(*qcl_dtoa)(double, char, int, int, int *);
typedef void (*qcl_free)(void *);

/* Py_DTSF_ADD_DOT_0 of CPython's pystrtod.h: repr's "1.0", not "1". */
#define ADD_DOT_0 0x02
/* An upper bound on the length of one formatted double, such as
 * "-2.2250738585072014e-308". */
#define CELL 32

/* The text of the last value of one column and where it lies in out. */
struct cell {
    double value;
    int64_t at;
    int64_t len;
};

struct writer {
    char *out;
    int64_t pos;
    qcl_dtoa dtoa;
    qcl_free free;
    char code;
    int precision;
    int flags;
    /* The decimal exponent from which the text is in e-notation: 16 for
     * repr, 17 for ".17g". */
    int exp_from;
};

typedef unsigned __int128 u128;

#define P16 10000000000000000ULL
#define P17 100000000000000000ULL

/* 5^p, p <= 27; 10^j is POW5[j] << j. */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL};

/* The decimal digits of a normal |v| = m 2^e in [1e-10, 1e17), exactly as
 * CPython's dtoa gives them: with shortest, repr's (the shortest decimal in
 * the rounding interval v +- ulp/2, its ends included for an even m, and
 * the closest to v among the shortest), else the 17 of ".17g" (v rounded
 * half to even).  On success *n holds them as a 17-digit integer in
 * [1e16, 1e17) and *k the decimal exponent of the first; 0 when v lies
 * outside the range or its shortest decimal is an exact tie.
 *
 * With k = floor(log10 |v|) and p = 16 - k, D = |v| 10^p lies in [1e16,
 * 1e17).  D and the interval ends are integers over the unit 2^s: X =
 * 4m 5^p, X + 2 5^p and X - 2 5^p, or X - 5^p below a power-of-two
 * significand, whose predecessor lies half as far; s = 2 - e - p, the
 * numerators shifted left instead when s < 0.  In the range, 5^p fits 64
 * bits and X and 10^17 2^s fit 128, so every comparison is exact. */
static int exact_digits(double v, int shortest, uint64_t *n, int *k)
{
    uint64_t bits, m, a, b, c, ten;
    int biased, e, p, s = 0, j = 0;
    u128 X = 0, up = 0, down = 0;

    memcpy(&bits, &v, sizeof bits);
    biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0 || biased == 0x7ff)
        return 0; /* zero, subnormal, inf or NaN */
    m = bits & ((1ULL << 52) - 1);
    e = biased - 1075;
    /* floor((e + 52) log10 2), which is k or k - 1. */
    for (*k = ((e + 52) * 78913) >> 18;; ++*k) {
        if (*k < -11 || *k > 16)
            return 0;
        p = 16 - *k;
        s = 2 - e - p;
        X = (u128)(4 * (m | 1ULL << 52)) * POW5[p];
        up = 2 * (u128)POW5[p];
        down = m == 0 && biased > 1 ? up / 2 : up;
        if (s < 0) {
            X <<= -s;
            up <<= -s;
            down <<= -s;
            s = 0;
        }
        if (X < (u128)P17 << s)
            break;
    }
    if (*k < -10 || X < (u128)P16 << s)
        return 0;

    if (!shortest) {
        u128 r = X & (((u128)1 << s) - 1), half = s ? (u128)1 << (s - 1) : 1;

        *n = (uint64_t)(X >> s);
        if (r > half || (r == half && (*n & 1)))
            ++*n;
    } else {
        int closed = !(m & 1);

        /* a..b: the integers in the interval, over the unit 1. */
        a = (uint64_t)((X - down + ((u128)1 << s) - 1) >> s);
        b = (uint64_t)((X + up) >> s);
        if (!closed && (u128)a << s == X - down)
            a++;
        if (!closed && (u128)b << s == X + up)
            b--;
        /* The most trailing zeros: a..b over the unit 10^j. */
        while ((a + 9) / 10 <= b / 10) {
            a = (a + 9) / 10;
            b /= 10;
            j++;
        }
        ten = POW5[j] << j;
        c = (uint64_t)(X >> s) / ten;
        /* 2 D against the midpoint of c and c + 1 over the unit 10^j. */
        if (2 * X == (u128)((2 * c + 1) * ten) << s)
            return 0;
        if (2 * X > (u128)((2 * c + 1) * ten) << s)
            c++;
        *n = (c < a ? a : c > b ? b : c) * ten;
    }
    if (*n == P17) { /* rounded up into the next decade */
        *n = P16;
        ++*k;
    }
    return 1;
}

/* Writes v at out as repr (ADD_DOT_0 in o->flags) or format(v, ".17g")
 * writes it and returns the length, or 0 when exact_digits cannot give its
 * digits. */
static int64_t exact_text(const struct writer *o, double v, char *out)
{
    char digits[17], *q = out;
    uint64_t n;
    int k, count = 17;

    if (signbit(v))
        *q++ = '-';
    if (v == 0.0) {
        memcpy(q, "0.0", 3);
        return q - out + (o->flags & ADD_DOT_0 ? 3 : 1);
    }
    if (!exact_digits(fabs(v), o->code == 'r', &n, &k))
        return 0;
    for (int i = 16; i >= 0; i--, n /= 10)
        digits[i] = (char)('0' + n % 10);
    while (count > 1 && digits[count - 1] == '0')
        count--;
    if (k < -4 || k >= o->exp_from) {
        *q++ = digits[0];
        if (count > 1) {
            *q++ = '.';
            memcpy(q, digits + 1, count - 1);
            q += count - 1;
        }
        *q++ = 'e';
        *q++ = k < 0 ? '-' : '+';
        k = abs(k);
        *q++ = (char)('0' + k / 10);
        *q++ = (char)('0' + k % 10);
    } else if (k < 0) {
        memcpy(q, "0.0000", 1 - k);
        q += 1 - k;
        memcpy(q, digits, count);
        q += count;
    } else if (count <= k + 1) {
        memcpy(q, digits, count);
        memset(q + count, '0', k + 1 - count);
        q += k + 1;
        if (o->flags & ADD_DOT_0) {
            memcpy(q, ".0", 2);
            q += 2;
        }
    } else {
        memcpy(q, digits, k + 1);
        q[k + 1] = '.';
        memcpy(q + k + 2, digits + k + 1, count - k - 1);
        q += count + 1;
    }
    return q - out;
}

static int same_bits(double a, double b)
{
    uint64_t u, v;

    memcpy(&u, &a, sizeof u);
    memcpy(&v, &b, sizeof v);
    return u == v;
}

static void put(struct writer *o, const char *text, int64_t len)
{
    memcpy(o->out + o->pos, text, len);
    o->pos += len;
}

static void pad(struct writer *o, const char *sep, int64_t indent)
{
    put(o, sep, strlen(sep));
    memset(o->out + o->pos, ' ', indent);
    o->pos += indent;
}

/* Appends v as the formatter writes it, through exact_text where it can; a
 * value with the bits of the column's last one copies that text instead.
 * Returns 1 when the formatter fails (its Python error is set). */
static int number(struct writer *o, double v, struct cell *c)
{
    char *text;
    int64_t len;

    if (c->len >= 0 && same_bits(v, c->value)) {
        memcpy(o->out + o->pos, o->out + c->at, c->len);
        o->pos += c->len;
        return 0;
    }
    len = exact_text(o, v, o->out + o->pos);
    if (len == 0) {
        text = o->dtoa(v, o->code, o->precision, o->flags, NULL);
        if (text == NULL)
            return 1;
        len = strlen(text);
        memcpy(o->out + o->pos, text, len);
        o->free(text);
    }
    c->value = v;
    c->at = o->pos;
    c->len = len;
    o->pos += len;
    return 0;
}

/* A JSON list of the n values of one row at the given indent, as
 * qcl._json.dumps writes it; NaN is null when nan_null, else refused. */
static int json_list(struct writer *o, const double *v, int64_t n, struct cell *c,
                     int64_t indent, int nan_null)
{
    if (n == 0) {
        put(o, "[]", 2);
        return 0;
    }
    put(o, "[", 1);
    for (int64_t i = 0; i < n; i++) {
        pad(o, i ? ",\n" : "\n", indent + 2);
        if (nan_null && isnan(v[i]))
            put(o, "null", 4);
        else if (!isfinite(v[i]))
            return 2;
        else if (number(o, v[i], c + i))
            return 1;
    }
    pad(o, "\n", indent);
    put(o, "]", 1);
    return 0;
}

/* The rows of a trajectory export, written to out: with json zero the CSV
 * lines of qcl.dynamics.Trajectory.to_csv after its header, else the
 * "events" list of Trajectory.to_json_obj as qcl._json.dumps writes it at
 * the given indent.  Row r has time t[r], the kind name k = kind[r] (the
 * text names[name_at[k]..name_at[k + 1]), already quoted for JSON, k <
 * n_names) and the n states x[r * n..], and shows the selection and
 * coefficients of event e = src[r] < events, z[e * n..] and alpha[e * n..]
 * (NaN off the surface: an empty CSV cell, JSON null).  CSV numbers are
 * repr's, JSON numbers format(v, ".17g")'s; a JSON number that is not
 * finite is refused.
 *
 * With out NULL it returns the capacity that out needs; else the number of
 * bytes written, -1 when out of memory (the formatter's Python error is set
 * then), -2 when a JSON number is not finite, -3 when cap is too small or
 * -4 when a row names no kind or event.  Every byte before the size it
 * returns is written, so out need not be initialised. */
int64_t qcl_write(int64_t json, int64_t indent, int64_t rows, int64_t n, int64_t events,
                  const double *t, const int64_t *kind, const double *x, const int64_t *src,
                  const double *z, const double *alpha, int64_t n_names, const char *names,
                  const int64_t *name_at, char *out, int64_t cap, void *dtoa, void *pyfree)
{
    int64_t inner = indent + 4, longest = 0, row_cap;
    struct writer o = {out, 0, (qcl_dtoa)dtoa, (qcl_free)pyfree, json ? 'g' : 'r',
                       json ? 17 : 0, json ? 0 : ADD_DOT_0, json ? 17 : 16};
    struct cell *cells;
    int status = 0;

    for (int64_t k = 0; k < n_names; k++)
        longest = name_at[k + 1] - name_at[k] > longest ? name_at[k + 1] - name_at[k] : longest;
    row_cap = json ? 128 + longest + 12 * inner + 3 * n * (CELL + inner + 4)
                   : 2 + CELL + longest + 3 * n * (CELL + 1);
    if (out == NULL)
        return 2 * indent + 8 + rows * row_cap;
    if (cap < 2 * indent + 8 + rows * row_cap)
        return -3;
    cells = malloc((3 * n + 1) * sizeof *cells);
    if (cells == NULL)
        return -1;
    for (int64_t c = 0; c < 3 * n + 1; c++)
        cells[c].len = -1;

    if (json)
        put(&o, "[", 1);
    for (int64_t r = 0; r < rows && !status; r++) {
        const double *xr = x + r * n, *zr, *ar;
        const char *name;
        int64_t name_len;

        if (kind[r] < 0 || kind[r] >= n_names || src[r] < 0 || src[r] >= events) {
            status = 4;
            break;
        }
        zr = z + src[r] * n;
        ar = alpha + src[r] * n;
        name = names + name_at[kind[r]];
        name_len = name_at[kind[r] + 1] - name_at[kind[r]];

        if (!json) {
            status = number(&o, t[r], cells);
            put(&o, ",", 1);
            put(&o, name, name_len);
            for (int64_t i = 0; i < n && !status; i++) {
                put(&o, ",", 1);
                status = number(&o, xr[i], cells + 1 + i);
            }
            for (int64_t i = 0; i < n && !status; i++) {
                put(&o, ",", 1);
                status = number(&o, zr[i], cells + 1 + n + i);
            }
            for (int64_t i = 0; i < n && !status; i++) {
                put(&o, ",", 1);
                if (!isnan(ar[i]))
                    status = number(&o, ar[i], cells + 1 + 2 * n + i);
            }
            put(&o, "\n", 1);
            continue;
        }
        pad(&o, r ? ",\n" : "\n", indent + 2);
        put(&o, "{", 1);
        pad(&o, "\n", inner);
        put(&o, "\"t\": ", 5);
        status = isfinite(t[r]) ? number(&o, t[r], cells) : 2;
        if (status)
            break;
        pad(&o, ",\n", inner);
        put(&o, "\"event\": ", 9);
        put(&o, name, name_len);
        pad(&o, ",\n", inner);
        put(&o, "\"x\": ", 5);
        status = json_list(&o, xr, n, cells + 1, inner, 0);
        if (status)
            break;
        pad(&o, ",\n", inner);
        put(&o, "\"z\": ", 5);
        status = json_list(&o, zr, n, cells + 1 + n, inner, 0);
        if (status)
            break;
        pad(&o, ",\n", inner);
        put(&o, "\"alpha\": ", 9);
        status = json_list(&o, ar, n, cells + 1 + 2 * n, inner, 1);
        pad(&o, "\n", indent + 2);
        put(&o, "}", 1);
    }
    free(cells);
    if (status)
        return -status;
    if (json && rows) {
        pad(&o, "\n", indent);
        put(&o, "]", 1);
    } else if (json) {
        put(&o, "]", 1);
    }
    return o.pos;
}
