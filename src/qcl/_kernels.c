/* The compiled kernels of qcl, loaded through ctypes by qcl._ckernel.
 *
 * qcl_rk4_chunk: classical RK4 steps of x' = -L q(x) for the regularized
 * oracle, a port of qcl.dynamics._rk4_chunk_lists.  The knot search is
 * bisect_right, each Laplacian row is summed in increasing column order, and
 * the final update adds k1 + 2 k2 + 2 k3 + k4 from left to right.
 *
 * qcl_hold_solve: builds and solves one dense hold system, a port of
 * qcl.dynamics._build_hold_system and _gaussian_solve.
 *
 * qcl_velocities: the velocity of a selection at each of a list of agents,
 * a port of qcl.dynamics._velocities, whose row sums are numpy's.
 *
 * qcl_uniform_sets and qcl_uniform_hits: the Krasovskii set of every agent
 * and the closest threshold arrival under a uniform quantizer, ports of the
 * per-agent loops over UniformQuantizer.krasovskii_set and next_threshold.
 *
 * All keep the operation order of every element of the code they port.  Built
 * with -ffp-contract=off and without fast-math, so the results are
 * bit-identical to it; qcl checks that before it uses a build.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

/* Excess precision (x87) would round differently from Python. */
#if FLT_EVAL_METHOD == 2 || FLT_EVAL_METHOD < 0
#error "doubles must be evaluated in double precision"
#endif

/* The piecewise-linear ramp through the knots (xp, fp), clamped outside. */
static double ramp(double v, const double *xp, const double *fp, int64_t m)
{
    int64_t lo = 1, hi = m - 1;
    double x0;

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
    x0 = xp[lo];
    return fp[lo] + (fp[lo + 1] - fp[lo]) * (v - x0) / (xp[lo + 1] - x0);
}

/* out = -L q(s), with the nonzeros of row i at [start[i], start[i + 1]). */
static void deriv(const double *s, double *q, double *out, int64_t n,
                  const int64_t *start, const int64_t *col, const double *val,
                  const double *xp, const double *fp, int64_t m)
{
    for (int64_t i = 0; i < n; i++)
        q[i] = ramp(s[i], xp, fp, m);
    for (int64_t i = 0; i < n; i++) {
        double acc = 0.0;
        for (int64_t k = start[i]; k < start[i + 1]; k++)
            acc -= val[k] * q[col[k]];
        out[i] = acc;
    }
}

/* Advances x (n states) by `steps` steps of size h; work holds 6 n doubles. */
void qcl_rk4_chunk(double *x, int64_t n, const int64_t *start, const int64_t *col,
                   const double *val, const double *xp, const double *fp, int64_t m,
                   double h, int64_t steps, double *work)
{
    double *q = work, *tmp = work + n;
    double *k1 = work + 2 * n, *k2 = work + 3 * n, *k3 = work + 4 * n, *k4 = work + 5 * n;
    double half = 0.5 * h, sixth = h / 6.0;

    for (int64_t step = 0; step < steps; step++) {
        deriv(x, q, k1, n, start, col, val, xp, fp, m);
        for (int64_t i = 0; i < n; i++)
            tmp[i] = x[i] + half * k1[i];
        deriv(tmp, q, k2, n, start, col, val, xp, fp, m);
        for (int64_t i = 0; i < n; i++)
            tmp[i] = x[i] + half * k2[i];
        deriv(tmp, q, k3, n, start, col, val, xp, fp, m);
        for (int64_t i = 0; i < n; i++)
            tmp[i] = x[i] + h * k3[i];
        deriv(tmp, q, k4, n, start, col, val, xp, fp, m);
        for (int64_t i = 0; i < n; i++)
            x[i] = x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

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

/* The inputs and work space of one hold system: the agents active[0..m),
 * the box [box[2c], box[2c + 1]] of active[c], m (m + 1) doubles of aug, m
 * of out, and colmap, which holds -1 for each of the graph's agents on entry
 * and on return. */
struct qcl_hold_work {
    int64_t *active;
    double *box;
    double *aug;
    double *out;
    int64_t *colmap;
};

/* The hold system of the m agents in s->active: unknown c is the convex
 * coefficient of agent active[c] in its box, and row c balances that
 * agent's velocity to zero, with every other agent j fixed at z[j].
 *
 * Elimination uses partial pivoting with ties to the lowest row and fails
 * when the best pivot is at most 1e-12 times the largest matrix entry (at
 * least 1).  Returns 0 with the coefficients in s->out[0..m), 1 when the
 * system is singular, or 2, before any write, when an agent lies outside
 * the graph.
 */
int qcl_hold_solve(const struct qcl_graph *g, int64_t m, const double *z,
                   const struct qcl_hold_work *s)
{
    const int64_t *active = s->active, *ends = g->ends, *cols = g->cols;
    const double *box = s->box, *vals = g->vals, *totals = g->totals;
    int64_t *colmap = s->colmap;
    double *aug = s->aug, *out = s->out;
    int64_t w = m + 1;
    double top = 0.0, tol;

    for (int64_t c = 0; c < m; c++)
        if (active[c] < 0 || active[c] >= g->n)
            return 2;
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

/* out[c] = sum_j a_ij (z_j - z_i) over row i = agents[c] of g, for c in
 * [0, k), each summed as numpy sums that row's terms: its reduction starts
 * from the identity 0.0, so terms that are all -0.0 give 0.0.  Returns 0, or
 * 1, before any write, when an agent lies outside the graph. */
int qcl_velocities(const struct qcl_graph *g, int64_t k, const int64_t *agents,
                   const double *z, double *out)
{
    for (int64_t c = 0; c < k; c++)
        if (agents[c] < 0 || agents[c] >= g->n)
            return 1;
    for (int64_t c = 0; c < k; c++) {
        int64_t i = agents[c], start = g->ends[i];
        out[c] = 0.0 + pairwise_terms(g->cols + start, g->vals + start, z, z[i],
                                      g->ends[i + 1] - start);
    }
    return 0;
}

/* The uniform quantizer of step delta, computed as qcl.quantizers.
 * UniformQuantizer does: threshold k is (k + 0.5) delta and level k is
 * k delta, for an integer k held in a double.  |x| / delta < 2^52, the
 * lattice precondition of qcl's scenarios, keeps every k near x / delta and
 * k + 0.5 exact, so each value rounds as it does in Python; a scan returns 1
 * for a state outside it, non-finite states included, and the caller then
 * runs the list code. */

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

/* The inputs and outputs of qcl_uniform_sets.  sel is NULL or n selections
 * to test; z, surface, box and outside hold n values each (box 2 n). */
struct qcl_sets {
    const double *x;
    const double *sel;
    double *z;
    int64_t *surface;
    double *box;
    int64_t *outside;
    int64_t n_surface;
    int64_t n_outside;
    double low;
    double high;
    double common_low;
    double common_high;
};

/* The Krasovskii set [lo, hi] of each of the n agents of s->x, in one pass:
 * z[i] = lo for an agent inside a cell (lo == hi); the agents on a threshold
 * in surface[0..n_surface), in increasing order, with (lo, hi) in box; the
 * agents whose selection does not satisfy lo <= sel[i] <= hi in
 * outside[0..n_outside); the lowest lo and highest hi (the level envelope),
 * and the highest lo and lowest hi (the intersection of all sets, empty when
 * common_low > common_high).  Returns 0, or 1 when a state is off the
 * lattice. */
int qcl_uniform_sets(struct qcl_sets *s, int64_t n, double delta)
{
    double low = INFINITY, high = -INFINITY, common_low = -INFINITY, common_high = INFINITY;
    int64_t n_surface = 0, n_outside = 0;

    for (int64_t i = 0; i < n; i++) {
        double x = s->x[i], k, lo, hi;

        if (!on_lattice(x, delta) || !index_above(x, delta, &k))
            return 1;
        if (threshold(k - 1.0, delta) == x) {
            lo = (k - 1.0) * delta;
            hi = k * delta;
        } else {
            lo = hi = k * delta;
        }
        if (lo == hi) {
            s->z[i] = lo;
        } else {
            s->surface[n_surface] = i;
            s->box[2 * n_surface] = lo;
            s->box[2 * n_surface + 1] = hi;
            n_surface++;
        }
        if (lo < low)
            low = lo;
        if (hi > high)
            high = hi;
        if (lo > common_low)
            common_low = lo;
        if (hi < common_high)
            common_high = hi;
        if (s->sel != 0 && !(lo <= s->sel[i] && s->sel[i] <= hi))
            s->outside[n_outside++] = i;
    }
    s->n_surface = n_surface;
    s->n_outside = n_outside;
    s->low = low;
    s->high = high;
    s->common_low = common_low;
    s->common_high = common_high;
    return 0;
}

/* The inputs and outputs of qcl_uniform_hits; agent and threshold hold n
 * values each. */
struct qcl_hits {
    const double *x;
    const double *v;
    int64_t *agent;
    double *threshold;
    int64_t count;
    double dt;
};

/* The closest threshold arrival of the n agents of h->x moving with
 * velocities h->v: dt = (th - x) / v, the smallest over the agents with
 * nonzero velocity of their next threshold th in the direction of motion,
 * and every agent tied at it, in increasing order, in agent[0..count) with
 * its threshold.  A NaN velocity looks down and a NaN dt is never closest.
 * Returns 0, or 1 when a moving agent's state is off the lattice. */
int qcl_uniform_hits(struct qcl_hits *h, int64_t n, double delta)
{
    double best = INFINITY;
    int64_t count = 0;

    for (int64_t i = 0; i < n; i++) {
        double x = h->x[i], v = h->v[i], k, th, dt;

        if (v == 0.0)
            continue;
        if (!on_lattice(x, delta))
            return 1;
        if (v > 0.0) {
            if (!index_above(x, delta, &k))
                return 1;
            th = threshold(k, delta);
        } else if (!threshold_below(x, delta, &th)) {
            return 1;
        }
        dt = (th - x) / v;
        if (dt < best) {
            best = dt;
            count = 0;
        }
        if (dt == best) {
            h->agent[count] = i;
            h->threshold[count] = th;
            count++;
        }
    }
    h->count = count;
    h->dt = best;
    return 0;
}
