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
 * Both keep the operation order of every element of the list code.  Built
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
