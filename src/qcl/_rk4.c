/* Classical RK4 steps of x' = -L q(x) for the regularized oracle.
 *
 * A port of qcl.dynamics._rk4_chunk_lists that keeps the operation order of
 * every element: the knot search is bisect_right, each Laplacian row is
 * summed in increasing column order, and the final update adds
 * k1 + 2 k2 + 2 k3 + k4 from left to right.  Built with
 * -ffp-contract=off and without fast-math, so the results are bit-identical
 * to the list kernel; qcl checks that before it uses a build.
 */
#include <float.h>
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
