/* Left-biased WENO5 values (Jiang & Shu) over runs of interfaces, and the
   two 1D fluxes of periodic lines that read them.

   `weno5_runs(src, starts, counts, steps, nruns, out)`: interface k of
   run r reads the cells src[starts[r] + k + j * steps[r]], j = 0..4, as
   (a, b, c, d, e); the counts[r] values of each run fill `out` in turn.
   Start 5 with step -1 reads a padded line backwards (its right bias).

   `weno5_periodic(v, m, line, out)` and `burgers_llf_periodic(v, m, line,
   out)` take the m >= 3 cells `v` of one periodic line.  They copy them
   into `line` (m + 6 values) with three ghost cells a side and write the
   m + 1 interface values into `out`: the left-biased values, or the
   Burgers local Lax-Friedrichs fluxes of both biases.

   Every value is computed by the same IEEE operations, in the same order,
   as its numpy twin in `prk.weno` (`_numpy_runs`, `_numpy_weno5_periodic`,
   `_numpy_burgers_llf_periodic`), so the two give the same bits.  That
   holds only when the compiler keeps the order: build with
   -ffp-contract=off (no fused multiply-add) and without fast-math.  */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* 13/12 ((a - 2b) + c)^2: the curvature term of the window (a, b, c) */
static double curvature(double a, double b, double c)
{
    double t = (a - 2.0 * b) + c;
    return (t * t) * (13.0 / 12.0);
}

/* 1/4 t^2 */
static double quarter_square(double t)
{
    return (t * t) * 0.25;
}

/* gamma / (eps + beta)^2 */
static double weight(double gamma, double beta)
{
    double t = beta + 1e-6;
    return gamma / (t * t);
}

/* the value at the edge of cell c on the side of d, from the cells
   (a, b, c, d, e); inlined into every loop, which then runs about twice as
   fast at -O3 (gcc 12 keeps a call of it otherwise) */
static inline __attribute__((always_inline))
double weno5(double a, double b, double c, double d, double e)
{
    double alpha0 = weight(0.1, quarter_square((a - 4.0 * b) + 3.0 * c)
                                + curvature(a, b, c));
    double alpha1 = weight(0.6, curvature(b, c, d) + quarter_square(b - d));
    double alpha2 = weight(0.3, quarter_square((3.0 * c - 4.0 * d) + e)
                                + curvature(c, d, e));
    double p0 = ((2.0 * a - 7.0 * b) + 11.0 * c) / 6.0;
    double p1 = ((5.0 * c - b) + 2.0 * d) / 6.0;
    double p2 = ((2.0 * c + 5.0 * d) - e) / 6.0;
    return ((p0 * alpha0 + p1 * alpha1) + p2 * alpha2) / ((alpha0 + alpha1) + alpha2);
}

/* one run from its first cell `w`; inlined, so a literal step gives the
   loop of a contiguous line */
static inline __attribute__((always_inline))
void weno5_run(const double *w, ptrdiff_t step, ptrdiff_t count, double *out)
{
    for (ptrdiff_t k = 0; k < count; k++, w++)
        out[k] = weno5(w[0], w[step], w[2 * step], w[3 * step], w[4 * step]);
}

void weno5_runs(const double *src, const ptrdiff_t *starts, const ptrdiff_t *counts,
                const ptrdiff_t *steps, size_t nruns, double *out)
{
    for (size_t r = 0; r < nruns; out += counts[r], r++)
        weno5_run(src + starts[r], steps[r], counts[r], out);
}

/* the last three cells, all m, then the first three */
static void pad_periodic(const double *v, size_t m, double *line)
{
    memcpy(line, v + m - 3, 3 * sizeof *v);
    memcpy(line + 3, v, m * sizeof *v);
    memcpy(line + m + 3, v, 3 * sizeof *v);
}

void weno5_periodic(const double *v, size_t m, double *line, double *out)
{
    pad_periodic(v, m, line);
    weno5_run(line, 1, (ptrdiff_t)m + 1, out);
}

/* 0.5 (f(u-) + f(u+) + alpha (u- - u+)) with f(u) = u^2 / 2 and
   alpha = max(|u-|, |u+|), NaN if either is NaN (as numpy's maximum).  The
   right bias u+ is the left-biased formula on the mirror image, read
   backwards: the cells k+5 down to k+1. */
void burgers_llf_periodic(const double *v, size_t m, double *line, double *out)
{
    pad_periodic(v, m, line);
    const double *w = line;
    for (size_t k = 0; k <= m; k++) {
        double um = weno5(w[k], w[k + 1], w[k + 2], w[k + 3], w[k + 4]);
        double up = weno5(w[k + 5], w[k + 4], w[k + 3], w[k + 2], w[k + 1]);
        double am = fabs(um), ap = fabs(up);
        double alpha = am > ap ? am : ap;
        alpha = am != am ? am : alpha;
        out[k] = 0.5 * ((0.5 * (um * um) + 0.5 * (up * up)) + alpha * (um - up));
    }
}
