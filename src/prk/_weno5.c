/* Left-biased WENO5 values (Jiang & Shu) at every interface of padded lines.

   `w` holds `lines` lines of `len` values each, one after another, with
   len >= 6; `out` receives the len - 5 interface values of each line.
   Interface k reads the cells k..k+4 as (a, b, c, d, e).

   Every value is computed by the same IEEE operations, in the same order,
   as its numpy twin `prk.weno._numpy_left`, so the two give the same
   bits.  That holds only when the compiler keeps the order: build with
   -ffp-contract=off (no fused multiply-add) and without fast-math.  */

#include <stddef.h>

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

void weno5_left(const double *w, size_t lines, size_t len, double *out)
{
    size_t n = len - 5;
    for (size_t line = 0; line < lines; line++, w += len, out += n) {
        for (size_t k = 0; k < n; k++) {
            double a = w[k], b = w[k + 1], c = w[k + 2], d = w[k + 3], e = w[k + 4];
            double alpha0 = weight(0.1, quarter_square((a - 4.0 * b) + 3.0 * c)
                                        + curvature(a, b, c));
            double alpha1 = weight(0.6, curvature(b, c, d) + quarter_square(b - d));
            double alpha2 = weight(0.3, quarter_square((3.0 * c - 4.0 * d) + e)
                                        + curvature(c, d, e));
            double p0 = ((2.0 * a - 7.0 * b) + 11.0 * c) / 6.0;
            double p1 = ((5.0 * c - b) + 2.0 * d) / 6.0;
            double p2 = ((2.0 * c + 5.0 * d) - e) / 6.0;
            out[k] = ((p0 * alpha0 + p1 * alpha1) + p2 * alpha2)
                     / ((alpha0 + alpha1) + alpha2);
        }
    }
}
