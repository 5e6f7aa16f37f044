/* Left-biased WENO5 values (Jiang & Shu) over runs of interfaces, the
   two 1D fluxes of periodic lines that read them, the parts of a split
   right-hand side and the stage sums of a partitioned Runge-Kutta step.

   `weno5_runs(src, starts, counts, steps, nruns, out)`: interface k of
   run r reads the cells src[starts[r] + k + j * steps[r]], j = 0..4, as
   (a, b, c, d, e); the counts[r] values of each run fill `out` in turn.
   Start 5 with step -1 reads a padded line backwards (its right bias).

   `weno5_periodic(v, m, line, out)` and `burgers_llf_periodic(v, m, line,
   out)` take the m >= 3 cells `v` of one periodic line.  They copy them
   into `line` (m + 6 values) with three ghost cells a side and write the
   m + 1 interface values into `out`: the left-biased values, or the
   Burgers local Lax-Friedrichs fluxes of both biases.

   `stage_sum(store, rows, coeffs, nterms, size, dt, u, out)` writes
   u + dt (a_0 K_0 + a_1 K_1 + ...) into `out`, with a_t = coeffs[t] and
   K_t the row rows[t] of `size` values of `store`, summed left to right
   from the first term; `out` may be `u`.

   `split_parts(phi, width, dims, rows, cols, cells, faces, parts, nparts,
   out)` writes the rows parts[0..nparts) of `out`, rows * cols values
   each, with the parts of a split right-hand side on rows x cols cells
   (rows = 1 on a line).  Cell (i, j) has the value phi[i * cols + j] for
   dims 0 (`phi` is the right-hand side itself), or else the conservative
   difference of its faces: `phi` holds the cols + 1 x-faces of each row,
   then for dims 2 the cols y-faces of each of rows + 1 face rows, and the
   value is (x_l - x_r) / width[j], plus (y_l - y_r) / width[cols + i] for
   dims 2.  Row k gets, with a cell table `cells` (a region per cell), that
   value in region k and +0 elsewhere; with a face table `faces` (a region
   per value of `phi`), the value with every face outside region k read as
   +0; with neither (both NULL), the value everywhere.

   Every value is computed by the same IEEE operations, in the same order,
   as its numpy twin in `prk.weno` (`_numpy_runs`, `_numpy_weno5_periodic`,
   `_numpy_burgers_llf_periodic`, `_numpy_stage_sum`, `_numpy_split_parts`),
   so the two give the same bits.  That holds only when the compiler keeps
   the order: build with -ffp-contract=off (no fused multiply-add) and
   without fast-math.  */

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

/* the sum over blocks of STAGE_BLOCK values, each summed in a local
   accumulator one term at a time, so every loop is a plain pass over
   contiguous values */
enum { STAGE_BLOCK = 256 };

void stage_sum(const double *store, const ptrdiff_t *rows, const double *coeffs,
               size_t nterms, size_t size, double dt, const double *u, double *out)
{
    double acc[STAGE_BLOCK];
    for (size_t lo = 0; lo < size; lo += STAGE_BLOCK) {
        size_t len = size - lo < STAGE_BLOCK ? size - lo : STAGE_BLOCK;
        const double *row = store + (size_t)rows[0] * size + lo;
        for (size_t n = 0; n < len; n++)
            acc[n] = coeffs[0] * row[n];
        for (size_t t = 1; t < nterms; t++) {
            double a = coeffs[t];
            row = store + (size_t)rows[t] * size + lo;
            for (size_t n = 0; n < len; n++)
                acc[n] += a * row[n];
        }
        for (size_t n = 0; n < len; n++)
            out[lo + n] = acc[n] * dt + u[lo + n];
    }
}

/* phi[f], or +0 where a face table puts face f outside region k */
static inline double face(const double *phi, const ptrdiff_t *faces, ptrdiff_t k, size_t f)
{
    return faces == NULL || faces[f] == k ? phi[f] : 0.0;
}

void split_parts(const double *phi, const double *width, size_t dims, size_t rows, size_t cols,
                 const ptrdiff_t *cells, const ptrdiff_t *faces, const ptrdiff_t *parts,
                 size_t nparts, double *out)
{
    size_t size = rows * cols, xfaces = rows * (cols + 1);
    for (size_t p = 0; p < nparts; p++) {
        ptrdiff_t k = parts[p];
        double *row = out + (size_t)k * size;
        for (size_t i = 0, c = 0; i < rows; i++)
            for (size_t j = 0; j < cols; j++, c++) {
                double value;
                if (cells != NULL && cells[c] != k) {
                    value = 0.0;
                } else if (dims == 0) {
                    value = face(phi, faces, k, c);
                } else {
                    size_t x = c + i, y = xfaces + c;  /* the left x-face, the lower y-face */
                    value = (face(phi, faces, k, x) - face(phi, faces, k, x + 1)) / width[j];
                    if (dims == 2)
                        value = value + (face(phi, faces, k, y) - face(phi, faces, k, y + cols))
                                        / width[cols + i];
                }
                row[c] = value;
            }
    }
}
