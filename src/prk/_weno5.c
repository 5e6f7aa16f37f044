/* Left-biased WENO5 values (Jiang & Shu) over runs of interfaces, the
   two 1D fluxes of periodic lines and the 2D rotation flux that read them,
   the parts of a split right-hand side, the stage sums of a partitioned
   Runge-Kutta step and the forward substitution of the W analysis.

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

   `rotation_exponent(xi, eta, trig, size, out)` writes the exponent
   -10 ((x0 - 1/2)^2 + (y0 - 1/4)^2) of the rotated Gaussian at `size`
   points into `out`, with x0 = (1/2 + xi cs) - eta sn and y0 = (1/2 + eta
   cs) + xi sn, (xi, eta) a point less (1/2, 1/2) and (cs, sn) = trig[0..2),
   the cosine and sine of the angle.

   `rotation_flux(state, n, a1, a2, ring, ghosts, nring, frame, src, starts,
   counts, steps, nruns, out)` makes one flux evaluation of the 2D rotation
   on n x n cells.  It writes ghosts[k] at frame[ring[k]] for the nring
   values of the ghost ring, the row-major n x n `state` into the interior
   of the (n + 6) x (n + 6) frame (three ghost layers a side), a1[i] times
   the frame's row i + 3 (n rows of n + 6 values), then the frame's columns
   3..n+3 times a2[j] (n + 6 rows of n values) into `src`, and the WENO5
   values of the run table (`weno5_runs`) into the 2n (n + 1) values of
   `out`, each plus 0 (so -0 becomes +0).

   `lower_solve(bands, w, m, first, rows, cols, x)` solves in place, by
   forward substitution, for the lower triangular m x m matrix whose
   diagonal d holds bands[d * m + i] in row i (d = 0..w, the entry in column
   i - d), the rows first..first+rows-1 of a matrix of `cols` columns: `x`
   holds its rows from first - min(w, first) on, so the solved rows that a
   block needs come first.  Row i less bands[d * m + i] times row i - d, for
   d from min(w, i) down to 1, then divided by bands[i], one column at a time.

   `run_ops(ops, nops)` runs a table of op records (`struct op`) in order,
   each one of the entries `stage_sum`, `split_parts`, `rotation_exponent`,
   `rotation_flux` or `lower_solve` above with its arguments, or a
   finiteness check `finite` (whether the `size` values of `values` are all
   finite).  It returns 0 at the first
   finiteness check that finds a NaN or an infinity, and runs no op after
   it; otherwise 1.  `op_layout` holds the `op_layout_length` sizes that
   `prk.weno`'s ctypes mirror of the record checks before its first bind:
   sizeof(struct op), then the offset and size of every field in the order
   of declaration.

   Every value is computed by the same IEEE operations, in the same order,
   as its numpy twin in `prk.weno` (`_numpy_runs`, `_numpy_weno5_periodic`,
   `_numpy_burgers_llf_periodic`, `_numpy_stage_sum`, `_numpy_split_parts`,
   `_numpy_rotation_exponent`, `_numpy_rotation_flux`, `_numpy_lower_solve`,
   `_numpy_ops`), so the two give the same bits.  That holds only when the compiler keeps
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

void rotation_exponent(const double *xi, const double *eta, const double *trig, size_t size,
                       double *out)
{
    double cs = trig[0], sn = trig[1];
    for (size_t k = 0; k < size; k++) {
        double dx = ((0.5 + xi[k] * cs) - eta[k] * sn) - 0.5;  /* x0 - 1/2 */
        double dy = ((0.5 + eta[k] * cs) + xi[k] * sn) - 0.25;  /* y0 - 1/4 */
        out[k] = -10.0 * (dx * dx + dy * dy);
    }
}

void rotation_flux(const double *state, size_t n, const double *a1, const double *a2,
                   const ptrdiff_t *ring, const double *ghosts, size_t nring, double *frame,
                   double *src, const ptrdiff_t *starts, const ptrdiff_t *counts,
                   const ptrdiff_t *steps, size_t nruns, double *out)
{
    size_t p = n + 6, size = 2 * n * (n + 1);
    for (size_t k = 0; k < nring; k++)
        frame[ring[k]] = ghosts[k];
    for (size_t i = 0; i < n; i++)
        memcpy(frame + (i + 3) * p + 3, state + i * n, n * sizeof *state);
    for (size_t i = 0; i < n; i++, src += p)
        for (size_t c = 0; c < p; c++)
            src[c] = a1[i] * frame[(i + 3) * p + c];
    for (size_t r = 0; r < p; r++, src += n)
        for (size_t j = 0; j < n; j++)
            src[j] = frame[r * p + j + 3] * a2[j];
    weno5_runs(src - 2 * n * p, starts, counts, steps, nruns, out);
    for (size_t k = 0; k < size; k++)
        out[k] = out[k] + 0.0;
}

void lower_solve(const double *bands, size_t w, size_t m, size_t first, size_t rows,
                 size_t cols, double *x)
{
    double *row = x + (first < w ? first : w) * cols;
    for (size_t i = first; i < first + rows; i++, row += cols) {
        for (size_t d = i < w ? i : w; d > 0; d--) {
            double a = bands[d * m + i];
            const double *above = row - d * cols;
            for (size_t c = 0; c < cols; c++)
                row[c] = row[c] - a * above[c];
        }
        for (size_t c = 0; c < cols; c++)
            row[c] = row[c] / bands[i];
    }
}

/* whether the `size` values are all finite */
static int all_finite(const double *values, size_t size)
{
    int finite = 1;
    for (size_t n = 0; n < size; n++)
        finite &= isfinite(values[n]) != 0;
    return finite;
}

/* the kinds of op, numbered as `prk.weno._OP_KINDS` */
enum { OP_STAGE_SUM, OP_SPLIT_PARTS, OP_ROTATION_EXPONENT, OP_ROTATION_FLUX, OP_LOWER_SOLVE,
       OP_FINITE };

/* the arguments of each kind, by the names of the entry's parameters */
struct stage_sum_args {
    const double *store;
    const ptrdiff_t *rows;
    const double *coeffs;
    size_t nterms, size;
    double dt;
    const double *u;
    double *out;
};

struct split_parts_args {
    const double *phi, *width;
    size_t dims, rows, cols;
    const ptrdiff_t *cells, *faces, *parts;
    size_t nparts;
    double *out;
};

struct rotation_exponent_args {
    const double *xi, *eta, *trig;
    size_t size;
    double *out;
};

struct rotation_flux_args {
    const double *state;
    size_t n;
    const double *a1, *a2;
    const ptrdiff_t *ring;
    const double *ghosts;
    size_t nring;
    double *frame, *src;
    const ptrdiff_t *starts, *counts, *steps;
    size_t nruns;
    double *out;
};

struct lower_solve_args {
    const double *bands;
    size_t w, m, first, rows, cols;
    double *x;
};

struct finite_args {
    const double *values;
    size_t size;
};

struct op {
    ptrdiff_t kind;
    union {
        struct stage_sum_args stage_sum;
        struct split_parts_args split_parts;
        struct rotation_exponent_args rotation_exponent;
        struct rotation_flux_args rotation_flux;
        struct lower_solve_args lower_solve;
        struct finite_args finite;
    } args;
};

#define FIELD(member) offsetof(struct op, member), sizeof(((struct op *)0)->member)

const size_t op_layout[] = {
    sizeof(struct op), FIELD(kind),
    FIELD(args.stage_sum.store), FIELD(args.stage_sum.rows), FIELD(args.stage_sum.coeffs),
    FIELD(args.stage_sum.nterms), FIELD(args.stage_sum.size), FIELD(args.stage_sum.dt),
    FIELD(args.stage_sum.u), FIELD(args.stage_sum.out),
    FIELD(args.split_parts.phi), FIELD(args.split_parts.width), FIELD(args.split_parts.dims),
    FIELD(args.split_parts.rows), FIELD(args.split_parts.cols), FIELD(args.split_parts.cells),
    FIELD(args.split_parts.faces), FIELD(args.split_parts.parts),
    FIELD(args.split_parts.nparts), FIELD(args.split_parts.out),
    FIELD(args.rotation_exponent.xi), FIELD(args.rotation_exponent.eta),
    FIELD(args.rotation_exponent.trig), FIELD(args.rotation_exponent.size),
    FIELD(args.rotation_exponent.out),
    FIELD(args.rotation_flux.state), FIELD(args.rotation_flux.n), FIELD(args.rotation_flux.a1),
    FIELD(args.rotation_flux.a2), FIELD(args.rotation_flux.ring),
    FIELD(args.rotation_flux.ghosts), FIELD(args.rotation_flux.nring),
    FIELD(args.rotation_flux.frame), FIELD(args.rotation_flux.src),
    FIELD(args.rotation_flux.starts), FIELD(args.rotation_flux.counts),
    FIELD(args.rotation_flux.steps), FIELD(args.rotation_flux.nruns),
    FIELD(args.rotation_flux.out),
    FIELD(args.lower_solve.bands), FIELD(args.lower_solve.w), FIELD(args.lower_solve.m),
    FIELD(args.lower_solve.first), FIELD(args.lower_solve.rows), FIELD(args.lower_solve.cols),
    FIELD(args.lower_solve.x),
    FIELD(args.finite.values), FIELD(args.finite.size),
};
const size_t op_layout_length = sizeof op_layout / sizeof *op_layout;

int run_ops(const struct op *ops, size_t nops)
{
    for (const struct op *op = ops; op < ops + nops; op++)
        switch (op->kind) {
        case OP_STAGE_SUM: {
            const struct stage_sum_args *a = &op->args.stage_sum;
            stage_sum(a->store, a->rows, a->coeffs, a->nterms, a->size, a->dt, a->u, a->out);
            break;
        }
        case OP_SPLIT_PARTS: {
            const struct split_parts_args *a = &op->args.split_parts;
            split_parts(a->phi, a->width, a->dims, a->rows, a->cols, a->cells, a->faces,
                        a->parts, a->nparts, a->out);
            break;
        }
        case OP_ROTATION_EXPONENT: {
            const struct rotation_exponent_args *a = &op->args.rotation_exponent;
            rotation_exponent(a->xi, a->eta, a->trig, a->size, a->out);
            break;
        }
        case OP_ROTATION_FLUX: {
            const struct rotation_flux_args *a = &op->args.rotation_flux;
            rotation_flux(a->state, a->n, a->a1, a->a2, a->ring, a->ghosts, a->nring, a->frame,
                          a->src, a->starts, a->counts, a->steps, a->nruns, a->out);
            break;
        }
        case OP_LOWER_SOLVE: {
            const struct lower_solve_args *a = &op->args.lower_solve;
            lower_solve(a->bands, a->w, a->m, a->first, a->rows, a->cols, a->x);
            break;
        }
        case OP_FINITE:
            if (!all_finite(op->args.finite.values, op->args.finite.size))
                return 0;
            break;
        }
    return 1;
}
