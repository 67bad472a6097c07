/* The state solve of Opt.Topopt: the density-weighted 5-point operator
   as three row functions, and the unpreconditioned CG over it as one
   loop.

   Every value is one fixed chain of IEEE-754 operations, the chain of
   the closure-based operator and CG the tests keep as oracles: a cell
   sums the links it has from 0.0 in the order left, right, down, up
   and then computes diag*u - acc; CG follows Linalg.Krylov.cg step by
   step, with every dot product summed in ascending element order. The
   file must be built with -ffp-contract=off (a fused multiply-add
   rounds once where the chain rounds twice) and without -ffast-math
   (which would drop the 0.0 each sum starts from and reassociate the
   dot products).

   Vectors are OCaml float arrays (flat doubles); the stencil is the
   OCaml record [Topopt.stencil], read by field position. Every stub is
   [@@noalloc] and the callers own the bounds and the aliasing: all
   vectors hold nx * ny entries, and no two are the same array (the
   pointers are restrict, which lets the row loops vectorize without
   run-time overlap checks). */

#include <math.h>
#include <caml/mlvalues.h>

#define F(v) ((double *)(v))

#define INLINE static inline __attribute__((always_inline))

/* the fields of Topopt.stencil, in declaration order */
typedef struct {
  intnat nx, ny;
  const double *left, *right, *down, *up, *diag;
  value sink; /* bool array */
} stencil;

static stencil stencil_val(value s)
{
  return (stencil){Long_val(Field(s, 0)), Long_val(Field(s, 1)),
                   F(Field(s, 2)),         F(Field(s, 3)),
                   F(Field(s, 4)),         F(Field(s, 5)),
                   F(Field(s, 6)),         Field(s, 7)};
}

/* (A u)[k] for a non-sink cell with the links the flags name */
INLINE double cell(const stencil *s, const double *u, intnat k, int l, int r,
                   int d, int up)
{
  double acc = 0.0;
  if (l) acc += s->left[k] * u[k - 1];
  if (r) acc += s->right[k] * u[k + 1];
  if (d) acc += s->down[k] * u[k - s->nx];
  if (up) acc += s->up[k] * u[k + s->nx];
  return s->diag[k] * u[k] - acc;
}

/* row 0: sinks are identity rows; no down link */
static void row_bottom(const stencil *s, const double *restrict u,
                       double *restrict y)
{
  intnat nx = s->nx;
  int up = s->ny > 1;
  for (intnat k = 0; k < nx; k++)
    y[k] = Bool_val(Field(s->sink, k))
               ? u[k]
               : cell(s, u, k, k > 0, k < nx - 1, 0, up);
}

/* row j, 0 < j < ny - 1: every cell has its down and up links */
static void row_middle(const stencil *s, const double *restrict u,
                       double *restrict y, intnat j)
{
  intnat nx = s->nx, k0 = j * nx;
  if (nx == 1) {
    y[k0] = cell(s, u, k0, 0, 0, 1, 1);
    return;
  }
  y[k0] = cell(s, u, k0, 0, 1, 1, 1);
  for (intnat k = k0 + 1; k < k0 + nx - 1; k++)
    y[k] = cell(s, u, k, 1, 1, 1, 1);
  y[k0 + nx - 1] = cell(s, u, k0 + nx - 1, 1, 0, 1, 1);
}

/* row ny - 1 > 0: no up link */
static void row_top(const stencil *s, const double *restrict u,
                    double *restrict y)
{
  intnat nx = s->nx, k0 = (s->ny - 1) * nx;
  for (intnat k = k0; k < k0 + nx; k++)
    y[k] = cell(s, u, k, k > k0, k < k0 + nx - 1, 1, 0);
}

INLINE void apply_row(const stencil *s, const double *restrict u,
                      double *restrict y, intnat j)
{
  if (j == 0)
    row_bottom(s, u, y);
  else if (j < s->ny - 1)
    row_middle(s, u, y, j);
  else
    row_top(s, u, y);
}

/* y <- A u */
value topopt_apply(value vs, value vu, value vy)
{
  stencil s = stencil_val(vs);
  for (intnat j = 0; j < s.ny; j++) apply_row(&s, F(vu), F(vy), j);
  return Val_unit;
}

/* p <- r + beta p over row j */
INLINE void xpby_row(const double *restrict r, double beta,
                     double *restrict p, intnat nx, intnat j)
{
  for (intnat k = j * nx; k < (j + 1) * nx; k++) p[k] = r[k] + beta * p[k];
}

/* Linalg.Krylov.cg without a preconditioner, from the state its set-up
   leaves: x, r = b - A x, p = r, ap scratch, io[0] = r.r. Runs while
   fewer than max_iter iterations are done and sqrt(r.r) / bnorm > tol,
   and bails out, as cg does, on a non-positive or non-finite p.Ap
   (before x moves) and on a non-finite r.r (after). Each iteration is
   two passes over the grid:
   - p <- r + beta p one row ahead of the apply that reads it (the first
     iteration has p = r already), A p row by row, and p.Ap summed right
     behind each row;
   - x and r updated and the new r.r summed in one loop.
   Returns the iterations done; io[0] is left at the last accepted r.r. */
intnat topopt_cg(value vs, value vx, value vr, value vp, value vap, value vio,
                 double bnorm, double tol, intnat max_iter)
{
  stencil s = stencil_val(vs);
  double *restrict x = F(vx), *restrict r = F(vr), *restrict p = F(vp),
                  *restrict ap = F(vap), *io = F(vio);
  intnat nx = s.nx, ny = s.ny, n = nx * ny, iters = 0;
  double rr = io[0], beta = 0.0;
  while (iters < max_iter && sqrt(rr) / bnorm > tol) {
    double pap = 0.0;
    if (iters > 0) xpby_row(r, beta, p, nx, 0);
    for (intnat j = 0; j < ny; j++) {
      if (iters > 0 && j + 1 < ny) xpby_row(r, beta, p, nx, j + 1);
      apply_row(&s, p, ap, j);
      for (intnat k = j * nx; k < (j + 1) * nx; k++) pap += p[k] * ap[k];
    }
    if (pap <= 0.0 || !isfinite(pap)) break;
    double alpha = rr / pap, rr1 = 0.0;
    for (intnat k = 0; k < n; k++) {
      x[k] = x[k] + alpha * p[k];
      double rk = r[k] + -alpha * ap[k];
      r[k] = rk;
      rr1 += rk * rk;
    }
    if (!isfinite(rr1)) break;
    beta = rr1 / rr;
    rr = rr1;
    iters++;
  }
  io[0] = rr;
  return iters;
}

value topopt_cg_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(topopt_cg(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], Double_val(argv[6]), Double_val(argv[7]),
                            Long_val(argv[8])));
}
