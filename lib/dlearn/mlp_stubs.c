/* The dense kernels of Dlearn.Mlp: forward (with the hidden-layer tanh
   pass), softmax rows, gradient accumulation and delta propagation.

   Each kernel keeps the exact-order contract of mlp.ml: every value is
   one chain of IEEE-754 operations in the order of the per-example
   formulation. The 16-byte vectors (SSE2 on x86-64, NEON on aarch64)
   hold two such chains side by side, one per lane; no chain is split or
   reordered, and a lane add or multiply rounds exactly as the scalar
   one does. The file must be built with -ffp-contract=off (a fused
   multiply-add rounds once where the contract rounds twice) and without
   -ffast-math (which lets the compiler reassociate sums and call vector
   variants of tanh and exp that are not bit-identical to libm's).

   All arrays are row-major Fbuf (float64 Bigarray) buffers; every stub
   is [@@noalloc] with untagged sizes, and callers own the bounds. */

#include <math.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

typedef double v2d __attribute__((vector_size(16)));

#define F(v) ((double *)Caml_ba_data_val(v))

/* unaligned 2-lane load and store: rows of odd width start anywhere */
static inline v2d ld(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void st(double *p, v2d v) { memcpy(p, &v, sizeof v); }

static inline v2d splat(double x) { return (v2d){x, x}; }

/* The blocks below take their example count E (1 or 2) and vector count
   V (1 or 4) as constants, so each call site unrolls into registers. */
#define INLINE static inline __attribute__((always_inline))

/* wt[i,o] = w[o,i]: the transposed weights the forward kernel reads, so
   that adjacent output rows are adjacent */
value mlp_transpose(value vw, value vwt, intnat nin, intnat nout)
{
  const double *w = F(vw);
  double *wt = F(vwt);
  for (intnat o = 0; o < nout; o++)
    for (intnat i = 0; i < nin; i++) wt[i * nout + o] = w[o * nin + i];
  return Val_unit;
}

value mlp_transpose_byte(value vw, value vwt, value nin, value nout)
{
  return mlp_transpose(vw, vwt, Long_val(nin), Long_val(nout));
}

/* Forward: y[k,o..o+2V) = b[o..] + sum_i wt[i,o..] x[k,i], inputs
   ascending, for examples k0..k0+E. */
INLINE void fwd_block(int E, int V, const double *wt, const double *b,
                      const double *x, double *y, intnat nin, intnat nout,
                      intnat k0, intnat o)
{
  v2d s[2][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) s[e][v] = ld(b + o + 2 * v);
  for (intnat i = 0; i < nin; i++) {
    const double *r = wt + i * nout + o;
    v2d xv[2];
    for (int e = 0; e < E; e++) xv[e] = splat(x[(k0 + e) * nin + i]);
    for (int v = 0; v < V; v++) {
      v2d w = ld(r + 2 * v);
      for (int e = 0; e < E; e++) s[e][v] += w * xv[e];
    }
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) st(y + (k0 + e) * nout + o + 2 * v, s[e][v]);
}

value mlp_forward(value vw, value vb, value vwt, value vx, value vy,
                  intnat nin, intnat nout, intnat n, intnat hidden)
{
  const double *w = F(vw), *b = F(vb), *x = F(vx);
  const double *wt = F(vwt);
  double *y = F(vy);
  intnat o = 0;
  for (; o + 8 <= nout; o += 8) {
    intnat k = 0;
    for (; k + 2 <= n; k += 2) fwd_block(2, 4, wt, b, x, y, nin, nout, k, o);
    if (k < n) fwd_block(1, 4, wt, b, x, y, nin, nout, k, o);
  }
  for (; o + 2 <= nout; o += 2)
    for (intnat k = 0; k < n; k++)
      fwd_block(1, 1, wt, b, x, y, nin, nout, k, o);
  if (o < nout)
    for (intnat k = 0; k < n; k++) {
      double s = b[o];
      for (intnat i = 0; i < nin; i++) s += w[o * nin + i] * x[k * nin + i];
      y[k * nout + o] = s;
    }
  if (hidden)
    for (intnat j = 0; j < n * nout; j++) y[j] = tanh(y[j]);
  return Val_unit;
}

value mlp_forward_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_forward(argv[0], argv[1], argv[2], argv[3], argv[4],
                     Long_val(argv[5]), Long_val(argv[6]), Long_val(argv[7]),
                     Long_val(argv[8]));
}

/* Softmax of each of the n rows of c values in src into dst (dst may be
   src): max folded from -inf, then the exps summed in ascending order
   from 0.0, then the divide. */
value mlp_softmax(value vsrc, value vdst, intnat n, intnat c)
{
  const double *src = F(vsrc);
  double *dst = F(vdst);
  for (intnat r = 0; r < n; r++) {
    const double *z = src + r * c;
    double *p = dst + r * c;
    double mx = -INFINITY;
    for (intnat i = 0; i < c; i++) mx = mx >= z[i] ? mx : z[i];
    double s = 0.0;
    for (intnat i = 0; i < c; i++) {
      double e = exp(z[i] - mx);
      p[i] = e;
      s += e;
    }
    for (intnat i = 0; i < c; i++) p[i] = p[i] / s;
  }
  return Val_unit;
}

value mlp_softmax_byte(value vsrc, value vdst, value n, value c)
{
  return mlp_softmax(vsrc, vdst, Long_val(n), Long_val(c));
}

/* Gradient: gw[o+u, i..i+2V) += d[k,o+u] a[k,i..] over examples k in
   order, for the E output units from o. */
INLINE void grad_block(int E, int V, double *gw, const double *a,
                       const double *d, intnat nin, intnat nout, intnat n,
                       intnat o, intnat i)
{
  v2d g[2][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) g[e][v] = ld(gw + (o + e) * nin + i + 2 * v);
  for (intnat k = 0; k < n; k++) {
    v2d dv[2], av[4];
    for (int e = 0; e < E; e++) dv[e] = splat(d[k * nout + o + e]);
    for (int v = 0; v < V; v++) av[v] = ld(a + k * nin + i + 2 * v);
    for (int e = 0; e < E; e++)
      for (int v = 0; v < V; v++) g[e][v] += dv[e] * av[v];
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) st(gw + (o + e) * nin + i + 2 * v, g[e][v]);
}

INLINE void grad_rows(int E, double *gw, const double *a, const double *d,
                      intnat nin, intnat nout, intnat n, intnat o)
{
  intnat i = 0;
  for (; i + 8 <= nin; i += 8) grad_block(E, 4, gw, a, d, nin, nout, n, o, i);
  for (; i + 2 <= nin; i += 2) grad_block(E, 1, gw, a, d, nin, nout, n, o, i);
  for (; i < nin; i++)
    for (int e = 0; e < E; e++) {
      double g = gw[(o + e) * nin + i];
      for (intnat k = 0; k < n; k++) g += d[k * nout + o + e] * a[k * nin + i];
      gw[(o + e) * nin + i] = g;
    }
}

/* gb[o] += sum_k d[k,o] and gw[o,i] += sum_k d[k,o] a[k,i], each sum
   starting from the accumulated value, examples in order; d is n x nout,
   a n x nin. */
value mlp_grads(value vgw, value vgb, value va, value vd, intnat nin,
                intnat nout, intnat n)
{
  double *gw = F(vgw), *gb = F(vgb);
  const double *a = F(va), *d = F(vd);
  for (intnat o = 0; o < nout; o++) {
    double s = gb[o];
    for (intnat k = 0; k < n; k++) s += d[k * nout + o];
    gb[o] = s;
  }
  intnat o = 0;
  for (; o + 2 <= nout; o += 2) grad_rows(2, gw, a, d, nin, nout, n, o);
  if (o < nout) grad_rows(1, gw, a, d, nin, nout, n, o);
  return Val_unit;
}

value mlp_grads_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_grads(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                   Long_val(argv[5]), Long_val(argv[6]));
}

/* Propagation: nd[k,i..i+2V) = (sum_o d[k,o] w[o,i..], o ascending from
   0.0) * (1 - a[k,i..]^2), for examples k0..k0+E. */
INLINE void prop_block(int E, int V, const double *w, const double *a,
                       const double *d, double *nd, intnat nin, intnat nout,
                       intnat k0, intnat i)
{
  v2d s[2][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) s[e][v] = splat(0.0);
  for (intnat o = 0; o < nout; o++) {
    v2d dv[2];
    for (int e = 0; e < E; e++) dv[e] = splat(d[(k0 + e) * nout + o]);
    for (int v = 0; v < V; v++) {
      v2d wv = ld(w + o * nin + i + 2 * v);
      for (int e = 0; e < E; e++) s[e][v] += dv[e] * wv;
    }
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) {
      intnat j = (k0 + e) * nin + i + 2 * v;
      v2d av = ld(a + j);
      st(nd + j, s[e][v] * (splat(1.0) - av * av));
    }
}

/* the delta of the layer below through tanh; d is n x nout, a (the
   layer's input) and nd n x nin */
value mlp_propagate(value vw, value va, value vd, value vnd, intnat nin,
                    intnat nout, intnat n)
{
  const double *w = F(vw), *a = F(va), *d = F(vd);
  double *nd = F(vnd);
  intnat i = 0;
  for (; i + 8 <= nin; i += 8) {
    intnat k = 0;
    for (; k + 2 <= n; k += 2) prop_block(2, 4, w, a, d, nd, nin, nout, k, i);
    if (k < n) prop_block(1, 4, w, a, d, nd, nin, nout, k, i);
  }
  for (; i + 2 <= nin; i += 2)
    for (intnat k = 0; k < n; k++)
      prop_block(1, 1, w, a, d, nd, nin, nout, k, i);
  if (i < nin)
    for (intnat k = 0; k < n; k++) {
      double s = 0.0;
      for (intnat o = 0; o < nout; o++) s += d[k * nout + o] * w[o * nin + i];
      double ai = a[k * nin + i];
      nd[k * nin + i] = s * (1.0 - ai * ai);
    }
  return Val_unit;
}

value mlp_propagate_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_propagate(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                       Long_val(argv[5]), Long_val(argv[6]));
}
