/* The dense kernels of Dlearn.Mlp: forward (with the hidden-layer tanh
   pass), softmax rows, gradient accumulation and delta propagation.

   Each kernel keeps the exact-order contract of mlp.ml: every value is
   one chain of IEEE-754 operations in the order of the per-example
   formulation. The vectors hold LANES such chains side by side, one per
   lane; no chain is split or reordered, and a lane add or multiply
   rounds exactly as the scalar one does. The file must be built with
   -ffp-contract=off (a fused multiply-add rounds once where the
   contract rounds twice) and without -ffast-math (which lets the
   compiler reassociate sums and call vector variants of tanh and exp
   that are not bit-identical to libm's). It takes no -march either:
   the ISA is chosen at load time (see KERNEL).

   All arrays are row-major Fbuf (float64 Bigarray) buffers; every stub
   is [@@noalloc] with untagged sizes, and callers own the bounds. */

#include <math.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* One kernel source, two builds on x86-64: GCC and Clang compile each
   KERNEL function once for the baseline ISA (SSE2, where a 4-lane
   operation is two 2-lane ones) and once for AVX2 (one 4-lane
   register), and the dynamic loader binds the symbol to the AVX2 build
   when the CPU has it. AVX2 brings no FMA: fused multiply-adds are a
   separate ISA flag, and -ffp-contract=off forbids them anyway. Other
   platforms, and builds with MLP_BASELINE_ONLY defined (a test-only
   copy that runs the oracles on the baseline build), get the baseline
   build alone. */
#if defined(__x86_64__) && !defined(MLP_BASELINE_ONLY)
#define KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define KERNEL
#endif

#define LANES 4

/* vd is a vector of LANES doubles; a scalar operand of a vector
   operation stands for LANES copies of itself. Loads and stores go
   through vdu, the same vector aligned as a double: rows of any width
   start anywhere. */
typedef double vd __attribute__((vector_size(LANES * sizeof(double))));
typedef double vdu __attribute__((vector_size(LANES * sizeof(double)),
                                  aligned(sizeof(double))));

#define ld(p) (*(const vdu *)(p))
#define st(p, v) (*(vdu *)(p) = (v))

/* A 2-lane vector, for a gradient's last pair of inputs (see
   mlp_grads); loads and stores through vd2u as above. */
typedef double vd2 __attribute__((vector_size(2 * sizeof(double))));
typedef double vd2u __attribute__((vector_size(2 * sizeof(double)),
                                   aligned(sizeof(double))));

#define ld2(p) (*(const vd2u *)(p))
#define st2(p, v) (*(vd2u *)(p) = (v))

#define F(v) ((double *)Caml_ba_data_val(v))

/* Every block is inlined into the KERNEL that calls it, so it is
   compiled for that kernel's ISA. */
#define INLINE static inline __attribute__((always_inline))

/* A block keeps 8 independent accumulators in registers: V vectors
   (LANES * V values wide) for each of E = 8 / V rows, so 16, 8 and 4
   values wide. What is left of a row, narrower than a vector, runs as
   a tail of 8 scalar chains.

   BLOCKS(E, n, BLOCK, V) calls BLOCK(V, e, k) over rows k in [0, n):
   groups of E, then one each of E/2, E/4 ... for what is left.
   WIDTHS(j, len, n, BLOCK, TAIL) walks j across [0, len) in blocks of
   16, 8 and 4 values, then one value at a time through TAIL, each over
   all n rows. V, E and e are constants at every call, so each block
   unrolls into registers. */
#define BLOCKS(E, n, BLOCK, V)                                          \
  do {                                                                  \
    intnat k_ = 0;                                                      \
    for (; k_ + (E) <= (n); k_ += (E)) BLOCK(V, E, k_);                 \
    if ((E) > 4 && k_ + 4 <= (n)) { BLOCK(V, 4, k_); k_ += 4; }         \
    if ((E) > 2 && k_ + 2 <= (n)) { BLOCK(V, 2, k_); k_ += 2; }         \
    if ((E) > 1 && k_ < (n)) BLOCK(V, 1, k_);                           \
  } while (0)

#define WIDTHS(j, len, n, BLOCK, TAIL)                                  \
  do {                                                                  \
    for (; j + 4 * LANES <= (len); j += 4 * LANES)                      \
      BLOCKS(2, n, BLOCK, 4);                                           \
    if (j + 2 * LANES <= (len)) {                                       \
      BLOCKS(4, n, BLOCK, 2);                                           \
      j += 2 * LANES;                                                   \
    }                                                                   \
    if (j + LANES <= (len)) {                                           \
      BLOCKS(8, n, BLOCK, 1);                                           \
      j += LANES;                                                       \
    }                                                                   \
    for (; j < (len); j++) BLOCKS(8, n, TAIL, 0);                       \
  } while (0)

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

/* Forward: y[k,o..o+LANES*V) = b[o..] + sum_i wt[i,o..] x[k,i], inputs
   ascending, for examples k0..k0+E. */
INLINE void fwd_block(int E, int V, const double *wt, const double *b,
                      const double *x, double *y, intnat nin, intnat nout,
                      intnat k0, intnat o)
{
  vd s[8][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) s[e][v] = ld(b + o + LANES * v);
  for (intnat i = 0; i < nin; i++) {
    const double *r = wt + i * nout + o;
    double xv[8];
    for (int e = 0; e < E; e++) xv[e] = x[(k0 + e) * nin + i];
    for (int v = 0; v < V; v++) {
      vd w = ld(r + LANES * v);
      for (int e = 0; e < E; e++) s[e][v] += w * xv[e];
    }
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++)
      st(y + (k0 + e) * nout + o + LANES * v, s[e][v]);
}

/* the same chains for one output row o, E examples wide */
INLINE void fwd_tail(int E, const double *w, const double *b,
                     const double *x, double *y, intnat nin, intnat nout,
                     intnat k0, intnat o)
{
  double s[8];
  for (int e = 0; e < E; e++) s[e] = b[o];
  for (intnat i = 0; i < nin; i++) {
    double wi = w[o * nin + i];
    for (int e = 0; e < E; e++) s[e] += wi * x[(k0 + e) * nin + i];
  }
  for (int e = 0; e < E; e++) y[(k0 + e) * nout + o] = s[e];
}

/* x is read from row x0 on; y from row 0 */
KERNEL value mlp_forward(value vw, value vb, value vwt, value vx, intnat x0,
                         value vy, intnat nin, intnat nout, intnat n,
                         intnat hidden)
{
  const double *w = F(vw), *b = F(vb), *x = F(vx) + x0 * nin;
  const double *wt = F(vwt);
  double *y = F(vy);
  intnat o = 0;
#define FWD(V, E, k) fwd_block(E, V, wt, b, x, y, nin, nout, k, o)
#define FWD_TAIL(V, E, k) fwd_tail(E, w, b, x, y, nin, nout, k, o)
  WIDTHS(o, nout, n, FWD, FWD_TAIL);
  if (hidden)
    for (intnat j = 0; j < n * nout; j++) y[j] = tanh(y[j]);
  return Val_unit;
}

value mlp_forward_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_forward(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                     argv[5], Long_val(argv[6]), Long_val(argv[7]),
                     Long_val(argv[8]), Long_val(argv[9]));
}

/* Softmax of each of the n rows of c values in src into dst (dst may be
   src): max folded from -inf, then the exps summed in ascending order
   from 0.0, then the divide. exp(+-0) is exactly 1.0 in every libm, so
   where z[i] - max is +-0 (the row's maximum, and its ties) no exp is
   called. */
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
      double d = z[i] - mx;
      double e = d == 0.0 ? 1.0 : exp(d);
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

/* Gradient: gw[o+u, i..i+LANES*V) += d[k,o+u] a[k,i..] over examples k
   in order, for the E output units from o. */
INLINE void grad_block(int E, int V, double *gw, const double *a,
                       const double *d, intnat nin, intnat nout, intnat n,
                       intnat o, intnat i)
{
  vd g[8][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++)
      g[e][v] = ld(gw + (o + e) * nin + i + LANES * v);
  for (intnat k = 0; k < n; k++) {
    double dv[8];
    vd av[4];
    for (int e = 0; e < E; e++) dv[e] = d[k * nout + o + e];
    for (int v = 0; v < V; v++) av[v] = ld(a + k * nin + i + LANES * v);
    for (int e = 0; e < E; e++)
      for (int v = 0; v < V; v++) g[e][v] += dv[e] * av[v];
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++)
      st(gw + (o + e) * nin + i + LANES * v, g[e][v]);
}

/* the same chains for one input i, E units wide */
INLINE void grad_tail(int E, double *gw, const double *a, const double *d,
                      intnat nin, intnat nout, intnat n, intnat o, intnat i)
{
  double g[8];
  for (int e = 0; e < E; e++) g[e] = gw[(o + e) * nin + i];
  for (intnat k = 0; k < n; k++) {
    double ak = a[k * nin + i];
    for (int e = 0; e < E; e++) g[e] += d[k * nout + o + e] * ak;
  }
  for (int e = 0; e < E; e++) gw[(o + e) * nin + i] = g[e];
}

/* the same chains for the two inputs i and i + 1, one per lane, E units
   wide */
INLINE void grad_pair(int E, double *gw, const double *a, const double *d,
                      intnat nin, intnat nout, intnat n, intnat o, intnat i)
{
  vd2 g[8];
  for (int e = 0; e < E; e++) g[e] = ld2(gw + (o + e) * nin + i);
  for (intnat k = 0; k < n; k++) {
    vd2 ak = ld2(a + k * nin + i);
    for (int e = 0; e < E; e++) g[e] += d[k * nout + o + e] * ak;
  }
  for (int e = 0; e < E; e++) st2(gw + (o + e) * nin + i, g[e]);
}

/* gb[o] += sum_k d[k,o] and gw[o,i] += sum_k d[k,o] a[k,i], each sum
   starting from the accumulated value, examples in order; d is n x nout,
   a n x nin, read from row a0 on. When two or three inputs are left
   past the 4-wide blocks, the last two run as one 2-lane pair (the
   10-input streams, the 30-input end-to-end layer) rather than as two
   scalar passes over the chunk. */
KERNEL value mlp_grads(value vgw, value vgb, value va, intnat a0, value vd,
                       intnat nin, intnat nout, intnat n)
{
  double *gw = F(vgw), *gb = F(vgb);
  const double *a = F(va) + a0 * nin, *d = F(vd);
  /* examples outside, so the compiler vectorizes over units */
  for (intnat k = 0; k < n; k++)
    for (intnat o = 0; o < nout; o++) gb[o] += d[k * nout + o];
  /* the pair starts at [pair], which is nin when there is none */
  intnat i = 0, pair = nin % LANES >= 2 ? nin - 2 : nin;
#define GRAD(V, E, o) grad_block(E, V, gw, a, d, nin, nout, n, o, i)
#define GRAD_TAIL(V, E, o) grad_tail(E, gw, a, d, nin, nout, n, o, i)
#define GRAD_PAIR(V, E, o) grad_pair(E, gw, a, d, nin, nout, n, o, i)
  WIDTHS(i, pair, nout, GRAD, GRAD_TAIL);
  if (pair < nin) BLOCKS(8, nout, GRAD_PAIR, 0);
  return Val_unit;
}

value mlp_grads_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_grads(argv[0], argv[1], argv[2], Long_val(argv[3]), argv[4],
                   Long_val(argv[5]), Long_val(argv[6]), Long_val(argv[7]));
}

/* Propagation: nd[k,i..i+LANES*V) = (sum_o d[k,o] w[o,i..], o ascending
   from 0.0) * (1 - a[k,i..]^2), for examples k0..k0+E. */
INLINE void prop_block(int E, int V, const double *w, const double *a,
                       const double *d, double *nd, intnat nin, intnat nout,
                       intnat k0, intnat i)
{
  vd s[8][4];
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) s[e][v] = (vd){0};
  for (intnat o = 0; o < nout; o++) {
    double dv[8];
    for (int e = 0; e < E; e++) dv[e] = d[(k0 + e) * nout + o];
    for (int v = 0; v < V; v++) {
      vd wv = ld(w + o * nin + i + LANES * v);
      for (int e = 0; e < E; e++) s[e][v] += dv[e] * wv;
    }
  }
  for (int e = 0; e < E; e++)
    for (int v = 0; v < V; v++) {
      intnat j = (k0 + e) * nin + i + LANES * v;
      vd av = ld(a + j);
      st(nd + j, s[e][v] * (1.0 - av * av));
    }
}

/* the same chains for one input i, E examples wide */
INLINE void prop_tail(int E, const double *w, const double *a,
                      const double *d, double *nd, intnat nin, intnat nout,
                      intnat k0, intnat i)
{
  double s[8];
  for (int e = 0; e < E; e++) s[e] = 0.0;
  for (intnat o = 0; o < nout; o++) {
    double wo = w[o * nin + i];
    for (int e = 0; e < E; e++) s[e] += d[(k0 + e) * nout + o] * wo;
  }
  for (int e = 0; e < E; e++) {
    intnat j = (k0 + e) * nin + i;
    nd[j] = s[e] * (1.0 - a[j] * a[j]);
  }
}

/* the delta of the layer below through tanh; d is n x nout, a (the
   layer's input) and nd n x nin */
KERNEL value mlp_propagate(value vw, value va, value vd, value vnd,
                           intnat nin, intnat nout, intnat n)
{
  const double *w = F(vw), *a = F(va), *d = F(vd);
  double *nd = F(vnd);
  intnat i = 0;
#define PROP(V, E, k) prop_block(E, V, w, a, d, nd, nin, nout, k, i)
#define PROP_TAIL(V, E, k) prop_tail(E, w, a, d, nd, nin, nout, k, i)
  WIDTHS(i, nin, n, PROP, PROP_TAIL);
  return Val_unit;
}

value mlp_propagate_byte(value *argv, int argn)
{
  (void)argn;
  return mlp_propagate(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                       Long_val(argv[5]), Long_val(argv[6]));
}
