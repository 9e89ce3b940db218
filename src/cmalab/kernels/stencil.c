/* Stencil kernels of the solver for every complex dimension n up to
 * STENCIL_MAX_N: the FD complex Hessian and the linearized apply.
 *
 * The input grid function is a C-ordered 2n-d array over the real axes
 * (x1, y1, ..., xn, yn), shape[a] >= 3 nodes and spacing h[a] on axis a.
 * Hessian and coefficient fields share one real order, the coef order:
 * a^{ii} for i = 1..n, then Re a^{ij} and Im a^{ij} for each pair i < j
 * in row order, n * n fields in all.  Only interior nodes are computed.
 * Every output and coefficient field is addressed by a pointer to its
 * value at the first interior node and by per-axis element strides, so
 * one loop writes either an interior-only array or the interior of a
 * full grid whose ring keeps what the caller put there.  The last axis
 * of every field must be contiguous (stride 1).
 *
 * Semantics, and the order of every rounding, match kernels/fallback.py,
 * the numpy reference; C multiplies by 1/h^2 where numpy divides by h^2.
 * cmalab.kernels.native builds and loads this file and checks every
 * argument before a pointer gets here.
 */
#include <stddef.h>

#define STENCIL_MAX_N 8
#define MAX_AXES (2 * STENCIL_MAX_N)
#define MAX_PAIRS (STENCIL_MAX_N * (STENCIL_MAX_N - 1) / 2)
#define MAX_FIELDS (STENCIL_MAX_N * STENCIL_MAX_N)

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* read by kernels.native, so the cap lives in one place */
const int stencil_max_n = STENCIL_MAX_N;

/* second difference along stride s, and the four-point cross difference
 * along strides a and b, centred at p */
#define D2(p, s) ((p)[s] - 2.0 * (p)[0] + (p)[-(s)])
#define DX(p, a, b) ((p)[(a) + (b)] - (p)[(a) - (b)] - (p)[(b) - (a)] + (p)[-(a) - (b)])

typedef struct {
    ptrdiff_t s[MAX_AXES];        /* element strides of the input grid */
    double ih2[MAX_AXES];         /* 1 / h_a^2 */
    /* pair k = (i, j): input strides of x_i, y_i, x_j, y_j */
    ptrdiff_t xi[MAX_PAIRS], yi[MAX_PAIRS], xj[MAX_PAIRS], yj[MAX_PAIRS];
    /* 1 / (4 h_a h_b) for (x_i, x_j), (y_i, y_j), (x_i, y_j), (y_i, x_j) */
    double cxx[MAX_PAIRS], cyy[MAX_PAIRS], cxy[MAX_PAIRS], cyx[MAX_PAIRS];
} geometry;

static void make_geometry(geometry *g, int n, const ptrdiff_t *shape,
                          const double *h)
{
    const int nd = 2 * n;
    g->s[nd - 1] = 1;
    for (int a = nd - 2; a >= 0; a--)
        g->s[a] = g->s[a + 1] * shape[a + 1];
    for (int a = 0; a < nd; a++)
        g->ih2[a] = 1.0 / (h[a] * h[a]);
    int k = 0;
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++, k++) {
            const int x1 = 2 * i, y1 = 2 * i + 1, x2 = 2 * j, y2 = 2 * j + 1;
            g->xi[k] = g->s[x1];
            g->yi[k] = g->s[y1];
            g->xj[k] = g->s[x2];
            g->yj[k] = g->s[y2];
            g->cxx[k] = 1.0 / (4.0 * h[x1] * h[x2]);
            g->cyy[k] = 1.0 / (4.0 * h[y1] * h[y2]);
            g->cxy[k] = 1.0 / (4.0 * h[x1] * h[y2]);
            g->cyx[k] = 1.0 / (4.0 * h[y1] * h[x2]);
        }
}

/* u_{x_i x_i} + u_{y_i y_i} (4 u_{i ibar}) */
ALWAYS_INLINE double lap(const geometry *g, const double *p, int i)
{
    return D2(p, g->s[2 * i]) * g->ih2[2 * i]
           + D2(p, g->s[2 * i + 1]) * g->ih2[2 * i + 1];
}

/* u_{x_i x_j} + u_{y_i y_j} (4 Re u_{i jbar}) for pair k = (i, j) */
ALWAYS_INLINE double cross_re(const geometry *g, const double *p, int k)
{
    return DX(p, g->xi[k], g->xj[k]) * g->cxx[k]
           + DX(p, g->yi[k], g->yj[k]) * g->cyy[k];
}

/* u_{x_i y_j} - u_{y_i x_j} (4 Im u_{i jbar}) for pair k = (i, j) */
ALWAYS_INLINE double cross_im(const geometry *g, const double *p, int k)
{
    return DX(p, g->xi[k], g->yj[k]) * g->cxy[k]
           - DX(p, g->yi[k], g->xj[k]) * g->cyx[k];
}

/* One interior row of one Hessian field: field f of coef order. */
ALWAYS_INLINE void hessian_row(int n, const geometry *g, int f,
                               const double *restrict p, double *restrict o,
                               ptrdiff_t len)
{
    if (f < n)
        for (ptrdiff_t l = 0; l < len; l++)
            o[l] = 0.25 * lap(g, p + l, f);
    else if ((f - n) % 2 == 0)
        for (ptrdiff_t l = 0; l < len; l++)
            o[l] = 0.25 * cross_re(g, p + l, (f - n) / 2);
    else
        for (ptrdiff_t l = 0; l < len; l++)
            o[l] = 0.25 * cross_im(g, p + l, (f - n) / 2);
}

/* One interior row of sum a^{ij} v_{ij}, summed as
 * 1/4 [sum a^{ii} lap_i + 2 sum Re a^{ij} cre_ij] + 1/2 sum Im a^{ij} cim_ij;
 * a[f] points at the row's first node in coefficient field f. */
ALWAYS_INLINE void apply_row(int n, const geometry *g,
                             const double *restrict p,
                             const double *const *a, double *restrict o,
                             ptrdiff_t len)
{
    const int pairs = n * (n - 1) / 2;
    for (ptrdiff_t l = 0; l < len; l++) {
        const double *q = p + l;
        double acc = a[0][l] * lap(g, q, 0);
        for (int i = 1; i < n; i++)
            acc += a[i][l] * lap(g, q, i);
        for (int k = 0; k < pairs; k++)
            acc += 2.0 * a[n + 2 * k][l] * cross_re(g, q, k);
        acc *= 0.25;
        for (int k = 0; k < pairs; k++)
            acc += 0.5 * a[n + 2 * k + 1][l] * cross_im(g, q, k);
        o[l] = acc;
    }
}

/* Advance the odometer over axes 0 .. nd-2 of the interior by one row,
 * moving the input offset *in and the offsets off[0..m-1] of m strided
 * layouts (strides[j] their per-axis strides) with it.  Returns 0 after
 * the last row. */
ALWAYS_INLINE int next_row(int nd, const ptrdiff_t *shape, ptrdiff_t *idx,
                           const geometry *g, ptrdiff_t *in, int m,
                           ptrdiff_t *off, const ptrdiff_t *const *strides)
{
    for (int a = nd - 2; a >= 0; a--) {
        *in += g->s[a];
        for (int j = 0; j < m; j++)
            off[j] += strides[j][a];
        if (++idx[a] < shape[a] - 1)
            return 1;
        /* wrap axis a back to its first interior node */
        *in -= (shape[a] - 2) * g->s[a];
        for (int j = 0; j < m; j++)
            off[j] -= (shape[a] - 2) * strides[j][a];
        idx[a] = 1;
    }
    return 0;
}

/* The interior fields of the FD complex Hessian of u in coef order:
 * out[f] points at field f's first interior node; every field has the
 * element strides ostride. */
ALWAYS_INLINE void hessian_n(int n, const ptrdiff_t *shape, const double *h,
                             const double *u, double *const *out,
                             const ptrdiff_t *ostride)
{
    const int nd = 2 * n;
    const ptrdiff_t len = shape[nd - 1] - 2;
    geometry g;
    make_geometry(&g, n, shape, h);
    ptrdiff_t idx[MAX_AXES], in = 0, on = 0;
    for (int a = 0; a < nd; a++) {
        idx[a] = 1;
        in += g.s[a];
    }
    do {
        for (int f = 0; f < n * n; f++)
            hessian_row(n, &g, f, u + in, out[f] + on, len);
    } while (next_row(nd, shape, idx, &g, &in, 1, &on, &ostride));
}

/* out = sum a^{ij} v_{ij} on the interior: coef[f] points at coefficient
 * field f's first interior node, every field with element strides
 * cstride; out points at the first interior node of the output, element
 * strides ostride. */
ALWAYS_INLINE void apply_n(int n, const ptrdiff_t *shape, const double *h,
                           const double *v, const double *const *coef,
                           const ptrdiff_t *cstride, double *out,
                           const ptrdiff_t *ostride)
{
    const int nd = 2 * n;
    const ptrdiff_t len = shape[nd - 1] - 2;
    const ptrdiff_t *const strides[2] = {cstride, ostride};
    geometry g;
    make_geometry(&g, n, shape, h);
    ptrdiff_t idx[MAX_AXES], in = 0, off[2] = {0, 0};
    const double *rows[MAX_FIELDS];
    for (int a = 0; a < nd; a++) {
        idx[a] = 1;
        in += g.s[a];
    }
    do {
        for (int f = 0; f < n * n; f++)
            rows[f] = coef[f] + off[0];
        apply_row(n, &g, v + in, rows, out + off[1], len);
    } while (next_row(nd, shape, idx, &g, &in, 2, off, strides));
}

/* The switches give the compiler a constant n for the common
 * dimensions, so it unrolls the term loops of each row. */
void hessian(int n, const ptrdiff_t *shape, const double *h, const double *u,
             double *const *out, const ptrdiff_t *ostride)
{
    switch (n) {
    case 2:
        hessian_n(2, shape, h, u, out, ostride);
        break;
    case 3:
        hessian_n(3, shape, h, u, out, ostride);
        break;
    default:
        hessian_n(n, shape, h, u, out, ostride);
    }
}

void apply(int n, const ptrdiff_t *shape, const double *h, const double *v,
           const double *const *coef, const ptrdiff_t *cstride, double *out,
           const ptrdiff_t *ostride)
{
    switch (n) {
    case 2:
        apply_n(2, shape, h, v, coef, cstride, out, ostride);
        break;
    case 3:
        apply_n(3, shape, h, v, coef, cstride, out, ostride);
        break;
    default:
        apply_n(n, shape, h, v, coef, cstride, out, ostride);
    }
}
