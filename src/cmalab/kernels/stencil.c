/* Stencil kernels of the solver for every complex dimension n up to
 * STENCIL_MAX_N: the FD complex Hessian, the linearized apply, and the
 * fused det and inverse of the Hessian behind the positive-definiteness
 * guard (`det`, `inverse`).  The fused loop builds each node's Hessian
 * in registers, factors H - guard I as LDL^H in real arithmetic (a
 * pivot that is not > 0 fails the node), then factors H and writes det
 * H or the coefficients of H^{-1}; it returns the flat C-order interior
 * index of the first failing node, or -1.  It needs no libm.
 *
 * The input grid function is a C-ordered 2n-d array over the real axes
 * (x1, y1, ..., xn, yn), shape[a] >= 3 nodes and spacing h[a] on axis a.
 * Hessian and coefficient fields share one real order, the coef order:
 * a^{ii} for i = 1..n, then Re a^{ij} and Im a^{ij} for each pair i < j
 * in row order, n * n fields in all.  Only interior nodes are computed.
 * Every output and coefficient field is addressed by a pointer to its
 * value at the first interior node and by per-axis element strides, so
 * one loop writes into any array the caller owns: an interior-only
 * array, or the interior view of a full grid whose ring keeps what the
 * caller put there.  The input grid is C-contiguous; the last axis of
 * every other field must be contiguous (stride 1), and the fields of
 * one group (outputs, coefficients) share their strides.
 *
 * Semantics, and the order of every rounding, match kernels/fallback.py,
 * the numpy reference; C multiplies by 1/h^2 where numpy divides by h^2,
 * and numpy may fuse a multiply and an add in a product of two complex
 * fields, which first occurs in the factorization at n = 3.
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

/* The fused kernels take the nodes of a row two at a time, each matrix
 * entry a vector of LANES = 2 values (one SSE2 register), so that every
 * step of the factorization is one vector operation.  A row's last pair
 * is its last two nodes, overlapping the pair before when the row has
 * an odd length; a row of one node fills the second lane from the ring
 * node after it, then replaces that lane by the identity and never
 * writes it out.  That read stays inside the grid: every stencil of a
 * node reaches at most (sum of all strides) - 1 elements away, and the
 * last interior node lies (sum of all strides) before the grid's end. */
#define LANES 2
typedef double vec __attribute__((vector_size(8 * LANES)));
typedef long long mask __attribute__((vector_size(8 * LANES)));

ALWAYS_INLINE vec vload(const double *p)
{
    vec v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

/* D2 and DX on the LANES nodes from p on */
#define VD2(p, s) (vload((p) + (s)) - 2.0 * vload(p) + vload((p) - (s)))
#define VDX(p, a, b) (vload((p) + (a) + (b)) - vload((p) + (a) - (b)) \
                      - vload((p) + (b) - (a)) + vload((p) - (a) - (b)))

/* The coef-order FD complex-Hessian entries of the LANES nodes from p on,
 * in the order of lap, cross_re and cross_im. */
ALWAYS_INLINE void hessian_lanes(int n, const geometry *g, const double *p,
                                 vec *restrict H)
{
    const int pairs = n * (n - 1) / 2;
    for (int i = 0; i < n; i++)
        H[i] = 0.25 * (VD2(p, g->s[2 * i]) * g->ih2[2 * i]
                       + VD2(p, g->s[2 * i + 1]) * g->ih2[2 * i + 1]);
    for (int k = 0; k < pairs; k++) {
        H[n + 2 * k] = 0.25 * (VDX(p, g->xi[k], g->xj[k]) * g->cxx[k]
                               + VDX(p, g->yi[k], g->yj[k]) * g->cyy[k]);
        H[n + 2 * k + 1] = 0.25 * (VDX(p, g->xi[k], g->yj[k]) * g->cxy[k]
                                   - VDX(p, g->yi[k], g->xj[k]) * g->cyx[k]);
    }
}

/* LDL^H factorization H - shift I = L diag(d) L^H of the Hermitian
 * matrices with coef-order entries H, in real arithmetic: d[j] the
 * pivots, inv[j] = 1 / d[j] for j < n - 1, (lr, li)[i * n + j] the
 * entries of the unit lower factor L for j < i.  Sums in the order of
 * fallback._ldlh.  Returns a mask of the lanes with a pivot that is not
 * > 0 (nan included). */
ALWAYS_INLINE mask ldlh(int n, const vec *H, double shift, vec *d, vec *inv,
                        vec *lr, vec *li)
{
    const vec zero = {0};
    mask bad = {0};
    for (int j = 0; j < n; j++) {
        vec dj = H[j] - shift;
        for (int k = 0; k < j; k++)
            dj -= (lr[j * n + k] * lr[j * n + k] + li[j * n + k] * li[j * n + k]) * d[k];
        d[j] = dj;
        bad |= ~(dj > zero);
        if (j == n - 1)
            break;
        inv[j] = 1.0 / dj;
        /* pair (j, i) of coef order for i = j + 1 .. n - 1 */
        int f = n + 2 * (j * n - j * (j + 1) / 2);
        for (int i = j + 1; i < n; i++, f += 2) {
            vec sr = H[f], si = -H[f + 1];   /* H_ij = conj(H_ji) */
            for (int m = 0; m < j; m++) {
                /* L_im conj(L_jm) d_m */
                const vec ar = lr[i * n + m], ai = li[i * n + m];
                const vec br = lr[j * n + m], bi = li[j * n + m];
                sr -= (ar * br + ai * bi) * d[m];
                si -= (ai * br - ar * bi) * d[m];
            }
            lr[i * n + j] = sr * inv[j];
            li[i * n + j] = si * inv[j];
        }
    }
    return bad;
}

/* The n * n coef-order entries a of H^{-1} = M^H diag(1/d) M, M = L^{-1},
 * from the factors of `ldlh`: a^{ij} = sum over k of conj(M_ki) M_kj / d_k.
 * Completes inv with 1 / d[n - 1].  Sums in the order of
 * fallback._inverse_coef. */
ALWAYS_INLINE void invert(int n, const vec *d, vec *inv, const vec *lr,
                          const vec *li, vec *a)
{
    vec mr[MAX_FIELDS], mi[MAX_FIELDS];
    inv[n - 1] = 1.0 / d[n - 1];
    for (int j = 0; j < n; j++)
        for (int i = j + 1; i < n; i++) {
            /* forward substitution: M_ij = -sum over j <= k < i of L_ik M_kj */
            vec sr = -lr[i * n + j], si = -li[i * n + j];
            for (int k = j + 1; k < i; k++) {
                const vec ar = lr[i * n + k], ai = li[i * n + k];
                const vec br = mr[k * n + j], bi = mi[k * n + j];
                sr -= ar * br - ai * bi;
                si -= ar * bi + ai * br;
            }
            mr[i * n + j] = sr;
            mi[i * n + j] = si;
        }
    for (int i = 0; i < n; i++) {
        vec s = inv[i];
        for (int k = i + 1; k < n; k++)
            s += (mr[k * n + i] * mr[k * n + i] + mi[k * n + i] * mi[k * n + i]) * inv[k];
        a[i] = s;
    }
    int f = n;
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++, f += 2) {
            vec sr = mr[j * n + i] * inv[j], si = -mi[j * n + i] * inv[j];
            for (int k = j + 1; k < n; k++) {
                /* conj(M_ki) M_kj / d_k */
                const vec pr = mr[k * n + i], pi = mi[k * n + i];
                const vec qr = mr[k * n + j], qi = mi[k * n + j];
                sr += (pr * qr + pi * qi) * inv[k];
                si += (pr * qi - pi * qr) * inv[k];
            }
            a[f] = sr;
            a[f + 1] = si;
        }
}

/* One pass over the interior, LANES nodes of a row at a time: the FD
 * complex Hessian H in coef order, the guard (every pivot of H - guard I
 * is > 0), then the factors of H and one output: det H, the product of
 * the pivots, into out[0], or with `inverse` the n * n coef-order entries
 * of H^{-1} into out[0 .. n*n-1].  Every output field has element
 * strides ostride.  Returns the flat C-order interior index of the first
 * node that fails the guard, where the pass stops, or -1. */
ALWAYS_INLINE ptrdiff_t factor_n(int n, const ptrdiff_t *shape, const double *h,
                                 const double *u, double guard,
                                 double *const *out, const ptrdiff_t *ostride,
                                 int inverse)
{
    const int nd = 2 * n, nout = inverse ? n * n : 1;
    const ptrdiff_t len = shape[nd - 1] - 2;
    geometry g;
    make_geometry(&g, n, shape, h);
    ptrdiff_t idx[MAX_AXES], in = 0, on = 0, node = 0;
    for (int a = 0; a < nd; a++) {
        idx[a] = 1;
        in += g.s[a];
    }
    vec H[MAX_FIELDS], a[MAX_FIELDS];
    /* the factors of H, and of H - guard I for the guard */
    vec d[STENCIL_MAX_N], inv[STENCIL_MAX_N], lr[MAX_FIELDS], li[MAX_FIELDS];
    vec dg[STENCIL_MAX_N], invg[STENCIL_MAX_N], lrg[MAX_FIELDS], lig[MAX_FIELDS];
    do {
        for (ptrdiff_t c = 0; c < len; c += LANES) {
            if (c + LANES > len && len >= LANES)
                c = len - LANES;
            const int m = len < LANES ? 1 : LANES;   /* nodes in the lanes */
            hessian_lanes(n, &g, u + in + c, H);
            if (m < LANES)
                for (int f = 0; f < n * n; f++)
                    H[f][1] = f < n ? 1.0 : 0.0;
            /* both factorizations before the check: they interleave */
            const mask bad = ldlh(n, H, guard, dg, invg, lrg, lig);
            ldlh(n, H, 0.0, d, inv, lr, li);
            for (int w = 0; w < m; w++)
                if (bad[w])
                    return node + c + w;
            if (inverse) {
                invert(n, d, inv, lr, li, a);
            } else {
                a[0] = d[0];
                for (int j = 1; j < n; j++)
                    a[0] *= d[j];
            }
            for (int f = 0; f < nout; f++)
                if (m == LANES)
                    __builtin_memcpy(out[f] + on + c, &a[f], sizeof a[f]);
                else
                    out[f][on + c] = a[f][0];
        }
        node += len;
    } while (next_row(nd, shape, idx, &g, &in, 1, &on, &ostride));
    return -1;
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

/* det H at every interior node into out[0]; the first node that fails
 * the guard, or -1 */
ptrdiff_t det(int n, const ptrdiff_t *shape, const double *h, const double *u,
              double guard, double *const *out, const ptrdiff_t *ostride)
{
    switch (n) {
    case 2:
        return factor_n(2, shape, h, u, guard, out, ostride, 0);
    case 3:
        return factor_n(3, shape, h, u, guard, out, ostride, 0);
    default:
        return factor_n(n, shape, h, u, guard, out, ostride, 0);
    }
}

/* the coef-order entries of H^{-1} at every interior node into out[0 ..
 * n*n-1]; the first node that fails the guard, or -1 */
ptrdiff_t inverse(int n, const ptrdiff_t *shape, const double *h, const double *u,
                  double guard, double *const *out, const ptrdiff_t *ostride)
{
    switch (n) {
    case 2:
        return factor_n(2, shape, h, u, guard, out, ostride, 1);
    case 3:
        return factor_n(3, shape, h, u, guard, out, ostride, 1);
    default:
        return factor_n(n, shape, h, u, guard, out, ostride, 1);
    }
}
