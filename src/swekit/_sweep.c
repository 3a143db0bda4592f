/* Compiled sweep kernel: the contract of timeloop._Sweep.run, row by row.
 *
 * A row is a 1D problem along the sweep direction: n cells plus two
 * ghost cells per end. For each row this computes, into the caller's
 * strided outputs, the carried (mass[, transverse]) flux divergence, the
 * normal-momentum divergence with its topography terms, and the mass
 * flux through the row's two end faces. Inputs and outputs are read and
 * written through element strides, so transposed views need no copy.
 *
 * The numpy kernel in timeloop.py is the reference, and the two must
 * agree bit for bit. So every formula below keeps the operation order
 * of its numpy counterpart (core, reconstruction, fluxes), the file is
 * built with -ffp-contract=off and without -ffast-math, and min/max
 * follow numpy: NaN propagates and a tie returns the second operand,
 * which decides the sign of a zero.
 *
 * A row runs as simple passes over contiguous work rows, each with no
 * value carried from one element to the next and no branch: both arms
 * of a choice are computed and one is selected. So the compiler can
 * vectorize them, and the selected arm is the value the branch gave.
 * The arm not taken may divide by zero; with -fno-trapping-math that
 * raises nothing, and its value is dropped.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>

/* Excess precision (x87) would change the bits: then the build fails and
 * the numpy kernel runs. */
#if FLT_EVAL_METHOD != 0
#error "the sweep kernel needs FLT_EVAL_METHOD == 0"
#endif

#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

typedef ptrdiff_t idx;

/* One block of rows and the scheme; timeloop._SweepBlock mirrors it. */
struct sweep {
    idx rows, n, nq, second_order, rusanov, accumulate;
    double d, g, h_eps, face_h_eps;
    const double *h;
    idx h_row, h_cell;
    const double *q;
    idx q_var, q_row, q_cell;
    const double *z;
    idx z_row, z_cell;
    double *carried;
    idx carried_var, carried_row, carried_cell;
    double *normal;
    idx normal_row, normal_cell;
    double *faces;
    idx faces_side, faces_row;
    double *work;
};

INLINE double np_max(double a, double b)
{
    return (a > b) | isnan(a) ? a : b;
}

INLINE double np_min(double a, double b)
{
    return (a < b) | isnan(a) ? a : b;
}

/* Rows of divergences written to strided outputs at once. */
#define TILE 8

/* Doubles of work a block of rows of n cells needs: per variable its
 * values and its two traces, then the slope differences and the five
 * face rows, then a tile of divergence rows. */
idx swekit_sweep_work(idx n, idx nq)
{
    return (3 * (nq + 2) + 6) * (n + 4) + TILE * (nq + 1) * n;
}

/* Values (h, u_n[, u_t], h+z or z) of one row's e cells into v. */
static void gather(const struct sweep *s, idx r, idx e,
                   double *restrict v)
{
    const double *restrict h = s->h + r * s->h_row;
    const double *restrict z = s->z + r * s->z_row;
    const idx hc = s->h_cell, zc = s->z_cell, nv = s->nq + 2;
    double *restrict last = v + (nv - 1) * e;
    if (s->second_order)
        for (idx j = 0; j < e; j++) {
            v[j] = h[j * hc];
            last[j] = h[j * hc] + z[j * zc];
        }
    else
        for (idx j = 0; j < e; j++) {
            v[j] = h[j * hc];
            last[j] = z[j * zc];
        }
    /* core.velocity: q/h where h > h_eps, else 0. */
    const double h_eps = s->h_eps;
    for (idx k = 0; k < s->nq; k++) {
        const double *restrict q = s->q + k * s->q_var + r * s->q_row;
        const idx qc = s->q_cell;
        double *restrict u = v + (1 + k) * e;
        for (idx j = 0; j < e; j++)
            u[j] = q[j * qc];
        for (idx j = 0; j < e; j++) {
            double ratio = u[j] / v[j];
            u[j] = v[j] > h_eps ? ratio : 0.0;
        }
    }
}

/* reconstruction.muscl_slopes and the traces slope*(+-d/2) + value of
 * one variable, for cells 1 .. e-2 (the outer ghosts' traces are never
 * read). step holds the e-1 divided differences. */
static void traces(const double *restrict x, double *restrict xh,
                   double *restrict xl, double *restrict step, idx e,
                   double d)
{
    const double half_d = 0.5 * d, minus_half_d = -0.5 * d;
    for (idx j = 0; j < e - 1; j++)
        step[j] = (x[j + 1] - x[j]) / d;
    for (idx j = 1; j < e - 1; j++) {
        /* reconstruction._minmod_into */
        double a = step[j - 1], b = step[j];
        double same_sign = a * b > 0.0 ? 1.0 : 0.0;
        double slope = copysign(np_min(fabs(a), fabs(b)) * same_sign, a)
                       + 0.0;
        xh[j] = slope * half_d + x[j];
        xl[j] = slope * minus_half_d + x[j];
    }
}

/* The work rows of the face pass. */
struct face_rows {
    double *restrict mass, *restrict norm, *restrict tran;
    double *restrict corr_minus, *restrict corr_plus;
};

/* fluxes._side_waves for one side: the two wave speeds and the physical
 * momentum flux q*u + g*h^2/2. h is never negative nor -0.0 (it comes
 * from np_max(..., 0.0)), so sqrt(h*g) is numpy's sqrt(max(h, 0)*g). */
INLINE void side_waves(double h, double q, double g, double half_g,
                       double eps, double *slow, double *fast,
                       double *momentum)
{
    double ratio = q / h;
    double u = h > eps ? ratio : 0.0;
    double c = sqrt(h * g);
    *slow = u - c;
    *fast = u + c;
    *momentum = q * u + (h * h) * half_g;
}

/* Fluxes and pressure corrections of faces 1 .. n+1. Face k lies between
 * cells k and k+1: its minus side is the high trace of cell k, its plus
 * side the low trace of cell k+1. rusanov and nq are constants where
 * this is inlined, so each caller gets one branch-free loop. */
INLINE void face_pass(const double *restrict th, const double *restrict tl,
                      idx n, idx e, double g, double eps,
                      struct face_rows f, int rusanov, int nq)
{
    const double half_g = 0.5 * g;
    const double *restrict zh = th + (nq + 1) * e;
    const double *restrict zl = tl + (nq + 1) * e;
    for (idx k = 1; k <= n + 1; k++) {
        double hm = th[k], hp = tl[k + 1];
        double um = th[e + k], up = tl[e + k + 1];
        double zm = zh[k], zp = zl[k + 1];
        /* reconstruction.hydrostatic_sides */
        double z_face = np_max(zm, zp);
        double h_l = np_max(hm + zm - z_face, 0.0);
        double h_r = np_max(hp + zp - z_face, 0.0);
        double q_l = h_l * um, q_r = h_r * up;
        /* reconstruction.interface_pressure_correction */
        f.corr_minus[k] = (hm * hm - h_l * h_l) * half_g;
        f.corr_plus[k] = (hp * hp - h_r * h_r) * half_g;

        double slow_l, fast_l, mom_l, slow_r, fast_r, mom_r, fm, fq;
        side_waves(h_l, q_l, g, half_g, eps, &slow_l, &fast_l, &mom_l);
        side_waves(h_r, q_r, g, half_g, eps, &slow_r, &fast_r, &mom_r);
        if (rusanov) {
            /* fluxes.rusanov_sides. The outer max is np_max with the
             * NaN test of speed_l spelled out: speed_l is NaN exactly
             * when slow_l or fast_l is, and in that form gcc can
             * vectorize it. */
            double speed_l = np_max(fabs(slow_l), fabs(fast_l));
            double speed_r = np_max(fabs(slow_r), fabs(fast_r));
            double speed = (speed_l > speed_r) | isunordered(slow_l, fast_l)
                           ? speed_l : speed_r;
            double half_speed = speed * 0.5;
            fm = (q_l + q_r) * 0.5 - (h_r - h_l) * half_speed;
            fq = (mom_l + mom_r) * 0.5 - (q_r - q_l) * half_speed;
        } else {
            /* fluxes.hll_sides: the blend, then the right-going and last
             * the left-going case, which wins. */
            double c1 = np_min(slow_l, slow_r);
            double c2 = np_max(fast_l, fast_r);
            double spread = c2 - c1;
            double reciprocal = 1.0 / spread;
            double inv = spread > 0.0 ? reciprocal : 1.0;
            double weight = c1 * c2 * inv;
            double c2i = c2 * inv, c1i = c1 * inv;
            double blend_m = (q_l * c2i - q_r * c1i) + (h_r - h_l) * weight;
            double blend_q =
                (mom_l * c2i - mom_r * c1i) + (q_r - q_l) * weight;
            fm = c2 <= 0.0 ? q_r : blend_m;
            fq = c2 <= 0.0 ? mom_r : blend_q;
            fm = c1 >= 0.0 ? q_l : fm;
            fq = c1 >= 0.0 ? mom_l : fq;
        }
        f.mass[k] = fm;
        f.norm[k] = fq;
        if (nq == 2) {
            /* fluxes.transverse_component */
            double vm = th[2 * e + k], vp = tl[2 * e + k + 1];
            f.tran[k] = fm * (um + up > 0.0 ? vm : vp);
        }
    }
}

typedef void face_fn(const double *, const double *, idx, idx, double,
                     double, struct face_rows);

static void faces_hll_1(const double *th, const double *tl, idx n, idx e,
                        double g, double eps, struct face_rows f)
{
    face_pass(th, tl, n, e, g, eps, f, 0, 1);
}

static void faces_hll_2(const double *th, const double *tl, idx n, idx e,
                        double g, double eps, struct face_rows f)
{
    face_pass(th, tl, n, e, g, eps, f, 0, 2);
}

static void faces_rusanov_1(const double *th, const double *tl, idx n, idx e,
                            double g, double eps, struct face_rows f)
{
    face_pass(th, tl, n, e, g, eps, f, 1, 1);
}

static void faces_rusanov_2(const double *th, const double *tl, idx n, idx e,
                            double g, double eps, struct face_rows f)
{
    face_pass(th, tl, n, e, g, eps, f, 1, 2);
}

/* Divergences of cells 2 .. n+1 of one row into the rows dm, dn[, dt],
 * stored or added. Cell j lies between faces j-1 and j. accumulate and
 * nq are constants where this is inlined. */
INLINE void divergence_pass(const double *restrict th,
                            const double *restrict tl, idx n, idx e,
                            double d, double g, struct face_rows f,
                            double *restrict dm, double *restrict dn,
                            double *restrict dt, int accumulate, int nq)
{
    const double minus_half_g = -0.5 * g;
    const double *restrict zh = th + (nq + 1) * e;
    const double *restrict zl = tl + (nq + 1) * e;
    for (idx c = 0; c < n; c++) {
        idx j = c + 2;
        double mass = (f.mass[j] - f.mass[j - 1]) / d;
        /* reconstruction.centered_correction */
        double centered = (tl[j] + th[j]) * minus_half_g * (zh[j] - zl[j]);
        double left_face = f.norm[j - 1] + f.corr_plus[j - 1];
        double normal =
            ((f.norm[j] + f.corr_minus[j]) - left_face - centered) / d;
        dm[c] = accumulate ? dm[c] + mass : mass;
        dn[c] = accumulate ? dn[c] + normal : normal;
        if (nq == 2) {
            double tran = (f.tran[j] - f.tran[j - 1]) / d;
            dt[c] = accumulate ? dt[c] + tran : tran;
        }
    }
}

typedef void divergence_fn(const double *, const double *, idx, idx, double,
                           double, struct face_rows, double *, double *,
                           double *);

static void store_1(const double *th, const double *tl, idx n, idx e,
                    double d, double g, struct face_rows f, double *dm,
                    double *dn, double *dt)
{
    divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, 0, 1);
}

static void store_2(const double *th, const double *tl, idx n, idx e,
                    double d, double g, struct face_rows f, double *dm,
                    double *dn, double *dt)
{
    divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, 0, 2);
}

static void add_1(const double *th, const double *tl, idx n, idx e,
                  double d, double g, struct face_rows f, double *dm,
                  double *dn, double *dt)
{
    divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, 1, 1);
}

static void add_2(const double *th, const double *tl, idx n, idx e,
                  double d, double g, struct face_rows f, double *dm,
                  double *dn, double *dt)
{
    divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, 1, 2);
}

/* Rows [r0, r0 + count) of the tile's divergences into outputs whose
 * cells are strided: element by element, with whole rows of the tile
 * per cell, so a cache line of the outputs is visited once per tile. */
static void flush(const struct sweep *s, idx r0, idx count,
                  const double *tile)
{
    const idx n = s->n, nq = s->nq, tile_row = (nq + 1) * n;
    for (idx k = 0; k <= nq; k++) {
        /* Tile rows hold (mass, normal[, transverse]). */
        double *out = k == 1 ? s->normal
                             : s->carried + (k / 2) * s->carried_var;
        idx row = k == 1 ? s->normal_row : s->carried_row;
        idx cell = k == 1 ? s->normal_cell : s->carried_cell;
        const double *from = tile + k * n;
        for (idx c = 0; c < n; c++)
            for (idx t = 0; t < count; t++) {
                double *o = out + (r0 + t) * row + c * cell;
                double value = from[t * tile_row + c];
                *o = s->accumulate ? *o + value : value;
            }
    }
}

void swekit_sweep(const struct sweep *s)
{
    const idx n = s->n, e = n + 4, nq = s->nq, nv = nq + 2;
    /* Per cell: values (h, u_n[, u_t], h+z or z) and their traces at the
     * cell's high and low faces; the slope differences; per face: the
     * fluxes (mass, normal, transverse) and the pressure corrections of
     * the two sides; then TILE rows of divergences. */
    double *v = s->work, *hi = v + nv * e, *lo = hi + nv * e;
    double *step = lo + nv * e;
    struct face_rows f;
    f.mass = step + e;
    f.norm = f.mass + e;
    f.tran = f.norm + e;
    f.corr_minus = f.tran + e;
    f.corr_plus = f.corr_minus + e;
    double *tile = f.corr_plus + e;
    face_fn *faces = s->rusanov
        ? (nq == 2 ? faces_rusanov_2 : faces_rusanov_1)
        : (nq == 2 ? faces_hll_2 : faces_hll_1);
    /* Outputs with unit cell stride are written in place; strided ones
     * (the y sweep's transposed phi) through the tile. */
    const int direct = s->carried_cell == 1 && s->normal_cell == 1;
    divergence_fn *divergence = direct && s->accumulate
        ? (nq == 2 ? add_2 : add_1)
        : (nq == 2 ? store_2 : store_1);

    for (idx r = 0; r < s->rows; r++) {
        gather(s, r, e, v);
        const double *th = v, *tl = v;
        if (s->second_order) {
            for (idx k = 0; k < nv; k++)
                traces(v + k * e, hi + k * e, lo + k * e, step, e, s->d);
            /* Free-surface traces minus depth traces give the bed
             * traces. */
            double *restrict wh = hi + (nv - 1) * e;
            double *restrict wl = lo + (nv - 1) * e;
            const double *restrict dh = hi, *restrict dl = lo;
            for (idx j = 1; j < e - 1; j++) {
                wh[j] = wh[j] - dh[j];
                wl[j] = wl[j] - dl[j];
            }
            th = hi;
            tl = lo;
        }
        faces(th, tl, n, e, s->g, s->face_h_eps, f);
        s->faces[r * s->faces_row] = f.mass[1];
        s->faces[s->faces_side + r * s->faces_row] = f.mass[n + 1];
        if (direct) {
            double *mass = s->carried + r * s->carried_row;
            divergence(th, tl, n, e, s->d, s->g, f, mass,
                       s->normal + r * s->normal_row,
                       nq == 2 ? mass + s->carried_var : NULL);
            continue;
        }
        idx t = r % TILE;
        double *dm = tile + t * (nq + 1) * n;
        divergence(th, tl, n, e, s->d, s->g, f, dm, dm + n,
                   nq == 2 ? dm + 2 * n : NULL);
        if (t == TILE - 1 || r == s->rows - 1)
            flush(s, r - t, t + 1, tile);
    }
}
