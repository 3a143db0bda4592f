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
 */

#include <float.h>
#include <math.h>
#include <stddef.h>

/* Excess precision (x87) would change the bits: then the build fails and
 * the numpy kernel runs. */
#if FLT_EVAL_METHOD != 0
#error "the sweep kernel needs FLT_EVAL_METHOD == 0"
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

static inline double np_max(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

static inline double np_min(double a, double b)
{
    return (a < b || isnan(a)) ? a : b;
}

/* reconstruction._minmod_into */
static inline double minmod(double a, double b)
{
    double m = np_min(fabs(a), fabs(b)) * (double)(a * b > 0.0);
    return copysign(m, a) + 0.0;
}

/* fluxes._side_waves for one side: velocity, the two wave speeds and the
 * physical momentum flux q*u + g*h^2/2. */
static inline void side_waves(double h, double q, double g, double half_g,
                              double eps, double *slow, double *fast,
                              double *momentum)
{
    double u = h > eps ? q / h : 0.0;
    double c = sqrt(np_max(h, 0.0) * g);
    *slow = u - c;
    *fast = u + c;
    *momentum = q * u + (h * h) * half_g;
}

/* Doubles of work one row of n cells needs. */
idx swekit_sweep_work(idx n, idx nq)
{
    return (3 * (nq + 2) + 5) * (n + 4);
}

static void store(double *out, double value, idx accumulate)
{
    *out = accumulate ? *out + value : value;
}

void swekit_sweep(const struct sweep *s)
{
    const idx n = s->n, e = n + 4, nq = s->nq, nv = nq + 2;
    const double d = s->d, g = s->g, half_g = 0.5 * g, minus_half_g = -0.5 * g;
    const double half_d = 0.5 * d, minus_half_d = -0.5 * d;
    /* Per cell: values (h, u_n[, u_t], h+z or z) and their traces at the
     * cell's high and low faces; per face: the fluxes (mass, normal,
     * transverse) and the pressure corrections of the two sides. */
    double *v = s->work, *hi = v + nv * e, *lo = hi + nv * e;
    double *f_mass = lo + nv * e, *f_norm = f_mass + e, *f_tran = f_norm + e;
    double *corr_minus = f_tran + e, *corr_plus = corr_minus + e;

    for (idx r = 0; r < s->rows; r++) {
        const double *h = s->h + r * s->h_row;
        const double *q = s->q + r * s->q_row;
        const double *z = s->z + r * s->z_row;
        double *last = v + (nv - 1) * e;
        for (idx j = 0; j < e; j++) {
            double hj = h[j * s->h_cell], zj = z[j * s->z_cell];
            v[j] = hj;
            for (idx k = 0; k < nq; k++)
                v[(1 + k) * e + j] = hj > s->h_eps
                    ? q[k * s->q_var + j * s->q_cell] / hj : 0.0;
            last[j] = s->second_order ? hj + zj : zj;
        }

        const double *th = v, *tl = v;
        if (s->second_order) {
            /* Limited slopes of cells 1 .. e-2 (the outer ghosts' traces
             * are never read), then traces slope*(+-d/2) + value. */
            for (idx k = 0; k < nv; k++) {
                const double *x = v + k * e;
                double *xh = hi + k * e, *xl = lo + k * e;
                double before = (x[1] - x[0]) / d;
                for (idx j = 1; j < e - 1; j++) {
                    double after = (x[j + 1] - x[j]) / d;
                    double slope = minmod(before, after);
                    xh[j] = slope * half_d + x[j];
                    xl[j] = slope * minus_half_d + x[j];
                    before = after;
                }
            }
            /* Free-surface traces minus depth traces give the bed traces. */
            double *wh = hi + (nv - 1) * e, *wl = lo + (nv - 1) * e;
            for (idx j = 1; j < e - 1; j++) {
                wh[j] = wh[j] - hi[j];
                wl[j] = wl[j] - lo[j];
            }
            th = hi;
            tl = lo;
        }
        const double *zh = th + (nv - 1) * e, *zl = tl + (nv - 1) * e;

        /* Face k lies between cells k and k+1: its minus side is the
         * high trace of cell k, its plus side the low trace of cell k+1. */
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
            corr_minus[k] = (hm * hm - h_l * h_l) * half_g;
            corr_plus[k] = (hp * hp - h_r * h_r) * half_g;

            double slow_l, fast_l, mom_l, slow_r, fast_r, mom_r, fm, fq;
            side_waves(h_l, q_l, g, half_g, s->face_h_eps, &slow_l, &fast_l,
                       &mom_l);
            side_waves(h_r, q_r, g, half_g, s->face_h_eps, &slow_r, &fast_r,
                       &mom_r);
            if (s->rusanov) {
                /* fluxes.rusanov_sides */
                double speed = np_max(np_max(fabs(slow_l), fabs(fast_l)),
                                      np_max(fabs(slow_r), fabs(fast_r)));
                double half_speed = speed * 0.5;
                fm = (q_l + q_r) * 0.5 - (h_r - h_l) * half_speed;
                fq = (mom_l + mom_r) * 0.5 - (q_r - q_l) * half_speed;
            } else {
                /* fluxes.hll_sides: the left-going test wins. */
                double c1 = np_min(slow_l, slow_r);
                double c2 = np_max(fast_l, fast_r);
                if (c1 >= 0.0) {
                    fm = q_l;
                    fq = mom_l;
                } else if (c2 <= 0.0) {
                    fm = q_r;
                    fq = mom_r;
                } else {
                    double spread = c2 - c1;
                    double inv = spread > 0.0 ? 1.0 / spread : 1.0;
                    double weight = c1 * c2 * inv;
                    double c2i = c2 * inv, c1i = c1 * inv;
                    fm = (q_l * c2i - q_r * c1i) + (h_r - h_l) * weight;
                    fq = (mom_l * c2i - mom_r * c1i) + (q_r - q_l) * weight;
                }
            }
            f_mass[k] = fm;
            f_norm[k] = fq;
            if (nq == 2)
                /* fluxes.transverse_component */
                f_tran[k] = fm * (um + up > 0.0 ? th[2 * e + k]
                                                : tl[2 * e + k + 1]);
        }

        /* Cell j lies between faces j-1 and j. */
        double *carried = s->carried + r * s->carried_row;
        double *normal = s->normal + r * s->normal_row;
        for (idx j = 2; j < n + 2; j++) {
            idx c = j - 2;
            store(carried + c * s->carried_cell,
                  (f_mass[j] - f_mass[j - 1]) / d, s->accumulate);
            if (nq == 2)
                store(carried + s->carried_var + c * s->carried_cell,
                      (f_tran[j] - f_tran[j - 1]) / d, s->accumulate);
            /* reconstruction.centered_correction */
            double centered = (tl[j] + th[j]) * minus_half_g * (zh[j] - zl[j]);
            double left_face = f_norm[j - 1] + corr_plus[j - 1];
            store(normal + c * s->normal_cell,
                  ((f_norm[j] + corr_minus[j]) - left_face - centered) / d,
                  s->accumulate);
        }
        s->faces[r * s->faces_row] = f_mass[1];
        s->faces[s->faces_side + r * s->faces_row] = f_mass[n + 1];
    }
}
