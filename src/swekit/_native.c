/* swekit's compiled kernels, one library, each the twin of numpy code
 * that stays as its fallback and its reference:
 *
 * - the sweep, the contract of timeloop._Sweep.run over one direction
 *   of the run's frame, row by row: one entry swekit_sweep_<level> per
 *   x86 vector level (baseline, avx2, avx512f), all compiled from the
 *   same code, and swekit_sweep_level, which reports the widest level
 *   the CPU and the OS support;
 * - the step, swekit_step_<level>: timeloop.run_simulation's time loop,
 *   with compute_dt, heun_step or euler_step and the ledger, up to each
 *   landing time: the ghost fill, the sweep of the same level, the
 *   stage tail (update, rain, infiltration, friction, validity check)
 *   and the Heun average, a whole step at a time, stopping only where
 *   Python raises a fault or takes the step again, or where the caller
 *   sees the run;
 *   one entry per vector level, as the sweep;
 * - the writer, swekit_write_rows_<level> and swekit_format_slots_<level>:
 *   the `%.16e` table writer of fileio._write_rows, one pair of entries
 *   per writer level (baseline, fma), both compiled from the same code,
 *   and swekit_writer_level, which reports the widest the CPU runs.
 *
 * The sweep kernel. swekit_sweep_<level>(frame, direction) sweeps one
 * direction of the run's frame, struct frame: the x sweep's rows are the
 * frame's interior lines (its one line in 1D), the y sweep's its interior
 * columns. A row is a 1D problem along the sweep direction: n cells plus
 * two ghost cells per end. For each row this computes the carried
 * (mass[, transverse]) flux divergence and the normal-momentum divergence
 * with its topography terms into phi, and the mass flux through the
 * row's two end faces into faces. Every stride comes from the frame's
 * layout, the one fill_frame fills, so the y sweep reads the frame's
 * columns as they lie, with no copy.
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
 *
 * The x sweep stores its rows into phi one at a time. The y sweep, whose
 * cells lie a frame line apart and nx apart in phi, runs TILE = 8 rows
 * at once, as vector lanes, and adds into phi: each work row holds cell j
 * of lane t at [j * TILE + t], so the same passes run with a neighbour
 * TILE values away instead of 1, the gather reads TILE neighbouring
 * values of the frame per cell, and the flush adds TILE neighbouring
 * values of phi per cell, where one row at a time would cross a frame
 * row per value. A partial last tile (a grid one cell wide has only
 * that) computes on copies of its last row and writes its own rows only.
 * swekit_sweep_work sizes the work: (3 (nq + 2) + 6)(n + 4) doubles per
 * lane, and a tile's (nq + 1) n divergences per lane, about 172 KB for a
 * 128-cell tile in 2D against 19 KB for a row. On a 2-vCPU AMD EPYC
 * (family 26) a y sweep of a wet 128x128 grid takes 80 to 83 us at
 * avx512f against 95 to 99 one row at a time (the x sweep 65 to 70), 118
 * to 120 against 127 to 132 at avx2, and 242 to 250 against 250 at the
 * baseline; 16 lanes took 73 to 75 us at avx512f, with twice the work.
 *
 * Wider vectors give the same bits: each element still sees the same
 * correctly rounded operations in the same order. The sweep's and the
 * step's target strings enable no FMA extension and name no arch=; only
 * the writer's fma level enables FMA, for its explicit fma() calls, and
 * -ffp-contract=off keeps any other product from being fused, also at
 * avx512f, whose instruction set has fused forms of its own. The
 * target strings are GCC's, on x86-64: built elsewhere, or by another
 * compiler, the library holds the baseline entries only.
 *
 * The step, with its stage tail, and the writer are described at their
 * sections, after the sweep.
 */

/* newlocale and uselocale, for the writer. */
#define _POSIX_C_SOURCE 200809L

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Excess precision (x87) would change the kernels' bits: then the build
 * fails and the numpy twins run. */
#if FLT_EVAL_METHOD != 0
#error "the kernels need FLT_EVAL_METHOD == 0"
#endif

#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

typedef ptrdiff_t idx;

/* The run's frame and scheme, all that a sweep reads and writes;
 * _compiled.Frame mirrors it. ext holds the fields and the bed (h, qx[,
 * qy], z), each with a two-cell ghost frame: nq + 2 planes of ny + 4
 * lines of nx + 4 cells, one line in 1D (ny = 1). phi holds the flux
 * divergence of each field over the grid's cells, faces each direction's
 * low and high rows of end-face mass fluxes (side_rows of them each),
 * and work the sweep's scratch, swekit_sweep_work doubles. */
struct frame {
    idx nx, ny, nq, second_order, rusanov;
    double spacing[2], g, h_eps;
    double *ext, *phi, *faces, *work;
};

/* A plane of ext: a variable's lines. */
INLINE idx frame_plane(const struct frame *fr)
{
    return fr->nq == 2 ? (fr->ny + 4) * (fr->nx + 4) : fr->nx + 4;
}

/* Where the line of the grid's row r starts in a plane of ext: line
 * r + 2, or the one line of a 1D frame. */
INLINE idx frame_line(const struct frame *fr, idx r)
{
    return fr->nq == 2 ? (r + 2) * (fr->nx + 4) : 0;
}

/* Rows of faces per side of a direction: the larger count of rows. */
INLINE idx side_rows(const struct frame *fr)
{
    return fr->nq == 2 && fr->nx > fr->ny ? fr->nx : fr->ny;
}

/* The plane of ext, or of phi, that holds variable k of a sweep along y
 * or x: the depth, or the mass, 0; the normal discharge 1 and the
 * transverse 2, which the y sweep takes the other way round (qy, qx). */
INLINE idx plane_of(idx k, int y)
{
    return y && k > 0 ? 3 - k : k;
}

/* numpy's maximum and minimum: NaN in a propagates, and a tie returns b.
 * The NaN test selects after the comparison's select, not in its mask:
 * in that form GCC vectorizes the selects also where their operands are
 * themselves selects of comparisons (infiltrate's). */
INLINE double np_max(double a, double b)
{
    double r = a > b ? a : b;
    return isnan(a) ? a : r;
}

INLINE double np_min(double a, double b)
{
    double r = a < b ? a : b;
    return isnan(a) ? a : r;
}

/* Rows the y sweep runs at once, as vector lanes. */
#define TILE 8

/* Doubles of work the sweep needs, the larger of its directions' needs:
 * per variable its values and its two traces, then the slope differences
 * and the five face rows, each n + 4 cells of one value per lane; then,
 * for the y sweep's tiles, their divergences. */
idx swekit_sweep_work(const struct frame *fr)
{
    const idx values = 3 * (fr->nq + 2) + 6, x = values * (fr->nx + 4);
    const idx y = (values * (fr->ny + 4) + (fr->nq + 1) * fr->ny) * TILE;
    return fr->nq == 1 || x > y ? x : y;
}

/* e cells of count rows into v, lane t of cell j at v[j * lanes + t]:
 * a points at the first row's first cell, a row's cells lie cell apart,
 * and a tile's rows are neighbours. The lanes past count repeat the last
 * row. Where add, each value is added to the one of h in its place.
 * lanes and add are constants where this is inlined. */
INLINE void load(const double *restrict a, idx cell, idx count, idx e,
                 const double *restrict h, double *restrict v, int lanes,
                 int add)
{
    if (lanes == 1 || count == lanes) {
        for (idx j = 0; j < e; j++)
            for (int t = 0; t < lanes; t++) {
                double value = a[j * cell + t];
                v[j * lanes + t] = add ? h[j * lanes + t] + value : value;
            }
        return;
    }
    for (idx j = 0; j < e; j++)
        for (int t = 0; t < lanes; t++) {
            double value = a[j * cell + (t < count ? t : count - 1)];
            v[j * lanes + t] = add ? h[j * lanes + t] + value : value;
        }
}

/* Values (h, u_n[, u_t], h+z or z) of the count rows whose first cell of
 * h is a into v, m = e * lanes of them per variable. The x sweep runs a
 * row at a time, along a frame line; the y sweep a tile, across lines. */
INLINE void gather(const struct frame *fr, const double *a, idx count,
                   idx e, double *restrict v, int lanes)
{
    const int y = lanes != 1;
    const idx m = e * lanes, nq = fr->nq, plane = frame_plane(fr);
    const idx cell = y ? fr->nx + 4 : 1;
    double *restrict last = v + (nq + 1) * m;
    load(a, cell, count, e, NULL, v, lanes, 0);
    const double *z = a + (nq + 1) * plane;
    if (fr->second_order)
        load(z, cell, count, e, v, last, lanes, 1);
    else
        load(z, cell, count, e, NULL, last, lanes, 0);
    /* core.velocity: q/h where h > h_eps, else 0. */
    const double h_eps = fr->h_eps;
    for (idx k = 1; k <= nq; k++) {
        double *restrict u = v + k * m;
        load(a + plane_of(k, y) * plane, cell, count, e, NULL, u, lanes, 0);
        for (idx j = 0; j < m; j++) {
            double ratio = u[j] / v[j];
            u[j] = v[j] > h_eps ? ratio : 0.0;
        }
    }
}

/* reconstruction.muscl_slopes and the traces slope*(+-d/2) + value of
 * one variable, for cells 1 .. e-2 (the outer ghosts' traces are never
 * read). step holds the e-1 divided differences. A cell's lanes lie
 * together, so a cell's neighbour is lanes values away. */
INLINE void traces(const double *restrict x, double *restrict xh,
                   double *restrict xl, double *restrict step, idx e,
                   double d, int lanes)
{
    const idx m = e * lanes;
    const double half_d = 0.5 * d, minus_half_d = -0.5 * d;
    for (idx j = 0; j < m - lanes; j++)
        step[j] = (x[j + lanes] - x[j]) / d;
    for (idx j = lanes; j < m - lanes; j++) {
        /* reconstruction._minmod_into */
        double a = step[j - lanes], b = step[j];
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
 * side the low trace of cell k+1. rusanov, nq and lanes are constants
 * where this is inlined, so each caller gets one branch-free loop. */
INLINE void face_pass(const double *restrict th, const double *restrict tl,
                      idx n, idx e, double g, double eps,
                      struct face_rows f, int rusanov, int nq, int lanes)
{
    const idx m = e * lanes;
    const double half_g = 0.5 * g;
    const double *restrict zh = th + (nq + 1) * m;
    const double *restrict zl = tl + (nq + 1) * m;
    for (idx k = lanes; k < (n + 2) * lanes; k++) {
        double hm = th[k], hp = tl[k + lanes];
        double um = th[m + k], up = tl[m + k + lanes];
        double zm = zh[k], zp = zl[k + lanes];
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
            double vm = th[2 * m + k], vp = tl[2 * m + k + lanes];
            f.tran[k] = fm * (fm > 0.0 ? vm : vp);
        }
    }
}

/* Divergences of cells 2 .. n+1 into the rows dm, dn[, dt] (n cells of
 * lanes values). Cell j lies between faces j-1 and j. nq and lanes are
 * constants where this is inlined. */
INLINE void divergence_pass(const double *restrict th,
                            const double *restrict tl, idx n, idx e,
                            double d, double g, struct face_rows f,
                            double *restrict dm, double *restrict dn,
                            double *restrict dt, int nq, int lanes)
{
    const idx m = e * lanes;
    const double minus_half_g = -0.5 * g;
    const double *restrict zh = th + (nq + 1) * m;
    const double *restrict zl = tl + (nq + 1) * m;
    for (idx c = 0; c < n * lanes; c++) {
        idx j = c + 2 * lanes;
        /* reconstruction.centered_correction */
        double centered = (tl[j] + th[j]) * minus_half_g * (zh[j] - zl[j]);
        double left_face = f.norm[j - lanes] + f.corr_plus[j - lanes];
        dm[c] = (f.mass[j] - f.mass[j - lanes]) / d;
        dn[c] = ((f.norm[j] + f.corr_minus[j]) - left_face - centered) / d;
        if (nq == 2)
            dt[c] = (f.tran[j] - f.tran[j - lanes]) / d;
    }
}

/* One divergence row of a tile, from[c * TILE + t], added into the count
 * rows at out, which are neighbours with cells cell apart. */
INLINE void store(double *restrict out, idx cell, idx count, idx n,
                  const double *restrict from)
{
    if (count == TILE) {
        for (idx c = 0; c < n; c++)
            for (int t = 0; t < TILE; t++)
                out[c * cell + t] = out[c * cell + t] + from[c * TILE + t];
        return;
    }
    for (idx c = 0; c < n; c++)
        for (idx t = 0; t < count; t++)
            out[c * cell + t] = out[c * cell + t] + from[c * TILE + t];
}

/* The out-of-line passes a level's sweep calls through its tables: the
 * x sweep's faces[2 * rusanov + nq - 1] and divergences[nq - 1], the y
 * sweep's faces[4 + rusanov] and divergences[2]. */
typedef void face_fn(const double *, const double *, idx, idx, double,
                     double, struct face_rows);
typedef void divergence_fn(const double *, const double *, idx, idx, double,
                           double, struct face_rows, double *, double *,
                           double *);

/* The count rows from row r of a direction, lanes at once: the x sweep's
 * row is stored into phi, a tile of the y sweep's rows goes through its
 * divergence rows and is added into phi. lanes is a constant where this
 * is inlined, 1 for the x sweep and TILE for the y sweep. */
INLINE void rows_pass(const struct frame *fr, idx r, idx count,
                      face_fn *faces, divergence_fn *divergence, int lanes)
{
    const int y = lanes != 1;
    const idx nx = fr->nx, nq = fr->nq, nv = nq + 2, cells = nx * fr->ny;
    const idx n = y ? fr->ny : nx, e = n + 4, m = e * lanes;
    const double d = fr->spacing[y];
    /* Per cell: values (h, u_n[, u_t], h+z or z) and their traces at the
     * cell's high and low faces; the slope differences; per face: the
     * fluxes (mass, normal, transverse) and the pressure corrections of
     * the two sides; then a tile's divergences. */
    double *v = fr->work, *hi = v + nv * m, *lo = hi + nv * m;
    double *step = lo + nv * m;
    struct face_rows f;
    f.mass = step + m;
    f.norm = f.mass + m;
    f.tran = f.norm + m;
    f.corr_minus = f.tran + m;
    f.corr_plus = f.corr_minus + m;
    double *tile = f.corr_plus + m;

    /* Row r's first cell: the x sweep's at the start of the grid row's
     * line, the y sweep's in column r + 2. */
    gather(fr, fr->ext + (y ? r + 2 : frame_line(fr, r)), count, e, v,
           lanes);
    const double *th = v, *tl = v;
    if (fr->second_order) {
        for (idx k = 0; k < nv; k++)
            traces(v + k * m, hi + k * m, lo + k * m, step, e, d, lanes);
        /* Free-surface traces minus depth traces give the bed traces. */
        double *restrict wh = hi + (nv - 1) * m;
        double *restrict wl = lo + (nv - 1) * m;
        const double *restrict dh = hi, *restrict dl = lo;
        for (idx j = lanes; j < m - lanes; j++) {
            wh[j] = wh[j] - dh[j];
            wl[j] = wl[j] - dl[j];
        }
        th = hi;
        tl = lo;
    }
    faces(th, tl, n, e, fr->g, fr->h_eps, f);
    double *low = fr->faces + (2 * y * side_rows(fr) + r);
    for (idx t = 0; t < count; t++) {
        low[t] = f.mass[lanes + t];
        low[side_rows(fr) + t] = f.mass[(n + 1) * lanes + t];
    }
    if (!y) {
        double *out = fr->phi + r * nx;
        divergence(th, tl, n, e, d, fr->g, f, out, out + cells,
                   nq == 2 ? out + 2 * cells : NULL);
        return;
    }
    divergence(th, tl, n, e, d, fr->g, f, tile, tile + n * TILE,
               tile + 2 * n * TILE);
    /* The flush: the tile's rows are neighbours in phi, cells nx apart. */
    for (idx k = 0; k <= nq; k++)
        store(fr->phi + plane_of(k, y) * cells + r, nx, count, n,
              tile + k * n * TILE);
}

/* The sweep of one direction, inlined into each level's entry with the
 * tables of that level's passes: the x sweep a row at a time, the y
 * sweep TILE rows at a time, the last tile partial where TILE does not
 * divide nx. */
INLINE void sweep(const struct frame *fr, idx direction,
                  face_fn *const *face_table,
                  divergence_fn *const *divergence_table)
{
    const idx nq = fr->nq, rusanov = fr->rusanov != 0;
    if (direction == 0) {
        face_fn *faces = face_table[2 * rusanov + nq - 1];
        divergence_fn *divergence = divergence_table[nq - 1];
        for (idx r = 0; r < fr->ny; r++)
            rows_pass(fr, r, 1, faces, divergence, 1);
        return;
    }
    for (idx r = 0; r < fr->nx; r += TILE)
        rows_pass(fr, r, fr->nx - r < TILE ? fr->nx - r : TILE,
                  face_table[4 + rusanov], divergence_table[2], TILE);
}

/* ------------------------------------------------- vector levels
 *
 * One sweep entry per vector level, swekit_sweep_<level>: the sweep
 * above, with out-of-line copies of its face and divergence passes, all
 * compiled for the level's target. Only GCC on x86-64 builds the levels
 * past the baseline. The passes stay out of line, as the baseline had
 * them: inlining all of them into each entry ran no faster and doubled
 * the build. The avx512f level pays for its share of the build (1.2 to
 * 1.8 s, 100 to 145 KB, when the y sweep ran one row at a time; 2.6 s
 * and 187 KB with its tiles) with the step's tail, which is compiled per
 * level too: on a 2-vCPU AMD EPYC (family 26, 3.3 GHz) it runs
 * plot_rain_2d's C loop in about 21 ms against 31 ms at avx2 (both
 * sweeps 0.15 against 0.21 ms per stage), every bit the same.
 */

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define VECTOR_LEVELS 1
#else
#define VECTOR_LEVELS 0
#endif

#define TARGET_baseline
#define TARGET_avx2 __attribute__((target("avx2")))
#define TARGET_avx512f __attribute__((target("avx512f")))

typedef void sweep_fn(const struct frame *, idx);

#define FACES(level, rusanov, nq, lanes)                                   \
    static TARGET_##level void level##_faces_##rusanov##_##nq##_##lanes(   \
        const double *th, const double *tl, idx n, idx e, double g,        \
        double eps, struct face_rows f)                                    \
    {                                                                      \
        face_pass(th, tl, n, e, g, eps, f, rusanov, nq, lanes);            \
    }

#define DIVERGENCE(level, nq, lanes)                                       \
    static TARGET_##level void level##_divergence_##nq##_##lanes(          \
        const double *th, const double *tl, idx n, idx e, double d,        \
        double g, struct face_rows f, double *dm, double *dn, double *dt)  \
    {                                                                      \
        divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, nq, lanes);     \
    }

#define SWEEP_LEVEL(level)                                                 \
    FACES(level, 0, 1, 1)                                                  \
    FACES(level, 0, 2, 1)                                                  \
    FACES(level, 1, 1, 1)                                                  \
    FACES(level, 1, 2, 1)                                                  \
    FACES(level, 0, 2, TILE)                                               \
    FACES(level, 1, 2, TILE)                                               \
    DIVERGENCE(level, 1, 1)                                                \
    DIVERGENCE(level, 2, 1)                                                \
    DIVERGENCE(level, 2, TILE)                                             \
    TARGET_##level void swekit_sweep_##level(const struct frame *fr,       \
                                             idx direction)                \
    {                                                                      \
        static face_fn *const faces[] = {                                  \
            level##_faces_0_1_1, level##_faces_0_2_1,                      \
            level##_faces_1_1_1, level##_faces_1_2_1,                      \
            level##_faces_0_2_TILE, level##_faces_1_2_TILE};               \
        static divergence_fn *const divergences[] = {                      \
            level##_divergence_1_1, level##_divergence_2_1,                \
            level##_divergence_2_TILE};                                    \
        sweep(fr, direction, faces, divergences);                          \
    }

SWEEP_LEVEL(baseline)
#if VECTOR_LEVELS
SWEEP_LEVEL(avx2)
SWEEP_LEVEL(avx512f)
#endif

/* The widest level whose entry this library holds and whose
 * instructions the CPU and the OS support: 0 baseline, 1 avx2,
 * 2 avx512f. */
int swekit_sweep_level(void)
{
#if VECTOR_LEVELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 2;
    return __builtin_cpu_supports("avx2") ? 1 : 0;
#else
    return 0;
#endif
}

/* -------------------------------------------------------------- step
 *
 * The time loop, the twin of timeloop._numpy_run, the numpy loop, with
 * the numpy step helpers it calls: compute_dt, heun_step or euler_step,
 * and the numpy kernels they call. No other compiled code takes a step:
 * those helpers run in numpy alone, over the sweep the build bound, where
 * the numpy loop calls them. swekit_step_<level> takes steps from the
 * time t up to the next landing time (an output time, a hyetograph
 * change or the final time) and returns only where Python must raise a
 * fault or take the step again, or the caller must see the run. Each
 * iteration of its loop takes one whole step:
 *
 * - the prologue: at BEGIN, the landing target; the rain rate at t,
 *   Hyetograph.rate's intensity of the last of the hyetograph's times at
 *   or before t, whose count passed keeps from step to step; then the CFL
 *   dt (compute_dt's supremum per direction with _bc_speed's speed of the
 *   imposed boundary states, in compute_dt's order) or fixed_dt, clipped
 *   to land on the target. At RETRY, half the last dt instead.
 * - advance: stage 1, and for Heun stage 2 and the average, each
 *   followed by the validity check. A stage copies its fields into the
 *   frame, fills the ghosts (boundary.fill_ghosts_1d or _2d, the bed's
 *   ghosts aside: the caller fills those once per run), sweeps every
 *   direction at the step's own vector level (the end-face mass fluxes go
 *   into faces), and runs the tail's update, the stage's ledger volumes
 *   and the tail's friction.
 * - accept: the ledger in Python's order, the count, the new time, the
 *   change rate of a last step and the smallest depth seen, np.min(h) +
 *   0.0, so that a zero one is +0.0; the result becomes the state. Then
 *   STEPPED where the step landed, or after every step for an on_step
 *   caller; DONE after the final time, with the phase FINISHED.
 *
 * A call returns STEPPED, DONE or a fault's status: NEGATIVE_DEPTH or
 * NON_FINITE from a check, with when set to the time numpy's check
 * reports, or BAD_DT where the dt is not positive. The caller raises the
 * fault, or sets RETRY after a check's, and the next call takes the step
 * again from its start.
 *
 * The stage tail is a stage's pointwise work outside the sweep, the twin
 * of timeloop._numpy_tail, _numpy_average and _wave_speed_sups:
 *
 * - tail_update: the update fields - phi*dt, rain h + r*dt, and
 *   Green-Ampt infiltration (sources.infiltration_step, with
 *   effective_conductivity and infiltration_capacity), which writes the
 *   infiltrated depth into dv and the new cumulative depth into v_out;
 * - tail_friction: semi-implicit friction (sources._damping_factor and
 *   the divide), with Manning's h^(4/3) from four_thirds, the twin of
 *   sources.four_thirds: + - * in its order, so the same bits on any
 *   CPU and under any numpy dispatch;
 * - volumes: the stage's ledger volumes, the infiltrated depth's sum and
 *   _Workspace.boundary_volumes, in numpy's pairwise order (np_sum);
 * - average_fields and average: the Heun average of the fields and of
 *   the cumulative depth;
 * - validity: the validity check (timeloop._enforce_validity) after each
 *   stage's friction and after the average. Its common case costs no
 *   pass of its own: settle, in the last pass that writes each cell
 *   (tail_friction's, which is friction where it runs, and
 *   average_fields), applies the dry convention and tallies the NaN and
 *   negative depths and the largest magnitude; validity decides from
 *   the tally, and rescans only to clamp, or to place a fault;
 * - speed_sups: compute_dt's supremum of |u| + c over the wet cells, per
 *   direction.
 *
 * Each keeps the operation order of its numpy twin, and min/max follow
 * numpy as in the sweep, and the sums take numpy's pairwise order, so no
 * stage returns to Python. Arrays are C-contiguous: the fields and phi
 * (nq + 1, cells), the rest (cells,).
 *
 * The tail's passes are bound by their arithmetic (divisions and square
 * roots), not by memory, so the step is compiled once per vector level,
 * as the sweep is, from the same code: swekit_step_<level> inlines every
 * pass of the tail and calls the sweep of its own level. The ghost fill,
 * the imposed boundary speed and the ledger, which visit a side's cells
 * or none, stay out of line, compiled for the baseline and shared, as do
 * the sums (volumes), a small share of a stage.
 */

/* One side's boundary condition; _compiled.Side mirrors it. kind is the
 * index in boundary.BC_KINDS. depth and discharge are 0.0 where the
 * condition sets none, and imposed_h and imposed_q say whether it sets
 * them. */
struct side {
    idx kind, imposed_h, imposed_q;
    double depth, discharge;
};

enum { WALL, NEUMANN, PERIODIC, IMPOSED_DEPTH, IMPOSED_DISCHARGE };

/* The run and its workspace; _compiled.StepBlock mirrors it. frame is
 * the run's frame and scheme, which the sweep of each direction reads
 * and writes (ext, phi and faces). The members up to landings are the
 * run's: the friction law and its coefficient's factor, the soil (imax
 * is +inf without a cap, which np_min(capacity, imax) then returns as
 * capacity, bit for bit); phi is not read after the update, so the CFL
 * pass writes its wet speeds into its rows; dv receives the infiltrated
 * depth; landing holds the landings sorted, and times and intensities
 * the hyetograph's changes (none without rain).
 * The caller sets those from phase to current for a run: the state is
 * fields[current] and the result goes into the other, likewise the
 * cumulative infiltrated depth in v_inf. The rest is the loop's own, read
 * by the caller: cell and h_min place a check's fault; mismatch counts
 * each side's regime mismatches (left, right, bottom, top), which the
 * caller reports and clears; cum holds the ledger's sums. */
struct step {
    const struct frame *frame;
    idx cells, friction, crust;
    double tolerance, friction_scale, cell_area, courant;
    double fixed_dt, final, atol;
    double ks, kc, zc, hf, dtheta, crust_term, imax;
    struct side sides[4];
    double *dv, *stage, *v_stage;
    const double *landing, *times, *intensities;
    idx landings, changes;
    idx phase, heun, infiltration, each;
    double t, dt, rate;
    double *fields[2], *v_inf[2];
    idx current;
    idx next, passed, hit, halvings, steps, retried, cell;
    double target, when, min_depth, change_rate, h_min;
    double cum[4], infil[2], flow[4];
    idx mismatch[4];
};

/* The layout that _compiled's mirrors must match: the count of the
 * values that follow, then the size and a few member offsets of struct
 * frame, struct side and struct step. _compiled refuses a library whose
 * values differ from its mirrors', and the numpy twins run instead. */
const idx swekit_layout[] = {
    15,
    sizeof(struct frame), offsetof(struct frame, spacing),
    offsetof(struct frame, ext), offsetof(struct frame, work),
    sizeof(struct side), offsetof(struct side, depth),
    sizeof(struct step), offsetof(struct step, tolerance),
    offsetof(struct step, sides), offsetof(struct step, landings),
    offsetof(struct step, t), offsetof(struct step, fields),
    offsetof(struct step, target), offsetof(struct step, cum),
    offsetof(struct step, mismatch),
};

/* struct step's phase: where the next call starts, a new step or the
 * last one again with half its dt, or nothing after the final time. */
enum { BEGIN, RETRY, FINISHED };
enum { MANNING = 1, DARCY_WEISBACH = 2 };
/* What the validity check and swekit_step_<level> return. */
enum { VALID, NEGATIVE_DEPTH, NON_FINITE, DONE, STEPPED, BAD_DT };

/* sources.infiltration_step on the n depths h, for dt > 0: the
 * infiltrated depth into dv, the new cumulative depth into v_out. crust
 * is a constant where this is inlined. */
INLINE void infiltrate(const struct step *s, idx n, double *restrict h,
                       const double *restrict v, double *restrict dv,
                       double *restrict v_out, int crust)
{
    const double dt = s->dt, dtheta = s->dtheta, hf = s->hf, ks = s->ks;
    const double kc = s->kc, zc = s->zc, crust_term = s->crust_term;
    const double imax = s->imax;
    for (idx i = 0; i < n; i++) {
        /* infiltration_capacity: K (1 + (hf + h) / z_front), inf where
         * the front has not started. */
        double z_front = v[i] / dtheta;
        double z_safe = z_front > 0.0 ? z_front : 1.0;
        double term = 1.0 + (hf + h[i]) / z_safe;
        double k = ks;
        if (crust) {
            /* effective_conductivity: the layers in series, kc inside
             * the crust. */
            double layered = z_safe / ((z_safe - zc) / ks + crust_term);
            k = z_front <= zc ? kc : layered;
        }
        double product = k * term;
        double capacity = np_min(z_front > 0.0 ? product : INFINITY, imax);
        /* delta_v = max(min(h, min(capacity, h / dt) * dt), 0). */
        double d = np_min(capacity, h[i] / dt) * dt;
        d = np_max(np_min(h[i], d), 0.0);
        dv[i] = d;
        v_out[i] = v[i] + d;
        h[i] = h[i] - d;
    }
}

/* out = f - phi * dt over the values of every field. */
INLINE void subtract_update(const double *restrict f,
                            const double *restrict phi, double *restrict out,
                            idx values, double dt)
{
    for (idx i = 0; i < values; i++)
        out[i] = f[i] - phi[i] * dt;
}

/* The update of fields into h, and the cumulative infiltrated depth
 * from v into v_out. */
INLINE void tail_update(const struct step *s, const double *fields,
                        double *h, const double *v, double *v_out)
{
    const struct frame *fr = s->frame;
    const idx n = s->cells;
    subtract_update(fields, fr->phi, h, (fr->nq + 1) * n, s->dt);
    if (s->rate > 0.0) {
        const double rain_dt = s->rate * s->dt;
        for (idx i = 0; i < n; i++)
            h[i] = h[i] + rain_dt;
    }
    if (!s->infiltration)
        return;
    if (s->crust)
        infiltrate(s, n, h, v, s->dv, v_out, 1);
    else
        infiltrate(s, n, h, v, s->dv, v_out, 0);
}

/* numpy's max of two int64 values. */
INLINE int64_t np_max_bits(int64_t a, int64_t b)
{
    return a > b ? a : b;
}

/* |v| as the int64 bit pattern, which orders as the magnitude does, NaN
 * above inf: so a max of them is a reduction the compiler may
 * vectorize, as a max of doubles is not. */
INLINE int64_t magnitude_bits(double v)
{
    int64_t bits;
    memcpy(&bits, &v, sizeof bits);
    return bits & INT64_MAX;
}

/* What the validity check needs of a state's cells, taken in the last
 * pass that writes them: how many depths are NaN and how many negative,
 * and the largest magnitude of a value, as magnitude_bits. */
struct tally {
    idx nan, negative;
    int64_t top;
};

/* The dry convention of _enforce_validity on cell i of the fields r,
 * whose new depth h and discharges q0[, q1] the caller passes: a dry
 * cell (h <= h_eps) loses its discharges. Writes the discharges and
 * counts the cell into t. A negative depth is dry before the check's
 * clamp and after it, as h_eps >= 0. nq is a constant where this is
 * inlined. r is not restrict-qualified: inlined into a pass that reads
 * r through a restrict pointer of its own, a second one keeps GCC from
 * vectorizing the pass. */
INLINE void settle(double *r, idx n, idx i, double h, double q0, double q1,
                   double h_eps, int nq, struct tally *t)
{
    int dry = h <= h_eps;
    q0 = dry ? 0.0 : q0;
    r[n + i] = q0;
    int64_t top = np_max_bits(magnitude_bits(h), magnitude_bits(q0));
    if (nq == 2) {
        q1 = dry ? 0.0 : q1;
        r[2 * n + i] = q1;
        top = np_max_bits(top, magnitude_bits(q1));
    }
    t->nan += isnan(h) ? 1 : 0;
    t->negative += h < 0.0 ? 1 : 0;
    t->top = np_max_bits(t->top, top);
}

/* sources.four_thirds of one depth h, operation for operation. The seed
 * takes a third of the high word in doubles, from the word ORed into
 * 2**52's bits: 64-bit integer products vectorize only with AVX-512DQ. */
INLINE double four_thirds(double h, double h_eps)
{
    double s = h > h_eps ? (h < DBL_MAX ? h : DBL_MAX) : h_eps;
    union { double d; uint64_t u; } r = {s};
    r.u = r.u >> 32 | UINT64_C(0x4330000000000000);
    r.d = (0x1p52 + 0x553ef0ff + 0x1p52 / 3) - r.d * (1.0 / 3.0);
    r.u <<= 32;
    for (int k = 0; k < 3; k++)
        r.d = r.d * (4.0 - s * r.d * r.d * r.d) * (1.0 / 3.0);
    double r2 = r.d * r.d, y = s * r2;
    y = y + (s - y * y * y) * r2 * (1.0 / 3.0);
    return h * y;
}

/* The discharges of the stage's update r divided by the damping factor,
 * built from the stage's start f (h, then the discharges) and the new
 * depth; then settle, the validity check's pass. The 2D magnitude is
 * sqrt(qx*qx + qy*qy), as the paper writes it and
 * sources._damping_factor takes it: the squares overflow to inf where
 * |q| exceeds about 1.3e154, and lose bits below about 1.5e-154. law
 * and nq are constants where this is inlined. */
INLINE struct tally friction(const double *restrict f, double *restrict r,
                             idx n, double coeff, double h_eps, int law,
                             int nq)
{
    struct tally t = {0, 0, 0};
    for (idx i = 0; i < n; i++) {
        /* h^n (h^{n+1})^{4/3} (Manning) or h^n h^{n+1}. */
        double h = r[i];
        double denom = law == MANNING ? f[i] * four_thirds(h, h_eps)
                                      : f[i] * h;
        double qx = f[n + i];
        double size = nq == 1
            ? fabs(qx) : sqrt(qx * qx + f[2 * n + i] * f[2 * n + i]);
        double ratio = size * coeff / denom;
        /* Wet at both levels: the smaller depth exceeds h_eps. */
        double factor = np_min(f[i], h) > h_eps ? ratio + 1.0 : 1.0;
        settle(r, n, i, h, r[n + i] / factor,
               nq == 2 ? r[2 * n + i] / factor : 0.0, h_eps, nq, &t);
    }
    return t;
}

/* settle over fields r that no friction divides. nq is a constant where
 * this is inlined. */
INLINE struct tally settled(double *restrict r, idx n, double h_eps, int nq)
{
    struct tally t = {0, 0, 0};
    for (idx i = 0; i < n; i++)
        settle(r, n, i, r[i], r[n + i], nq == 2 ? r[2 * n + i] : 0.0, h_eps,
               nq, &t);
    return t;
}

/* Friction on the stage's update r from its start f, where it runs, and
 * the validity check's pass over r. */
INLINE struct tally tail_friction(const struct step *s, const double *f,
                                  double *r)
{
    const idx n = s->cells;
    const idx nq = s->frame->nq;
    const double h_eps = s->frame->h_eps;
    const double coeff = s->friction_scale * s->dt;
    if (s->friction == MANNING)
        return nq == 1 ? friction(f, r, n, coeff, h_eps, MANNING, 1)
                       : friction(f, r, n, coeff, h_eps, MANNING, 2);
    if (s->friction == DARCY_WEISBACH)
        return nq == 1 ? friction(f, r, n, coeff, h_eps, DARCY_WEISBACH, 1)
                       : friction(f, r, n, coeff, h_eps, DARCY_WEISBACH, 2);
    return nq == 1 ? settled(r, n, h_eps, 1) : settled(r, n, h_eps, 2);
}

/* timeloop._enforce_validity on the fields f, from the tally t of the
 * pass that applied its dry convention: a depth below -tolerance is a
 * fault at the first smallest depth; otherwise, if any depth is below
 * zero, every depth becomes max(h, 0). Then a non-finite value is a
 * fault at the first cell that holds one: the tally's largest magnitude
 * reaches inf's only where one does, and f is scanned only to place it.
 * numpy raises a fault before it zeroes a discharge; here the faulting
 * state's discharges are zeroed already, but no step keeps that state. */
INLINE int validity(struct step *s, double *restrict f, struct tally t)
{
    const idx n = s->cells, nq = s->frame->nq;
    idx i;
    /* np.min is NaN where a depth is, and then nothing is clamped. */
    if (t.nan == 0 && t.negative > 0) {
        /* np.min and np.argmin, the first cell that holds it. */
        double h_min = f[0];
        idx at = 0;
        for (i = 1; i < n; i++)
            if (f[i] < h_min) {
                h_min = f[i];
                at = i;
            }
        if (h_min < -s->tolerance) {
            s->h_min = h_min;
            s->cell = at;
            return NEGATIVE_DEPTH;
        }
        for (i = 0; i < n; i++)
            f[i] = np_max(f[i], 0.0);
    }
    if (t.top < magnitude_bits(INFINITY))
        return VALID;
    for (i = 0; i < n; i++)
        for (idx k = 0; k <= nq; k++)
            if (!isfinite(f[k * n + i])) {
                s->cell = i;
                return NON_FINITE;
            }
    return VALID;
}

/* Heun's average of the fields: (a + b) * 0.5 into b, and the validity
 * check's pass over b. nq is a constant where this is inlined. */
INLINE struct tally average_fields(const double *restrict a,
                                   double *restrict b, idx n, double h_eps,
                                   int nq)
{
    struct tally t = {0, 0, 0};
    for (idx i = 0; i < n; i++) {
        double h = (a[i] + b[i]) * 0.5;
        b[i] = h;
        settle(b, n, i, h, (a[n + i] + b[n + i]) * 0.5,
               nq == 2 ? (a[2 * n + i] + b[2 * n + i]) * 0.5 : 0.0, h_eps,
               nq, &t);
    }
    return t;
}

/* Heun's average of the cumulative infiltrated depth: 0.5 * (a + b)
 * into b. */
INLINE void average(const double *restrict a, double *restrict b, idx n)
{
    for (idx i = 0; i < n; i++)
        b[i] = 0.5 * (a[i] + b[i]);
}

/* numpy's max, from 0.0, of n values v that are +0.0, positive or NaN:
 * NaN where one is NaN, else the largest. Their magnitude_bits order as
 * they do, NaN above all, also the one inf / inf gives, whose sign bit
 * is set. Only comparisons read the result, to which any NaN is the
 * same. */
INLINE double wet_max(const double *restrict v, idx n)
{
    int64_t top = 0;
    for (idx i = 0; i < n; i++)
        top = np_max_bits(top, magnitude_bits(v[i]));
    double max;
    memcpy(&max, &top, sizeof max);
    return max;
}

/* compute_dt's supremum per direction k, into sup[k]: the largest
 * |q_k| / h + sqrt(g h) over the cells with h > h_eps, 0 where there is
 * none, and NaN where one is NaN (numpy's max). Each cell's speeds, 0.0
 * where dry, go into the rows of row first. nq is a constant where this
 * is inlined. */
INLINE void speed_sups(const double *restrict f, idx n, double g,
                       double h_eps, double *restrict row, double *sup,
                       int nq)
{
    for (idx i = 0; i < n; i++) {
        double h = f[i], c = sqrt(h * g);
        for (int k = 0; k < nq; k++) {
            double speed = fabs(f[(k + 1) * n + i]) / h + c;
            row[k * n + i] = h > h_eps ? speed : 0.0;
        }
    }
    for (int k = 0; k < nq; k++)
        sup[k] = wet_max(row + k * n, n);
}

/* boundary._resolve_imposed, its Python twin: the ghost depth and
 * discharge of one cell of an imposed-kind side from those of the first
 * interior cell, h and q. Returns whether the condition mismatches the
 * local flow regime. */
INLINE int resolve(const struct side *bc, double h, double q, double inward,
                   double g, double h_eps, double *h_ghost, double *q_ghost)
{
    /* Regime: interior cell where wet, otherwise the imposed state. */
    int wet = h > h_eps;
    double h_probe = wet ? h : bc->depth, q_probe = wet ? q : bc->discharge;
    /* core.froude_number: |q/h| / sqrt(g h), 0 where dry. */
    double froude = h_probe > h_eps
                    ? fabs(q_probe / h_probe) / sqrt(g * h_probe) : 0.0;
    int supercritical = froude > 1.0;
    int outflow = !(q_probe * inward > 0.0);
    *h_ghost = h;
    *q_ghost = q;
    if (bc->kind == IMPOSED_DEPTH) {
        if (!(supercritical && outflow))
            *h_ghost = bc->depth;
        return supercritical;
    }
    if (bc->kind == IMPOSED_DISCHARGE) {
        if (!(supercritical && outflow))
            *q_ghost = bc->discharge;
        return supercritical;
    }
    /* imposed_both: an inward discharge is legal when supercritical and
     * keeps only the discharge otherwise; an outward one goes neumann if
     * supercritical and keeps only the depth otherwise. */
    if (bc->discharge * inward > 0.0) {
        if (supercritical)
            *h_ghost = bc->depth;
        *q_ghost = bc->discharge;
        return !supercritical;
    }
    if (!supercritical)
        *h_ghost = bc->depth;
    return 1;
}

/* boundary._fill_direction on the depth h, the normal discharge qn and
 * the transverse one qt (NULL in 1D) of the frame: line i (0 .. n+3)
 * across the direction holds m cells, and cell j of line i lies at
 * i * line + j * cell. low and high are the direction's sides; a side's
 * count in mismatch grows by one where any of its cells mismatches. */
static void fill_direction(const struct step *s, double *h, double *qn,
                           double *qt, idx n, idx m, idx line, idx cell,
                           const struct side *low, idx *mismatch)
{
    /* A single cell is its own second neighbor. */
    const idx second = n >= 2 ? 1 : 0;
    for (int high = 0; high < 2; high++) {
        const struct side *bc = low + high;
        /* Ghosts g0 (inner) and g1, interior lines i0 (nearest) and i1. */
        const idx g0 = (high ? n + 2 : 1) * line;
        const idx g1 = (high ? n + 3 : 0) * line;
        const idx i0 = (high ? n + 1 : 2) * line;
        const idx i1 = (high ? n + 1 - second : 2 + second) * line;
        const double inward = high ? -1.0 : 1.0;
        int mismatched = 0;
        if (bc->kind == PERIODIC)
            continue;
        for (idx j = 0; j < m; j++) {
            const idx c = j * cell;
            if (bc->kind == WALL) {
                h[g0 + c] = h[i0 + c];
                h[g1 + c] = h[i1 + c];
                if (qt) {
                    qt[g0 + c] = qt[i0 + c];
                    qt[g1 + c] = qt[i1 + c];
                }
                qn[g0 + c] = -qn[i0 + c];
                qn[g1 + c] = -qn[i1 + c];
                continue;
            }
            double h_ghost = h[i0 + c], q_ghost = qn[i0 + c];
            if (bc->kind != NEUMANN)
                mismatched |= resolve(bc, h_ghost, q_ghost, inward,
                                      s->frame->g, s->frame->h_eps,
                                      &h_ghost, &q_ghost);
            h[g0 + c] = h[g1 + c] = h_ghost;
            qn[g0 + c] = qn[g1 + c] = q_ghost;
            if (qt)
                qt[g0 + c] = qt[g1 + c] = qt[i0 + c];
        }
        mismatch[high] += mismatched;
    }
    if (low->kind != PERIODIC)
        return;
    /* Both sides at once, inner ghosts first, so one cell wraps onto all
     * four. */
    double *fields[3] = {h, qn, qt};
    for (int k = 0; k < (qt ? 3 : 2); k++)
        for (idx j = 0; j < m; j++) {
            double *a = fields[k] + j * cell;
            a[line] = a[(n + 1) * line];
            a[0] = a[n * line];
            a[(n + 2) * line] = a[2 * line];
            a[(n + 3) * line] = a[3 * line];
        }
}

/* The fields into the frame's interior, and its ghosts filled. */
static void fill_frame(struct step *s, const double *fields)
{
    const struct frame *fr = s->frame;
    const idx nx = fr->nx, ny = fr->ny, nq = fr->nq, e = nx + 4;
    const idx plane = frame_plane(fr);
    double *h = fr->ext, *q1 = h + plane, *q2 = q1 + plane;
    for (idx v = 0; v <= nq; v++)
        for (idx r = 0; r < ny; r++)
            memcpy(h + v * plane + frame_line(fr, r) + 2,
                   fields + (v * ny + r) * nx, (size_t)nx * sizeof(double));
    /* x sides on the interior rows, then y sides on whole rows. */
    if (nq == 1)
        fill_direction(s, h, q1, NULL, nx, 1, 1, 0, s->sides, s->mismatch);
    else {
        fill_direction(s, h + 2 * e, q1 + 2 * e, q2 + 2 * e, nx, ny, 1, e,
                       s->sides, s->mismatch);
        fill_direction(s, h, q2, q1, ny, e, e, 1, s->sides + 2,
                       s->mismatch + 2);
    }
}

/* v as np_sum reads it: part 0 takes v, part 1 np.maximum(v, 0.0) and
 * part -1 np.maximum(-v, 0.0). */
INLINE double term(double v, int part)
{
    return part == 0 ? v : np_max(part > 0 ? v : -v, 0.0);
}

/* numpy's pairwise sum (pairwise_sum in its loops_utils.h) of the n
 * values a[i] as term reads them: a plain loop from 0.0 below 8 values,
 * 8 accumulators over a block of at most 128, and halves above, the
 * first rounded down to a multiple of 8. */
static double pairwise(const double *a, idx n, int part)
{
    if (n > 128) {
        idx half = n / 2 - n / 2 % 8;
        return pairwise(a, half, part) + pairwise(a + half, n - half, part);
    }
    double sum = 0.0;
    idx i = 0;
    if (n >= 8) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = term(a[j], part);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += term(a[i + j], part);
        sum = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        sum += term(a[i], part);
    return sum;
}

/* np.sum of a contiguous run of n float64 values, as term reads them:
 * the reduction starts from add's identity. */
static double np_sum(const double *a, idx n, int part)
{
    return 0.0 + pairwise(a, n, part);
}

/* The ledger volumes of stage k, as the numpy step takes them: the
 * infiltrated depth's sum times the cell area, and
 * _Workspace.boundary_volumes of the end faces times dt. Each direction
 * whose sides are no periodic seam adds its sides' sums of max(v, 0)
 * inward (low's v, high's -v) and outward (low's -v, high's v) times
 * its face width: 1 in 1D, the other direction's spacing in 2D. */
static void volumes(struct step *s, int k)
{
    const struct frame *fr = s->frame;
    double into = 0.0, outof = 0.0;
    for (idx d = 0; d < fr->nq; d++) {
        const double *low = fr->faces + 2 * d * side_rows(fr);
        const double *high = low + side_rows(fr);
        const idx rows = d == 0 ? fr->ny : fr->nx;
        const double width = fr->nq == 1 ? 1.0 : fr->spacing[1 - d];
        if (s->sides[2 * d].kind == PERIODIC)
            continue;
        into += (np_sum(low, rows, 1) + np_sum(high, rows, -1)) * width;
        outof += (np_sum(low, rows, -1) + np_sum(high, rows, 1)) * width;
    }
    s->flow[2 * k] = into * s->dt;
    s->flow[2 * k + 1] = outof * s->dt;
    s->infil[k] = s->infiltration
                  ? np_sum(s->dv, s->cells, 0) * s->cell_area : 0.0;
}

/* Stage k (0 or 1) up to its friction: the convective update of fields
 * by sweep, the sweep of the step's level, the tail's update into out,
 * the cumulative infiltrated depth from v_in into v_out and the ledger
 * volumes. */
INLINE void stage(struct step *s, int k, const double *fields, double *out,
                  const double *v_in, double *v_out, sweep_fn *sweep)
{
    fill_frame(s, fields);
    for (idx d = 0; d < s->frame->nq; d++)
        sweep(s->frame, d);
    tail_update(s, fields, out, v_in, v_out);
    volumes(s, k);
}

/* numpy's max over n values a stride apart. */
static double np_max_of(const double *v, idx n, idx stride)
{
    double top = v[0];
    for (idx i = 1; i < n; i++)
        top = np_max(top, v[i * stride]);
    return top;
}

/* timeloop._bc_speed of the fields f: the largest |q| / h + sqrt(g h)
 * of the imposed boundary states with h > h_eps, by Python's max (the
 * first of the largest), 0.0 without one. */
static double imposed_speed(const struct step *s, const double *f)
{
    const struct frame *fr = s->frame;
    const idx nx = fr->nx, ny = fr->ny, cells = nx * ny;
    double top = 0.0;
    int found = 0;
    for (idx k = 0; k < fr->nq; k++)
        for (int high = 0; high < 2; high++) {
            const struct side *bc = s->sides + 2 * k + high;
            if (bc->kind < IMPOSED_DEPTH)
                continue;
            /* The cells along the side: x sides are columns, y sides
             * rows. */
            idx first = k == 0 ? (high ? nx - 1 : 0) : (high ? cells - nx : 0);
            idx count = k == 0 ? ny : nx, stride = k == 0 ? nx : 1;
            double h_b = bc->imposed_h ? bc->depth
                                       : np_max_of(f + first, count, stride);
            double q_b = bc->discharge;
            if (!bc->imposed_q) {
                const double *q = f + (1 + k) * cells + first;
                q_b = fabs(q[0]);
                for (idx i = 1; i < count; i++)
                    q_b = np_max(q_b, fabs(q[i * stride]));
            }
            if (h_b > fr->h_eps) {
                double speed = fabs(q_b) / h_b + sqrt(fr->g * h_b);
                if (!found || speed > top)
                    top = speed;
                found = 1;
            }
        }
    return top;
}

/* compute_dt of the fields f: courant * min(d, d / max(sup, boost)) over
 * the directions, from the supremum sup per direction and _bc_speed's
 * speed boost of the imposed boundary states, with Python's min and max
 * (the first of equals). */
INLINE double cfl_dt(const struct step *s, const double *f)
{
    const struct frame *fr = s->frame;
    double sup[2] = {0.0, 0.0};
    if (fr->nq == 1)
        speed_sups(f, s->cells, fr->g, fr->h_eps, fr->phi, sup, 1);
    else
        speed_sups(f, s->cells, fr->g, fr->h_eps, fr->phi, sup, 2);
    double boost = imposed_speed(s, f);
    double dt = fr->spacing[0];
    if (fr->nq == 2 && fr->spacing[1] < dt)
        dt = fr->spacing[1];
    for (idx k = 0; k < fr->nq; k++) {
        double top = boost > sup[k] ? boost : sup[k];
        if (top > 0.0) {
            double d = fr->spacing[k] / top;
            dt = d < dt ? d : dt;
        }
    }
    return s->courant * dt;
}

/* The step's ledger volumes (Heun: 0.5 * (first + second), as
 * timeloop._combine_heun_diags), rain as timeloop._stage takes it, each
 * added to its sum in cum. */
static void ledger(struct step *s)
{
    double rain = s->rate > 0.0 ? s->rate * s->dt * (double)s->frame->nx
                                      * (double)s->frame->ny * s->cell_area
                                : 0.0;
    double first[4] = {rain, s->infil[0], s->flow[0], s->flow[1]};
    double second[4] = {rain, s->infil[1], s->flow[2], s->flow[3]};
    for (int k = 0; k < 4; k++) {
        double diag = s->heun ? 0.5 * (first[k] + second[k]) : first[k];
        s->cum[k] = s->cum[k] + diag;
    }
}

/* The accepted step from f into r: the run's count, ledger and time, the
 * change rate of the last step (numpy's max |r - f| over dt) and the
 * smallest depth seen. */
INLINE void accept(struct step *s, const double *f, const double *r)
{
    const idx cells = s->cells, values = (s->frame->nq + 1) * cells;
    s->steps++;
    s->retried += s->halvings > 0;
    ledger(s);
    double t_new = s->hit ? s->target : s->t + s->dt;
    if (t_new >= s->final - s->atol) {
        double top = fabs(r[0] - f[0]);
        for (idx i = 1; i < values; i++)
            top = np_max(top, fabs(r[i] - f[i]));
        s->change_rate = top / s->dt;
    }
    s->t = t_new;
    /* Python's min(min_depth, np.min(h) + 0.0). A state holds no NaN, so
     * the smallest depth has one value, and + 0.0 makes a zero one +0.0
     * whichever sign the min picked. */
    double lowest = r[0];
    for (idx i = 1; i < cells; i++)
        lowest = r[i] < lowest ? r[i] : lowest;
    lowest = lowest + 0.0;
    if (lowest < s->min_depth)
        s->min_depth = lowest;
}

/* Stage 1, then Heun's stage 2 and average, from the state f and its
 * cumulative infiltrated depth v into the result r and v_r, each followed
 * by the validity check: VALID, or the first fault's status. The checks
 * are one loop, so that each pass is inlined at one place. */
INLINE int advance(struct step *s, const double *f, const double *v,
                   double *r, double *v_r, sweep_fn *sweep)
{
    /* Heun's first stage goes into the workspace, Euler's is the
     * result; stage 2 goes from the workspace into r. */
    double *first = s->heun ? s->stage : r;
    double *v_first = s->heun ? s->v_stage : v_r;
    /* Read once: a bound read again after calls that may write *s kept
     * GCC 12 from vectorizing the average and the check's clamp. */
    const int checks = s->heun ? 3 : 1;
    for (int k = 0; k < checks; k++) {
        /* What a stage writes, or the average: what the check judges. */
        double *checked = k == 0 ? first : r;
        struct tally tally;
        if (k < 2) {
            const double *from = k == 0 ? f : s->stage;
            s->when = s->t;
            stage(s, k, from, checked, k == 0 ? v : s->v_stage,
                  k == 0 ? v_first : v_r, sweep);
            tally = tail_friction(s, from, checked);
        } else {
            s->when = s->t + s->dt;
            tally = s->frame->nq == 1
                    ? average_fields(f, r, s->cells, s->frame->h_eps, 1)
                    : average_fields(f, r, s->cells, s->frame->h_eps, 2);
            if (s->infiltration)
                average(v, v_r, s->cells);
        }
        int status = validity(s, checked, tally);
        if (status != VALID)
            return status;
    }
    return VALID;
}

/* The time loop over sweep, the sweep of the step's level, one step per
 * iteration; inlined into each level's entry, with every pass of the
 * tail. Each pass is inlined at one place in it, so a level holds one
 * copy of each. */
INLINE int step(struct step *s, sweep_fn *sweep)
{
    for (;;) {
        const double *f = s->fields[s->current];
        const double *v = s->v_inf[s->current];
        double *r = s->fields[1 - s->current];
        double *v_r = s->v_inf[1 - s->current];
        if (s->phase == RETRY) {
            s->dt = s->dt * 0.5;
            s->halvings++;
            s->hit = 0;
        } else {
            if (!(s->t < s->final - s->atol)) {
                s->phase = FINISHED;
                return DONE;
            }
            while (s->next < s->landings
                   && s->landing[s->next] <= s->t + s->atol)
                s->next++;
            s->target = s->landing[s->next];
            while (s->passed < s->changes && s->times[s->passed] <= s->t)
                s->passed++;
            s->rate = s->passed ? s->intensities[s->passed - 1] : 0.0;
            s->dt = s->fixed_dt > 0.0 ? s->fixed_dt : cfl_dt(s, f);
            if (!(s->dt > 0.0))
                return BAD_DT;
            s->hit = s->t + s->dt >= s->target - s->atol;
            if (s->hit)
                s->dt = s->target - s->t;
            s->halvings = 0;
        }
        int status = advance(s, f, v, r, v_r, sweep);
        if (status != VALID)
            return status;
        s->current = 1 - s->current;
        accept(s, f, r);
        s->phase = s->t < s->final - s->atol ? BEGIN : FINISHED;
        if (s->each || s->hit)
            return STEPPED;
    }
}

/* Per vector level, the step over the sweep of that level, and
 * four_thirds over n depths, which the tests pair with its numpy twin. */
#define STEP_LEVEL(level)                                                  \
    TARGET_##level int swekit_step_##level(struct step *s)                 \
    {                                                                      \
        return step(s, swekit_sweep_##level);                              \
    }                                                                      \
    TARGET_##level void swekit_four_thirds_##level(                        \
        const double *restrict h, double *restrict out, idx n, double eps) \
    {                                                                      \
        for (idx i = 0; i < n; i++) out[i] = four_thirds(h[i], eps);       \
    }

STEP_LEVEL(baseline)
#if VECTOR_LEVELS
STEP_LEVEL(avx2)
STEP_LEVEL(avx512f)
#endif

/* ------------------------------------------------------------ writer
 *
 * The contract of fileio._write_rows: rows of float64 values as `%.16e`
 * text, byte for byte what Python's f"{v:.16e}" gives, joined by single
 * spaces, each row ended by a newline and optionally led by its (x, y)
 * grid coordinates. Python's formatting is the reference. The numpy
 * writer in fileio.py takes the same method in numpy, step for step
 * (fileio._format_block and fileio._product are the twins of decimal()
 * and product() below), and tests pin both writers to the reference.
 *
 * - A finite nonzero |v| has the decimal exponent e, 10**e <= |v| <
 *   10**(e + 1): an estimate from its binary exponent and one comparison
 *   with 10**(e + 1) rounded.
 * - Its 17 digits are |v| * 10**k rounded to nearest, k = 16 - e. The
 *   power is a double-double hi + lo, hi = RN(10**k) and lo = RN(10**k -
 *   hi), both times 2**s and |v| times 2**-s, exactly: s = 0 but where
 *   |e| >= 280, where 10**k leaves double's range or a Veltkamp split
 *   below could overflow.
 * - The product is p + c: p = |v| * hi rounded, and c = e1 + |v| * lo
 *   for the exact error e1 = |v| * hi less p (C99 fma at the fma level;
 *   Dekker's product of Veltkamp halves at the baseline, Dekker 1971).
 *   As p exceeds 2**53 it is an integer. While p < 2**57, lo, |v| * lo
 *   and the sum each round by at most 2**-49, so c lies within 2**-47
 *   of the exact rest |v| * 10**k - p.
 * - The digits are p + c rounded: c is rounded to an integer by adding
 *   and subtracting 1.5 * 2**52, and they stand where c's fraction lies
 *   farther than 2**-44 from one half. Otherwise, at an exact tie or
 *   within a hair of one, v goes to libc's correctly rounded
 *   snprintf("%.16e"), under the "C" locale whatever the process's.
 * - At a decade edge e can be one off, which (p - 1e16) + c < 0 or
 *   (p - 1e17) + c >= 0 shows: p - 1e16 and p - 1e17 are exact where
 *   small, so each sum has the sign of its exact value or lies within
 *   c's error of 0. Then the product is taken again one exponent over.
 *   Digits that round up to 10**17 are 10**16 with the exponent one
 *   higher, so a value that close to a power of ten gets the same text
 *   from either side.
 * - Zeros, infinities and NaN (always "nan", as Python writes it) are
 *   written directly.
 *
 * The power table is built once, in Python, from exact integers
 * (fileio._powers), and swekit_writer_init copies it: both writers read
 * the same rows, and tests/test_fileio.py checks every pair and that
 * swekit_powers holds the table bit for bit. The digits are rendered
 * four at a time from a lookup table. Each writer level (baseline; fma,
 * for avx2 with FMA) has its entries, compiled from the same code, and
 * both give the same text: each decides only digits that are exact.
 */

/* Decimal exponents the table covers: those of finite nonzero doubles,
 * -324..308, and one more at each end for the decade-edge redo. */
#define EXP_LO (-325)
#define EXP_HI 309
#define TEN16 10000000000000000LL
/* Adding and subtracting it rounds a double below 2**51 to an integer,
 * ties to even. */
#define ROUNDER 0x1.8p52
/* A fraction this close to one half leaves the digits undecided. */
#define MARGIN 0x1p-44
/* Characters of the longest value, -d.dddddddddddddddde-ddd. */
#define MAX_TEXT 24
/* Bytes of a formatted coordinate: its text, then its length in the
 * last byte. */
#define SLOT 32
/* Values whose digits are found before their text is written. */
#define CHUNK 16

/* Row e - EXP_LO of the power table: 10**(16 - e) * 2**s as hi + lo,
 * hi split into Veltkamp halves head + tail of at most 26 bits each,
 * the factor 2**-s for |v|, and 10**(e + 1) rounded, for the estimate
 * of e. fileio._powers() builds the rows in this layout;
 * tests/test_fileio.py reads them here. */
struct power {
    double hi, lo, head, tail, scale, next;
};
struct power swekit_powers[EXP_HI - EXP_LO + 1];
static char groups[10000][4]; /* "0000" .. "9999" */
static locale_t c_locale;
static int ready;

/* Copies the power table that fileio._powers() builds and builds the
 * digit groups; 0, or -1 where the "C" locale cannot be made. The
 * loader calls it once, before any other writer entry. */
int swekit_writer_init(const struct power *powers)
{
    if (ready)
        return 0;
    memcpy(swekit_powers, powers, sizeof swekit_powers);
    for (int n = 0; n < 10000; n++) {
        groups[n][0] = (char)('0' + n / 1000);
        groups[n][1] = (char)('0' + n / 100 % 10);
        groups[n][2] = (char)('0' + n / 10 % 10);
        groups[n][3] = (char)('0' + n % 10);
    }
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    ready = 1;
    return 0;
}

/* The widest writer level whose entries this library holds and whose
 * instructions the CPU and the OS support: 0 baseline, 1 fma. */
int swekit_writer_level(void)
{
#if VECTOR_LEVELS
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return 0;
#endif
}

/* A zero, an infinity or NaN. */
static char *put_special(char *p, double v)
{
    const char *text = isnan(v) ? "nan"
                       : v == 0.0 ? "0.0000000000000000e+00" : "inf";
    size_t n = strlen(text);
    if (signbit(v) && !isnan(v))
        *p++ = '-';
    memcpy(p, text, n);
    return p + n;
}

/* 17 digits d (10**16 <= d < 10**17) and the exponent e. The sign is
 * written without a branch, as signs in a column are often random. */
static char *put_digits(char *p, double v, int64_t d, int e)
{
    uint64_t lead = (uint64_t)d / TEN16, rest = (uint64_t)d - lead * TEN16;
    uint32_t high = (uint32_t)(rest / 100000000);
    uint32_t low = (uint32_t)(rest - (uint64_t)high * 100000000);
    unsigned a = (unsigned)(e < 0 ? -e : e);
    *p = '-';
    p += signbit(v) != 0;
    p[0] = (char)('0' + lead);
    p[1] = '.';
    memcpy(p + 2, groups[high / 10000], 4);
    memcpy(p + 6, groups[high % 10000], 4);
    memcpy(p + 10, groups[low / 10000], 4);
    memcpy(p + 14, groups[low % 10000], 4);
    p[18] = 'e';
    p[19] = e < 0 ? '-' : '+';
    p += 20;
    if (a >= 100) {
        *p++ = (char)('0' + a / 100);
        a %= 100;
    }
    p[0] = (char)('0' + a / 10);
    p[1] = (char)('0' + a % 10);
    return p + 2;
}

/* m * 10**(16 - e) as p + c, from row w of the table: p = m * hi
 * rounded, c its exact error plus m * lo. fused picks fma over Dekker's
 * product for the error. */
INLINE double product(double m, const struct power *w, double *c, int fused)
{
    double a = m * w->scale, p = a * w->hi, error;
    if (fused) {
        error = fma(a, w->hi, -p);
    } else {
        double t = a * 134217729.0; /* 2**27 + 1 */
        double head = t - (t - a), tail = a - head;
        error = ((head * w->head - p) + head * w->tail + tail * w->head)
                + tail * w->tail;
    }
    *c = error + a * w->lo;
    return p;
}

/* The 17 digits of v, 10**16 <= d < 10**17, and its exponent at e; 0
 * where this does not decide them: v is zero, infinite or NaN, or lies
 * within 2**-44 of a rounding tie. */
INLINE int64_t decimal(double v, int *exponent, int fused)
{
    double m = fabs(v);
    *exponent = 0;
    if (!(m > 0.0 && m <= DBL_MAX))
        return 0;
    /* m lies in [2**(b - 1), 2**b): e is floor(log10(2**(b - 1))) or
     * one more. b is read from the exponent field of a normal m. */
    uint64_t bits;
    memcpy(&bits, &m, sizeof bits);
    int b = (int)(bits >> 52) - 1022, subnormal_b;
    if (b == -1022) {
        frexp(m, &subnormal_b);
        b = subnormal_b;
    }
    /* floor((b - 1) * log10(2)) as floor((b - 1) * 315653 / 2**20), which
     * is exact for |b - 1| <= 2620, of a numerator made positive. */
    int e = (((b - 1) * 315653 + (400 << 20)) >> 20) - 400;
    e += m >= swekit_powers[e - EXP_LO].next;
    double c, p = product(m, &swekit_powers[e - EXP_LO], &c, fused);
    if ((p - 1e16) + c < 0.0 || (p - 1e17) + c >= 0.0) {
        e += (p - 1e16) + c < 0.0 ? -1 : 1;
        p = product(m, &swekit_powers[e - EXP_LO], &c, fused);
    }
    double r = (c + ROUNDER) - ROUNDER;
    if (!(fabs(c - r) < 0.5 - MARGIN))
        return 0;
    int64_t d = (int64_t)p + (int64_t)r;
    if (d == 10 * TEN16) {
        d = TEN16;
        e++;
    }
    if (d < TEN16 || d >= 10 * TEN16)
        return 0;
    *exponent = e;
    return d;
}

/* The text of v at p, given its digits d and exponent e where decimal
 * decided them (d > 0); returns its end. p has room for MAX_TEXT + 1
 * bytes (snprintf's NUL), and the caller has the "C" locale in use. */
static char *put_value(char *p, double v, int64_t d, int e)
{
    if (d)
        return put_digits(p, v, d, e);
    if (isfinite(v) && v != 0.0)
        return p + snprintf(p, MAX_TEXT + 1, "%.16e", v);
    return put_special(p, v);
}

/* Formats n values into SLOT-byte slots: each value's text, then its
 * length in the slot's last byte. */
INLINE void format_slots(const double *values, idx n, char *slots,
                         int fused)
{
    locale_t caller = uselocale(c_locale);
    for (idx i = 0; i < n; i++) {
        char *slot = slots + i * SLOT;
        int e = 0;
        int64_t d = decimal(values[i], &e, fused);
        slot[SLOT - 1] = (char)(put_value(slot, values[i], d, e) - slot);
    }
    uselocale(caller);
}

/* Writes rows rows of k values, read from table with a row stride of
 * k, into out as text, and returns its length. Where x_slots is not
 * NULL each row starts with two formatted coordinates: row r of the
 * whole table (here row r - first) has x_slots[r % nx] and
 * y_slots[r / nx]. out holds at least (MAX_TEXT + 1) bytes per value
 * and coordinate. */
INLINE idx write_rows(const double *table, idx rows, idx k, idx first,
                      const char *x_slots, const char *y_slots, idx nx,
                      char *out, int fused)
{
    locale_t caller = uselocale(c_locale);
    char *p = out;
    idx i = x_slots ? first % nx : 0, j = x_slots ? first / nx : 0;
    for (idx r = 0; r < rows; r++) {
        if (x_slots) {
            const char *x = x_slots + i * SLOT, *y = y_slots + j * SLOT;
            memcpy(p, x, MAX_TEXT);
            p += (unsigned char)x[SLOT - 1];
            *p++ = ' ';
            memcpy(p, y, MAX_TEXT);
            p += (unsigned char)y[SLOT - 1];
            *p++ = ' ';
            if (++i == nx) {
                i = 0;
                j++;
            }
        }
        const double *row = table + r * k;
        for (idx c = 0; c < k; c += CHUNK) {
            /* The digits of a chunk first, then its text: the digits of
             * one value do not wait for the text of the one before. */
            idx count = k - c < CHUNK ? k - c : CHUNK;
            int64_t d[CHUNK];
            int e[CHUNK];
            for (idx t = 0; t < count; t++)
                d[t] = decimal(row[c + t], &e[t], fused);
            for (idx t = 0; t < count; t++) {
                p = put_value(p, row[c + t], d[t], e[t]);
                *p++ = ' ';
            }
        }
        p[-1] = '\n';
    }
    uselocale(caller);
    return p - out;
}

/* The writer's entries of one level: swekit_format_slots_<level> and
 * swekit_write_rows_<level>, fused where the level has FMA. */
#define TARGET_fma __attribute__((target("avx2,fma")))

#define WRITER_LEVEL(level, fused)                                         \
    TARGET_##level void swekit_format_slots_##level(                       \
        const double *values, idx n, char *slots)                          \
    {                                                                      \
        format_slots(values, n, slots, fused);                             \
    }                                                                      \
    TARGET_##level idx swekit_write_rows_##level(                          \
        const double *table, idx rows, idx k, idx first,                   \
        const char *x_slots, const char *y_slots, idx nx, char *out)       \
    {                                                                      \
        return write_rows(table, rows, k, first, x_slots, y_slots, nx,     \
                          out, fused);                                     \
    }

WRITER_LEVEL(baseline, 0)
#if VECTOR_LEVELS
WRITER_LEVEL(fma, 1)
#endif
