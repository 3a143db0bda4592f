/* swekit's compiled kernels, one library, each the twin of numpy code
 * that stays as its fallback and its reference:
 *
 * - the sweep, the contract of timeloop._Sweep.run, row by row: one
 *   entry swekit_sweep_<level> per x86 vector level (baseline, avx2),
 *   both compiled from the same code, and swekit_sweep_level, which
 *   reports the widest level the CPU and the OS support;
 * - the step, swekit_step_<level>: timeloop.run_simulation's time loop,
 *   with compute_dt, heun_step or euler_step and the ledger, up to each
 *   landing time: the ghost fill, the sweep of the same level, the
 *   stage tail (update, rain, infiltration, friction, validity check)
 *   and the Heun average, in phases that stop where numpy still
 *   computes; one entry per vector level, as the sweep;
 * - the writer, swekit_write_rows_<level> and swekit_format_slots_<level>:
 *   the `%.16e` table writer of fileio._write_rows, one pair of entries
 *   per writer level (baseline, fma), both compiled from the same code,
 *   and swekit_writer_level, which reports the widest the CPU runs.
 *
 * The sweep kernel. A row is a 1D problem along the sweep direction: n
 * cells plus two ghost cells per end. For each row this computes, into
 * the caller's strided outputs, the carried (mass[, transverse]) flux
 * divergence, the normal-momentum divergence with its topography terms,
 * and the mass flux through the row's two end faces. Inputs and outputs
 * are read and written through element strides, so transposed views
 * need no copy.
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
 * Wider vectors give the same bits: each element still sees the same
 * correctly rounded operations in the same order. The sweep's and the
 * step's target strings enable no FMA and name no arch=; only the
 * writer's fma level enables FMA, for its explicit fma() calls, and
 * -ffp-contract=off keeps any other product from being fused. The
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

/* One block of rows and the scheme; _compiled.SweepBlock mirrors it. */
struct sweep {
    idx rows, n, nq, second_order, rusanov, accumulate;
    double d, g, h_eps;
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
INLINE void gather(const struct sweep *s, idx r, idx e,
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
INLINE void traces(const double *restrict x, double *restrict xh,
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

/* Rows [r0, r0 + count) of the tile's divergences into outputs whose
 * cells are strided: element by element, with whole rows of the tile
 * per cell, so a cache line of the outputs is visited once per tile. */
INLINE void flush(const struct sweep *s, idx r0, idx count,
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

/* The out-of-line passes a level's sweep calls through its tables:
 * faces[2 * rusanov + nq - 1] and divergences[2 * add + nq - 1]. */
typedef void face_fn(const double *, const double *, idx, idx, double,
                     double, struct face_rows);
typedef void divergence_fn(const double *, const double *, idx, idx, double,
                           double, struct face_rows, double *, double *,
                           double *);

/* The whole sweep of one block of rows, inlined into each level's entry
 * with the tables of that level's passes. */
INLINE void sweep(const struct sweep *s, face_fn *const *face_table,
                  divergence_fn *const *divergence_table)
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
    face_fn *faces = face_table[2 * (s->rusanov != 0) + nq - 1];
    /* Outputs with unit cell stride are written in place; strided ones
     * (the y sweep's transposed phi) through the tile. */
    const int direct = s->carried_cell == 1 && s->normal_cell == 1;
    divergence_fn *divergence =
        divergence_table[2 * (direct && s->accumulate) + nq - 1];

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
        faces(th, tl, n, e, s->g, s->h_eps, f);
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

/* ------------------------------------------------- vector levels
 *
 * One sweep entry per vector level, swekit_sweep_<level>: the sweep
 * above, with out-of-line copies of its face and divergence passes, all
 * compiled for the level's target. Only GCC on x86-64 builds the level
 * past the baseline. The passes stay out of line, as the baseline had
 * them: inlining all of them into each entry ran no faster and doubled
 * the build. avx2 also serves AVX-512 CPUs: an avx512f level ran the
 * sweep 10 % faster than avx2 alone, but end to end it moved no run by
 * more than its noise, and it cost a third of the build.
 */

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define VECTOR_LEVELS 1
#else
#define VECTOR_LEVELS 0
#endif

#define TARGET_baseline
#define TARGET_avx2 __attribute__((target("avx2")))

typedef void sweep_fn(const struct sweep *);

#define FACES(level, rusanov, nq)                                          \
    static TARGET_##level void level##_faces_##rusanov##_##nq(             \
        const double *th, const double *tl, idx n, idx e, double g,        \
        double eps, struct face_rows f)                                    \
    {                                                                      \
        face_pass(th, tl, n, e, g, eps, f, rusanov, nq);                   \
    }

#define DIVERGENCE(level, add, nq)                                         \
    static TARGET_##level void level##_divergence_##add##_##nq(            \
        const double *th, const double *tl, idx n, idx e, double d,        \
        double g, struct face_rows f, double *dm, double *dn, double *dt)  \
    {                                                                      \
        divergence_pass(th, tl, n, e, d, g, f, dm, dn, dt, add, nq);       \
    }

#define SWEEP_LEVEL(level)                                                 \
    FACES(level, 0, 1)                                                     \
    FACES(level, 0, 2)                                                     \
    FACES(level, 1, 1)                                                     \
    FACES(level, 1, 2)                                                     \
    DIVERGENCE(level, 0, 1)                                                \
    DIVERGENCE(level, 0, 2)                                                \
    DIVERGENCE(level, 1, 1)                                                \
    DIVERGENCE(level, 1, 2)                                                \
    TARGET_##level void swekit_sweep_##level(const struct sweep *s)        \
    {                                                                      \
        static face_fn *const faces[] = {                                  \
            level##_faces_0_1, level##_faces_0_2,                          \
            level##_faces_1_1, level##_faces_1_2};                         \
        static divergence_fn *const divergences[] = {                      \
            level##_divergence_0_1, level##_divergence_0_2,                \
            level##_divergence_1_1, level##_divergence_1_2};               \
        sweep(s, faces, divergences);                                      \
    }

SWEEP_LEVEL(baseline)
#if VECTOR_LEVELS
SWEEP_LEVEL(avx2)
#endif

/* The widest level whose entry this library holds and whose
 * instructions the CPU and the OS support: 0 baseline, 1 avx2. */
int swekit_sweep_level(void)
{
#if VECTOR_LEVELS
    __builtin_cpu_init();
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
 * change or the final time) and returns only where numpy must still
 * compute or decide, or the caller must see the run. A step runs in
 * phases:
 *
 * - BEGIN: the landing target, then the CFL dt (compute_dt's supremum
 *   per direction with _bc_speed's speed of the imposed boundary states,
 *   in compute_dt's order) or fixed_dt, clipped to land on the target.
 * - STAGE1, STAGE2: one stage's copy of its fields into the frame, the
 *   ghost fill (boundary.fill_ghosts_1d or _2d, the bed's ghosts aside:
 *   the caller fills those once per run), every direction's sweep at the
 *   step's own vector level (the end-face mass fluxes go into faces),
 *   and the tail's update. Then, with Manning friction, infiltration or
 *   in 2D, CUT: the caller writes np.cbrt of the new depth, which the
 *   step copies into depth, into the tail's cbrt row, and hands over the
 *   infiltrated depth's sum and, in 2D, _Workspace.boundary_volumes of
 *   the faces.
 * - FINISH1, FINISH2: the tail's friction and validity check.
 * - AVERAGE: Heun's average and its check.
 * - ACCEPT: the ledger in Python's order, the count, the new time, the
 *   change rate of a last step and the smallest depth seen; the result
 *   becomes the state. Then STEPPED where the step landed, or after
 *   every step for an on_step caller; DONE after the final time.
 *
 * A check that finds a fault, or cannot decide, returns its status with
 * the phase set to the next one and when set to the time numpy's check
 * reports; an undecided state is copied into check. The caller raises
 * the fault or sets RETRY, which halves dt and takes the step again; or
 * runs numpy's check and calls again. The step also returns RATE where
 * it starts at or after rate_until, for the caller to set the rain rate
 * the step draws, BAD_DT where the dt is not positive, and ZERO_DEPTH
 * where the smallest depth seen falls to zero, whose sign np.min decides.
 *
 * The stage tail is a stage's pointwise work outside the sweep, the twin
 * of timeloop._numpy_tail, _numpy_average and _wave_speed_sups:
 *
 * - tail_update: the update fields - phi*dt, rain h + r*dt, and
 *   Green-Ampt infiltration (sources.infiltration_step, with
 *   effective_conductivity and infiltration_capacity), which writes the
 *   infiltrated depth into dv and the new cumulative depth into v_out;
 * - tail_friction: semi-implicit friction (sources._damping_factor and
 *   the divide);
 * - average: the Heun average of the fields and of the cumulative depth;
 * - validity: the validity check (timeloop._enforce_validity) after each
 *   stage's friction and after the average;
 * - speed_sups: compute_dt's supremum of |u| + c over the wet cells, per
 *   direction.
 *
 * Each keeps the operation order of its numpy twin, and min/max follow
 * numpy as in the sweep. Two things stay numpy's: np.cbrt, whose bits
 * depend on numpy's SIMD dispatch (the caller writes cbrt of the new
 * depth into cbrt between update and finish), and sums, which numpy
 * takes pairwise (the caller sums dv). Arrays are C-contiguous: the
 * fields and phi (nq + 1, cells), the rest (cells,).
 *
 * The tail's passes are bound by their arithmetic (divisions and square
 * roots), not by memory, so the step is compiled once per vector level,
 * as the sweep is, from the same code: swekit_step_<level> inlines every
 * pass of the tail and calls the sweep of its own level. The ghost fill,
 * the imposed boundary speed and the ledger, which visit a side's cells
 * or none, stay out of line, compiled for the baseline and shared.
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

/* The run and its workspace; _compiled.StepBlock mirrors it. The members
 * up to landings are the run's: the scheme, the friction law and its
 * coefficient's factor, the soil (imax is +inf without a cap, which
 * np_min(capacity, imax) then returns as capacity, bit for bit); ext is
 * the frame of timeloop._Workspace, blocks are the sweep's blocks of the
 * directions, which write phi and faces (direction, side, row); phi is
 * not read after the update, so the CFL pass writes its wet speeds into
 * its rows and cbrt is its first row; dv receives the infiltrated depth;
 * handed holds what the caller hands over at a cut; landing holds the
 * landings sorted. The caller sets those from phase to current for a
 * run: the state is fields[current] and the result goes into the other,
 * likewise the cumulative infiltrated depth in v_inf. The rest is the
 * loop's own, read by the caller: cell and h_min place a check's fault;
 * mismatch counts each side's regime mismatches (left, right, bottom,
 * top) and mismatches all of them, which the caller reports and clears;
 * cum holds the ledger's sums. */
struct step {
    idx nx, ny, nq, cells, face_rows, friction, crust;
    double g, h_eps, tolerance, friction_scale, cell_area, courant;
    double fixed_dt, final, atol;
    double ks, kc, zc, hf, dtheta, crust_term, imax;
    double spacing[2];
    struct side sides[4];
    double *ext;
    const struct sweep *blocks[2];
    double *phi, *cbrt, *dv, *faces, *stage, *v_stage, *depth, *check;
    const double *handed, *landing;
    idx landings;
    idx phase, heun, infiltration, each;
    double t, dt, rate, rate_until;
    double *fields[2], *v_inf[2];
    idx current;
    idx next, hit, halvings, steps, retried, cell;
    double target, when, min_depth, change_rate, h_min;
    double cum[4], infil[2], flow[4];
    idx mismatches, mismatch[4];
};

enum {
    BEGIN, STAGE1, FINISH1, STAGE2, FINISH2, AVERAGE, ACCEPT, REPORT, RETRY,
    FINISHED
};
enum { MANNING = 1, DARCY_WEISBACH = 2 };
/* What the validity check returns. UNDECIDED: every value is finite but
 * one is so large that numpy's sum of them might overflow, which numpy's
 * check counts as a fault; the caller runs that check. */
enum { VALID, NEGATIVE_DEPTH, NON_FINITE, UNDECIDED };
/* What swekit_step_<level> returns besides a check's status. */
enum { CUT = 4, DONE, STEPPED, RATE, BAD_DT, ZERO_DEPTH };

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
    const idx n = s->cells;
    subtract_update(fields, s->phi, h, (s->nq + 1) * n, s->dt);
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

/* The discharges q (nq rows of n) divided by the damping factor, built
 * from the stage's start f (h, then the discharges) and the new depth
 * h_new. The 2D magnitude is sqrt(qx*qx + qy*qy), as the paper writes
 * it and sources._damping_factor takes it: the squares overflow to inf
 * where |q| exceeds about 1.3e154, and lose bits below about 1.5e-154.
 * law and nq are constants where this is inlined. */
INLINE void friction(const double *restrict f, const double *restrict h_new,
                     const double *restrict cb, double *restrict q, idx n,
                     double coeff, double h_eps, int law, int nq)
{
    for (idx i = 0; i < n; i++) {
        /* h^n (h^{n+1})^{4/3} (Manning) or h^n h^{n+1}. */
        double denom = law == MANNING ? f[i] * (h_new[i] * cb[i])
                                      : f[i] * h_new[i];
        double qx = f[n + i];
        double magnitude = nq == 1
            ? fabs(qx) : sqrt(qx * qx + f[2 * n + i] * f[2 * n + i]);
        double ratio = magnitude * coeff / denom;
        /* Wet at both levels: the smaller depth exceeds h_eps. */
        double factor = np_min(f[i], h_new[i]) > h_eps ? ratio + 1.0 : 1.0;
        q[i] = q[i] / factor;
        if (nq == 2)
            q[n + i] = q[n + i] / factor;
    }
}

/* Friction on the stage's update h from its start f. */
INLINE void tail_friction(const struct step *s, const double *f, double *h)
{
    const idx n = s->cells;
    const double *cb = s->cbrt;
    const double coeff = s->friction_scale * s->dt;
    if (s->friction == MANNING && s->nq == 1)
        friction(f, h, cb, h + n, n, coeff, s->h_eps, MANNING, 1);
    else if (s->friction == MANNING)
        friction(f, h, cb, h + n, n, coeff, s->h_eps, MANNING, 2);
    else if (s->friction == DARCY_WEISBACH && s->nq == 1)
        friction(f, h, cb, h + n, n, coeff, s->h_eps, DARCY_WEISBACH, 1);
    else if (s->friction == DARCY_WEISBACH)
        friction(f, h, cb, h + n, n, coeff, s->h_eps, DARCY_WEISBACH, 2);
}

/* Sums over the cells in lanes: each lane adds its own cells, so no
 * element waits for the one before and the compiler can vectorize the
 * loop. Only whole numbers and a bound are summed this way, never a
 * result. */
#define LANES 4

/* The dry convention of _enforce_validity on cell i of the fields f:
 * a dry cell (h <= h_eps) loses its discharges. Returns the sum of the
 * magnitudes of the cell's values. nq is a constant where this is
 * inlined. */
INLINE double dry_cell(double *restrict f, idx n, idx i, double h_eps,
                       int nq)
{
    int dry = f[i] <= h_eps;
    double q0 = dry ? 0.0 : f[n + i];
    f[n + i] = q0;
    double size = fabs(f[i]) + fabs(q0);
    if (nq == 2) {
        double q1 = dry ? 0.0 : f[2 * n + i];
        f[2 * n + i] = q1;
        size += fabs(q1);
    }
    return size;
}

/* dry_cell over every cell. Whether every value is finite and the
 * magnitudes sum to at most DBL_MAX / 8, so that numpy's sum of the
 * values, in whatever order, cannot overflow. */
INLINE int dry_and_small(double *restrict f, idx n, double h_eps, int nq)
{
    double lane[LANES] = {0.0};
    idx i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int l = 0; l < LANES; l++)
            lane[l] += dry_cell(f, n, i + l, h_eps, nq);
    for (; i < n; i++)
        lane[0] += dry_cell(f, n, i, h_eps, nq);
    return (lane[0] + lane[1]) + (lane[2] + lane[3]) <= DBL_MAX / 8.0;
}

/* timeloop._enforce_validity on the fields f: a depth below -tolerance
 * is a fault at the first smallest depth; otherwise, if any depth is
 * below zero, every depth becomes max(h, 0). Then dry cells lose their
 * discharges, and a non-finite value is a fault at the first cell that
 * holds one. */
INLINE int validity(struct step *s, double *restrict f)
{
    const idx n = s->cells, nq = s->nq;
    /* The NaN and the negative depths, counted. */
    double nan[LANES] = {0.0}, negative[LANES] = {0.0};
    idx i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int l = 0; l < LANES; l++) {
            nan[l] += isnan(f[i + l]) ? 1.0 : 0.0;
            negative[l] += f[i + l] < 0.0 ? 1.0 : 0.0;
        }
    for (; i < n; i++) {
        nan[0] += isnan(f[i]) ? 1.0 : 0.0;
        negative[0] += f[i] < 0.0 ? 1.0 : 0.0;
    }
    /* np.min is NaN where a depth is, and then nothing is clamped. */
    if ((nan[0] + nan[1]) + (nan[2] + nan[3]) == 0.0
        && (negative[0] + negative[1]) + (negative[2] + negative[3]) > 0.0) {
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
    if (nq == 1 ? dry_and_small(f, n, s->h_eps, 1)
                : dry_and_small(f, n, s->h_eps, 2))
        return VALID;
    for (i = 0; i < n; i++)
        for (idx k = 0; k <= nq; k++)
            if (!isfinite(f[k * n + i])) {
                s->cell = i;
                return NON_FINITE;
            }
    return UNDECIDED;
}

/* a + b over n values into b, then times 0.5 (first) or 0.5 times. */
INLINE void average(const double *restrict a, double *restrict b, idx n,
                    int half_first)
{
    for (idx i = 0; i < n; i++)
        b[i] = half_first ? 0.5 * (a[i] + b[i]) : (a[i] + b[i]) * 0.5;
}

/* numpy's max, from 0.0, of n values v that are +0.0, positive or NaN:
 * NaN where one is NaN, else the largest. Those values but NaN order as
 * their bit patterns do as int64, and an int64 max, unlike a double one,
 * is a reduction the compiler may vectorize. NaN are counted apart: the
 * one inf / inf gives has its sign bit set. */
INLINE double wet_max(const double *restrict v, idx n)
{
    int64_t top = 0, nan = 0;
    for (idx i = 0; i < n; i++) {
        int64_t bits;
        memcpy(&bits, v + i, sizeof bits);
        top = bits > top ? bits : top;
        nan += isnan(v[i]) ? 1 : 0;
    }
    double max;
    memcpy(&max, &top, sizeof max);
    return nan ? NAN : max;
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

/* boundary._resolve_imposed on one cell: the ghost depth and discharge
 * from those of the first interior cell, h and q. Returns whether the
 * condition mismatches the local flow regime. */
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
                                      s->g, s->h_eps, &h_ghost,
                                      &q_ghost);
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

/* Python's max(v, 0.0). */
INLINE double positive(double v)
{
    return 0.0 > v ? 0.0 : v;
}

/* The fields into the frame's interior, and its ghosts filled. */
static void fill_frame(struct step *s, const double *fields)
{
    const idx nx = s->nx, ny = s->ny, nq = s->nq, e = nx + 4;
    const idx plane = nq == 2 ? (ny + 4) * e : e;
    double *h = s->ext, *q1 = h + plane, *q2 = q1 + plane;
    for (idx v = 0; v <= nq; v++)
        for (idx r = 0; r < ny; r++)
            memcpy(h + v * plane + (nq == 2 ? r + 2 : 0) * e + 2,
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
    s->mismatches = s->mismatch[0] + s->mismatch[1] + s->mismatch[2]
                    + s->mismatch[3];
}

/* Stage k (0 or 1) up to its cut: the convective update of fields by
 * sweep, the sweep of the step's level, and the tail's update into out,
 * the cumulative infiltrated depth from v_in into v_out. Returns whether
 * the caller must compute at a cut. */
INLINE int stage(struct step *s, int k, const double *fields, double *out,
                 const double *v_in, double *v_out, sweep_fn *sweep)
{
    const idx nq = s->nq;
    fill_frame(s, fields);
    for (idx d = 0; d < nq; d++)
        sweep(s->blocks[d]);
    if (nq == 1) {
        /* _Workspace.boundary_volumes of a 1D stage, times dt: a
         * periodic seam is no boundary. */
        double into = 0.0, outof = 0.0, low = s->faces[0];
        double high = s->faces[s->face_rows];
        if (s->sides[0].kind != PERIODIC) {
            into = 0.0 + (positive(low) + positive(-high));
            outof = 0.0 + (positive(-low) + positive(high));
        }
        s->flow[2 * k] = into * s->dt;
        s->flow[2 * k + 1] = outof * s->dt;
    }
    tail_update(s, fields, out, v_in, v_out);
    if (s->friction == MANNING)
        memcpy(s->depth, out, (size_t)s->cells * sizeof(double));
    return s->friction == MANNING || s->infiltration || nq == 2;
}

/* The ledger volumes of stage k that the caller handed over at its cut,
 * as the numpy step takes them: the infiltrated depth's sum times the
 * cell area and, in 2D, the boundary volume rates times dt. */
static void take_handed(struct step *s, int k)
{
    s->infil[k] = s->infiltration ? s->handed[0] * s->cell_area : 0.0;
    if (s->nq == 2) {
        s->flow[2 * k] = s->handed[1] * s->dt;
        s->flow[2 * k + 1] = s->handed[2] * s->dt;
    }
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
    const idx nx = s->nx, ny = s->ny, cells = nx * ny;
    double top = 0.0;
    int found = 0;
    for (idx k = 0; k < s->nq; k++)
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
            if (h_b > s->h_eps) {
                double speed = fabs(q_b) / h_b + sqrt(s->g * h_b);
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
    double sup[2] = {0.0, 0.0};
    if (s->nq == 1)
        speed_sups(f, s->cells, s->g, s->h_eps, s->phi, sup, 1);
    else
        speed_sups(f, s->cells, s->g, s->h_eps, s->phi, sup, 2);
    double boost = imposed_speed(s, f);
    double dt = s->spacing[0];
    if (s->nq == 2 && s->spacing[1] < dt)
        dt = s->spacing[1];
    for (idx k = 0; k < s->nq; k++) {
        double top = boost > sup[k] ? boost : sup[k];
        if (top > 0.0) {
            double d = s->spacing[k] / top;
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
    double rain = s->rate > 0.0 ? s->rate * s->dt * (double)s->nx
                                      * (double)s->ny * s->cell_area
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
 * smallest depth seen. Returns ZERO_DEPTH where a depth of zero would
 * lower it, else VALID. */
INLINE int accept(struct step *s, const double *f, const double *r)
{
    const idx cells = s->cells, values = (s->nq + 1) * cells;
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
    /* Python's min(min_depth, np.min(h)). A state holds no NaN, and the
     * smallest depth has one value, but a zero one sign or the other. */
    double lowest = r[0];
    for (idx i = 1; i < cells; i++)
        lowest = r[i] < lowest ? r[i] : lowest;
    if (lowest < s->min_depth) {
        if (lowest == 0.0)
            return ZERO_DEPTH;
        s->min_depth = lowest;
    }
    return VALID;
}

/* The time loop over sweep, the sweep of the step's level; inlined into
 * each level's entry, with every pass of the tail. Each pass is inlined
 * at one place in it, so a level holds one copy of each. */
INLINE int step(struct step *s, sweep_fn *sweep)
{
    for (;;) {
        /* The state and the result; Heun's first stage goes into the
         * workspace, Euler's is the result. */
        const double *f = s->fields[s->current];
        const double *v = s->v_inf[s->current];
        double *r = s->fields[1 - s->current];
        double *v_r = s->v_inf[1 - s->current];
        double *first = s->heun ? s->stage : r;
        double *v_first = s->heun ? s->v_stage : v_r;
        /* Stage 1 goes from f into first, stage 2 from the workspace's
         * stage into r: checked is what a stage's phases write, and
         * what the check after its friction judges. */
        int second = s->phase == STAGE2 || s->phase == FINISH2;
        double *checked = second ? r : first;
        switch (s->phase) {
        case BEGIN:
            if (!(s->t < s->final - s->atol)) {
                s->phase = FINISHED;
                return DONE;
            }
            while (s->next < s->landings
                   && s->landing[s->next] <= s->t + s->atol)
                s->next++;
            s->target = s->landing[s->next];
            if (s->t >= s->rate_until)
                return RATE;
            s->dt = s->fixed_dt > 0.0 ? s->fixed_dt : cfl_dt(s, f);
            if (!(s->dt > 0.0))
                return BAD_DT;
            s->hit = s->t + s->dt >= s->target - s->atol;
            if (s->hit)
                s->dt = s->target - s->t;
            s->halvings = 0;
            s->phase = STAGE1;
            continue;
        case RETRY:
            s->dt = s->dt * 0.5;
            s->halvings++;
            s->hit = 0;
            s->phase = STAGE1;
            continue;
        case STAGE1:
        case STAGE2:
            s->phase = second ? FINISH2 : FINISH1;
            if (stage(s, second, second ? s->stage : f, checked,
                      second ? s->v_stage : v, second ? v_r : v_first,
                      sweep))
                return CUT;
            continue;
        case FINISH1:
        case FINISH2:
            take_handed(s, second);
            s->phase = second ? AVERAGE : s->heun ? STAGE2 : ACCEPT;
            s->when = s->t;
            tail_friction(s, second ? s->stage : f, checked);
            break;
        case AVERAGE:
            s->phase = ACCEPT;
            s->when = s->t + s->dt;
            average(f, r, (s->nq + 1) * s->cells, 0);
            if (s->infiltration)
                average(v, v_r, s->cells, 1);
            checked = r;
            break;
        case ACCEPT:
            s->current = 1 - s->current;
            s->phase = REPORT;
            if (accept(s, f, r) == ZERO_DEPTH)
                return ZERO_DEPTH;
            continue;
        case REPORT:
            s->phase = s->t < s->final - s->atol ? BEGIN : FINISHED;
            if (s->each || s->hit)
                return STEPPED;
            continue;
        default:
            s->phase = FINISHED;
            return DONE;
        }
        /* A stage's end and the average: the check. */
        int status = validity(s, checked);
        if (status == UNDECIDED)
            memcpy(s->check, checked,
                   (size_t)((s->nq + 1) * s->cells) * sizeof(double));
        if (status != VALID)
            return status;
    }
}

/* One step entry per vector level, swekit_step_<level>, over the sweep
 * of the same level. */
#define STEP_LEVEL(level)                                                  \
    TARGET_##level int swekit_step_##level(struct step *s)                 \
    {                                                                      \
        return step(s, swekit_sweep_##level);                              \
    }

STEP_LEVEL(baseline)
#if VECTOR_LEVELS
STEP_LEVEL(avx2)
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
