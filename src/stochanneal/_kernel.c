/* Compiled form of the sampling loop in sampler._reference_loop.
 *
 * One call runs up to `steps` iterations over one slice of a pre-drawn RNG
 * block (node picks, Bernoulli thresholds, Reset-actuator noise). The block
 * walk and the trace it writes into belong to sampler._advance, which
 * calls this through sampler._kernel_loop. Every expression
 * is written in the same order as in _reference_loop and the device
 * functions it calls (device.field_to_voltage, mu_sigma, p_switch,
 * p_logistic, reset_update), and the library is built with
 * -ffp-contract=off, so each double is rounded exactly where Python rounds
 * it and the results are bit-identical. Integers are int64;
 * the caller only takes this path when every local field and energy of the
 * instance fits in 53 bits, where int64 and Python ints agree and each
 * int/float comparison is exact.
 *
 * ptab, when not NULL, caches the switching probability by local field:
 * ptab[u_i + U] for |u_i| <= U, NaN for "not yet". A slot is filled the
 * first time its field is met, by the loop's own expression, and reused
 * after that. The caller passes one only when p depends on u_i alone (the
 * logistic activation, or the ideal scheme with every device at one HRS and
 * one offset), so a cached p is the double the loop would compute again and
 * the results stay bit-identical. U bounds every |u_i| (BoltzmannForm.
 * field_bound); the caller passes no table when its 2U + 1 slots would
 * exceed 2^16 (sampler._uses_table).
 *
 * Without a table, the device activation decides x_i = [u < p], with
 * p = 0.5 * (1 + erf(a)), by a squeeze (Marsaglia 1977; Devroye 1986, II.5)
 * before it calls erf. sa_squeeze_table holds T_j = 0.5 * (1 + erf(g_j)),
 * by the loop's own expression, on the grid g_j = SQ_LO + j / SQ_INV_STEP,
 * j = 0..SQ_CELLS: 8192 cells of 1/256 over [-16, 16], past whose ends erf
 * is +-1 in double. Grid points are exact doubles, and the cell found for
 * a, j = (int)((a - SQ_LO) * SQ_INV_STEP), is off only by the rounding of
 * a - SQ_LO, so p lies in [T_{j-1}, T_{j+2}] with a cell to spare on each
 * side; SQ_MARGIN, at least 9000 ulps of any p, covers erf's last-bit
 * errors. So u < T_{j-1} - SQ_MARGIN gives x_i = 1 and u >= T_{j+2} +
 * SQ_MARGIN gives x_i = 0, as u < p would; a u between them, or an a off
 * the grid or NaN, calls erf. sa_squeeze_init fills the table once;
 * native.load_kernel calls it and checks the table before it hands out
 * the library, so no call reads a partly filled table.
 *
 * squeeze() makes both comparisons and returns their decision as a value
 * (one - !(one | zero)) instead of branching on each. The first comparison,
 * u < T_{j-1} - SQ_MARGIN, is the coin flip itself, so as a branch it
 * mispredicts often, and each mispredict is found only after the whole
 * u_i -> v -> mu, sigma -> a -> cell -> table chain has run. The flip,
 * `if (new != old)`, stays a branch: always running the neighbour update
 * (adding delta = 0 when x_i stays) was slower.
 *
 * The file also holds sa_hrs_bisect, the compiled form of the bisection
 * in surface.DeviceSurface.hrs_for_mu (see there).
 *
 * native.load_kernel compiles, loads and self-checks this file; the tests
 * in tests/test_sampler.py (TestKernel, TestBitIdentity, TestDifferential,
 * TestSqueeze) hold it equal to _reference_loop, and TestHrsForMuArray and
 * TestCalibrate (tests/test_surface.py, tests/test_device.py) hold
 * sa_hrs_bisect equal to the numpy bisection.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* par[]: the fields of sampler.Params, in its order; the integer fields
 * at the end are exact doubles. A threshold of NaN is never met. */
enum {
    P_VC, P_VMIN, P_VMAX, P_GAIN, P_INV_USCALE, P_LOG_TPW,
    P_MC00, P_MC10, P_MC01, P_MC20, P_MC02, P_MC11,
    P_SC00, P_SC10, P_SC01, P_SC20, P_SC02, P_SC11, P_FLOOR,
    P_M_HRS, P_S_RW, P_R_LO, P_R_HI, P_THRESHOLD,
    P_SCHEME, P_LOGISTIC, P_STRIDE, P_STOP_ON_CONV
};

/* io[]: integers read on entry and written back on return; converged_at
 * is -1 for "not yet" */
enum { S_T, S_ENERGY, S_BEST, S_CONVERGED_AT, S_CLAMPS };

double sa_erf(double z) { return erf(z); }
double sa_exp(double z) { return exp(z); }

#define SQ_LO (-16.0)
#define SQ_INV_STEP 256.0
#define SQ_CELLS 8192
#define SQ_MARGIN 1e-12

double sa_squeeze_table[SQ_CELLS + 1];

/* Fills sa_squeeze_table; returns its number of cells. */
int64_t sa_squeeze_init(void)
{
    for (int64_t j = 0; j <= SQ_CELLS; j++)
        sa_squeeze_table[j] = 0.5 * (1.0 + erf(SQ_LO + (double)j / SQ_INV_STEP));
    return SQ_CELLS;
}

/* x_i for threshold u and erf argument a: 1 or 0 when the table decides it,
 * -1 when erf must. The range test is written so that a NaN s fails it.
 * Both comparisons are made and combined without a branch: the first is
 * the coin flip itself (see the header). */
static inline int squeeze(double u, double a)
{
    const double s = (a - SQ_LO) * SQ_INV_STEP;
    if (s >= 1.0 && s < SQ_CELLS - 1) {
        const int64_t j = (int64_t)s;
        const int one = u < sa_squeeze_table[j - 1] - SQ_MARGIN;
        const int zero = u >= sa_squeeze_table[j + 2] + SQ_MARGIN;
        return one - !(one | zero);
    }
    return -1;
}

/* the squeeze alone, for the tests */
int sa_squeeze(double u, double a) { return squeeze(u, a); }

/* Returns the number of iterations run: `steps`, or fewer when the run
 * stops on convergence. trace[] receives, from index 0, the energy after
 * each iteration whose count t is a multiple of the stride. */

int64_t sa_advance(
    int64_t steps, const int64_t *nodes, const double *unifs, const double *noise,
    int64_t n, int8_t *x, int64_t *u, int64_t *cyc, int8_t *best_x,
    const int64_t *indptr, const int64_t *indices, const int64_t *wts,
    double *hrs, const double *offs, const double *targets,
    const double *par, int64_t *io, double *ptab, int64_t U, int64_t *trace)
{
    const int64_t scheme = (int64_t)par[P_SCHEME], logistic = (int64_t)par[P_LOGISTIC];
    const int64_t stride = (int64_t)par[P_STRIDE], stop_on_conv = (int64_t)par[P_STOP_ON_CONV];
    const double vc = par[P_VC], vmin = par[P_VMIN], vmax = par[P_VMAX];
    const double gain = par[P_GAIN], inv_uscale = par[P_INV_USCALE];
    const double log_tpw = par[P_LOG_TPW], sqrt1_2 = 1.0 / sqrt(2.0);
    const double mc00 = par[P_MC00], mc10 = par[P_MC10], mc01 = par[P_MC01];
    const double mc20 = par[P_MC20], mc02 = par[P_MC02], mc11 = par[P_MC11];
    const double sc00 = par[P_SC00], sc10 = par[P_SC10], sc01 = par[P_SC01];
    const double sc20 = par[P_SC20], sc02 = par[P_SC02], sc11 = par[P_SC11];
    const double floor_ = par[P_FLOOR];
    const double m_hrs = par[P_M_HRS], s_rw = par[P_S_RW];
    const double r_lo = par[P_R_LO], r_hi = par[P_R_HI];
    const double threshold = par[P_THRESHOLD];
    int64_t t = io[S_T], energy = io[S_ENERGY], best_energy = io[S_BEST];
    int64_t converged_at = io[S_CONVERGED_AT], clamps = io[S_CLAMPS];
    int64_t n_trace = 0;
    /* iterations until t is next a multiple of the stride */
    int64_t to_trace = stride - t % stride;
    int64_t k;

    for (k = 0; k < steps; k++) {
        const int64_t i = nodes[k];
        const int64_t u_i = u[i];
        int decided = -1; /* x_i as the squeeze decides it */
        double p = ptab != NULL ? ptab[u_i + U] : NAN;

        if (isnan(p)) {
            if (logistic) {
                p = u_i > -500 ? 1.0 / (1.0 + exp(-(double)u_i)) : 0.0;
            } else {
                double v = vc + gain * (double)u_i * inv_uscale;
                if (v < vmin)
                    v = vmin;
                else if (v > vmax)
                    v = vmax;
                const double r = hrs[i];
                const double mu = (mc10 + mc20 * v + mc11 * r) * v + (mc01 + mc02 * r) * r + mc00 + offs[i];
                double sg = (sc10 + sc20 * v + sc11 * r) * v + (sc01 + sc02 * r) * r + sc00;
                if (sg < floor_)
                    sg = floor_;
                const double a = (log_tpw - mu) * sqrt1_2 / sg;
                if (ptab == NULL)
                    decided = squeeze(unifs[k], a);
                if (decided < 0)
                    p = 0.5 * (1.0 + erf(a));
            }
            if (ptab != NULL)
                ptab[u_i + U] = p;
        }

        const int8_t new = decided >= 0 ? (int8_t)decided : unifs[k] < p ? 1 : 0;
        const int8_t old = x[i];
        if (new != old) {
            const int64_t delta = new - old;
            x[i] = new;
            for (int64_t kk = indptr[i]; kk < indptr[i + 1]; kk++)
                u[indices[kk]] += wts[kk] * delta;
            energy -= u_i * delta;
            if (energy < best_energy) {
                best_energy = energy;
                memcpy(best_x, x, (size_t)n);
                if (converged_at < 0 && (double)(-energy) >= threshold)
                    converged_at = t + 1;
            }
        }

        /* one Reset-Set per sampling */
        cyc[i] += 1;
        if (scheme == 1 || scheme == 2) {
            double nh = scheme == 1 ? hrs[i] + m_hrs + s_rw * noise[k]
                                    : targets[i] * (1.0 + noise[k]);
            if (nh < r_lo) {
                nh = r_lo;
                clamps += 1;
            } else if (nh > r_hi) {
                nh = r_hi;
                clamps += 1;
            }
            hrs[i] = nh;
        }

        t += 1;
        if (--to_trace == 0) {
            trace[n_trace++] = energy;
            to_trace = stride;
        }
        if (stop_on_conv && converged_at >= 0) {
            k += 1;
            break;
        }
    }

    io[S_T] = t;
    io[S_ENERGY] = energy;
    io[S_BEST] = best_energy;
    io[S_CONVERGED_AT] = converged_at;
    io[S_CLAMPS] = clamps;
    return k;
}

/* hrs_for_mu's bisection, one target at a time: for k < m, the r in
 * [r_lo, r_hi] where mu(v, r) = targets[k], given f_lo[k] = mu(v, r_lo) -
 * targets[k]. mc[] holds the mu coefficients in COEFF_NAMES order. Each step
 * evaluates surface.poly6 in its expression order, stops at a mid with
 * |f_mid| <= tol, and otherwise keeps the half whose ends f changes sign
 * over (f_lo * f_mid <= 0: the lower); after `steps` steps the root is the
 * bracket's midpoint. So roots[k] is, bit for bit, the root the numpy
 * bisection gives. */
void sa_hrs_bisect(int64_t m, const double *targets, const double *f_lo, const double *mc,
                   double v, double r_lo, double r_hi, double tol, int64_t steps, double *roots)
{
    const double c00 = mc[0], c10 = mc[1], c01 = mc[2], c20 = mc[3], c02 = mc[4], c11 = mc[5];
    for (int64_t k = 0; k < m; k++) {
        const double target = targets[k];
        double lo = r_lo, hi = r_hi, f = f_lo[k], root = NAN;
        int64_t s;
        for (s = 0; s < steps; s++) {
            const double mid = 0.5 * (lo + hi);
            const double f_mid = c00 + (c10 + c20 * v + c11 * mid) * v + (c01 + c02 * mid) * mid
                                 - target;
            if (fabs(f_mid) <= tol) {
                root = mid;
                break;
            }
            if (f * f_mid <= 0) {
                hi = mid;
            } else {
                lo = mid;
                f = f_mid;
            }
        }
        roots[k] = s < steps ? root : 0.5 * (lo + hi);
    }
}
