/* Compiled form of the sampling loop in sampler._advance.
 *
 * One call runs up to `steps` iterations over one pre-drawn RNG block
 * (node picks, Bernoulli thresholds, Reset-actuator noise). Every
 * expression is written in the same order as in _advance and the device
 * functions it calls (device.field_to_voltage, mu_sigma, p_switch,
 * p_logistic, reset_update), and the library is built with
 * -ffp-contract=off, so each double is rounded exactly where Python rounds
 * it and the results are bit-identical. Integers are int64;
 * the caller only takes this path when every local field and energy of the
 * instance fits in 53 bits, where int64 and Python ints agree and each
 * int/float comparison is exact.
 *
 * sampler.load_kernel compiles, loads and self-checks this file; the tests
 * in tests/test_sampler.py (TestKernel, TestBitIdentity) hold it equal to
 * _advance.
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

/* Returns the number of iterations run: `steps`, or fewer when the run
 * stops on convergence. trace[] receives, from index 0, the energy after
 * each iteration whose count t is a multiple of the stride. */

int64_t sa_advance(
    int64_t steps, const int64_t *nodes, const double *unifs, const double *noise,
    int64_t n, int8_t *x, int64_t *u, int64_t *cyc, int8_t *best_x,
    const int64_t *indptr, const int64_t *indices, const int64_t *wts,
    double *hrs, const double *offs, const double *targets,
    const double *par, int64_t *io, int64_t *trace)
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
    int64_t k;

    for (k = 0; k < steps; k++) {
        const int64_t i = nodes[k];
        const int64_t u_i = u[i];
        double p;

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
            p = 0.5 * (1.0 + erf((log_tpw - mu) * sqrt1_2 / sg));
        }

        const int8_t new = unifs[k] < p ? 1 : 0;
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
        if (t % stride == 0)
            trace[n_trace++] = energy;
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
