import math

import numpy as np
import pytest
from scipy import stats

from stochanneal.device import (
    DriftModel,
    calibrate,
    mu_sigma,
    p_switch,
    reset_noise,
    reset_update,
    sample_tset,
    scheme_code,
)
from stochanneal.errors import InvalidParameter, NonPositivePulse, OutOfDomain
from stochanneal.experiments import cycling_stats
from stochanneal.maxcut import MaxCutInstance
from stochanneal.sampler import BoltzmannConfig, make_state, step
from stochanneal.surface import DeviceSurface

FIXED, MONITORED = scheme_code("fixed-input"), scheme_code("monitored")


def flat_surface(mu=-5.0, sigma=0.3, floor=0.05):
    return DeviceSurface(
        mu_coeffs=(mu, 0, 0, 0, 0, 0),
        sigma_coeffs=(sigma, 0, 0, 0, 0, 0),
        v_range=(1.6, 2.2),
        r_range=(10.0, 500.0),
        sigma_floor=floor,
    )


def moments(surface, v, hrs, offset=0.0):
    """(mu, sigma) of a device, as the sampling loop computes them."""
    return mu_sigma(v, hrs, offset, surface.mu_coeffs, surface.sigma_coeffs,
                    surface.sigma_floor)


def cycle(surface, scheme, hrs, drift, rng, cycles):
    """HRS after each of `cycles` Resets, drawn and updated as the sampler does."""
    code = scheme_code(scheme)
    noise = reset_noise(code, drift.hrs_tolerance, rng, cycles)
    target, seen, clamps = hrs, [], 0
    for z in [None] * cycles if noise is None else noise.tolist():
        hrs, clamped = reset_update(code, hrs, target, z, drift.m_hrs, drift.s_rw,
                                    *surface.r_range)
        seen.append(hrs)
        clamps += clamped
    return seen, clamps


class TestSampleTset:
    def test_degenerate_distribution(self, rng):
        t = sample_tset(*moments(flat_surface(sigma=0.0, floor=1e-9), 1.8, 100.0), rng)
        assert t == pytest.approx(1e-5, rel=1e-6)

    def test_log_moments_and_ks(self, rng):
        logs = np.log10(sample_tset(*moments(flat_surface(), 1.8, 100.0), rng, size=10_000))
        assert logs.mean() == pytest.approx(-5.0, abs=3 * 0.3 / 100)
        assert stats.kstest(logs, "norm", args=(-5.0, 0.3)).pvalue > 0.01

    def test_offset_shifts_median_one_decade(self, rng):
        m0 = np.median(sample_tset(*moments(flat_surface(), 1.8, 100.0, 0.0), rng, size=10_000))
        m1 = np.median(sample_tset(*moments(flat_surface(), 1.8, 100.0, 1.0), rng, size=10_000))
        assert m1 / m0 == pytest.approx(10.0, rel=0.2)

    def test_does_not_mutate_state(self, ref_surface):
        # the draws are the generator's only side effect: size normals, no more
        mu, sg = moments(ref_surface, 1.9, 80.0)
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        got = sample_tset(mu, sg, rng, size=100)
        assert np.array_equal(got, 10.0 ** (mu + sg * twin.standard_normal(100)))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_out_of_domain(self, ref_surface, ref_drift):
        # the device functions trust their inputs; the entry points check them
        with pytest.raises(OutOfDomain):
            cycling_stats(ref_surface, ref_drift, "ideal", 10, v_ref=2.5)


class TestPSwitch:
    def test_centered_pulse_gives_half(self):
        assert p_switch(math.log10(1e-5), *moments(flat_surface(), 1.8, 100.0)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_one_sigma_above(self):
        p = p_switch(-5.0 + 0.3, *moments(flat_surface(sigma=0.3), 1.8, 100.0))
        assert p == pytest.approx(stats.norm.cdf(1.0), abs=1e-12)
        assert p == pytest.approx(0.8413, abs=5e-5)

    def test_cdf_limits(self):
        mu, sg = moments(flat_surface(), 1.8, 100.0)
        assert p_switch(-30.0, mu, sg) < 1e-6
        assert p_switch(30.0, mu, sg) > 1 - 1e-6

    def test_non_positive_pulse(self):
        # the centred pulse 10**mu s underflows to 0 at mu = -400 and overflows at +400
        inst = MaxCutInstance(n=2, edges=((0, 1, 1),))
        for mu in (-400.0, 400.0):
            with pytest.raises(NonPositivePulse, match="must be a finite double > 0"):
                make_state(inst, BoltzmannConfig(), flat_surface(mu=mu))
        # every coefficient finite, but mu overflows to NaN at 1.8 V (inf - inf)
        nan_mu = DeviceSurface(mu_coeffs=(0.0, 1e308, 0.0, 1e308, 0.0, -1e308),
                               sigma_coeffs=(0.3, 0, 0, 0, 0, 0), v_range=(1.6, 2.2),
                               r_range=(10.0, 500.0))
        assert math.isnan(nan_mu.eval_mu(1.8, 100.0))
        with pytest.raises(NonPositivePulse):
            nan_mu.center_pulse_width(1.8, 100.0)
        assert flat_surface(mu=-300.0).center_pulse_width(1.8, 100.0) == 1e-300

    def test_monotone_cdf_in_pulse_width(self, ref_surface, rng):
        for _ in range(100):
            mu, sg = moments(ref_surface, rng.uniform(1.6, 2.2), rng.uniform(10, 500),
                             rng.normal(0, 0.5))
            ps = [p_switch(lt, mu, sg) for lt in np.linspace(-9, -1, 40)]
            assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_empirical_matches_analytic(self, ref_surface):
        rng = np.random.default_rng(77)
        mu, sg = moments(ref_surface, 1.9, 120.0)
        t_pw = 10.0 ** (mu + 0.4)
        frac = float(np.mean(sample_tset(mu, sg, rng, size=100_000) <= t_pw))
        assert frac == pytest.approx(p_switch(math.log10(t_pw), mu, sg), abs=0.01)


class TestApplyCycle:
    def test_ideal_leaves_hrs_bit_identical(self, ref_surface, rng):
        seen, clamps = cycle(ref_surface, "ideal", 123.456, DriftModel(m_hrs=2.0, s_rw=3.0),
                             rng, 1000)
        assert seen == [123.456] * 1000 and clamps == 0

    def test_fixed_slope_arithmetic(self, ref_surface, rng):
        seen, _ = cycle(ref_surface, "fixed-input", 40.0, DriftModel(m_hrs=0.01), rng, 100)
        assert seen[-1] == pytest.approx(41.0, rel=1e-12)

    def test_monitored_stays_in_tolerance_band(self, ref_surface):
        rng = np.random.default_rng(5)
        seen, _ = cycle(ref_surface, "monitored", 100.0, DriftModel(hrs_tolerance=0.1), rng,
                        10_000)
        arr = np.asarray(seen)
        assert np.all(arr >= 0.9 * 100.0) and np.all(arr <= 1.1 * 100.0)

    def test_monitored_mu_range_bounded_by_band(self, ref_surface):
        # stationarity: mu never leaves the image of the tolerance band
        rng = np.random.default_rng(6)
        seen, _ = cycle(ref_surface, "monitored", 100.0, DriftModel(hrs_tolerance=0.1), rng,
                        10_000)
        lo = ref_surface.eval_mu(1.8, 90.0)
        hi = ref_surface.eval_mu(1.8, 110.0)
        for hrs in seen:
            assert lo - 1e-12 <= moments(ref_surface, 1.8, hrs)[0] <= hi + 1e-12

    def test_fixed_with_slope_trends_upward(self, ref_surface, rng):
        seen, _ = cycle(ref_surface, "fixed-input", 50.0, DriftModel(m_hrs=1.0), rng, 100)
        mus = [moments(ref_surface, 1.8, hrs)[0] for hrs in [50.0] + seen]
        assert all(b > a for a, b in zip(mus, mus[1:]))

    def test_clamping_counted(self, ref_surface):
        assert reset_update(FIXED, 499.0, 499.0, 0.0, 10.0, 0.0, 10.0, 500.0) == (500.0, True)
        assert reset_update(MONITORED, 20.0, 9.0, 0.05, 0.0, 0.0, 10.0, 500.0) == (10.0, True)
        assert reset_update(FIXED, 100.0, 100.0, 0.0, 10.0, 0.0, 10.0, 500.0) == (110.0, False)

    def test_cycles_never_decrease(self, ref_surface, ref_drift):
        # the sampler cycles exactly the sampled device once per iteration
        inst = MaxCutInstance(n=3, edges=((0, 1, 1), (1, 2, 1)))
        state = make_state(inst, BoltzmannConfig(scheme="monitored", drift=ref_drift),
                           ref_surface)
        last = state.cyc.copy()
        for _ in range(50):
            step(state)
            grew = state.cyc - last
            assert grew.min() == 0 and grew.sum() == 1
            last = state.cyc.copy()


class TestCalibrate:
    def linear_surface(self):
        return DeviceSurface(
            mu_coeffs=(-7.0, 0, 0.02, 0, 0, 0),
            sigma_coeffs=(0.3, 0, 0, 0, 0, 0),
            v_range=(1.6, 2.2),
            r_range=(10.0, 500.0),
        )

    def test_linear_root(self, rng):
        cal = calibrate(self.linear_surface(), np.array([-5.0]), 1.8, 0.0, rng)
        assert cal.r_star[0] == pytest.approx(100.0, abs=1e-4)
        assert cal.hrs[0] == cal.r_star[0]
        assert not cal.missed[0] and cal.clamps == 0

    def test_offsets_centered_after_calibration(self):
        rng = np.random.default_rng(42)
        surface = self.linear_surface()
        offs = np.array([+0.2, -0.2])
        cal = calibrate(surface, -5.0 - offs, 1.8, 0.05, rng)
        mus = surface.eval_mu(1.8, cal.hrs) + offs
        # residual miss is the local slope times the realized HRS error
        slope = 0.02
        for mu, off in zip(mus, offs):
            r_star = ((-5.0 - off) + 7.0) / 0.02
            assert abs(mu + 5.0) <= slope * 0.05 * r_star + 1e-9
        assert abs(np.mean(mus) + 5.0) <= 0.1

    def test_unattainable(self, rng):
        # below the window's lowest mu: parked at the low end, flagged
        cal = calibrate(self.linear_surface(), np.array([-8.0, -5.0]), 1.8, 0.1, rng)
        assert cal.missed.tolist() == [True, False]
        assert cal.r_star[0] == 10.0

    @pytest.mark.parametrize("precision", [-0.1, 1.0, 1.5])
    def test_precision_outside_unit_interval(self, rng, precision):
        with pytest.raises(InvalidParameter, match="precision"):
            calibrate(self.linear_surface(), np.array([-5.0]), 1.8, precision, rng)


class TestDriftModelValidation:
    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            DriftModel(m_hrs=-1.0)

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            DriftModel(hrs_tolerance=0.0)
        with pytest.raises(ValueError):
            DriftModel(hrs_tolerance=1.0)

    @pytest.mark.parametrize("name", ["m_hrs", "s_rw", "hrs_tolerance"])
    def test_nan_rejected(self, name):
        with pytest.raises(InvalidParameter):
            DriftModel(**{name: math.nan})

    @pytest.mark.parametrize("name", ["m_hrs", "s_rw"])
    def test_infinite_rejected(self, name):
        with pytest.raises(InvalidParameter, match="finite"):
            DriftModel(**{name: math.inf})

    @pytest.mark.parametrize("drift", [{"m_hrs": "a"}, {"s_rw": None}, 3.0])
    def test_from_dict_rejects_what_is_not_a_number(self, drift):
        with pytest.raises(InvalidParameter, match="drift fields must be numbers"):
            DriftModel.from_dict(drift)


def test_switch_probability_free_function():
    assert p_switch(math.log10(1e-5), -5.0, 0.3) == pytest.approx(0.5, abs=1e-12)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        scheme_code("sometimes")
    with pytest.raises(ValueError):
        BoltzmannConfig(scheme="sometimes")
