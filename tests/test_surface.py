import numpy as np
import pytest

import stochanneal.surface as surface_mod
from stochanneal.device import calibrate
from stochanneal.errors import (
    DegenerateDesign,
    InvalidParameter,
    NonMonotone,
    NonPositiveTime,
    OutOfDomain,
    Unattainable,
)
from stochanneal.surface import (
    DeviceSurface,
    fit_surface,
    load_params,
    params_from_dict,
    params_to_dict,
    poly6,
    save_params,
)


def make_surface(mu, sigma=(0.3, 0, 0, 0, 0, 0), floor=0.05):
    return DeviceSurface(
        mu_coeffs=mu,
        sigma_coeffs=sigma,
        v_range=(1.6, 2.2),
        r_range=(10.0, 500.0),
        sigma_floor=floor,
    )


class TestEvalMu:
    def test_constant_surface(self):
        s = make_surface((-5, 0, 0, 0, 0, 0))
        assert s.eval_mu(1.8, 100.0) == -5.0
        assert s.eval_mu(2.2, 10.0) == -5.0

    def test_reference_increases_with_hrs(self, ref_surface):
        assert ref_surface.eval_mu(1.8, 100.0) > ref_surface.eval_mu(1.8, 40.0)

    def test_reference_decreases_with_voltage(self, ref_surface):
        assert ref_surface.eval_mu(1.6, 40.0) > ref_surface.eval_mu(2.2, 40.0)

    @pytest.mark.parametrize("v,r", [(1.5, 100), (2.3, 100), (1.8, 5), (1.8, 600)])
    def test_out_of_domain(self, ref_surface, v, r):
        with pytest.raises(OutOfDomain):
            ref_surface.eval_mu(v, r)


class TestEvalSigma:
    def test_constant(self):
        s = make_surface((-5, 0, 0, 0, 0, 0), sigma=(0.3, 0, 0, 0, 0, 0))
        assert s.eval_sigma(1.9, 250.0) == 0.3

    def test_floor_clamp(self):
        s = make_surface((-5, 0, 0, 0, 0, 0), sigma=(-0.2, 0, 0, 0, 0, 0), floor=0.05)
        assert s.eval_sigma(1.8, 100.0) == 0.05

    def test_reference_range_within_documented_window(self, ref_surface):
        lo, hi = ref_surface.sigma_grid_range()
        assert 0.1 <= lo and hi <= 0.7

    def test_out_of_domain(self, ref_surface):
        with pytest.raises(OutOfDomain):
            ref_surface.eval_sigma(1.0, 100.0)


class TestCenterPulseWidth:
    def test_constant_surface(self):
        s = make_surface((-5, 0, 0, 0, 0, 0))
        assert s.center_pulse_width(1.8, 100.0) == pytest.approx(1e-5, rel=1e-12)

    def test_matches_eval_mu(self, ref_surface):
        t_pw = ref_surface.center_pulse_width(1.8, 40.0)
        assert t_pw == pytest.approx(10.0 ** ref_surface.eval_mu(1.8, 40.0), rel=1e-12)


class TestHrsForMu:
    def test_linear_root(self):
        # mu(v, r) = -7 + 0.02 r: target -5 sits at exactly 100 kOhm
        s = make_surface((-7.0, 0, 0.02, 0, 0, 0))
        r = s.hrs_for_mu(-5.0, 1.8)
        assert abs(s.eval_mu(1.8, r) + 5.0) <= 1e-6
        assert r == pytest.approx(100.0, abs=1e-4)

    def test_unattainable_below_range(self):
        s = make_surface((-7.0, 0, 0.02, 0, 0, 0))
        with pytest.raises(Unattainable):
            s.hrs_for_mu(-8.0, 1.8)

    def test_non_monotone_rejected(self):
        # d(mu)/dr = 0.02 - 2e-4 r flips sign inside [10, 500]
        s = make_surface((-7.0, 0, 0.02, 0, -1e-4, 0))
        with pytest.raises(NonMonotone):
            s.hrs_for_mu(-5.0, 1.8)


def loop_hrs_for_mu(surface, mu_target, v_ref, tol=1e-6):
    """The scalar bisection `hrs_for_mu` ran before it took arrays; None if
    the target is unattainable."""
    r_lo, r_hi = surface.r_range
    f_lo = poly6(surface.mu_coeffs, v_ref, r_lo) - mu_target
    f_hi = poly6(surface.mu_coeffs, v_ref, r_hi) - mu_target
    if f_lo == 0.0:
        return r_lo
    if f_hi == 0.0:
        return r_hi
    if f_lo * f_hi > 0:
        return None
    lo, hi = r_lo, r_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = poly6(surface.mu_coeffs, v_ref, mid) - mu_target
        if abs(f_mid) <= tol:
            return mid
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


class TestHrsForMuArray:
    """Array targets against scalar calls and the old scalar loop, by float.hex."""

    V = 1.8

    def scalar_or_none(self, surface, target):
        # the old loop at the tolerance hrs_for_mu reads as it runs
        old = loop_hrs_for_mu(surface, float(target), self.V, tol=surface_mod.HRS_SOLVE_TOL)
        try:
            new = surface.hrs_for_mu(float(target), self.V)
        except Unattainable:
            assert old is None
            return None
        assert type(new) is float and new.hex() == old.hex()
        return new

    def check(self, surface, targets):
        got = surface.hrs_for_mu(np.asarray(targets), self.V)
        assert got.shape == np.shape(targets) and got.dtype == np.float64
        for t, r in zip(targets, got.tolist()):
            want = self.scalar_or_none(surface, t)
            if want is None:
                assert np.isnan(r), t
            else:
                assert type(want) is float and r.hex() == want.hex(), t
        return got

    def test_matches_scalar_over_window_and_beyond(self, ref_surface):
        lo_mu, hi_mu = (float(ref_surface.eval_mu(self.V, r)) for r in ref_surface.r_range)
        targets = np.linspace(lo_mu - 1.0, hi_mu + 1.0, 301)
        got = self.check(ref_surface, targets)
        inside = (targets > lo_mu) & (targets < hi_mu)
        assert np.isnan(got[~inside]).all() and not np.isnan(got[inside]).any()

    def test_targets_on_window_ends(self, ref_surface):
        r_lo, r_hi = ref_surface.r_range
        ends = [float(poly6(ref_surface.mu_coeffs, self.V, r)) for r in (r_lo, r_hi)]
        got = self.check(ref_surface, ends + [-5.0])
        assert got[0] == r_lo and got[1] == r_hi

    def test_zero_tolerance(self, ref_surface, monkeypatch):
        # on this surface tol=0 still stops early: near the root, mu moves by
        # less than one ulp per ulp of r, so f_mid reaches exactly 0
        monkeypatch.setattr(surface_mod, "HRS_SOLVE_TOL", 0.0)
        self.check(ref_surface, [-5.0, -4.3, -5.7, -5.123456789])

    def test_zero_tolerance_runs_all_steps(self, monkeypatch):
        # mu = r - 105 is steep enough in r that these roots are never hit exactly
        steep = make_surface((-105.0, 0, 1.0, 0, 0, 0))
        calls = []

        def counted(coeffs, v, r):
            calls.append(np.size(r))
            return poly6(coeffs, v, r)

        monkeypatch.setattr(surface_mod, "poly6", counted)
        monkeypatch.setattr(surface_mod, "HRS_SOLVE_TOL", 0.0)
        targets = [-4.3, -5.7, -5.123456789, 3.3]
        self.check(steep, targets)
        # the array call: 2 end points and 200 steps; then 202 per scalar call
        assert calls == [1, 1] + [4] * 200 + [1] * 202 * 4

    def test_scalar_in_scalar_out(self, ref_surface):
        r = ref_surface.hrs_for_mu(-5.0, self.V)
        assert type(r) is float
        assert ref_surface.hrs_for_mu(np.float64(-5.0), self.V) == r
        with pytest.raises(Unattainable):
            ref_surface.hrs_for_mu(-20.0, self.V)

    def test_array_of_unattainable_targets(self, ref_surface):
        got = ref_surface.hrs_for_mu(np.array([-20.0, 20.0]), self.V)
        assert np.isnan(got).all()
        assert ref_surface.hrs_for_mu(np.empty(0), self.V).shape == (0,)

    def test_non_finite_targets_are_unattainable(self, ref_surface):
        for target in (np.nan, np.inf, -np.inf):
            with pytest.raises(Unattainable):
                ref_surface.hrs_for_mu(target, self.V)
        got = ref_surface.hrs_for_mu(np.array([np.nan, -5.0, np.inf, -np.inf]), self.V)
        assert np.isnan(got[[0, 2, 3]]).all()
        assert got[1] == ref_surface.hrs_for_mu(-5.0, self.V)
        # so calibration marks a device with a NaN target as missed
        cal = calibrate(ref_surface, np.array([np.nan, -5.0]), self.V, 0.01,
                        np.random.default_rng(0))
        assert cal.missed.tolist() == [True, False]

    def test_non_monotone_array_rejected(self):
        s = make_surface((-7.0, 0, 0.02, 0, -1e-4, 0))
        with pytest.raises(NonMonotone):
            s.hrs_for_mu(np.array([-5.0, -6.0]), 1.8)


class TestMonotonicityAudit:
    def test_reference_surface_grid(self, ref_surface):
        assert ref_surface.mu_monotone_on_grid()

    def test_violating_surface_detected(self):
        s = make_surface((-7.0, 0, 0.02, 0, -1e-4, 0))
        assert not s.mu_monotone_on_grid()


def synthetic_samples(mu_coeffs, n_grid=12, repeats=70, noise=0.0, seed=0,
                      v_span=(1.0, 3.0), r_span=(10.0, 500.0)):
    """Synthetic measurement campaign over a wide sweep.

    The deliberately wide voltage span keeps every raw coefficient's
    least-squares standard error far below 5% of its value, so per-
    coefficient recovery assertions test the fit machinery, not luck.
    """
    rng = np.random.default_rng(seed)
    vs = np.linspace(*v_span, n_grid)
    rs = np.linspace(*r_span, n_grid)
    vv, rr = np.meshgrid(vs, rs)
    v = np.repeat(vv.ravel(), repeats)
    r = np.repeat(rr.ravel(), repeats)
    y = poly6(mu_coeffs, v, r)
    if noise > 0:
        y = y + noise * rng.standard_normal(v.size)
    return np.column_stack([v, r, 10.0**y])


class TestFitSurface:
    TRUE = (3.35, -7.5, 0.012, 1.25, -2.0e-5, 6.0e-3)

    def test_noiseless_round_trip(self):
        samples = synthetic_samples(self.TRUE, repeats=2)
        surf, r2 = fit_surface(samples)
        for got, want in zip(surf.mu_coeffs, self.TRUE):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_noisy_recovery_within_5pct(self):
        samples = synthetic_samples(self.TRUE, repeats=70, noise=0.3, seed=4)
        surf, r2 = fit_surface(samples)
        for got, want in zip(surf.mu_coeffs, self.TRUE):
            assert got == pytest.approx(want, rel=0.05)
        assert r2 >= 0.85

    def test_sigma_fit_recovers_level(self):
        samples = synthetic_samples(self.TRUE, repeats=70, noise=0.3, seed=4)
        surf, _ = fit_surface(samples)
        mid = surf.eval_sigma(2.0, 255.0)
        assert mid == pytest.approx(0.3, rel=0.1)

    def test_under_determined(self):
        samples = synthetic_samples(self.TRUE)[:11]
        with pytest.raises(DegenerateDesign):
            fit_surface(samples)

    def test_too_few_distinct_levels(self):
        v = np.full(40, 1.8)
        r = np.linspace(10, 500, 40)
        t = 10.0 ** poly6(self.TRUE, v, r)
        with pytest.raises(DegenerateDesign):
            fit_surface(np.column_stack([v, r, t]))

    def test_fit_domain_tracks_data(self):
        samples = synthetic_samples(self.TRUE, repeats=2)
        surf, _ = fit_surface(samples)
        assert surf.v_range == (1.0, 3.0)
        assert surf.r_range == (10.0, 500.0)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, column, value):
        samples = synthetic_samples(self.TRUE, repeats=2)
        samples[7, column] = value
        with pytest.raises(InvalidParameter, match="sample 7 is"):
            fit_surface(samples)

    def test_non_positive_time(self):
        samples = synthetic_samples(self.TRUE, repeats=2)
        samples[5, 2] = 0.0
        with pytest.raises(NonPositiveTime):
            fit_surface(samples)


def test_params_round_trip(tmp_path, ref_surface, ref_drift):
    path = tmp_path / "params.json"
    save_params(path, ref_surface, ref_drift)
    surf, drift = load_params(path)
    assert surf == ref_surface
    assert drift == ref_drift


def test_invalid_construction():
    with pytest.raises(ValueError):
        DeviceSurface((-5, 0, 0, 0, 0), (0.3, 0, 0, 0, 0, 0), (1.6, 2.2), (10, 500))
    with pytest.raises(ValueError):
        make_surface((-5, 0, 0, 0, 0, 0), floor=0.0)
    with pytest.raises(ValueError):
        DeviceSurface((-5, 0, 0, 0, 0, 0), (0.3, 0, 0, 0, 0, 0), (2.2, 1.6), (10, 500))


@pytest.mark.parametrize("field, value", [
    ("mu_coeffs", (np.nan, 0, 0, 0, 0, 0)), ("sigma_coeffs", (0.3, np.inf, 0, 0, 0, 0)),
    ("v_range", (1.6, np.inf)), ("r_range", (np.nan, 500.0)), ("sigma_floor", np.inf),
    ("sigma_floor", np.nan), ("mu_coeffs", (-5, 0, 0, 0, 0)), ("v_range", (1.6, 2.2, 3.0)),
    ("mu_coeffs", "abcdef"), ("sigma_floor", "a"),
])
def test_invalid_field_is_invalid_parameter(ref_surface, field, value):
    with pytest.raises(InvalidParameter, match=field):
        DeviceSurface.from_dict({**ref_surface.to_dict(), field: value})


@pytest.mark.parametrize("field", ["mu_coeffs", "sigma_coeffs", "v_range", "r_range"])
def test_params_file_missing_field_named(ref_surface, ref_drift, field):
    d = params_to_dict(ref_surface, ref_drift)
    del d[field]
    with pytest.raises(InvalidParameter, match=f"lacks {field}"):
        params_from_dict(d)
