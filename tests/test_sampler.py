import ctypes
import dataclasses
import hashlib
import logging
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stochanneal.device import DriftModel, field_to_voltage, mu_sigma, p_switch
from stochanneal.errors import InvalidParameter, MissingBestKnown, Unattainable
from stochanneal.experiments import moving_average, settling_energy_of
from stochanneal.io_ingest import generate_instance
from stochanneal import sampler
from stochanneal.maxcut import MaxCutInstance
from stochanneal.sampler import (
    BoltzmannConfig,
    RunTrace,
    ensemble,
    make_state,
    run,
    step,
)
from stochanneal.surface import DeviceSurface


def to_voltage(cfg, u, u_scale):
    """The sampler's field-to-voltage map under cfg's window and gain."""
    return field_to_voltage(u, cfg.v_center, cfg.v_min, cfg.v_max, cfg.gain, 1.0 / u_scale)


class TestMapFieldToVoltage:
    def test_zero_field_is_center(self):
        assert to_voltage(BoltzmannConfig(), 0, 4.0) == 1.8

    def test_clamps_at_window(self):
        cfg = BoltzmannConfig()
        assert to_voltage(cfg, 10**9, 4.0) == 2.2
        assert to_voltage(cfg, -10**9, 4.0) == 1.6

    def test_arithmetic(self):
        assert to_voltage(BoltzmannConfig(gain=0.2), 5, 10.0) == pytest.approx(1.9, abs=1e-12)

    def test_monotone(self):
        cfg = BoltzmannConfig()
        vs = [to_voltage(cfg, u, 8.0) for u in range(-50, 51)]
        assert all(b >= a for a, b in zip(vs, vs[1:]))

    def test_u_scale_must_be_positive(self, ref_surface):
        # with every field 0 the 95th percentile of |u| is 0; the scale falls back to 1
        state = make_state(MaxCutInstance(n=3, edges=()), BoltzmannConfig(), ref_surface)
        assert state.u.tolist() == [0, 0, 0]
        assert state.u_scale == 1.0 and state.params.inv_uscale == 1.0


class TestStep:
    def test_certain_switch_when_pulse_huge(self, k3, flat_surface):
        cfg = BoltzmannConfig(t_pw=1e20, nominal_hrs=100.0, max_iters=10, seed=1)
        state = make_state(k3, cfg, flat_surface)
        for _ in range(30):
            step(state)
        assert state.x.tolist() == [1, 1, 1]

    def test_thresholded_first_step_on_k3(self, k3, steep_surface):
        # near-zero sigma turns the neuron into a threshold unit; from the
        # all-zeros state every field is +2 so the first touched node must set
        cfg = BoltzmannConfig(t_pw=1e-5, nominal_hrs=100.0, max_iters=1, seed=0)
        for seed in range(20):
            state = make_state(k3, BoltzmannConfig(t_pw=1e-5, nominal_hrs=100.0,
                                                   max_iters=1, seed=seed), steep_surface)
            state.x[:] = 0
            state.u[:] = 2
            state.energy = 0
            step(state)
            assert state.x.sum() == 1

    def test_empirical_frequency_matches_p_switch(self, ref_surface, ref_drift):
        # single isolated node: u = 0 always, so every step is an independent
        # Bernoulli draw at v_center with the configured pulse width
        inst = MaxCutInstance(n=1, edges=())
        nominal = ref_surface.hrs_for_mu(-5.0, 1.8)
        mu, sg = mu_sigma(1.8, nominal, 0.0, ref_surface.mu_coeffs, ref_surface.sigma_coeffs,
                          ref_surface.sigma_floor)
        t_pw = 10.0 ** (mu - 0.25)
        cfg = BoltzmannConfig(t_pw=t_pw, max_iters=1, seed=3, drift=ref_drift)
        state = make_state(inst, cfg, ref_surface)
        hits = 0
        trials = 100_000
        for _ in range(trials):
            step(state)
            hits += int(state.x[0])
        assert hits / trials == pytest.approx(p_switch(math.log10(t_pw), mu, sg), abs=0.01)

    def test_one_cycle_per_step(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=500, seed=9, drift=ref_drift)
        state = make_state(k3, cfg, ref_surface)
        for _ in range(500):
            step(state)
        assert int(state.cyc.sum()) == 500


class TestRun:
    @pytest.mark.parametrize("kernel", ["c", "python"])
    def test_early_stop_returns_a_trimmed_copy(self, kernel, k3, ref_surface, monkeypatch):
        if kernel == "python":
            monkeypatch.setattr(sampler, "load_kernel", lambda: None)
        else:
            _kernel_or_skip()
        cfg = BoltzmannConfig(max_iters=100_000, seed=1, stop_on_convergence=True)
        # converged before the first iteration: the run still makes one
        first = run(replace(k3, best_known=0), cfg, ref_surface)
        assert (first.converged_at, first.iterations, first.energies.size) == (0, 1, 1)
        late = run(k3, cfg, ref_surface)
        assert 0 < late.iterations < 100_000 and late.energies.size == late.iterations
        for trace in (first, late):
            # not a view that would pin the buffer sized for max_iters
            assert trace.kernel == kernel and trace.energies.base is None

    def test_bit_identical_reruns(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=2000, seed=11, drift=ref_drift)
        a = run(k3, cfg, ref_surface)
        b = run(k3, cfg, ref_surface)
        assert np.array_equal(a.energies, b.energies)
        assert a.best_cut == b.best_cut
        assert np.array_equal(a.best_x, b.best_x)
        assert a.converged_at == b.converged_at

    def test_k3_reaches_optimum_across_100_seeds(self, k3, ref_surface, ref_drift):
        hits = 0
        for seed in range(100):
            cfg = BoltzmannConfig(max_iters=1000, seed=seed, drift=ref_drift,
                                  stop_on_convergence=True,
                                  convergence_fraction=1.0)
            hits += run(k3, cfg, ref_surface).best_cut == 2
        assert hits >= 100 * 0.999

    def test_125_node_convergence_order_of_magnitude(self, ref_surface, ref_drift):
        from dataclasses import replace as dreplace

        from stochanneal.experiments import proxy_best_known

        inst = generate_instance(125, 4.0, seed=125)
        cfg = BoltzmannConfig(max_iters=10**5, runs=5, seed=12, drift=ref_drift)
        inst = dreplace(inst, best_known=proxy_best_known(inst, cfg, ref_surface))
        traces, summary = ensemble(
            inst, dreplace(cfg, stop_on_convergence=True), ref_surface
        )
        assert summary.converged_count == 5
        assert 1e3 <= summary.converged_median <= 1e5

    def test_cycles_sum_to_iterations(self, ref_surface, ref_drift):
        inst = generate_instance(30, 3.0, seed=2)
        cfg = BoltzmannConfig(max_iters=5000, seed=4, drift=ref_drift)
        trace = run(inst, cfg, ref_surface)
        assert int(trace.cycles_per_device.sum()) == trace.iterations == 5000

    def test_ideal_never_touches_hrs(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=6)
        cfg = BoltzmannConfig(max_iters=3000, seed=5, scheme="ideal", drift=ref_drift)
        state = make_state(inst, cfg, ref_surface)
        initial = state.hrs.copy()
        for _ in range(3000):
            step(state)
        assert np.array_equal(state.hrs, initial)

    def test_monitored_and_fixed_mutate_hrs(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=6)
        for scheme in ("fixed-input", "monitored"):
            cfg = BoltzmannConfig(max_iters=200, seed=5, scheme=scheme, drift=ref_drift)
            state = make_state(inst, cfg, ref_surface)
            initial = state.hrs.copy()
            for _ in range(200):
                step(state)
            assert not np.array_equal(state.hrs, initial)

    def test_best_cut_is_max_visited(self, ref_surface, ref_drift, k3):
        cfg = BoltzmannConfig(max_iters=500, seed=21, drift=ref_drift)
        trace = run(k3, cfg, ref_surface)
        # energies are recorded each iteration on small instances
        assert trace.best_cut >= int(-trace.energies.min())

    def test_converged_at_semantics(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=2000, seed=13, drift=ref_drift)
        trace = run(k3, cfg, ref_surface)
        assert trace.converged_at is not None
        # cut at the recorded index must be at/over the threshold
        threshold = 0.9 * k3.best_known
        if trace.converged_at > 0:
            assert -trace.energies[trace.converged_at - 1] >= threshold

    def test_stop_on_convergence(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=100000, seed=17, drift=ref_drift,
                              stop_on_convergence=True)
        trace = run(k3, cfg, ref_surface)
        assert trace.iterations <= 100000
        assert trace.converged_at is not None
        assert trace.iterations == max(trace.converged_at, 1)

    def test_stop_without_best_known_raises(self, ref_surface, ref_drift):
        inst = generate_instance(10, 3.0, seed=1)
        cfg = BoltzmannConfig(max_iters=10, stop_on_convergence=True, drift=ref_drift)
        with pytest.raises(MissingBestKnown):
            run(inst, cfg, ref_surface)

    def test_energy_stride_large_instances(self, ref_surface, ref_drift):
        inst = generate_instance(600, 3.0, seed=8)
        cfg = BoltzmannConfig(max_iters=3000, seed=3, drift=ref_drift)
        trace = run(inst, cfg, ref_surface)
        assert trace.stride == 600
        assert trace.energies.size == 3000 // 600

    def test_d2d_offsets_spread(self, ref_surface, ref_drift):
        inst = generate_instance(400, 3.0, seed=9)
        cfg = BoltzmannConfig(max_iters=1, seed=1, d2d_cv=0.2, drift=ref_drift)
        trace = run(inst, cfg, ref_surface)
        # std of offsets ~ cv * |mu_target| = 1.0 decade
        assert trace.mu_eff_spread == pytest.approx(1.0, rel=0.2)

    def test_calibration_shrinks_spread(self, ref_surface, ref_drift):
        inst = generate_instance(400, 3.0, seed=9)
        base = dict(max_iters=1, seed=1, d2d_cv=0.2, drift=ref_drift)
        uncal = run(inst, BoltzmannConfig(**base), ref_surface)
        cal = run(inst, BoltzmannConfig(**base, calibrate=True), ref_surface)
        assert cal.mu_eff_spread * 5 <= uncal.mu_eff_spread
        assert cal.calib_failures > 0  # 1-decade offsets overflow the window

    def test_calibration_failures_logged_not_warned(self, ref_surface, ref_drift, caplog):
        inst = generate_instance(400, 3.0, seed=9)
        cfg = BoltzmannConfig(max_iters=1, seed=1, d2d_cv=0.2, drift=ref_drift, calibrate=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level(logging.INFO, logger="stochanneal.sampler"):
                trace = run(inst, cfg, ref_surface)
        lines = [r.getMessage() for r in caplog.records if "tunable window" in r.getMessage()]
        assert lines == [f"{trace.calib_failures}/400 devices have offsets outside the "
                         "tunable window; parked at the nearest HRS bound and excluded from "
                         "the calibrated-spread statistic"]

    @pytest.mark.parametrize("mu_target,cv,precision", [
        (-5.0, 0.1, 0.2), (-5.0, 0.3, 0.2), (-5.0, 0.2, 0.9), (-5.0, 0.0, 0.2),
        (-20.0, 0.01, 0.2),  # no device can calibrate: the spread covers them all
    ])
    def test_calibration_equals_per_device_loop(self, ref_surface, ref_drift, mu_target, cv,
                                                precision):
        inst = generate_instance(300, 3.0, seed=4)
        cfg = BoltzmannConfig(seed=8, d2d_cv=cv, drift=ref_drift, calibrate=True,
                              mu_target=mu_target, calibration_precision=precision)
        for run_index in range(3):
            st = make_state(inst, cfg, ref_surface, run_index)
            want = _loop_calibration(inst.n, cfg, ref_surface, run_index)
            got = (st.hrs, st.targets, st.offs, st.clamps, st.calib_failures, st.mu_eff_spread)
            for g, w in zip(got[:3], want[:3]):
                assert [float(v).hex() for v in g] == [float(v).hex() for v in w]
            assert repr(got[3:]) == repr(want[3:])
            assert st.hrs is not st.targets


def _loop_calibration(n, cfg, surface, run_index):
    """make_state's calibration as a per-device loop of scalar solves, as it was."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(run_index,)).spawn(5)
    offs = (np.random.default_rng(ss[1]).standard_normal(n)
            * (cfg.d2d_cv * abs(cfg.mu_target))).tolist() if cfg.d2d_cv > 0 else [0.0] * n
    jitter = np.random.default_rng(ss[2]).uniform(-cfg.calibration_precision,
                                                  cfg.calibration_precision, n)
    hrs, targets = [0.0] * n, [0.0] * n
    clamps = failures = 0
    calibrated_mu = []
    for i in range(n):
        want = cfg.mu_target - offs[i]
        try:
            r_star = surface.hrs_for_mu(want, cfg.v_center)
            ok = True
        except Unattainable:
            lo_mu = float(surface.eval_mu(cfg.v_center, surface.r_range[0]))
            hi_mu = float(surface.eval_mu(cfg.v_center, surface.r_range[1]))
            r_star = (surface.r_range[0] if abs(lo_mu - want) <= abs(hi_mu - want)
                      else surface.r_range[1])
            failures += 1
            ok = False
        realized = r_star * (1.0 + jitter[i])
        clamped = surface.clamp_hrs(realized)
        if clamped != realized:
            clamps += 1
        hrs[i] = targets[i] = clamped
        if ok:
            calibrated_mu.append(float(surface.eval_mu(cfg.v_center, clamped)) + offs[i])
    pop = calibrated_mu or [float(surface.eval_mu(cfg.v_center, hrs[i])) + offs[i]
                            for i in range(n)]
    spread = float(np.std(pop)) if len(pop) > 1 else 0.0
    return hrs, targets, offs, clamps, failures, spread


class TestEnsemble:
    def test_single_run_summary_matches_trace(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=500, runs=1, seed=3, drift=ref_drift)
        traces, summary = ensemble(k3, cfg, ref_surface)
        assert summary.runs == 1
        assert summary.best_cut_median == traces[0].best_cut
        assert summary.converged_median == traces[0].converged_at

    def test_same_seed_identical_summaries(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=500, runs=4, seed=3, drift=ref_drift)
        _, s1 = ensemble(k3, cfg, ref_surface)
        _, s2 = ensemble(k3, cfg, ref_surface)
        assert s1 == s2

    def test_inter_run_spread_nonzero(self, ref_surface, ref_drift):
        inst = generate_instance(40, 4.0, seed=20)
        cfg = BoltzmannConfig(max_iters=300, runs=25, seed=3, drift=ref_drift)
        traces, summary = ensemble(inst, cfg, ref_surface)
        cuts = {t.best_cut for t in traces}
        assert len(cuts) > 1

    def test_nominal_hrs_solved_once(self, ref_surface, ref_drift, monkeypatch):
        calls = []
        solve = DeviceSurface.hrs_for_mu

        def counting(surface, *args, **kwargs):
            calls.append(args)
            return solve(surface, *args, **kwargs)

        monkeypatch.setattr(DeviceSurface, "hrs_for_mu", counting)
        sampler._nominal_hrs.cache_clear()
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=100, runs=10, seed=6, drift=ref_drift)
        traces, _ = ensemble(inst, cfg, ref_surface)
        assert len(traces) == 10 and len(calls) == 1

    def test_runs_validation(self, k3, ref_surface):
        with pytest.raises(ValueError):
            ensemble(k3, BoltzmannConfig(runs=0), ref_surface)

    def test_parallel_jobs_match_sequential(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=30)
        seq = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift, jobs=1)
        par = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift, jobs=2)
        t1, s1 = ensemble(inst, seq, ref_surface)
        t2, s2 = ensemble(inst, par, ref_surface)
        assert s1 == s2
        for a, b in zip(t1, t2):
            assert np.array_equal(a.energies, b.energies)


# strong enough drift that fixed-input runs clamp HRS at the window ends
_PINNED_DRIFT = DriftModel(m_hrs=6.0, s_rw=3.0)


def _grid_digest(scheme, activation, calibrated, surface):
    """sha256 over every output of four runs: two instances x stop flag."""
    instances = (
        replace(generate_instance(40, 4.0, seed=41), best_known=19),
        # non-unit weights widen the range of local fields a run visits
        replace(generate_instance(30, 4.0, weight_set=(-3, 2), seed=43), best_known=28),
    )
    h = hashlib.sha256()
    for inst in instances:
        for stop in (False, True):
            cfg = BoltzmannConfig(
                max_iters=4000, seed=5, drift=_PINNED_DRIFT, scheme=scheme,
                activation=activation, d2d_cv=0.1 if calibrated else 0.0,
                calibrate=calibrated, stop_on_convergence=stop,
            )
            t = run(inst, cfg, surface)
            h.update(t.energies.tobytes())
            h.update(t.best_x.tobytes())
            h.update(t.cycles_per_device.tobytes())
            h.update(repr((t.converged_at, t.clamp_events, t.iterations)).encode())
    return h.hexdigest()


# (scheme, activation, d2d_cv=0.1 with calibration) -> digest. Each pins a
# grid cell bit for bit, so any change to a draw, a switching decision or a
# counter shows. Change a digest only with a change meant to alter results.
_PINNED = {
    ("ideal", "device", False):
        "eb709af79152da98a3fe6ef0c365b5753e44e87db35a1ca427aa96b09a49c0e0",
    ("ideal", "device", True):
        "5b78ec14bf54465d1814e987f8ab91f4e2c323f0eeaf2d065847c61944ca4a71",
    ("ideal", "logistic", False):
        "b9f0fb64f9943071a5c328d72e6e43b08be9e02c00d47a50b146cad3863630e2",
    ("ideal", "logistic", True):
        "56ccdaa8ad0ce882c38551d4cd77fc79658343a19cbb108d8f32f27628b80e9c",
    ("fixed-input", "device", False):
        "1e9ce07b6dd1c231b26f798239b1864c0ec8960d228f4941054022b8ca2608d9",
    ("fixed-input", "device", True):
        "2e9d68a00ab895c3ebeb90d178e0e4acb3278dce709f193b4221b4018255c28d",
    ("fixed-input", "logistic", False):
        "98216ed7db6807eaa0d8183a6b429453b0179cf00f262da798f5fd2208b7cb62",
    ("fixed-input", "logistic", True):
        "3a7cefa0b5d927eecfbbd6df346cb9afa66892caa46ff482d491603c18008252",
    ("monitored", "device", False):
        "e07622cc48a3918e4d409fe5489aff241f3575ea32cc76535cdf7d7a98579678",
    ("monitored", "device", True):
        "d6147ff5c32fdc4f5f149721871822e480ae5dad36c0cff2dd38333c1a886e0d",
    ("monitored", "logistic", False):
        "b9f0fb64f9943071a5c328d72e6e43b08be9e02c00d47a50b146cad3863630e2",
    ("monitored", "logistic", True):
        "d93fbee391d9e9b094c50545bbe9339ff5871592b7019fa7165e6b00de9c34d8",
}


class TestBitIdentity:
    @pytest.mark.parametrize(
        "cell", list(_PINNED), ids=lambda c: f"{c[0]}-{c[1]}-{'d2d' if c[2] else 'nod2d'}"
    )
    def test_results_pinned(self, cell, ref_surface):
        assert _grid_digest(*cell, ref_surface) == _PINNED[cell]

    @pytest.mark.parametrize(
        "cell", list(_PINNED), ids=lambda c: f"{c[0]}-{c[1]}-{'d2d' if c[2] else 'nod2d'}"
    )
    def test_reference_pinned(self, cell, ref_surface, monkeypatch):
        monkeypatch.setattr(sampler, "load_kernel", lambda: None)
        assert _grid_digest(*cell, ref_surface) == _PINNED[cell]


def _kernel_or_skip():
    kernel = sampler.load_kernel()
    if kernel is None:
        pytest.skip("the compiled kernel did not load here (see the logged reason)")
    return kernel


def _assert_traces_equal(ref, fast):
    for f in dataclasses.fields(RunTrace):
        if f.name == "kernel":
            continue
        a, b = getattr(ref, f.name), getattr(fast, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert repr(a) == repr(b), f.name


_STATE_FIELDS = ("x", "u", "hrs", "targets", "offs", "cyc", "best_x", "energy", "best_energy",
                 "converged_at", "clamps", "t", "cursor", "params")


def _assert_int64_equal(a, b):
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == b.tolist()


def _assert_states_equal(ref, fast):
    for name in _STATE_FIELDS:
        a, b = getattr(ref, name), getattr(fast, name)
        assert type(a) is type(b), name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert [float(v).hex() for v in a] == [float(v).hex() for v in b], name
        else:
            assert repr(a) == repr(b), name


class TestKernel:
    """The compiled kernel against `_advance`, the reference it mirrors."""

    @pytest.mark.parametrize("calibrated", [False, True], ids=["nod2d", "d2d"])
    @pytest.mark.parametrize("activation", ["device", "logistic"])
    @pytest.mark.parametrize("scheme", ["ideal", "fixed-input", "monitored"])
    def test_every_run_field_matches_reference(self, scheme, activation, calibrated,
                                               ref_surface, monkeypatch):
        _kernel_or_skip()
        # 20k iterations cross two 8192-draw blocks; the first instance meets
        # its threshold (0.9 * 20, a whole number, so `>=` is tested at
        # equality) early, the second never does
        instances = (
            replace(generate_instance(40, 4.0, seed=41), best_known=20),
            replace(generate_instance(30, 4.0, weight_set=(-3, 2), seed=43), best_known=10**6),
        )
        for inst in instances:
            for stop in (False, True):
                for stride in (1, 7):
                    cfg = BoltzmannConfig(
                        max_iters=20_000, seed=5, drift=_PINNED_DRIFT, scheme=scheme,
                        activation=activation, d2d_cv=0.1 if calibrated else 0.0,
                        calibrate=calibrated, stop_on_convergence=stop,
                        energy_stride=stride,
                    )
                    fast = run(inst, cfg, ref_surface)
                    with monkeypatch.context() as m:
                        m.setattr(sampler, "load_kernel", lambda: None)
                        ref = run(inst, cfg, ref_surface)
                    assert (fast.kernel, ref.kernel) == ("c", "python")
                    _assert_traces_equal(ref, fast)

    @pytest.mark.parametrize("scheme", ["ideal", "fixed-input", "monitored"])
    def test_state_matches_reference_mid_block(self, scheme, ref_surface):
        kernel = _kernel_or_skip()
        inst = replace(generate_instance(30, 4.0, weight_set=(-3, 2), seed=43), best_known=28)
        # a gentle drift keeps HRS off the window ends, so its last bits stay
        # visible instead of being reset by a clamp
        cfg = BoltzmannConfig(seed=8, drift=DriftModel(m_hrs=0.01, s_rw=0.5), scheme=scheme,
                              d2d_cv=0.1, energy_stride=3)
        ref = make_state(inst, cfg, ref_surface)
        fast = make_state(inst, cfg, ref_surface)
        ref_trace, fast_trace = [], []
        for _ in range(100):
            ref_trace.append(sampler._advance(ref, 1))
            fast_trace.append(sampler._advance(fast, 1))
        ref_trace.append(sampler._advance(ref, 20_000))
        fast_trace.append(sampler._advance(fast, 20_000, kernel))
        _assert_states_equal(ref, fast)
        _assert_int64_equal(np.concatenate(ref_trace), np.concatenate(fast_trace))
        # the reference carries on from the state the kernel wrote back
        _assert_int64_equal(sampler._advance(ref, 5_000), sampler._advance(fast, 5_000))
        _assert_states_equal(ref, fast)

    def test_params_order_is_the_kernel_par_enum(self):
        source = sampler._KERNEL_SOURCE.read_text()
        body = source[source.index("enum {"):]
        names = re.findall(r"P_(\w+)", body[:body.index("}")])
        assert names == [f.upper() for f in sampler.Params._fields]

    def test_weight_beyond_53_bits_takes_reference_path(self, ref_surface, ref_drift,
                                                        monkeypatch):
        inst = MaxCutInstance(n=4, edges=((0, 1, 2**60), (1, 2, -1), (2, 3, 1)), best_known=1)
        assert not inst.form.fits_in_53_bits
        cfg = BoltzmannConfig(max_iters=3000, seed=2, drift=ref_drift, scheme="fixed-input")
        # the reference keeps exact Python ints for the local fields
        u = make_state(inst, cfg, ref_surface).u
        assert u.dtype == object and {type(v) for v in u} == {int}
        got = run(inst, cfg, ref_surface)
        monkeypatch.setattr(sampler, "load_kernel", lambda: None)
        ref = run(inst, cfg, ref_surface)
        assert got.kernel == ref.kernel == "python"
        _assert_traces_equal(ref, got)
        assert got.best_cut == 2**60 + 1

    def test_argtypes_match_the_kernel_signature(self):
        # a changed C signature must not load with stale argtypes
        source = sampler._KERNEL_SOURCE.read_text()
        head = source[source.index("int64_t sa_advance("):]
        params = [p.strip() for p in head[head.index("(") + 1:head.index(")")].split(",")]
        assert len(sampler._KERNEL_ARGTYPES) == len(params)
        for param, argtype in zip(params, sampler._KERNEL_ARGTYPES):
            if "*" in param:
                assert argtype is ctypes.c_void_p, param
            else:
                assert param.startswith("int64_t ") and argtype is ctypes.c_int64, param


# the two instances of the kernel tests; the second has weights -3 and 2
_TABLE_INSTANCES = (
    replace(generate_instance(40, 4.0, seed=41), best_known=20),
    replace(generate_instance(30, 4.0, weight_set=(-3, 2), seed=43), best_known=10**6),
)


class TestPSwitchTable:
    """The kernel's p_switch table: chosen only where p depends on u_i alone, and
    results equal with it, without it and under `_advance`."""

    @staticmethod
    def _three_ways(inst, cfg, surface, monkeypatch):
        """(table on, table off, reference) runs of one config; asserts the table ran."""
        _kernel_or_skip()
        chosen = []
        uses_table = sampler._uses_table

        def recording(state):
            chosen.append(uses_table(state))
            return chosen[-1]

        with monkeypatch.context() as m:
            m.setattr(sampler, "_uses_table", recording)
            on = run(inst, cfg, surface)
        assert chosen == [True]
        with monkeypatch.context() as m:
            m.setattr(sampler, "_uses_table", lambda s: False)
            off = run(inst, cfg, surface)
        with monkeypatch.context() as m:
            m.setattr(sampler, "load_kernel", lambda: None)
            ref = run(inst, cfg, surface)
        assert (on.kernel, off.kernel, ref.kernel) == ("c", "c", "python")
        return on, off, ref

    @pytest.mark.parametrize("inst", _TABLE_INSTANCES, ids=["unit", "weights-3,2"])
    @pytest.mark.parametrize("activation", ["device", "logistic"])
    def test_uniform_ideal_devices(self, inst, activation, ref_surface, monkeypatch):
        for stop in (False, True):
            cfg = BoltzmannConfig(max_iters=20_000, seed=5, activation=activation,
                                  stop_on_convergence=stop)
            on, off, ref = self._three_ways(inst, cfg, ref_surface, monkeypatch)
            _assert_traces_equal(ref, on)
            _assert_traces_equal(off, on)

    @pytest.mark.parametrize("scheme", ["fixed-input", "monitored"])
    def test_logistic_under_every_scheme(self, scheme, ref_surface, monkeypatch):
        cfg = BoltzmannConfig(max_iters=20_000, seed=5, activation="logistic", scheme=scheme,
                              drift=_PINNED_DRIFT, d2d_cv=0.1, calibrate=True)
        on, off, ref = self._three_ways(_TABLE_INSTANCES[1], cfg, ref_surface, monkeypatch)
        _assert_traces_equal(ref, on)
        _assert_traces_equal(off, on)

    @pytest.mark.parametrize("activation", ["device", "logistic"])
    def test_continued_mid_block(self, activation, ref_surface):
        # each kernel call starts a fresh table; the state it leaves must be
        # the reference's at every point of a run split across calls
        kernel = _kernel_or_skip()
        cfg = BoltzmannConfig(seed=8, activation=activation, energy_stride=3)
        ref = make_state(_TABLE_INSTANCES[1], cfg, ref_surface)
        fast = make_state(_TABLE_INSTANCES[1], cfg, ref_surface)
        assert sampler._uses_table(fast)
        ref_trace = [sampler._advance(ref, 100)]
        fast_trace = [sampler._advance(fast, 100, kernel)]
        for steps in (1, 5_000, 20_000):
            ref_trace.append(sampler._advance(ref, steps))
            fast_trace.append(sampler._advance(fast, steps, kernel))
            _assert_states_equal(ref, fast)
        assert 0 < fast.cursor < sampler._RNG_BLOCK
        _assert_int64_equal(np.concatenate(ref_trace), np.concatenate(fast_trace))

    def test_field_range_over_the_cap_runs_without_table(self, ref_surface, monkeypatch):
        _kernel_or_skip()
        inst = replace(generate_instance(30, 4.0, weight_set=(-9000, 7000), seed=43),
                       best_known=10**9)
        assert inst.form.fits_in_53_bits
        assert 2 * inst.form.field_bound + 1 > sampler._TABLE_CAP
        for activation in ("device", "logistic"):
            cfg = BoltzmannConfig(max_iters=20_000, seed=5, activation=activation)
            assert not sampler._uses_table(make_state(inst, cfg, ref_surface))
            fast = run(inst, cfg, ref_surface)
            with monkeypatch.context() as m:
                m.setattr(sampler, "load_kernel", lambda: None)
                ref = run(inst, cfg, ref_surface)
            assert (fast.kernel, ref.kernel) == ("c", "python")
            _assert_traces_equal(ref, fast)

    @pytest.mark.parametrize("settings,chosen", [
        (dict(), True),
        (dict(activation="logistic"), True),
        (dict(activation="logistic", scheme="monitored", d2d_cv=0.1, calibrate=True), True),
        (dict(scheme="fixed-input"), False),
        (dict(scheme="monitored"), False),
        (dict(d2d_cv=0.1), False),
        (dict(calibrate=True), False),
    ], ids=["ideal", "logistic", "logistic-monitored-d2d", "fixed-input", "monitored", "d2d",
            "calibrated"])
    def test_selection(self, settings, chosen, ref_surface, ref_drift):
        cfg = BoltzmannConfig(seed=3, drift=ref_drift, **settings)
        state = make_state(_TABLE_INSTANCES[0], cfg, ref_surface)
        assert sampler._uses_table(state) is chosen

    def test_selection_refuses_a_field_range_over_the_cap(self, ref_surface):
        # a single edge of weight w gives U = 3|w|; the cap is on 2U + 1 slots
        for w, chosen in ((10922, True), (10923, False)):
            inst = MaxCutInstance(n=2, edges=((0, 1, w),))
            assert inst.form.field_bound == 3 * w
            cfg = BoltzmannConfig(activation="logistic")
            assert sampler._uses_table(make_state(inst, cfg, ref_surface)) is chosen

    def test_table_is_what_the_kernel_reads(self, ref_surface, monkeypatch):
        # forced on for devices whose offsets differ, one cached p stands for
        # all of them and the run leaves the reference: the table is consulted
        _kernel_or_skip()
        cfg = BoltzmannConfig(max_iters=20_000, seed=5, d2d_cv=0.1)
        inst = _TABLE_INSTANCES[0]
        monkeypatch.setattr(sampler, "_uses_table", lambda s: True)
        forced = run(inst, cfg, ref_surface)
        monkeypatch.setattr(sampler, "load_kernel", lambda: None)
        ref = run(inst, cfg, ref_surface)
        assert not np.array_equal(forced.energies, ref.energies)


class TestKernelLoader:
    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sampler, "_kernel", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def test_compiles_into_private_cache(self, tmp_path):
        _kernel_or_skip()
        cache = tmp_path / "cache" / "stochanneal"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        built = sorted(os.listdir(cache))
        assert len(built) == 1 and built[0].startswith("_kernel-") and built[0].endswith(".so")
        sampler._kernel = None
        assert sampler.load_kernel() is not None
        assert sorted(os.listdir(cache)) == built

    def test_unsafe_cache_dir_uses_temp_dir(self, tmp_path, caplog):
        cache = tmp_path / "cache" / "stochanneal"
        cache.mkdir(parents=True)
        cache.chmod(0o755)
        with caplog.at_level(logging.WARNING, logger="stochanneal.sampler"):
            _kernel_or_skip()
        assert "not a directory of mode 0700" in caplog.text
        assert os.listdir(cache) == []

    def test_no_compiler_falls_back_and_logs_once(self, k3, ref_surface, ref_drift,
                                                  monkeypatch, caplog):
        monkeypatch.setattr(sampler.shutil, "which", lambda name: None)
        with caplog.at_level(logging.WARNING, logger="stochanneal.sampler"):
            assert sampler.load_kernel() is None
            trace = run(k3, BoltzmannConfig(max_iters=50, drift=ref_drift), ref_surface)
        assert trace.kernel == "python"
        assert [r.getMessage() for r in caplog.records] == [
            "compiled sampling kernel unavailable, using the Python loop: "
            "no C compiler `cc` on PATH"
        ]

    def test_compile_error_falls_back(self, tmp_path, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        bad = tmp_path / "_kernel.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(sampler, "_KERNEL_SOURCE", bad)
        with caplog.at_level(logging.WARNING, logger="stochanneal.sampler"):
            assert sampler.load_kernel() is None
        assert "exited with" in caplog.text
        assert os.listdir(tmp_path / "cache" / "stochanneal") == []

    def test_failed_self_check_falls_back(self, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        erf = math.erf
        monkeypatch.setattr(math, "erf", lambda z: erf(z) + 1e-12)
        with caplog.at_level(logging.WARNING, logger="stochanneal.sampler"):
            assert sampler.load_kernel() is None
        assert "self-check failed: C erf" in caplog.text


class TestGibbsConsistency:
    def test_logistic_activation_small_instance(self, ref_surface, ref_drift):
        # quick version of the acceptance check: 3-node chain, 2e5 sweeps
        inst = MaxCutInstance(n=3, edges=((0, 1, 1), (1, 2, -1)))
        from stochanneal.maxcut import build_form, energy

        form = build_form(inst)
        exact = np.array(
            [math.exp(-energy(form, [(c >> k) & 1 for k in range(3)])) for c in range(8)]
        )
        exact /= exact.sum()
        cfg = BoltzmannConfig(max_iters=1, seed=8, activation="logistic", drift=ref_drift)
        state = make_state(inst, cfg, ref_surface)
        counts = np.zeros(8)
        for _ in range(200_000):
            step(state)
            counts[state.x[0] | (state.x[1] << 1) | (state.x[2] << 2)] += 1
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.05


class TestMonotoneActivation:
    def test_switch_probability_nondecreasing_in_field(self, ref_surface):
        # composite map: u -> voltage -> P(x_i <- 1), any fixed device state
        rng = np.random.default_rng(55)
        cfg = BoltzmannConfig()
        nominal = ref_surface.hrs_for_mu(-5.0, 1.8)
        log_tpw = math.log10(ref_surface.center_pulse_width(1.8, nominal))
        coeffs = (ref_surface.mu_coeffs, ref_surface.sigma_coeffs, ref_surface.sigma_floor)
        checked = 0
        for _ in range(1000):
            hrs = float(rng.uniform(*ref_surface.r_range))
            off = float(rng.normal(0, 0.5))
            u_scale = float(rng.uniform(1.0, 20.0))
            u1, u2 = sorted(rng.uniform(-30, 30, 2))
            p1 = p_switch(log_tpw, *mu_sigma(to_voltage(cfg, u1, u_scale), hrs, off, *coeffs))
            p2 = p_switch(log_tpw, *mu_sigma(to_voltage(cfg, u2, u_scale), hrs, off, *coeffs))
            assert p2 >= p1 - 1e-12
            checked += 1
        assert checked == 1000


def _moving_average_by_index(series, window):
    """moving_average as first written: whole-length index arrays per end."""
    a = np.asarray(series, dtype=float)
    if window <= 1 or a.size == 0:
        return a.astype(float, copy=True)
    lo_span = (window - 1) // 2
    hi_span = window // 2
    csum = np.concatenate([[0.0], np.cumsum(a)])
    idx = np.arange(a.size)
    lo = np.maximum(idx - lo_span, 0)
    hi = np.minimum(idx + hi_span + 1, a.size)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _hex(a):
    return [float(v).hex() for v in a]


class TestMovingAverage:
    def test_same_floats_as_index_form(self):
        rng = np.random.default_rng(7)
        for n in range(301):
            series = (rng.integers(-10**6, 10**6, n) if n % 2 else rng.standard_normal(n) * 50)
            windows = {1, 2, 3, 4, n // 50, n // 3, n - 1, n, n + 1, n + 5,
                       int(rng.integers(1, n + 3))}
            for window in sorted(w for w in windows if w >= 1):
                got = moving_average(series, window)
                assert got.dtype == np.float64
                assert _hex(got) == _hex(_moving_average_by_index(series, window)), (n, window)

    def test_same_floats_on_a_stride_one_trace(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=20_000, seed=3, scheme="fixed-input", drift=ref_drift)
        trace = run(generate_instance(60, 4.0, seed=3), cfg, ref_surface)
        assert trace.stride == 1 and trace.energies.size == 20_000
        for window in (1, 2, 399, 400, 401, 19_999, 20_000, 30_000):
            assert (_hex(moving_average(trace.energies, window))
                    == _hex(_moving_average_by_index(trace.energies, window))), window
        smoothed = _moving_average_by_index(trace.energies, 20_000 // 50)
        assert settling_energy_of(trace.energies).hex() == float(smoothed.min()).hex()

    def test_window_one_is_identity(self):
        a = [3.0, 1.0, 2.0]
        assert moving_average(a, 1).tolist() == a

    def test_constant_series_unchanged(self):
        a = np.full(10, 4.0)
        assert np.allclose(moving_average(a, 5), 4.0)

    def test_centered_average_values(self):
        got = moving_average([0.0, 1.0, 2.0, 3.0], 3)
        assert got == pytest.approx([0.5, 1.0, 2.0, 2.5])


class TestLongRun:
    def test_ten_million_iterations_in_bounded_address_space(self):
        """A 10^7-iteration stride-1 run at n=200 in 512 MiB of address space.

        Its trace alone is 80 MB. Recording it in per-block chunks joined at
        the end, and smoothing it with whole-length index arrays, took the
        process to about 720 MiB; one preallocated trace and a slice-wise
        moving average keep it near 350 MiB.
        """
        resource = pytest.importorskip("resource")
        _kernel_or_skip()  # the Python loop would take minutes here
        limit = 512 * 1024 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = os.path.dirname(os.path.dirname(sampler.__file__))
        # BLAS thread buffers would count against the cap on many-core hosts
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        code = (
            "from stochanneal import experiments, io_ingest, reference, sampler\n"
            "surface, drift = reference.get_reference()\n"
            "inst = io_ingest.generate_instance(200, 4.0, seed=1)\n"
            "cfg = sampler.BoltzmannConfig(max_iters=10**7, seed=1, scheme='monitored',"
            " drift=drift)\n"
            "trace = sampler.run(inst, cfg, surface)\n"
            "settling = experiments.settling_energy_of(trace.energies)\n"
            "print(trace.kernel, trace.energies.size, settling.hex())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, preexec_fn=cap,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["c", "10000000", "-0x1.8b06d9be4cd75p+6"]


class TestConfigValidation:
    def test_voltage_ordering(self):
        with pytest.raises(ValueError):
            BoltzmannConfig(v_min=2.0, v_center=1.8)

    def test_gain_positive(self):
        with pytest.raises(ValueError):
            BoltzmannConfig(gain=0.0)

    @pytest.mark.parametrize("stride", [0, -1, 2 ** 53 + 1])
    def test_energy_stride_positive(self, stride):
        with pytest.raises(ValueError, match="energy_stride"):
            BoltzmannConfig(energy_stride=stride)

    @pytest.mark.parametrize("precision", [-0.01, 1.0, 1.5])
    def test_calibration_precision_in_unit_interval(self, precision):
        with pytest.raises(InvalidParameter, match="calibration_precision"):
            BoltzmannConfig(calibration_precision=precision)

    def test_voltage_window_inside_surface(self, ref_surface):
        cfg = BoltzmannConfig(v_min=1.0, v_center=1.8, v_max=2.2)
        with pytest.raises(ValueError):
            make_state(MaxCutInstance(n=2, edges=((0, 1, 1),)), cfg, ref_surface)
