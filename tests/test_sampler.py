import collections
import ctypes
import dataclasses
import hashlib
import logging
import math
import os
import pickle
import re
import shutil
import stat
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochanneal.device import (
    CALIBRATION_PRECISION,
    MU_TARGET,
    V_CENTER,
    V_MAX,
    V_MIN,
    DriftModel,
    calibrate,
    field_to_voltage,
    mu_sigma,
    p_switch,
    scheme_code,
)
from stochanneal.errors import InvalidParameter, MissingBestKnown, TooLarge, Unattainable
from stochanneal.experiments import moving_average, settling_energy_of
from stochanneal.io_ingest import generate_instance
from stochanneal import experiments, native, sampler
from stochanneal.maxcut import MaxCutInstance
from stochanneal.reference import get_reference
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
    """The sampler's field-to-voltage map under cfg's gain."""
    return field_to_voltage(u, V_CENTER, V_MIN, V_MAX, cfg.gain, 1.0 / u_scale)


def set_params(state, **fields):
    """Drive a built state away from the operating point: replace fields of its Params."""
    state.params = state.params._replace(**fields)
    return state


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
        assert state.params.inv_uscale == 1.0


class TestStep:
    def test_certain_switch_when_pulse_huge(self, k3, flat_surface):
        cfg = BoltzmannConfig(max_iters=10, seed=1)
        state = set_params(make_state(k3, cfg, flat_surface), log_tpw=20.0)
        for _ in range(30):
            step(state)
        assert state.x.tolist() == [1, 1, 1]

    def test_thresholded_first_step_on_k3(self, k3, steep_surface):
        # near-zero sigma turns the neuron into a threshold unit; from the
        # all-zeros state every field is +2 so the first touched node must set
        for seed in range(20):
            state = set_params(make_state(k3, BoltzmannConfig(max_iters=1, seed=seed),
                                          steep_surface), log_tpw=-5.0)
            state.x[:] = 0
            state.u[:] = 2
            state.energy = 0
            step(state)
            assert state.x.sum() == 1

    def test_empirical_frequency_matches_p_switch(self, ref_surface, ref_drift):
        # single isolated node: u = 0 always, so every step is an independent
        # Bernoulli draw at V_CENTER with a pulse a quarter decade short of centred
        inst = MaxCutInstance(n=1, edges=())
        nominal = ref_surface.hrs_for_mu(MU_TARGET, V_CENTER)
        mu, sg = mu_sigma(V_CENTER, nominal, 0.0, ref_surface.mu_coeffs,
                          ref_surface.sigma_coeffs, ref_surface.sigma_floor)
        log_tpw = mu - 0.25
        cfg = BoltzmannConfig(max_iters=1, seed=3, drift=ref_drift)
        state = set_params(make_state(inst, cfg, ref_surface), log_tpw=log_tpw)
        hits = 0
        trials = 100_000
        for _ in range(trials):
            step(state)
            hits += int(state.x[0])
        assert hits / trials == pytest.approx(p_switch(log_tpw, mu, sg), abs=0.01)

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
            # k3's cuts are 0 and 2, so 0.9 of its best-known cut is 2
            cfg = BoltzmannConfig(max_iters=1000, seed=seed, drift=ref_drift,
                                  stop_on_convergence=True)
            hits += run(k3, cfg, ref_surface).best_cut == 2
        assert hits >= 100 * 0.999

    def test_125_node_convergence_order_of_magnitude(self, ref_surface, ref_drift):
        from dataclasses import replace as dreplace

        from stochanneal.experiments import proxy_best_known

        inst = generate_instance(125, 4.0, seed=125)
        cfg = BoltzmannConfig(max_iters=10**5, runs=5, seed=12, drift=ref_drift)
        inst = dreplace(inst, best_known=proxy_best_known(inst, cfg, ref_surface))
        traces = ensemble(inst, dreplace(cfg, stop_on_convergence=True), ref_surface)
        converged = [t.converged_at for t in traces if t.converged_at is not None]
        assert len(converged) == 5
        assert 1e3 <= np.median(converged) <= 1e5

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
        # std of offsets ~ cv * |MU_TARGET| = 1.0 decade
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
        # device.calibrate, at any target and precision
        wants = mu_target - np.random.default_rng(8).standard_normal(300) * (cv * abs(mu_target))
        jitter = np.random.default_rng(9).uniform(-precision, precision, wants.size)
        cal = calibrate(ref_surface, wants, V_CENTER, precision, np.random.default_rng(9))
        hrs, missed, clamps = _loop_calibrate(ref_surface, wants.tolist(), jitter.tolist())
        assert _hex(cal.hrs) == _hex(hrs) and cal.missed.tolist() == missed
        assert cal.clamps == clamps
        if precision == CALIBRATION_PRECISION:
            # make_state's, on the surface shifted to put MU_TARGET where mu_target was
            c00, *rest = ref_surface.mu_coeffs
            surface = replace(ref_surface, mu_coeffs=(c00 + (MU_TARGET - mu_target), *rest))
            inst = generate_instance(300, 3.0, seed=4)
            cfg = BoltzmannConfig(seed=8, d2d_cv=cv, drift=ref_drift, calibrate=True)
            for run_index in range(3):
                st = make_state(inst, cfg, surface, run_index)
                want = _loop_calibration(inst.n, cfg, surface, run_index)
                got = (st.hrs, st.targets, st.offs, st.clamps, st.calib_failures,
                       st.mu_eff_spread)
                for g, w in zip(got[:3], want[:3]):
                    assert _hex(g) == _hex(w)
                assert repr(got[3:]) == repr(want[3:])
                assert st.hrs is not st.targets
                assert (st.calib_failures == inst.n) == (mu_target != MU_TARGET)


def _loop_calibrate(surface, wants, jitter):
    """device.calibrate at V_CENTER as a per-device loop of scalar solves:
    (written HRS, whether each target was missed, clamp count)."""
    hrs, missed, clamps = [], [], 0
    for want, e in zip(wants, jitter):
        try:
            r_star, miss = surface.hrs_for_mu(want, V_CENTER), False
        except Unattainable:
            lo_mu = float(surface.eval_mu(V_CENTER, surface.r_range[0]))
            hi_mu = float(surface.eval_mu(V_CENTER, surface.r_range[1]))
            r_star = (surface.r_range[0] if abs(lo_mu - want) <= abs(hi_mu - want)
                      else surface.r_range[1])
            miss = True
        realized = r_star * (1.0 + e)
        clamped = surface.clamp_hrs(realized)
        clamps += clamped != realized
        hrs.append(clamped)
        missed.append(miss)
    return hrs, missed, clamps


def _loop_calibration(n, cfg, surface, run_index):
    """make_state's calibration as a per-device loop of scalar solves, as it was."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(run_index,)).spawn(5)
    offs = (np.random.default_rng(ss[1]).standard_normal(n)
            * (cfg.d2d_cv * abs(MU_TARGET))).tolist() if cfg.d2d_cv > 0 else [0.0] * n
    jitter = np.random.default_rng(ss[2]).uniform(-CALIBRATION_PRECISION,
                                                  CALIBRATION_PRECISION, n).tolist()
    hrs, missed, clamps = _loop_calibrate(surface, [MU_TARGET - o for o in offs], jitter)
    mus = [float(surface.eval_mu(V_CENTER, h)) + o for h, o in zip(hrs, offs)]
    pop = [mu for mu, miss in zip(mus, missed) if not miss] or mus
    spread = float(np.std(pop)) if len(pop) > 1 else 0.0
    return hrs, list(hrs), offs, clamps, sum(missed), spread


def outcomes(traces):
    """What an ensemble summary read of each run."""
    return [(t.best_cut, t.converged_at) for t in traces]


class TestEnsemble:
    def test_single_run_summary_matches_trace(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=500, runs=1, seed=3, drift=ref_drift)
        (trace,) = ensemble(k3, cfg, ref_surface)
        alone = run(k3, cfg, ref_surface, run_index=0)
        assert trace.run_index == 0
        assert (trace.best_cut, trace.converged_at) == (alone.best_cut, alone.converged_at)

    def test_same_seed_identical_summaries(self, k3, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=500, runs=4, seed=3, drift=ref_drift)
        assert outcomes(ensemble(k3, cfg, ref_surface)) == \
            outcomes(ensemble(k3, cfg, ref_surface))

    def test_inter_run_spread_nonzero(self, ref_surface, ref_drift):
        inst = generate_instance(40, 4.0, seed=20)
        cfg = BoltzmannConfig(max_iters=300, runs=25, seed=3, drift=ref_drift)
        traces = ensemble(inst, cfg, ref_surface)
        cuts = {t.best_cut for t in traces}
        assert len(cuts) > 1

    def test_nominal_hrs_solved_once(self, ref_surface, ref_drift, monkeypatch):
        calls = []
        solve = DeviceSurface.hrs_for_mu

        def counting(surface, *args, **kwargs):
            calls.append(args)
            return solve(surface, *args, **kwargs)

        monkeypatch.setattr(DeviceSurface, "hrs_for_mu", counting)
        sampler._operating_point.cache_clear()
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=100, runs=10, seed=6, drift=ref_drift)
        traces = ensemble(inst, cfg, ref_surface)
        assert len(traces) == 10 and len(calls) == 1

    def test_runs_validation(self, k3, ref_surface):
        with pytest.raises(ValueError):
            ensemble(k3, BoltzmannConfig(runs=0), ref_surface)

    def test_parallel_jobs_match_sequential(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=30)
        seq = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift, jobs=1)
        par = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift, jobs=2)
        t1 = ensemble(inst, seq, ref_surface)
        t2 = ensemble(inst, par, ref_surface)
        assert outcomes(t1) == outcomes(t2)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.energies, b.energies)

    def test_parallel_jobs_run_on_threads_that_end_with_the_ensemble(self, ref_surface,
                                                                     ref_drift, monkeypatch):
        _kernel_or_skip()
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift, jobs=2)
        ran_on, original = [], sampler.run
        monkeypatch.setattr(sampler, "run", lambda *a, **k: ran_on.append(
            threading.get_ident()) or original(*a, **k))
        before = threading.active_count()
        got = ensemble(inst, cfg, ref_surface)
        assert threading.active_count() == before
        assert len(ran_on) == 4 and threading.get_ident() not in ran_on
        monkeypatch.undo()
        for want, trace in zip(ensemble(inst, replace(cfg, jobs=1), ref_surface), got):
            _assert_traces_equal(want, trace)

    def test_parallel_jobs_on_the_python_loop_start_no_thread(self, ref_surface, ref_drift,
                                                               monkeypatch):
        # the Python loop holds the interpreter lock, so jobs > 1 runs inline
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=400, runs=4, seed=6, drift=ref_drift)
        monkeypatch.setattr(sampler, "load_kernel", lambda: None)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        one = ensemble(inst, cfg, ref_surface)
        two = ensemble(inst, replace(cfg, jobs=2), ref_surface)
        assert threading.active_count() == before
        assert {t.kernel for t in one + two} == {"python"}
        for want, trace in zip(one, two):
            _assert_traces_equal(want, trace)


def _kept_run():
    return getattr(sampler._kept, "run", None)


class TestPairedRuns:
    """Arms that share a stream draw its blocks once (see sampler.paired_runs)."""

    # three blocks per run; five arms in the shape of d2d_experiment's
    ITERS, BLOCKS, RUNS = 2 * 8192 + 100, 3, 4
    ARMS = ((0.0, False), (0.1, False), (0.1, True), (0.2, False), (0.2, True))

    def arms(self, drift, **fields):
        base = BoltzmannConfig(max_iters=self.ITERS, runs=self.RUNS, seed=9,
                               scheme="monitored", drift=drift, **fields)
        return [replace(base, d2d_cv=cv, calibrate=cal) for cv, cal in self.ARMS]

    def test_each_block_drawn_once_and_runs_unchanged(self, ref_surface, ref_drift,
                                                      monkeypatch):
        # and each run index's start built once
        inst = generate_instance(20, 3.0, seed=30)
        cfgs = self.arms(ref_drift)
        draws, starts = [], []
        original, start = sampler.reset_noise, sampler._start

        def spy(*args):
            draws.append(args)
            return original(*args)

        monkeypatch.setattr(sampler, "reset_noise", spy)
        monkeypatch.setattr(sampler, "_start", lambda *a: starts.append(a) or start(*a))
        got = list(sampler.paired_runs(inst, cfgs, ref_surface))
        assert len(draws) == self.RUNS * self.BLOCKS  # 5 * RUNS * BLOCKS, one per arm
        assert len(starts) == self.RUNS               # 5 * RUNS, one per arm
        assert [(a, t.run_index) for a, t in got] == [
            (a, r) for r in range(self.RUNS) for a in range(len(cfgs))]
        draws.clear()
        starts.clear()
        for a, cfg in enumerate(cfgs):
            alone = ensemble(inst, cfg, ref_surface)
            assert len(draws) == (a + 1) * self.RUNS * self.BLOCKS
            assert len(starts) == (a + 1) * self.RUNS
            for want, (_, trace) in zip(alone, [p for p in got if p[0] == a]):
                _assert_traces_equal(want, trace)

    def test_each_arm_writes_a_copy_of_the_start(self, ref_surface, ref_drift, monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        cfgs = self.arms(ref_drift)
        fresh = [sampler._start(inst.form, cfgs[0].seed, r) for r in range(self.RUNS)]
        states = []
        original = sampler.make_state

        def keep(*args, **kwargs):
            states.append((original(*args, **kwargs), _kept_run()))
            return states[-1][0]

        monkeypatch.setattr(sampler, "make_state", keep)
        got = []
        for a, trace in sampler.paired_runs(inst, cfgs, ref_surface):
            got.append((a, trace))
            (state, start), want = states[-1], fresh[trace.run_index]
            # the loop has written this arm's x and u; write them again
            state.x[:] = 1 - state.x
            state.u[:] += 7
            assert not np.shares_memory(state.x, start.x)
            assert not np.shares_memory(state.u, start.u)
            assert start.x.tolist() == want.x.tolist() and start.u.tolist() == want.u.tolist()
            assert (start.u_scale, start.energy) == (want.u_scale, want.energy)
            for kept in (start.x, start.u):
                with pytest.raises(ValueError):
                    kept[0] = 0
        # one start per run index, which every arm at that index shares
        starts = [{id(start) for (_, start), (_, t) in zip(states, got) if t.run_index == r}
                  for r in range(self.RUNS)]
        assert [len(ids) for ids in starts] == [1] * self.RUNS
        assert len(set().union(*starts)) == self.RUNS
        monkeypatch.undo()
        for a, cfg in enumerate(cfgs):
            for want, (_, trace) in zip(ensemble(inst, cfg, ref_surface),
                                        [p for p in got if p[0] == a]):
                _assert_traces_equal(want, trace)

    def test_served_blocks_are_read_only(self, ref_surface, ref_drift, monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        states = []
        original = sampler.make_state

        def keep(*args, **kwargs):
            states.append(original(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(sampler, "make_state", keep)
        list(sampler.paired_runs(inst, self.arms(ref_drift), ref_surface))
        assert len(states) == len(self.ARMS) * self.RUNS
        for state in states:
            for a in state.block:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0

    def test_nothing_kept_for_one_config_or_after_the_runs(self, ref_surface, ref_drift,
                                                           monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        kept = []
        original = sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            record = _kept_run()
            blocks = [] if record is None else record.blocks
            kept.append((sum(a.nbytes for block in blocks for a in block if a is not None),
                         record, trace.run_index))
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        ensemble(inst, self.arms(ref_drift)[0], ref_surface)
        assert [(b, record) for b, record, _ in kept] == [(0, None)] * self.RUNS
        assert _kept_run() is None
        kept.clear()
        list(sampler.paired_runs(inst, self.arms(ref_drift), ref_surface))
        assert [b for b, _, _ in kept] == [
            self.BLOCKS * sampler._block_bytes(scheme_code("monitored"))] * (
            len(self.ARMS) * self.RUNS)
        assert max(b for b, _, _ in kept) <= sampler._KEEP_BYTES
        # one record per run index, which every arm at that index shares
        records = {r: {id(record) for _, record, i in kept if i == r} for r in range(self.RUNS)}
        assert all(len(ids) == 1 for ids in records.values())
        assert len(set().union(*records.values())) == self.RUNS
        assert _kept_run() is None

    def test_a_generator_closed_early_keeps_nothing(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=30)
        runs = sampler.paired_runs(inst, self.arms(ref_drift), ref_surface)
        assert next(runs)[0] == 0
        assert _kept_run() is None
        runs.close()
        assert _kept_run() is None

    def test_the_start_is_seen_only_inside_its_runs(self, ref_surface, ref_drift,
                                                    monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        inside = []
        original = sampler.run
        monkeypatch.setattr(sampler, "run",
                            lambda *a, **k: inside.append(_kept_run()) or original(*a, **k))
        at_yields = [_kept_run() for _ in sampler.paired_runs(inst, self.arms(ref_drift),
                                                               ref_surface)]
        assert at_yields == [None] * (len(self.ARMS) * self.RUNS)
        assert _kept_run() is None
        assert len(inside) == len(at_yields) and all(s is not None for s in inside)

    def test_holds_no_run_between_items(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=30)
        runs = sampler.paired_runs(inst, self.arms(ref_drift), ref_surface)
        for _ in range(len(self.ARMS) * self.RUNS):
            trace = weakref.ref(next(runs)[1])
            # the caller holds the run no longer, and neither may the generator
            assert trace() is None
        assert next(runs, None) is None

    def test_a_longer_arm_draws_the_blocks_past_the_first_arms(self, ref_surface, ref_drift,
                                                              monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        cfgs = self.arms(ref_drift)
        cfgs[3] = replace(cfgs[3], max_iters=self.ITERS + 8192)  # one block more
        draws = []
        original = sampler.reset_noise
        monkeypatch.setattr(sampler, "reset_noise", lambda *a: draws.append(a) or original(*a))
        got = list(sampler.paired_runs(inst, cfgs, ref_surface))
        assert len(draws) == self.RUNS * (self.BLOCKS + 1)  # each block once
        assert [(a, t.run_index) for a, t in got] == [
            (a, r) for r in range(self.RUNS) for a in range(len(cfgs))]
        monkeypatch.undo()
        for a, cfg in enumerate(cfgs):
            for want, (_, trace) in zip(ensemble(inst, cfg, ref_surface),
                                        [p for p in got if p[0] == a]):
                _assert_traces_equal(want, trace)
        assert {t.iterations for a, t in got if a == 3} == {self.ITERS + 8192}

    def test_an_arm_that_stops_early_leaves_the_rest_to_the_others(self, ref_surface,
                                                                    ref_drift, monkeypatch):
        # the first arm stops on convergence inside block 0, so the arms after
        # it draw blocks 1 and 2 themselves, keeping them for one another
        inst = replace(generate_instance(20, 3.0, seed=30), best_known=10)
        cfgs = self.arms(ref_drift)
        cfgs[0] = replace(cfgs[0], stop_on_convergence=True)
        cfgs[2] = replace(cfgs[2], stop_on_convergence=True)
        draws = []
        original = sampler.reset_noise
        monkeypatch.setattr(sampler, "reset_noise", lambda *a: draws.append(a) or original(*a))
        got = list(sampler.paired_runs(inst, cfgs, ref_surface))
        assert len(draws) == self.RUNS * self.BLOCKS  # each block once
        monkeypatch.undo()
        assert [(a, t.run_index) for a, t in got] == [
            (a, r) for r in range(self.RUNS) for a in range(len(cfgs))]
        for a, cfg in enumerate(cfgs):
            runs = [t for b, t in got if b == a]
            if cfg.stop_on_convergence:
                assert all(0 < t.iterations < 8192 for t in runs)
            else:
                assert all(t.iterations == self.ITERS for t in runs)
            for want, trace in zip(ensemble(inst, cfg, ref_surface), runs):
                _assert_traces_equal(want, trace)

    def test_a_run_between_items_shares_nothing(self, ref_surface, ref_drift, monkeypatch):
        # runs a caller makes between items, on the same instance and config
        # or not, neither use nor add to the start the arms share
        inst = generate_instance(20, 3.0, seed=30)
        cfg = self.arms(ref_drift)[1]
        others = ((generate_instance(20, 3.0, seed=31), cfg, 0),
                  (generate_instance(20, 3.0, seed=30), cfg, 0),
                  (inst, replace(cfg, seed=10), 0), (inst, cfg, 0), (inst, cfg, 1))
        starts = []
        original = sampler.make_state
        monkeypatch.setattr(sampler, "make_state",
                            lambda *a, **k: starts.append(_kept_run()) or original(*a, **k))
        runs = sampler.paired_runs(inst, self.arms(ref_drift), ref_surface)
        next(runs)
        shared, blocks = starts[0], len(starts[0].blocks)
        got = [run(i, c, ref_surface, r) for i, c, r in others]
        assert starts[1:] == [None] * len(others)
        assert len(shared.blocks) == blocks
        next(runs)
        assert starts[-1] is shared
        runs.close()
        monkeypatch.undo()
        for (i, c, r), trace in zip(others, got):
            _assert_traces_equal(run(i, c, ref_surface, r), trace)

    @pytest.mark.parametrize("arm", [0, 2], ids=["first-arm", "later-arm"])
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "threads"])
    def test_arms_off_one_stream_raise_before_any_run(self, arm, jobs, ref_surface,
                                                       ref_drift, monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        calls = []
        original = sampler.run
        monkeypatch.setattr(sampler, "run", lambda *a, **k: calls.append(a) or original(*a, **k))
        for off in ({"seed": 10}, {"scheme": "fixed-input"},
                    {"drift": replace(ref_drift, hrs_tolerance=0.2)}):
            cfgs = self.arms(ref_drift, jobs=jobs)
            cfgs[arm] = replace(cfgs[arm], **off)
            with pytest.raises(ValueError, match="one seed, scheme and HRS tolerance"):
                next(sampler.paired_runs(inst, cfgs, ref_surface))
        assert calls == []

    def test_thread_pool_runs_the_same_order(self, ref_surface, ref_drift):
        inst = generate_instance(20, 3.0, seed=30)
        one = list(sampler.paired_runs(inst, self.arms(ref_drift), ref_surface))
        two = list(sampler.paired_runs(inst, self.arms(ref_drift, jobs=2), ref_surface))
        assert [a for a, _ in two] == [a for a, _ in one]
        for (_, want), (_, got) in zip(one, two):
            _assert_traces_equal(want, got)

    def test_more_threads_than_cores_give_the_same_runs(self, ref_surface, ref_drift):
        # four threads trading the interpreter lock every 10 us, on an
        # instance whose form fields and on a surface whose nominal HRS the
        # threads compute themselves
        _kernel_or_skip()
        one = list(sampler.paired_runs(generate_instance(20, 3.0, seed=30),
                                       self.arms(ref_drift), ref_surface))
        inst = generate_instance(20, 3.0, seed=30)
        sampler._operating_point.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            four = list(sampler.paired_runs(inst, self.arms(ref_drift, jobs=4), ref_surface))
        finally:
            sys.setswitchinterval(interval)
        assert [a for a, _ in four] == [a for a, _ in one]
        for (_, want), (_, got) in zip(one, four):
            _assert_traces_equal(want, got)

    def test_a_thread_pool_closed_after_its_first_item_leaves_no_thread(self, ref_surface,
                                                                        ref_drift, monkeypatch):
        _kernel_or_skip()
        inst = generate_instance(20, 3.0, seed=30)
        calls, original = [], sampler.run
        monkeypatch.setattr(sampler, "run", lambda *a, **k: calls.append(a) or original(*a, **k))
        before = threading.active_count()
        runs = sampler.paired_runs(inst, self.arms(ref_drift, jobs=2), ref_surface)
        arm, got = next(runs)
        assert threading.active_count() > before  # the pool's threads
        runs.close()
        assert threading.active_count() == before
        # no more than jobs + 1 run indices were ever submitted, of RUNS
        assert len(calls) <= (2 + 1) * len(self.ARMS) < self.RUNS * len(self.ARMS)
        monkeypatch.undo()
        assert (arm, got.run_index) == (0, 0)
        _assert_traces_equal(run(inst, self.arms(ref_drift)[0], ref_surface), got)

    def test_a_thread_pool_closed_early_runs_no_group_it_was_not_asked_for(
            self, ref_surface, ref_drift, monkeypatch):
        _kernel_or_skip()
        inst = generate_instance(20, 3.0, seed=30)
        calls, original = [], sampler.run
        monkeypatch.setattr(sampler, "run", lambda *a, **k: calls.append(a) or original(*a, **k))
        for _ in range(5):  # a third group, once submitted, often starts before the close
            calls.clear()
            runs = sampler.paired_runs(inst, self.arms(ref_drift, jobs=2), ref_surface)
            next(runs)
            runs.close()
            # the group read from and the one on the other thread
            assert len(calls) <= 2 * len(self.ARMS), len(calls)

    def test_an_exception_in_a_pool_thread_reaches_the_consumer(self, ref_surface, ref_drift,
                                                                monkeypatch):
        _kernel_or_skip()
        inst = generate_instance(20, 3.0, seed=30)
        cfgs = self.arms(ref_drift, jobs=2)
        ran_on, original = [], sampler.run

        class Failed(Exception):
            pass

        def failing(inst, cfg, surface, run_index=0):
            ran_on.append(threading.get_ident())
            if cfg is cfgs[2] and run_index == 1:  # inside run index 1's group
                raise Failed
            return original(inst, cfg, surface, run_index=run_index)

        monkeypatch.setattr(sampler, "run", failing)
        before = threading.active_count()
        got = []
        with pytest.raises(Failed):
            for arm, trace in sampler.paired_runs(inst, cfgs, ref_surface):
                got.append((arm, trace.run_index))
        assert threading.active_count() == before
        assert threading.get_ident() not in ran_on
        assert got == [(a, 0) for a in range(len(cfgs))]

    @pytest.mark.parametrize("kernel", [True, False], ids=["c", "python"])
    def test_a_state_past_the_kept_blocks_draws_them_itself(self, kernel, ref_surface,
                                                             ref_drift):
        kernel = _kernel_or_skip() if kernel else None
        inst = generate_instance(20, 3.0, seed=30)
        cfg = self.arms(ref_drift)[1]
        kept = sampler._start(inst.form, cfg.seed, 0, [])
        first = make_state(inst, cfg, ref_surface, start=kept)
        second = make_state(inst, cfg, ref_surface, start=kept)
        sampler._advance(first, 8192, kernel)          # draws block 0 and keeps it
        head = sampler._advance(second, 8192, kernel)  # is served block 0
        assert second.block is kept.blocks[0]
        tail = sampler._advance(second, 8192, kernel)  # draws block 1 and keeps it
        assert len(kept.blocks) == 2 and second.block is kept.blocks[1]
        assert not any(a.flags.writeable for a in second.block)
        sampler._advance(first, 8192, kernel)          # is served block 1
        assert first.block is kept.blocks[1]
        alone = make_state(inst, cfg, ref_surface)
        whole = sampler._advance(alone, 2 * 8192, kernel)
        assert np.concatenate([head, tail]).tolist() == whole.tolist()
        _assert_states_equal(alone, second)
        _assert_states_equal(alone, first)


class TestDrawAhead:
    """A second thread draws a run's blocks ahead (see sampler.run): the runs
    are the same bit for bit, and no thread outlives the run that started it.

    Each test sets the CPUs the sampler sees, so that it draws ahead or not
    whatever the host has, and all but the last let a thread start for runs
    of a few blocks.
    """

    ITERS, RUNS = 4 * 8192 + 100, 3  # five blocks per run
    AHEAD_BLOCKS = sampler._AHEAD_BLOCKS

    @pytest.fixture(autouse=True)
    def short_runs_draw_ahead(self, monkeypatch):
        monkeypatch.setattr(sampler, "_AHEAD_BLOCKS", 1)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def both_ways(self, monkeypatch, fn):
        """(fn() on one CPU, fn() on two); each leaves the thread count as it
        found it. The threads trade the interpreter lock every 10 us."""
        _kernel_or_skip()
        out, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in (1, 2):
                with monkeypatch.context() as m:
                    self.cpus(m, n)
                    before = threading.active_count()
                    out.append(fn())
                    assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        return out

    def arms(self, drift):
        base = BoltzmannConfig(max_iters=self.ITERS, runs=self.RUNS, seed=9, scheme="monitored",
                               drift=drift)
        return [replace(base, d2d_cv=cv, calibrate=cal) for cv, cal in TestPairedRuns.ARMS]

    @pytest.mark.parametrize("scheme", ["ideal", "fixed-input", "monitored"])
    def test_ensemble_equals_inline(self, scheme, ref_surface, ref_drift, monkeypatch):
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=self.ITERS, runs=self.RUNS, seed=9, scheme=scheme,
                              drift=_PINNED_DRIFT, d2d_cv=0.1, calibrate=True)
        inline, ahead = self.both_ways(monkeypatch, lambda: ensemble(inst, cfg, ref_surface))
        assert [t.drawn_ahead for t in inline] == [False] * self.RUNS
        assert [t.drawn_ahead for t in ahead] == [True] * self.RUNS
        for want, got in zip(inline, ahead):
            _assert_traces_equal(want, got)

    def test_a_run_that_stops_in_its_second_block(self, ref_surface, ref_drift, monkeypatch):
        inst = replace(generate_instance(100, 3.0, seed=31), best_known=59)
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, drift=ref_drift,
                              stop_on_convergence=True)
        inline, ahead = self.both_ways(monkeypatch, lambda: run(inst, cfg, ref_surface))
        assert 8192 < inline.converged_at <= 2 * 8192
        # the thread, started at block 0, has drawn ahead when the run stops
        assert ahead.drawn_ahead
        _assert_traces_equal(inline, ahead)

    @pytest.mark.parametrize("run_major", [True, False], ids=["run-major", "arm-major"])
    def test_paired_runs_equal_inline(self, run_major, ref_surface, ref_drift, monkeypatch):
        # the first arm stops on convergence in block 0; arm-major, after its
        # thread has drawn ahead; run-major, every run shares its run index's
        # start and draws inline
        inst = replace(generate_instance(20, 3.0, seed=30), best_known=10)
        cfgs = self.arms(ref_drift)
        cfgs[0] = replace(cfgs[0], stop_on_convergence=True)
        if not run_major:
            monkeypatch.setattr(sampler, "_KEEP_BYTES", 0)
        kept, original = [], sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            kept.append(len(_kept_run().blocks) if run_major else 0)
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        inline, ahead = self.both_ways(
            monkeypatch, lambda: list(sampler.paired_runs(inst, cfgs, ref_surface)))
        assert [a for a, _ in ahead] == [a for a, _ in inline]
        for (_, want), (_, got) in zip(inline, ahead):
            _assert_traces_equal(want, got)
        assert all(0 < t.iterations < 8192 for a, t in ahead if a == 0)
        if run_major:
            # the first arm draws the block it stopped in, and the next arm the rest
            kept = kept[len(inline):]
            assert [k for k, (a, _) in zip(kept, ahead) if a] == [5] * (len(cfgs) - 1) * self.RUNS
            assert [k for k, (a, _) in zip(kept, ahead) if a == 0] == [1] * self.RUNS
            assert 5 * sampler._block_bytes(scheme_code("monitored")) <= sampler._KEEP_BYTES
            assert not any(t.drawn_ahead for _, t in ahead)
        else:
            assert all(t.drawn_ahead for _, t in ahead)

    def first_of_closed(self, monkeypatch, surface, drift):
        """The first item of `paired_runs` over `arms`, the generator closed
        after it; on one CPU and on two (see both_ways)."""
        inst = generate_instance(20, 3.0, seed=30)

        def first():
            runs = sampler.paired_runs(inst, self.arms(drift), surface)
            item = next(runs)
            runs.close()
            return item

        return self.both_ways(monkeypatch, first)

    def test_a_generator_closed_after_its_first_item(self, ref_surface, ref_drift,
                                                     monkeypatch):
        # arm-major, so that the first run draws ahead
        monkeypatch.setattr(sampler, "_KEEP_BYTES", 0)
        (_, want), (_, got) = self.first_of_closed(monkeypatch, ref_surface, ref_drift)
        assert got.drawn_ahead
        _assert_traces_equal(want, got)

    def test_a_run_major_generator_closed_after_its_first_item(self, ref_surface, ref_drift,
                                                               monkeypatch):
        # the first run shares its run index's start, so it draws inline
        (_, want), (_, got) = self.first_of_closed(monkeypatch, ref_surface, ref_drift)
        assert not got.drawn_ahead
        _assert_traces_equal(want, got)

    @pytest.mark.parametrize("block", [2, 4])
    def test_an_exception_in_the_thread_reaches_the_run(self, block, ref_surface, ref_drift,
                                                        monkeypatch):
        _kernel_or_skip()
        self.cpus(monkeypatch, 2)
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, scheme="monitored", drift=ref_drift)
        drawn_by, original = [], sampler.reset_noise

        class Failed(Exception):
            pass

        def failing(*args):
            drawn_by.append(threading.get_ident())
            if len(drawn_by) == block + 1:
                raise Failed
            return original(*args)

        monkeypatch.setattr(sampler, "reset_noise", failing)
        before = threading.active_count()
        with pytest.raises(Failed):
            run(inst, cfg, ref_surface)
        assert threading.active_count() == before
        assert drawn_by[0] == threading.get_ident() != drawn_by[-1]

    def test_an_exception_in_the_loop_stops_the_thread(self, ref_surface, ref_drift,
                                                       monkeypatch):
        _kernel_or_skip()
        self.cpus(monkeypatch, 2)
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, scheme="monitored", drift=ref_drift)
        original = sampler._kernel_loop

        class Failed(Exception):
            pass

        def failing_on_block_3(kernel, state):
            loop, calls = original(kernel, state), []

            def failing(*args):
                calls.append(args)
                if len(calls) == 3:  # the thread has started at block 0
                    raise Failed
                return loop(*args)

            return failing

        monkeypatch.setattr(sampler, "_kernel_loop", failing_on_block_3)
        before = threading.active_count()
        with pytest.raises(Failed):
            run(inst, cfg, ref_surface)
        assert threading.active_count() == before
        # the pool's thread is named stochanneal-draws_0
        assert not any(t.name.startswith("stochanneal-draws") for t in threading.enumerate())

    def test_the_thread_draws_at_most_two_blocks_ahead(self, ref_surface, ref_drift,
                                                       monkeypatch):
        # the loop, slowed, waits at each block until the thread may have
        # drawn two blocks past it, then long enough for a third
        _kernel_or_skip()
        self.cpus(monkeypatch, 2)
        inst = generate_instance(20, 3.0, seed=30)
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, scheme="monitored", drift=ref_drift)
        count = -(-self.ITERS // 8192)
        drawn, leads = [], []  # a None per block drawn; blocks drawn less blocks taken
        draws, kernel_loop = sampler._draws, sampler._kernel_loop

        def counted(*args):
            for block in draws(*args):
                drawn.append(None)
                yield block

        def slowed(kernel, state):
            loop = kernel_loop(kernel, state)

            def slow(*args):  # one call per block
                taken = len(leads) + 1
                deadline = time.monotonic() + 10
                while len(drawn) < min(taken + 2, count) and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(0.05)
                leads.append(len(drawn) - taken)
                return loop(*args)

            return slow

        monkeypatch.setattr(sampler, "_draws", counted)
        monkeypatch.setattr(sampler, "_kernel_loop", slowed)
        assert run(inst, cfg, ref_surface).drawn_ahead
        assert leads == [2, 2, 2, 1, 0]

    @pytest.mark.parametrize("count", [None, 1, 2])
    def test_cpus_without_affinity(self, count, ref_surface, ref_drift, monkeypatch):
        # where os.sched_getaffinity is missing, the CPU count, or 1 when unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert sampler._cpus() == (count or 1)
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, drift=ref_drift)
        trace = run(generate_instance(20, 3.0, seed=30), cfg, ref_surface)
        assert trace.drawn_ahead == (count == 2 and trace.kernel == "c")  # inline on one CPU

    def test_step_starts_no_thread(self, ref_surface, ref_drift, monkeypatch):
        self.cpus(monkeypatch, 2)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        cfg = BoltzmannConfig(max_iters=self.ITERS, seed=9, scheme="monitored", drift=ref_drift)
        state = make_state(generate_instance(20, 3.0, seed=30), cfg, ref_surface)
        for _ in range(8192 + 10):  # into the second block
            step(state)
        assert started == [] and state.t == 8192 + 10

    def test_a_thread_starts_only_with_enough_blocks_to_draw(self, ref_surface, ref_drift,
                                                            monkeypatch):
        _kernel_or_skip()
        k = self.AHEAD_BLOCKS
        monkeypatch.setattr(sampler, "_AHEAD_BLOCKS", k)
        self.cpus(monkeypatch, 2)
        inst = replace(generate_instance(20, 3.0, seed=30), best_known=10**6)  # never met

        def ahead(blocks, stop=False):
            cfg = BoltzmannConfig(max_iters=(blocks - 1) * 8192 + 1, seed=9, drift=ref_drift,
                                  stop_on_convergence=stop)
            return run(inst, cfg, ref_surface).drawn_ahead

        # k blocks past the first; for a run that may stop, past the first k
        assert (ahead(k), ahead(k + 1)) == (False, True)
        assert (ahead(2 * k - 1, True), ahead(2 * k, True)) == (False, True)


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
        if f.name in ("kernel", "drawn_ahead"):  # how a run ran, not what it gave
            continue
        a, b = getattr(ref, f.name), getattr(fast, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert repr(a) == repr(b), f.name


_STATE_FIELDS = ("x", "u", "hrs", "targets", "offs", "cyc", "best_x", "energy", "best_energy",
                 "converged_at", "clamps", "t", "cursor", "params")


def _snapshot(state, trace) -> dict:
    """A state's fields, bit for bit, and the sha256 of the int64 energies
    `trace` that the stretch of its run leading there recorded."""
    assert trace.dtype == np.int64
    snap = {"trace": hashlib.sha256(trace.tobytes()).hexdigest()}
    for name in _STATE_FIELDS:
        a = getattr(state, name)
        if isinstance(a, np.ndarray):
            snap[name] = (str(a.dtype), a.shape, a.tobytes())
        else:
            snap[name] = (type(a).__name__, repr(a))
    return snap


def _stretches(state, steps, kernel) -> list:
    """Snapshots of `state` after each stretch of `steps` iterations, run by
    `kernel`, or by the reference loop when it is None."""
    return [_snapshot(state, sampler._advance(state, k, kernel)) for k in steps]


def _assert_snapshots_equal(ref, fast):
    assert len(ref) == len(fast)
    for k, (a, b) in enumerate(zip(ref, fast)):
        for name in a:
            assert a[name] == b[name], f"{name} after stretch {k}"


# The reference loop's snapshots by case, recorded as the tests make them.
# TestSanitizedKernel hands them to its subprocess, which then runs only the
# kernel side of each case recorded here.
_REFERENCES = {}


def _at_form_sum(base, total):
    """base and a path on four more nodes with weights (a, -c, 1), a >= c > 0,
    which adds 6a + 4c + 4 to the summed |b_i| + |W_B_ij| of the form, so that
    the sum is `total`, an even number (the sum always is)."""
    form, n = base.form, base.n
    rest = (total - int(np.abs(form.b).sum()) - int(np.abs(form.weights).sum())) // 2 - 2
    c = next(c for c in (1, 2, 3) if (rest - 2 * c) % 3 == 0)
    return MaxCutInstance(n + 4, heads=np.r_[base.heads, n, n + 1, n + 2],
                          tails=np.r_[base.tails, n + 1, n + 2, n + 3],
                          weights=np.r_[base.weights, (rest - 2 * c) // 3, -c, 1])


def _reference(key, snapshots):
    """The recorded reference snapshots of case `key`; `snapshots()` makes them."""
    if key not in _REFERENCES:
        _REFERENCES[key] = snapshots()
    return _REFERENCES[key]


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

        def snapshots(kernel):
            state = make_state(inst, cfg, ref_surface)
            trace = [sampler._advance(state, 1) for _ in range(100)]
            trace.append(sampler._advance(state, 20_000, kernel))
            # the reference carries on from the state the kernel wrote back
            return [_snapshot(state, np.concatenate(trace)), *_stretches(state, [5_000], None)]

        ref = _reference(("mid-block", scheme), lambda: snapshots(None))
        _assert_snapshots_equal(ref, snapshots(kernel))

    def test_params_order_is_the_kernel_par_enum(self):
        source = native._KERNEL_SOURCE.read_text()
        body = source[source.index("enum {"):]
        names = re.findall(r"P_(\w+)", body[:body.index("}")])
        assert names == [f.upper() for f in sampler.Params._fields]

    def test_python_loop_under_jobs_runs_in_this_thread(self, ref_surface, ref_drift,
                                                        monkeypatch):
        # without the kernel the Python loop, which holds the interpreter lock,
        # runs every group in the calling thread, under jobs > 1 too
        inst = replace(generate_instance(30, 4.0, weight_set=(-3, 2), seed=43), best_known=28)
        cfg = BoltzmannConfig(max_iters=3000, runs=2, seed=2, drift=ref_drift,
                              scheme="fixed-input")
        arms = [cfg, replace(cfg, d2d_cv=0.1, calibrate=True)]  # run-major, one shared start
        monkeypatch.setattr(sampler, "load_kernel", lambda: None)
        ran_on = []
        original = sampler.run

        def spy(*args, **kwargs):
            ran_on.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(sampler, "run", spy)
        for cfgs in ([cfg], arms):
            one = list(sampler.paired_runs(inst, cfgs, ref_surface))
            jobs2 = [replace(c, jobs=2) for c in cfgs]
            two = list(sampler.paired_runs(inst, jobs2, ref_surface))
            assert [a for a, _ in two] == [a for a, _ in one]
            assert {t.kernel for _, t in one + two} == {"python"}
            for (_, want), (_, trace) in zip(one, two):
                _assert_traces_equal(want, trace)
        assert ran_on == [threading.current_thread()] * 12

    def test_fields_at_the_ceiling_run_on_the_kernel(self, ref_surface, monkeypatch):
        _kernel_or_skip()
        base = generate_instance(30, 4.0, weight_set=(-3, 2), seed=43)
        inst = _at_form_sum(base, 2**53 - 2)
        form = inst.form
        assert int(np.abs(form.b).sum()) + int(np.abs(form.weights).sum()) == 2**53 - 2
        for scheme in ("ideal", "monitored"):
            cfg = BoltzmannConfig(max_iters=20_000, seed=5, drift=_PINNED_DRIFT, scheme=scheme,
                                  energy_stride=1)
            fast = run(inst, cfg, ref_surface)
            with monkeypatch.context() as m:
                m.setattr(sampler, "load_kernel", lambda: None)
                ref = run(inst, cfg, ref_surface)
            assert (fast.kernel, ref.kernel) == ("c", "python")
            _assert_traces_equal(ref, fast)
            assert np.abs(fast.energies).max() > 2**50
        with pytest.raises(TooLarge, match=r"reach 2\*\*53"):
            run(_at_form_sum(base, 2**53), cfg, ref_surface)

    def test_argtypes_match_the_kernel_signature(self):
        # a changed C signature must not load with stale argtypes
        source = native._KERNEL_SOURCE.read_text()
        scalars = {"int64_t ": ctypes.c_int64, "double ": ctypes.c_double}
        for head, argtypes in (("int64_t sa_advance(", native._KERNEL_ARGTYPES),
                               ("void sa_hrs_bisect(", native._BISECT_ARGTYPES)):
            head = source[source.index(head):]
            params = [p.strip() for p in head[head.index("(") + 1:head.index(")")].split(",")]
            assert len(argtypes) == len(params)
            for param, argtype in zip(params, argtypes):
                if "*" in param:
                    assert argtype is ctypes.c_void_p, param
                else:
                    assert any(param.startswith(c) and argtype is t
                               for c, t in scalars.items()), param


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
        steps = (100, 1, 5_000, 20_000)
        ref = _reference(("continued", activation), lambda: _stretches(
            make_state(_TABLE_INSTANCES[1], cfg, ref_surface), steps, None))
        fast = make_state(_TABLE_INSTANCES[1], cfg, ref_surface)
        assert sampler._uses_table(fast)
        _assert_snapshots_equal(ref, _stretches(fast, steps, kernel))
        assert 0 < fast.cursor < sampler._RNG_BLOCK

    def test_field_range_over_the_cap_runs_without_table(self, ref_surface, monkeypatch):
        _kernel_or_skip()
        inst = replace(generate_instance(30, 4.0, weight_set=(-9000, 7000), seed=43),
                       best_known=10**9)
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


_SQ_LO, _SQ_INV_STEP, _SQ_CELLS = native._SQUEEZE_GRID
_SQ_STEP = 1.0 / _SQ_INV_STEP
_SQ_MARGIN = 1e-12  # SQ_MARGIN in _kernel.c


def _squeeze_table(lib):
    """The kernel library's squeeze table, as a list."""
    return (ctypes.c_double * (_SQ_CELLS + 1)).in_dll(lib, "sa_squeeze_table")[:]


class TestKernelLoader:
    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def test_compiles_into_private_cache(self, tmp_path):
        _kernel_or_skip()
        cache = tmp_path / "cache" / "stochanneal"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        built = sorted(os.listdir(cache))
        assert len(built) == 1 and built[0].startswith("_kernel-") and built[0].endswith(".so")
        native._kernel = None
        assert sampler.load_kernel() is not None
        assert sorted(os.listdir(cache)) == built

    def test_importing_the_package_compiles_and_loads_nothing(self, tmp_path):
        src = os.path.dirname(os.path.dirname(sampler.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import stochanneal, stochanneal.cli;"
             " from stochanneal import native; assert native._kernel is None"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "cache").exists()

    def test_unsafe_cache_dir_uses_temp_dir(self, tmp_path, caplog):
        cache = tmp_path / "cache" / "stochanneal"
        cache.mkdir(parents=True)
        cache.chmod(0o755)
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            _kernel_or_skip()
        assert "not a directory of mode 0700" in caplog.text
        assert os.listdir(cache) == []

    def test_no_compiler_falls_back_and_logs_once(self, k3, ref_surface, ref_drift,
                                                  monkeypatch, caplog):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
            trace = run(k3, BoltzmannConfig(max_iters=50, drift=ref_drift), ref_surface)
        assert trace.kernel == "python"
        assert [r.getMessage() for r in caplog.records] == [
            "compiled kernel unavailable, using the Python loop and the numpy bisection: "
            "no C compiler `cc` on PATH"
        ]

    def test_compile_error_falls_back(self, tmp_path, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        bad = tmp_path / "_kernel.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(native, "_KERNEL_SOURCE", bad)
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
        assert "exited with" in caplog.text
        assert os.listdir(tmp_path / "cache" / "stochanneal") == []

    def test_failed_self_check_falls_back(self, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        erf = math.erf
        monkeypatch.setattr(math, "erf", lambda z: erf(z) + 1e-12)
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
        assert "self-check failed: C erf" in caplog.text

    def test_corrupt_squeeze_table_cell_falls_back(self, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # g = -1.0 is a grid point of the table and not of the erf self-check
        assert -1.0 not in native._ERF_GRID
        erf = math.erf
        monkeypatch.setattr(math, "erf", lambda z: erf(z) + 1e-12 if z == -1.0 else erf(z))
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
        assert "self-check failed: squeeze table cell 3840 = " in caplog.text

    def test_decreasing_squeeze_table_falls_back(self, tmp_path, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # the filled table with its middle cell, T = 0.5, lowered to 0.25
        done = "    return SQ_CELLS;\n"
        source = native._KERNEL_SOURCE.read_text()
        assert source.count(done) == 1
        bad = tmp_path / "_kernel.c"
        bad.write_text(source.replace(done, "    sa_squeeze_table[SQ_CELLS / 2] -= 0.25;\n" + done))
        monkeypatch.setattr(native, "_KERNEL_SOURCE", bad)
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
        assert f"the squeeze table decreases at cell {_SQ_CELLS // 2}" in caplog.text

    def test_squeeze_grid_disagreeing_with_the_source_falls_back(self, monkeypatch, caplog):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(native, "_SQUEEZE_GRID", (_SQ_LO, _SQ_INV_STEP, 2 * _SQ_CELLS))
        with caplog.at_level(logging.WARNING, logger="stochanneal.native"):
            assert sampler.load_kernel() is None
        assert f"the squeeze table has {_SQ_CELLS} cells, expected {2 * _SQ_CELLS}" in caplog.text

    def test_squeeze_table_filled_before_the_kernel_is_handed_out(self, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        seen = {}
        compile_and_load, check = native._compile_and_load, native._check_squeeze_table

        def loading(*args):
            lib = compile_and_load(*args)
            seen["at_load"] = _squeeze_table(lib)  # a fresh library: zeros until filled
            return lib

        def checking(lib):
            seen["published_during_check"] = native._kernel
            check(lib)
            seen["lib"] = lib

        monkeypatch.setattr(native, "_compile_and_load", loading)
        monkeypatch.setattr(native, "_check_squeeze_table", checking)
        kernel = sampler.load_kernel()
        if kernel is None:
            pytest.skip("the compiled kernel did not load here (see the logged reason)")
        assert seen["at_load"] == [0.0] * (_SQ_CELLS + 1)
        assert seen["published_during_check"] is None
        want = [0.5 * (1.0 + math.erf(_SQ_LO + j / _SQ_INV_STEP)) for j in range(_SQ_CELLS + 1)]
        assert [t.hex() for t in _squeeze_table(seen["lib"])] == [w.hex() for w in want]
        assert kernel is seen["lib"]

    def test_one_thread_loads_and_every_thread_gets_its_kernel(self, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        builds = []
        build = native._build_kernel

        def slow_build():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # the other threads arrive while this one loads
            return build()

        monkeypatch.setattr(native, "_build_kernel", slow_build)
        got = []
        threads = [threading.Thread(target=lambda: got.append(sampler.load_kernel()))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert len(got) == 4 and all(k is got[0] for k in got)


def _kernel_cell(a):
    """The table cell the kernel finds for erf argument a, or None off the grid."""
    s = (a - _SQ_LO) * _SQ_INV_STEP
    return int(s) if 1.0 <= s < _SQ_CELLS - 1 else None


def _p_of(a):
    """The loop's switching probability at erf argument a."""
    return 0.5 * (1.0 + math.erf(a))


def _ulps(x, k):
    """The k doubles on each side of x, and x."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


@pytest.fixture(scope="module")
def kernel_lib():
    """The kernel library, from the cache `load_kernel` uses, checked."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    try:
        lib = native._build_kernel()
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
        pytest.skip(f"the compiled kernel did not load here: {exc}")
    lib.sa_squeeze.restype = ctypes.c_int
    lib.sa_squeeze.argtypes = (ctypes.c_double, ctypes.c_double)
    return lib


class TestSqueeze:
    """The kernel decides x_i = [u < p] from its table when u is clear of p's
    bracket, and calls erf otherwise, with the loop's decision either way."""

    # erf arguments on the grid: at and beside its points, near its ends, and between
    ARGS = sorted(a for a in {
        a
        for j in (1, 2, 1500, 2600, 3000, 3840, 4000, 4095, 4096, 4097, 4500, 5000, 8189, 8190)
        for g in (_SQ_LO + j / _SQ_INV_STEP,)
        for a in (*_ulps(g, 2), g + _SQ_STEP / 3, g + _SQ_STEP / 2)
    } | {-3.3, -0.7071, 0.1, 0.977, 2.5, 5.9} if _kernel_cell(a) is not None)
    # erf arguments off the grid, or NaN
    OFF_GRID = (
        math.nan, -math.nan, math.inf, -math.inf, -1e300, 1e300,
        _SQ_LO, math.nextafter(_SQ_LO + _SQ_STEP, -math.inf),
        -_SQ_LO - _SQ_STEP, -_SQ_LO, 40.0,
    )

    @staticmethod
    def _thresholds(a, table):
        """Uniforms at and beside the bracket's edges, inside it, and at p."""
        j = _kernel_cell(a)
        lo, hi = table[j - 1] - _SQ_MARGIN, table[j + 2] + _SQ_MARGIN
        return sorted({
            *_ulps(lo, 2), *_ulps(hi, 2), *_ulps(_p_of(a), 1),
            lo - _SQ_MARGIN, hi + _SQ_MARGIN,        # clear of the bracket
            table[j - 1] - _SQ_MARGIN / 4,           # inside the margin
            table[j + 2] + _SQ_MARGIN / 4,
            table[j] - 2 * _SQ_MARGIN,               # between cell j's own edges
            table[j + 1] + 2 * _SQ_MARGIN,           # and the bracket's
            0.0, 1.0 - 2.0 ** -53,
        })

    def test_decisions_hold_with_a_cell_and_half_the_margin_to_spare(self, kernel_lib):
        # every decision must stand for any p within one cell of a and half
        # the margin of erf: what the bracket's extra cells and the margin are
        # for; a one-cell bracket or a zero margin decides some of these wrongly
        table, decided = _squeeze_table(kernel_lib), {0: 0, 1: 0}
        for a in self.ARGS:
            near = [b for b in (a - _SQ_STEP, a, a + _SQ_STEP) if _SQ_LO <= b <= -_SQ_LO]
            ps = [_p_of(b) + e for b in near for e in (-_SQ_MARGIN / 2, _SQ_MARGIN / 2)]
            for u in self._thresholds(a, table):
                d = kernel_lib.sa_squeeze(u, a)
                assert d in (-1, 0, 1)
                if d >= 0:
                    decided[d] += 1
                    assert all((u < p) == bool(d) for p in ps), (a, u, d)
        assert decided[0] > 100 and decided[1] > 100

    def test_clear_thresholds_are_decided(self, kernel_lib):
        table = _squeeze_table(kernel_lib)
        for a in self.ARGS:
            j = _kernel_cell(a)
            assert kernel_lib.sa_squeeze(table[j - 1] - 2 * _SQ_MARGIN, a) == 1
            assert kernel_lib.sa_squeeze(table[j + 2] + 2 * _SQ_MARGIN, a) == 0

    def test_exact_three_way_map(self, kernel_lib):
        # which uniforms the table decides, to the ulp: a rewrite that sent
        # more of them to erf would still decide the rest rightly
        table, us = _squeeze_table(kernel_lib), set()
        for a in self.ARGS:
            j = _kernel_cell(a)
            lo, hi = table[j - 1] - _SQ_MARGIN, table[j + 2] + _SQ_MARGIN
            for u in self._thresholds(a, table):
                us.add(u)
                want = 1 if u < lo else 0 if u >= hi else -1
                assert kernel_lib.sa_squeeze(u, a) == want, (a, u)
        for a in self.OFF_GRID:
            assert all(kernel_lib.sa_squeeze(u, a) == -1 for u in us), a

    @pytest.mark.parametrize("a", OFF_GRID, ids=repr)
    def test_off_the_grid_or_nan_calls_erf(self, a, kernel_lib):
        for u in (-1.0, 0.0, 0.25, 0.5, 1.0 - 2.0 ** -53, 2.0):
            assert kernel_lib.sa_squeeze(u, a) == -1

    def test_grid_ends(self, kernel_lib):
        # the first argument whose bracket lies in the table, and the last cell
        first, last = _SQ_LO + _SQ_STEP, -_SQ_LO - 1.5 * _SQ_STEP
        assert _kernel_cell(first) == 1 and _kernel_cell(last) == _SQ_CELLS - 2
        assert kernel_lib.sa_squeeze(0.5, first) == 0
        assert kernel_lib.sa_squeeze(0.5, last) == 1

    def test_exact_path_matches_the_reference(self, kernel_lib, ref_surface):
        # one device per case, ideal and without edges: every u_i stays 0, so
        # each device decides once, at its own offset's p, against a uniform
        # at p, one ulp beside it, or at its bracket's edges
        cfg = BoltzmannConfig(seed=1)
        par = make_state(MaxCutInstance(n=1, edges=()), cfg, ref_surface).params
        hrs = sampler._operating_point(ref_surface)[0]

        def mu_sg(off):  # par[6:12] and par[12:18]: the mu and sigma coefficients
            return mu_sigma(par.vc, hrs, off, par[6:12], par[12:18], par.floor)

        def a_of(off):
            mu, sg = mu_sg(off)
            return (par.log_tpw - mu) * (1.0 / math.sqrt(2.0)) / sg

        mu0, sg0 = mu_sg(0.0)
        table, offs, unifs = _squeeze_table(kernel_lib), [], []
        for target in self.ARGS:
            # of the offsets beside the solution, the one whose a is nearest
            guess = par.log_tpw - mu0 - target * sg0 * math.sqrt(2.0)
            off = min(_ulps(guess, 8), key=lambda o: abs(a_of(o) - target))
            for u in self._thresholds(a_of(off), table):
                if 0.0 <= u < 1.0:
                    offs.append(off)
                    unifs.append(u)
        n = len(offs)
        assert n <= sampler._RNG_BLOCK
        nodes, draws = np.zeros(sampler._RNG_BLOCK, dtype=np.int64), np.zeros(sampler._RNG_BLOCK)
        nodes[:n], draws[:n] = np.arange(n), unifs
        inst = MaxCutInstance(n=n, edges=())
        ref, fast = (make_state(inst, cfg, ref_surface) for _ in range(2))
        for state in (ref, fast):
            state.offs[:] = offs
            state.draws = iter([(nodes, draws, None)])
        assert not sampler._uses_table(fast) and fast.hrs.tolist() == [hrs] * n
        sampler._advance(ref, n)
        sampler._advance(fast, n, kernel_lib)
        _assert_states_equal(ref, fast)
        assert fast.x.tolist() == [int(u < p_switch(par.log_tpw, *mu_sg(o)))
                                   for u, o in zip(unifs, offs)]
        # both paths ran: the squeeze decided some cases and erf the others
        paths = collections.Counter(kernel_lib.sa_squeeze(u, a_of(o)) for u, o in zip(unifs, offs))
        assert min(paths[-1], paths[0], paths[1]) > 100, paths


# the reference surface, and with a sigma floor that binds in part and everywhere
_DIFF_SURFACES = tuple(replace(get_reference()[0], sigma_floor=f) for f in (0.05, 0.3, 0.7))


def _differential_case(seed, scheme, activation, kernel):
    """(instance, config, surface, Params fields to set, split points) for one
    differential run, from a seed."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[rng.integers(len(options))]

    n = int(rng.integers(1, 41))
    density = pick([0.0, 0.1, 0.3, 1.0])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    # 2**40: fields up to about 2**47. The last two put the form's summed |b_i|
    # + |W_B_ij|, at most 6 m top, just under 2**53: below it always, and in
    # most draws (the rest raise TooLarge)
    m = max(len(pairs), 1)
    top = pick([1, 3, 2**20, 2**40, (2**53 - 1) // (6 * m), 2**53 // (3 * m)])
    edges = tuple((i, j, int(rng.integers(-top, top + 1)) or 1) for i, j in pairs)
    vmin, vmax = pick([(1.6, 2.2), (1.7, 1.9), (1.8, 1.8)])
    over = dict(vmin=vmin, vmax=vmax)
    # decades off the centred 1e-5 s: p near 0 and near 1, and off the squeeze grid
    log_tpw = pick([None, -9.0, -7.0, -6.0, -5.0, -4.0, -3.0, -1.0])
    if log_tpw is not None:
        over["log_tpw"] = log_tpw
    max_iters = int(rng.integers(0, 20_001))
    cfg = BoltzmannConfig(
        gain=pick([0.02, 0.2, 3.0, 50.0]),  # large gains clamp at both ends
        max_iters=max_iters, seed=int(rng.integers(2**16)), scheme=scheme,
        activation=activation,
        drift=DriftModel(m_hrs=pick([0.0, 0.01, 6.0]), s_rw=pick([0.0, 0.5, 3.0]),
                         hrs_tolerance=pick([0.1, 0.6])),
        d2d_cv=pick([0.0, 0.05, 0.2, 1.0]), calibrate=bool(rng.integers(2)),
        stop_on_convergence=bool(rng.integers(2)),
        energy_stride=pick([1, 7, 8193, experiments.NO_TRACE_STRIDE]),
    )
    splits = sorted(rng.integers(0, max_iters + 1, int(rng.integers(5))).tolist())
    surface = pick(_DIFF_SURFACES)
    # the best cut the run itself has reached at a drawn time, so that the
    # threshold is met on the way (a stopping run follows the same path until then)
    inst = MaxCutInstance(n=n, edges=edges)
    try:
        pilot = make_state(inst, replace(cfg, stop_on_convergence=False, energy_stride=1),
                           surface)
    except TooLarge:  # fields of 2**53 or more, which the test expects to raise
        return inst, cfg, surface, over, splits
    energies = sampler._advance(set_params(pilot, **over), max_iters, kernel)
    best = -int(energies[:rng.integers(max_iters + 1)].min(initial=0))
    return replace(inst, best_known=best), cfg, surface, over, splits


class TestDifferential:
    """The kernel against `_reference_loop` on drawn instances and settings.

    Hypothesis draws one seed per example, and the seed draws every setting
    (the voltage window and the pulse width set on the state's Params), so
    each of the few examples differs from the others in all of them. Some
    drawn weights put the fields at 2**53 or past it, where `run` must raise
    TooLarge.
    """

    @pytest.mark.parametrize("activation", ["device", "logistic"])
    @pytest.mark.parametrize("scheme", ["ideal", "fixed-input", "monitored"])
    @settings(max_examples=14, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_kernel_equals_reference(self, scheme, activation, seed):
        kernel = _kernel_or_skip()
        inst, cfg, surface, over, splits = _differential_case(seed, scheme, activation, kernel)
        if inst.best_known is None:  # the pilot run raised TooLarge
            with pytest.raises(TooLarge):
                run(inst, cfg, surface)
            return
        # the whole run in one call, then in pieces, the states compared after each
        for cuts in ([], splits):
            steps = np.diff([0, *cuts, cfg.max_iters]).tolist()

            def snapshots(kernel):
                return _stretches(set_params(make_state(inst, cfg, surface), **over), steps,
                                  kernel)

            ref = _reference(("differential", scheme, activation, seed, tuple(cuts)),
                             lambda: snapshots(None))
            _assert_snapshots_equal(ref, snapshots(kernel))

# UBSan, array bounds, and float-to-integer conversions out of range (the
# squeeze's cell index), each fatal at its first report
_UBSAN_FLAGS = ("-fsanitize=undefined,bounds,float-cast-overflow", "-fno-sanitize-recover=all")
# kernel tests that cover every scheme x activation x d2d cell, the squeeze
# and the drawn settings, at a fraction of the cost of all of them, and the
# bisection's tests, in this file and the two that _KERNEL_FILES adds
_KERNEL_CELLS = ("(TestBitIdentity and results_pinned) or (TestKernel and mid_block)"
                 " or (TestPSwitchTable and continued) or TestSqueeze or TestDifferential"
                 " or TestDrawAhead or TestHrsForMuArray or TestCalibrate")
_KERNEL_FILES = ("test_surface.py", "test_device.py")


class TestSanitizedKernel:
    def test_kernel_cells_under_ubsan(self, tmp_path):
        """The kernel-vs-reference and bisection tests, run on a kernel built with UBSan.

        They run in a subprocess, so that a sanitizer abort fails this test
        alone; the build goes to a private cache of its own. The reference
        snapshots this process has recorded go with them, so the subprocess
        runs the reference loop only for the cases that did not run here
        before this test.
        """
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        references = tmp_path / "references.pickle"
        references.write_bytes(pickle.dumps(_REFERENCES))
        (tmp_path / "ubsan_kernel.py").write_text(
            "import pickle\n\n"
            "import pytest\n"
            "from stochanneal import native\n\n\n"
            "def pytest_configure(config):\n"
            f"    native._KERNEL_FLAGS += {_UBSAN_FLAGS!r}\n"
            "    if native.load_kernel() is None:\n"
            "        pytest.exit('no UBSan build of the kernel loads here', returncode=77)\n\n\n"
            "def pytest_collection_modifyitems(items):\n"
            f"    with open({str(references)!r}, 'rb') as fh:\n"
            "        references = pickle.load(fh)\n"
            "    for module in {item.module for item in items}:\n"
            "        if hasattr(module, '_REFERENCES'):\n"
            "            module._REFERENCES.update(references)\n"
        )
        src = os.path.dirname(os.path.dirname(sampler.__file__))
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
        proc = subprocess.run(
            # -s: a sanitizer report is written as the process exits, past capture
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "ubsan_kernel",
             "-p", "no:cacheprovider", __file__,
             *(os.path.join(os.path.dirname(__file__), f) for f in _KERNEL_FILES),
             "-k", _KERNEL_CELLS],
            cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode == 77:
            pytest.skip(f"no UBSan build of the kernel loads here: {proc.stderr.strip()[-500:]}")
        assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
        assert " passed" in proc.stdout and "skipped" not in proc.stdout, proc.stdout[-2000:]


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

    @pytest.mark.parametrize("chunk", [7, 8])
    def test_same_floats_across_chunk_boundaries(self, chunk, monkeypatch):
        # the running sum is carried from chunk to chunk; sizes on either
        # side of chunk multiples, windows shorter and longer than a chunk
        monkeypatch.setattr(experiments, "_SMOOTH_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for size in (0, 1, 6, 7, 8, 9, 13, 14, 15, 16, 17, 300):
            for series in (rng.integers(-10**6, 10**6, size), rng.standard_normal(size) * 50):
                windows = {1, 2, 3, size // 50, round(0.02 * size), size, size + 3}
                for window in sorted(windows):
                    assert (_hex(moving_average(series, window))
                            == _hex(_moving_average_by_index(series, window))), (size, window)

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
        """A 10^7-iteration stride-1 run at n=200 in 320 MiB of address space.

        Its trace alone is 80 MB. Recording it in per-block chunks joined at
        the end, and smoothing it with whole-length index arrays, took the
        process to about 720 MiB; one preallocated trace and a moving average
        that held the whole running sum and output, to about 350 MiB. Chunked
        smoothing that holds only the span of one running sum a chunk reads
        keeps it near 200 MiB.
        """
        resource = pytest.importorskip("resource")
        _kernel_or_skip()  # the Python loop would take minutes here
        limit = 320 * 1024 * 1024

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
    def test_gain_positive(self):
        with pytest.raises(ValueError):
            BoltzmannConfig(gain=0.0)

    @pytest.mark.parametrize("name, bound", [("gain", "> 0"), ("d2d_cv", ">= 0")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_gain_and_spread_rejected(self, name, bound, value):
        with pytest.raises(InvalidParameter, match=f"{name} must be {bound} and finite"):
            BoltzmannConfig(**{name: value})

    @pytest.mark.parametrize("name, value",
                             [("max_iters", -1), ("d2d_cv", -0.1), ("d2d_cv", math.nan)])
    def test_negative_iterations_and_spread_rejected(self, name, value):
        with pytest.raises(InvalidParameter, match=f"{name} must be >= 0"):
            BoltzmannConfig(**{name: value})

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_positive(self, jobs):
        with pytest.raises(InvalidParameter, match=f"jobs must be >= 1, got {jobs}"):
            BoltzmannConfig(jobs=jobs)

    def test_zero_iterations_run(self, k3, ref_surface):
        trace = run(k3, BoltzmannConfig(max_iters=0), ref_surface)
        assert trace.iterations == 0 and trace.energies.size == 0

    @pytest.mark.parametrize("stride", [0, -1, 2 ** 53 + 1])
    def test_energy_stride_positive(self, stride):
        with pytest.raises(ValueError, match="energy_stride"):
            BoltzmannConfig(energy_stride=stride)

    def test_voltage_window_inside_surface(self, ref_surface):
        # a surface fitted over less than [V_MIN, V_MAX]
        surface = replace(ref_surface, v_range=(V_MIN + 0.1, V_MAX))
        with pytest.raises(ValueError, match="escapes the fitted surface range"):
            make_state(MaxCutInstance(n=2, edges=((0, 1, 1),)), BoltzmannConfig(), surface)
