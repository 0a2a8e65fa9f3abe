import dataclasses
import math
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from stochanneal import experiments, sampler
from stochanneal.device import DriftModel, reset_update, scheme_code
from stochanneal.errors import InsufficientTraces, InvalidParameter, MissingBestKnown
from stochanneal.experiments import (
    build_size_ladder,
    convergence_scaling,
    cycling_stats,
    d2d_experiment,
    ensemble_mean_energy,
    max_meaningful_iterations,
    max_solvable_size,
    max_solvable_sizes,
    proxy_best_known,
    settling_energy_ensemble,
    settling_energy_of,
)
from stochanneal.io_ingest import BestKnownRegistry, brute_force_maxcut, generate_instance
from stochanneal.sampler import BoltzmannConfig, RunTrace, ensemble


def spearman_trend(xs, ys) -> float:
    return float(spearmanr(xs, ys).statistic)


def fake_trace(energies, stride=1):
    e = np.asarray(energies, dtype=np.int64)
    return RunTrace(
        energies=e, stride=stride, best_cut=int(-e.min()), best_x=np.zeros(1, np.uint8),
        converged_at=None, iterations=e.size * stride,
        cycles_per_device=np.zeros(1, np.int64), clamp_events=0, mu_eff_spread=0.0,
        calib_failures=0, run_index=0,
    )


class TestCyclingStats:
    def test_ideal_is_exactly_zero(self, ref_surface, ref_drift):
        st = cycling_stats(ref_surface, ref_drift, "ideal", 100, seed=0)
        assert st.mu_drift == 0.0 and st.sigma_drift == 0.0

    def test_monitored_small_drift(self, ref_surface, ref_drift):
        st = cycling_stats(ref_surface, ref_drift, "monitored", 100, seed=0)
        assert st.mu_drift <= 0.05

    def test_fixed_input_one_decade_scale(self, ref_surface, ref_drift):
        st = cycling_stats(ref_surface, ref_drift, "fixed-input", 100, seed=0)
        assert 0.5 <= st.mu_drift <= 2.0

    def test_fixed_input_sigma_inflates(self, ref_surface, ref_drift):
        st = cycling_stats(ref_surface, ref_drift, "fixed-input", 100, seed=0)
        assert st.sigma_drift > 0.1

    def test_series_length(self, ref_surface, ref_drift):
        st = cycling_stats(ref_surface, ref_drift, "monitored", 50, seed=1)
        assert st.mu_series.size == 51

    @pytest.mark.parametrize("scheme", ["ideal", "fixed-input", "monitored"])
    def test_runs_the_sampler_reset_update(self, ref_surface, ref_drift, scheme, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[0])
            return reset_update(*args)

        monkeypatch.setattr(experiments, "reset_update", spy)
        st = cycling_stats(ref_surface, ref_drift, scheme, 30, seed=2)
        assert calls == [scheme_code(scheme)] * 30
        assert st.mu_series.size == 31

    def test_cycle_minimum(self, ref_surface, ref_drift):
        with pytest.raises(ValueError):
            cycling_stats(ref_surface, ref_drift, "ideal", 1)


class TestMaxMeaningfulIterations:
    def test_strictly_decreasing_gives_last_index(self):
        traces = [fake_trace(np.arange(0, -1000, -1)) for _ in range(5)]
        assert max_meaningful_iterations(traces) == 1000

    def test_v_shape_recovers_minimum(self):
        k = 400
        series = np.concatenate([np.arange(0, -k, -1), np.arange(-k, -k + 600)])
        traces = [fake_trace(series) for _ in range(5)]
        window = 20  # 2% of the 1000 points
        got = max_meaningful_iterations(traces)
        assert abs(got - k) <= window // 2 + 1

    def test_insufficient_traces(self):
        with pytest.raises(InsufficientTraces):
            max_meaningful_iterations([fake_trace([0, -1])] * 4)

    def test_stride_scales_result(self):
        traces = [fake_trace(np.arange(0, -100, -1), stride=50) for _ in range(5)]
        assert max_meaningful_iterations(traces) == 5000

    def test_mean_energy_requires_matching_strides(self):
        with pytest.raises(ValueError):
            ensemble_mean_energy([fake_trace([0, -1]), fake_trace([0, -1], stride=2)])


def stacked_mean(traces):
    # ensemble_mean_energy as it was before it summed the traces one at a time
    length = min(t.energies.size for t in traces)
    return np.stack([t.energies[:length] for t in traces]).astype(float).mean(axis=0)


def hexes(a):
    return [x.hex() for x in a.tolist()]


class TestEnsembleMeanEnergy:
    @pytest.mark.parametrize("bound, shortest", [(2 ** 62, 2), (2 ** 49, 1)])
    def test_matches_the_stacked_mean(self, bound, shortest):
        # past 2**53 the float sums round, so their order shows; numpy sums a
        # one-point stack pairwise, which only exact sums make equal
        rng = np.random.default_rng(5)
        for _ in range(300):
            traces = [fake_trace(rng.integers(-bound, bound, int(rng.integers(shortest, 40))))
                      for _ in range(int(rng.integers(1, 13)))]
            got, stride = ensemble_mean_energy(iter(traces))
            assert hexes(got) == hexes(stacked_mean(traces)) and stride == 1

    def test_matches_the_stacked_mean_on_real_traces(self, ref_surface):
        inst = generate_instance(30, 4.0, seed=41)
        cfg = BoltzmannConfig(max_iters=5000, runs=5, seed=3, scheme="fixed-input",
                              drift=DriftModel(m_hrs=0.5, s_rw=0.0, hrs_tolerance=0.1))
        traces = ensemble(inst, cfg, ref_surface)
        got, _ = ensemble_mean_energy(traces)
        assert hexes(got) == hexes(stacked_mean(traces))

    def test_empty_input(self):
        with pytest.raises(InsufficientTraces):
            ensemble_mean_energy(iter([]))
        short = replace(fake_trace([0]), energies=np.empty(0, dtype=np.int64))
        with pytest.raises(InsufficientTraces):
            ensemble_mean_energy([fake_trace([0, -1]), short])


def whole_moving_average(series, window):
    # moving_average as it was before it was chunked: whole sum, whole output
    a = np.asarray(series)
    if window <= 1 or a.size == 0:
        return a.astype(float, copy=True)
    n = a.size
    lo_span, hi_span = (window - 1) // 2, window // 2
    csum = np.zeros(n + 1)
    np.cumsum(a, dtype=float, out=csum[1:])
    out = np.empty(n)
    head = min(lo_span, n)
    full = out[head:max(head, n - hi_span)]
    np.subtract(csum[window:], csum[:-window], out=full)
    full /= window
    edge = np.r_[0:head, max(head, n - hi_span):n]
    lo, hi = np.maximum(edge - lo_span, 0), np.minimum(edge + hi_span + 1, n)
    out[edge] = (csum[hi] - csum[lo]) / (hi - lo)
    return out


def whole_settling_energy_of(series):
    # the three reducers as they were when they smoothed the whole series
    a = np.asarray(series)
    if a.size == 0:
        return math.nan
    return float(whole_moving_average(a, max(1, a.size // 50)).min())


def whole_settling_energy_ensemble(traces):
    mean_series, _ = ensemble_mean_energy(traces)
    window = max(1, int(round(experiments.SMOOTH_FRACTION * mean_series.size)))
    return float(whole_moving_average(mean_series, window).min())


def whole_max_meaningful_iterations(traces):
    mean_series, stride = ensemble_mean_energy(traces, min_traces=5)
    window = max(1, int(round(experiments.SMOOTH_FRACTION * mean_series.size)))
    smoothed = whole_moving_average(mean_series, window)
    lowest = float(smoothed.min())
    band = lowest + experiments.PLATEAU_TOLERANCE * abs(lowest)
    last_at_min = smoothed.size - 1 - int(np.argmax(smoothed[::-1] <= band))
    return (last_at_min + 1) * stride


class TestChunkedSmoothing:
    @pytest.mark.parametrize("chunk", [7, 8, None])
    def test_reducers_equal_their_whole_series_forms(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(experiments, "_SMOOTH_CHUNK", chunk)
        rng = np.random.default_rng(23)
        for _ in range(80):
            length = int(rng.integers(1, 400))
            # random walks with flats, so the plateau band holds many points
            traces = [fake_trace(np.cumsum(rng.integers(-2, 2, length)))
                      for _ in range(int(rng.integers(5, 8)))]
            assert (settling_energy_ensemble(traces).hex()
                    == whole_settling_energy_ensemble(traces).hex())
            assert (max_meaningful_iterations(traces)
                    == whole_max_meaningful_iterations(traces)), length
            for series in (traces[0].energies, rng.standard_normal(length) * 50):
                assert settling_energy_of(series).hex() == whole_settling_energy_of(series).hex()
        assert math.isnan(settling_energy_of(np.empty(0)))

    def test_reducers_equal_their_whole_series_forms_on_real_traces(self, ref_surface):
        inst = generate_instance(40, 4.0, seed=8)
        cfg = BoltzmannConfig(max_iters=30_000, runs=5, seed=8, scheme="fixed-input",
                              drift=DriftModel(m_hrs=0.5, s_rw=0.0, hrs_tolerance=0.1))
        traces = ensemble(inst, cfg, ref_surface)
        assert traces[0].stride == 1 and traces[0].energies.size == 30_000
        assert (settling_energy_ensemble(traces).hex()
                == whole_settling_energy_ensemble(traces).hex())
        assert max_meaningful_iterations(traces) == whole_max_meaningful_iterations(traces)
        for t in traces:
            assert (settling_energy_of(t.energies).hex()
                    == whole_settling_energy_of(t.energies).hex())

    def test_max_meaningful_iterations_allocates_no_whole_series_but_the_mean(self):
        # the 8 MB mean plus chunk buffers; the whole running sum and smoothed
        # series would add 16 MB. Its window of 2 * 10^4 points is wider than
        # _SMOOTH_CHUNK.
        rng = np.random.default_rng(2)
        traces = [fake_trace(np.cumsum(rng.integers(-3, 3, 10**6))) for _ in range(5)]
        tracemalloc.start()
        try:
            got = max_meaningful_iterations(traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak
        assert got == whole_max_meaningful_iterations(traces)

    def test_settling_energy_of_a_window_wider_than_a_chunk(self):
        # a window of 12,000 points at the shipped chunk size of 2^13
        rng = np.random.default_rng(4)
        for series in (np.cumsum(rng.integers(-3, 3, 600_000)),
                       np.cumsum(rng.standard_normal(600_007))):
            assert series.size // 50 > experiments._SMOOTH_CHUNK
            assert settling_energy_of(series).hex() == whole_settling_energy_of(series).hex()


class TestConvergenceScaling:
    def make_instances(self, sizes, seed=50):
        out = []
        for n in sizes:
            inst = generate_instance(n, 3.0, seed=seed + n)
            cut, _ = brute_force_maxcut(inst)
            out.append(replace(inst, best_known=cut))
        return out

    def test_small_instances_mostly_converge(self, ref_surface, ref_drift):
        instances = self.make_instances([8, 8, 8], seed=60)
        cfg = BoltzmannConfig(max_iters=100_000, runs=5, seed=1, drift=ref_drift)
        rows = convergence_scaling(instances, cfg, ref_surface)
        total = sum(r.runs for r in rows)
        converged = sum(len(r.converged) for r in rows)
        assert converged >= 0.95 * total

    def test_missing_best_known(self, ref_surface, ref_drift):
        inst = generate_instance(8, 3.0, seed=3)
        cfg = BoltzmannConfig(runs=2, drift=ref_drift)
        with pytest.raises(MissingBestKnown):
            convergence_scaling([inst], cfg, ref_surface)

    def test_duplicate_instance_identical_rows(self, ref_surface, ref_drift):
        inst = self.make_instances([10], seed=70)[0]
        cfg = BoltzmannConfig(max_iters=20_000, runs=5, seed=2, drift=ref_drift)
        rows = convergence_scaling([inst, inst], cfg, ref_surface)
        assert rows[0].converged == rows[1].converged

    def test_runs_record_no_energies_and_converge_as_recording_runs(
            self, ref_surface, ref_drift, monkeypatch):
        inst = self.make_instances([12], seed=80)[0]
        cfg = BoltzmannConfig(max_iters=20_000, runs=5, seed=3, drift=ref_drift)
        recorded = []
        original = sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            recorded.append(trace.energies.size)
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        (row,) = convergence_scaling([inst], cfg, ref_surface)
        assert recorded == [0] * 5
        monkeypatch.undo()
        traces = ensemble(inst, replace(cfg, stop_on_convergence=True), ref_surface)
        assert all(t.energies.size > 0 for t in traces)
        assert row.converged == [t.converged_at for t in traces if t.converged_at is not None]


class TestSpearman:
    def test_signs(self):
        assert spearman_trend([1, 2, 3, 4], [10, 20, 25, 70]) == 1.0
        assert spearman_trend([1, 2, 3, 4], [5, 4, 3, 1]) == -1.0


class TestMaxSolvableSize:
    def ladder(self, sizes, cfg, surface, seed=90):
        return build_size_ladder(sizes, cfg, surface, seed=seed)

    def test_no_drift_solves_largest(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=50_000, runs=5, seed=4, drift=ref_drift)
        ladder = self.ladder([10, 16], cfg, ref_surface)
        res = max_solvable_size(DriftModel(m_hrs=0.0, s_rw=0.0), ladder,
                                replace(cfg, scheme="monitored"), ref_surface)
        assert res.max_solvable == 16

    def test_huge_drift_solves_nothing(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=50_000, runs=5, seed=4, drift=ref_drift)
        ladder = self.ladder([10, 16], cfg, ref_surface)
        heavy = DriftModel(m_hrs=60.0, s_rw=60.0)
        res = max_solvable_size(heavy, ladder, replace(cfg, scheme="fixed-input"),
                                ref_surface)
        assert res.max_solvable == 0

    def test_requires_best_known(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(runs=5, drift=ref_drift)
        bare = generate_instance(10, 3.0, seed=1)
        with pytest.raises(MissingBestKnown):
            max_solvable_size(ref_drift, [(10, [bare])], cfg, ref_surface)

    def test_drift_runs_are_held_one_at_a_time(self, ref_surface, ref_drift, monkeypatch):
        # only the drift ensemble's mean energy is read, so no earlier drift
        # run is alive when the next one starts
        cfg = BoltzmannConfig(max_iters=50_000, runs=5, seed=4, drift=ref_drift)
        ladder = self.ladder([10, 16], cfg, ref_surface)
        alive, held = [], []
        original = sampler.run

        def spy(inst, run_cfg, *args, **kwargs):
            if run_cfg.scheme == "fixed-input":
                held.append(sum(ref() is not None for ref in alive))
            trace = original(inst, run_cfg, *args, **kwargs)
            if run_cfg.scheme == "fixed-input":
                alive.append(weakref.ref(trace.energies))
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        drift = DriftModel(m_hrs=0.5, s_rw=0.0, hrs_tolerance=0.1)
        max_solvable_size(drift, ladder, replace(cfg, scheme="fixed-input"), ref_surface)
        assert held == [0] * 10

    def test_ladder_must_ascend(self, ref_surface, ref_drift, k3):
        cfg = BoltzmannConfig(runs=5, drift=ref_drift)
        with pytest.raises(ValueError):
            max_solvable_size(ref_drift, [(16, [k3]), (10, [k3])], cfg, ref_surface)


class TestMaxSolvableSizes:
    SCHEMES = ("fixed-input", "monitored")

    def study(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=50_000, runs=5, seed=4, drift=ref_drift)
        ladder = build_size_ladder([10, 16], cfg, ref_surface, seed=90)
        drifts = [DriftModel(m_hrs=m, s_rw=ref_drift.s_rw, hrs_tolerance=ref_drift.hrs_tolerance)
                  for m in (0.0, 0.5)]
        return drifts, ladder, cfg

    def test_every_arm_equals_its_single_arm_study(self, ref_surface, ref_drift):
        drifts, ladder, cfg = self.study(ref_surface, ref_drift)
        results = max_solvable_sizes(drifts, self.SCHEMES, ladder, cfg, ref_surface)
        arms = [(d, s) for d in drifts for s in self.SCHEMES]
        assert [(r.m_hrs, r.scheme) for r in results] == [(d.m_hrs, s) for d, s in arms]
        for res, (drift, scheme) in zip(results, arms):
            alone = max_solvable_size(drift, ladder, replace(cfg, scheme=scheme), ref_surface)
            # floats by repr: the dataclass reprs spell every field
            assert repr(res) == repr(alone)
        assert {r.max_solvable for r in results} != {0}

    def test_convergence_ensemble_runs_once_per_rung(self, ref_surface, ref_drift, monkeypatch):
        drifts, ladder, cfg = self.study(ref_surface, ref_drift)
        stopping = []
        original = sampler.run

        def spy(inst, run_cfg, *args, **kwargs):
            if run_cfg.stop_on_convergence:
                assert run_cfg.scheme == "ideal"
                stopping.append(inst.n)
            return original(inst, run_cfg, *args, **kwargs)

        monkeypatch.setattr(sampler, "run", spy)
        max_solvable_sizes(drifts, self.SCHEMES, ladder, cfg, ref_surface)
        # cfg.runs runs per instance per rung, for all four arms together
        assert stopping == [10] * 5 + [16] * 5

    def test_unknown_scheme(self, ref_surface, ref_drift, k3):
        cfg = BoltzmannConfig(runs=5, drift=ref_drift)
        with pytest.raises(InvalidParameter):
            max_solvable_sizes([ref_drift], ["fixed"], [(3, [k3])], cfg, ref_surface)


class TestD2DExperiment:
    def test_cv_zero_error_is_zero_and_calibration_helps(self, ref_surface, ref_drift):
        inst = generate_instance(40, 4.0, seed=31)
        cfg = BoltzmannConfig(max_iters=8000, runs=10, seed=6, drift=ref_drift)
        res = d2d_experiment(inst, [0.0, 0.2], cfg, ref_surface)
        row0 = res.rows[0]
        assert row0.cv == 0.0
        assert row0.error_uncalibrated == 0.0
        row = res.rows[1]
        assert row.spread_calibrated * 5 <= row.spread_uncalibrated
        assert row.error_calibrated <= row.error_uncalibrated

    def test_runs_floor_enforced(self, ref_surface, ref_drift, k3):
        cfg = BoltzmannConfig(runs=5, drift=ref_drift)
        with pytest.raises(InvalidParameter):
            d2d_experiment(k3, [0.1], cfg, ref_surface)

    @staticmethod
    def holding_every_run(inst, cv_list, cfg, surface):
        """d2d_experiment as it was when each arm's runs were held in a list."""
        base = replace(cfg, stop_on_convergence=False)
        ideal_traces = ensemble(inst, replace(base, d2d_cv=0.0, calibrate=False), surface)
        e_ideal = settling_energy_ensemble(ideal_traces)
        denom = max(abs(e_ideal), 1e-12)
        rows = []
        for cv in cv_list:
            arms = {}
            for label, calibrated in (("uncal", False), ("cal", True)):
                arms[label] = ensemble(inst, replace(base, d2d_cv=cv, calibrate=calibrated),
                                       surface)
            e_uncal = settling_energy_ensemble(arms["uncal"])
            e_cal = settling_energy_ensemble(arms["cal"])
            rows.append(experiments.D2DRow(
                cv=cv,
                error_uncalibrated=100.0 * max(0.0, e_uncal - e_ideal) / denom,
                error_calibrated=100.0 * max(0.0, e_cal - e_ideal) / denom,
                spread_uncalibrated=float(np.mean([t.mu_eff_spread for t in arms["uncal"]])),
                spread_calibrated=float(np.mean([t.mu_eff_spread for t in arms["cal"]])),
                calib_failures=float(np.mean([t.calib_failures for t in arms["cal"]])),
                settling_uncalibrated=e_uncal,
                settling_calibrated=e_cal,
            ))
        return experiments.D2DSweepResult(settling_ideal=e_ideal, rows=rows)

    # the (cv, calibrated) arms of d2d_experiment at cvs 0.0, 0.1 and 0.3
    d2d_arms = [(0.0, False)] + [(cv, cal) for cv in (0.0, 0.1, 0.3) for cal in (False, True)]

    def same_floats_as_holding_every_run(self, cfg, surface, monkeypatch):
        """Compare d2d_experiment with holding_every_run; returns the order
        in which d2d_experiment ran its runs, as (arm, run index) with arms
        as in `d2d_arms`."""
        inst = generate_instance(30, 4.0, seed=1)
        cvs = [0.0, 0.1, 0.3]
        order = []
        original = sampler.run

        def spy(inst, cfg, surface, run_index=0):
            order.append(((cfg.d2d_cv, cfg.calibrate), run_index))
            return original(inst, cfg, surface, run_index)

        monkeypatch.setattr(sampler, "run", spy)
        got = d2d_experiment(inst, cvs, cfg, surface)
        monkeypatch.undo()
        want = self.holding_every_run(inst, cvs, cfg, surface)
        assert repr(got.settling_ideal) == repr(want.settling_ideal)
        assert len(got.rows) == len(want.rows) == 3
        for g, w in zip(got.rows, want.rows):
            for f in dataclasses.fields(w):
                assert repr(getattr(g, f.name)) == repr(getattr(w, f.name)), f.name
        assert got.rows[1].calib_failures > 0 and got.rows[2].calib_failures > 0
        return order

    def test_same_floats_as_holding_every_run(self, ref_surface, ref_drift, monkeypatch):
        cfg = BoltzmannConfig(max_iters=3000, runs=10, seed=1, drift=ref_drift)
        order = self.same_floats_as_holding_every_run(cfg, ref_surface, monkeypatch)
        # one block per run is kept for the seven arms: they run run-major
        assert order == [(a, r) for r in range(10) for a in self.d2d_arms]

    def test_same_floats_when_runs_exceed_the_kept_blocks(self, ref_surface, ref_drift,
                                                          monkeypatch):
        # ten 128 KiB ideal-scheme blocks per run, over the 1 MiB kept: arm-major
        cfg = BoltzmannConfig(max_iters=80_000, runs=10, seed=1, drift=ref_drift)
        assert 10 * sampler._block_bytes(scheme_code("ideal")) > sampler._KEEP_BYTES
        order = self.same_floats_as_holding_every_run(cfg, ref_surface, monkeypatch)
        assert order == [(a, r) for a in self.d2d_arms for r in range(10)]

    def test_thread_pool_gives_the_same_result(self, ref_surface, ref_drift):
        inst = generate_instance(16, 4.0, seed=5)
        cfg = BoltzmannConfig(max_iters=500, runs=10, seed=5, drift=ref_drift)
        one = d2d_experiment(inst, [0.2], cfg, ref_surface)
        two = d2d_experiment(inst, [0.2], replace(cfg, jobs=2), ref_surface)
        assert repr(two) == repr(one)

    @staticmethod
    def second_pass_peak(surface, drift, jobs):
        """tracemalloc's peak over a d2d pass at n=100 with stride-1 traces,
        after a first pass that fills the set-up caches."""
        inst = generate_instance(100, 4.0, seed=3)
        cfg = BoltzmannConfig(max_iters=20_000, runs=10, seed=3, scheme="monitored",
                              drift=drift, jobs=jobs)
        d2d_experiment(inst, [0.1, 0.2], cfg, surface)
        tracemalloc.start()
        try:
            d2d_experiment(inst, [0.1, 0.2], cfg, surface)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holds_one_run_at_a_time(self, ref_surface, ref_drift):
        # a run's stride-1 trace is 160 kB here; holding the runs of the
        # ideal arm and of one cv's two arms at once peaked at 5.4 MB
        peak = self.second_pass_peak(ref_surface, ref_drift, jobs=1)
        assert peak < 2e6, peak

    def test_threads_hold_jobs_plus_one_run_indices_at_a_time(self, ref_surface, ref_drift):
        # run-major: a run index's five runs hold 0.8 MB of traces; holding
        # every run at once peaked at 9.0-9.4 MB
        jobs = 2
        peak = self.second_pass_peak(ref_surface, ref_drift, jobs)
        assert peak < 2e6 + (jobs + 1) * 5 * 20_000 * 8, peak


class TestLadderBuilder:
    def test_small_sizes_get_exact_entries(self, ref_surface, ref_drift):
        cfg = BoltzmannConfig(max_iters=20_000, runs=3, seed=8, drift=ref_drift)
        registry = BestKnownRegistry()
        ladder = build_size_ladder([10, 25], cfg, ref_surface, seed=77, registry=registry)
        (s1, insts1), (s2, insts2) = ladder
        assert s1 == 10 and insts1[0].best_known == brute_force_maxcut(insts1[0])[0]
        assert registry.provenance(insts1[0].name) == "exact"
        assert registry.provenance(insts2[0].name) == "proxy"
        assert insts2[0].best_known > 0


class TestProxyBestKnown:
    def test_runs_record_no_energies_and_find_the_recording_runs_cut(
            self, ref_surface, ref_drift, monkeypatch):
        inst = generate_instance(40, 4.0, seed=12)
        cfg = BoltzmannConfig(max_iters=6_000, runs=7, seed=5, scheme="fixed-input",
                              drift=ref_drift, d2d_cv=0.1)
        recorded = []
        original = sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            recorded.append(trace.energies.size)
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        cut = proxy_best_known(inst, cfg, ref_surface)
        assert recorded == [0] * 3
        monkeypatch.undo()
        # the proxy ensemble as it ran before, at the default energy stride
        recording_cfg = replace(cfg, scheme="ideal", d2d_cv=0.0, calibrate=False,
                                stop_on_convergence=False, max_iters=6_000)
        traces = [sampler.run(inst, recording_cfg, ref_surface, run_index=r) for r in range(3)]
        assert all(t.energies.size == 6_000 for t in traces)
        assert cut == max(t.best_cut for t in traces)

    def test_jobs_reach_the_proxy_runs(self, ref_surface, ref_drift, monkeypatch):
        if sampler.load_kernel() is None:
            pytest.skip("the compiled kernel did not load here, so no pool runs")
        inst = generate_instance(60, 4.0, seed=12)
        cfg = BoltzmannConfig(max_iters=20_000, seed=5, drift=ref_drift)
        ran_on = []
        original = sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            ran_on.append((threading.current_thread().name, trace.run_index, trace.best_cut))
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        one = proxy_best_known(inst, cfg, ref_surface)
        alone = list(ran_on)
        ran_on.clear()
        two = proxy_best_known(inst, replace(cfg, jobs=2), ref_surface)
        assert [name for name, _, _ in alone] == [threading.current_thread().name] * 3
        assert all(name.startswith("stochanneal-runs") for name, _, _ in ran_on), ran_on
        # the pool's runs may end in any order
        assert sorted(run[1:] for run in ran_on) == [run[1:] for run in alone]
        assert two == one


class TestDriftTrends:
    def meaningful_at(self, m_hrs, ref_surface, seed=14, n=30, horizon=20_000):
        inst = generate_instance(n, 4.0, seed=41)
        drift = DriftModel(m_hrs=m_hrs, s_rw=0.0, hrs_tolerance=0.1)
        cfg = BoltzmannConfig(max_iters=horizon, runs=5, seed=seed,
                              scheme="fixed-input", drift=drift)
        traces = ensemble(inst, cfg, ref_surface)
        return max_meaningful_iterations(traces)

    def test_drift_shrinks_meaningful_iterations(self, ref_surface):
        # paired seeds: only the slope differs between the two arms
        lazy = self.meaningful_at(0.0, ref_surface)
        heavy = self.meaningful_at(2.0, ref_surface)
        assert lazy >= heavy

    def test_zero_slope_never_below_small_slope(self, ref_surface):
        assert self.meaningful_at(0.0, ref_surface) >= self.meaningful_at(0.01, ref_surface)

    def test_meaningful_iterations_trend_in_slope(self, ref_surface):
        slopes = [0.05, 0.5, 2.0]
        t_mms = [self.meaningful_at(m, ref_surface) for m in slopes]
        assert spearman_trend(slopes, t_mms) < 0


class TestConvergenceTrend:
    def test_median_iterations_grow_with_size(self, ref_surface, ref_drift):
        sizes = [25, 50, 125, 250]
        cfg = BoltzmannConfig(max_iters=300_000, runs=5, seed=15, drift=ref_drift)
        ladder = build_size_ladder(sizes, cfg, ref_surface, seed=15)
        instances = [replace(insts[0], best_known=insts[0].best_known)
                     for _, insts in ladder]
        rows = convergence_scaling(instances, cfg, ref_surface)
        medians = [r.median for r in rows]
        assert all(m is not None for m in medians)
        assert spearman_trend(sizes, medians) > 0
