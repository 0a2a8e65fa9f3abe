import weakref
from dataclasses import replace

import numpy as np
import pytest

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
    proxy_best_known,
    settling_energy_ensemble,
    spearman_trend,
)
from stochanneal.io_ingest import BestKnownRegistry, brute_force_maxcut, generate_instance
from stochanneal.sampler import BoltzmannConfig, RunTrace, ensemble


def fake_trace(energies, stride=1):
    e = np.asarray(energies, dtype=np.int64)
    return RunTrace(
        energies=e, stride=stride, best_cut=int(-e.min()), best_x=np.zeros(1, np.uint8),
        converged_at=None, iterations=e.size * stride,
        cycles_per_device=np.zeros(1, np.int64), clamp_events=0, mu_eff_spread=0.0,
        calib_failures=0, u_scale=1.0, run_index=0,
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
        assert max_meaningful_iterations(traces, window=1) == 1000

    def test_v_shape_recovers_minimum(self):
        k = 400
        series = np.concatenate([np.arange(0, -k, -1), np.arange(-k, -k + 600)])
        traces = [fake_trace(series) for _ in range(5)]
        window = 20
        got = max_meaningful_iterations(traces, window=window)
        assert abs(got - k) <= window // 2 + 1

    def test_insufficient_traces(self):
        with pytest.raises(InsufficientTraces):
            max_meaningful_iterations([fake_trace([0, -1])] * 4)

    def test_stride_scales_result(self):
        traces = [fake_trace(np.arange(0, -100, -1), stride=50) for _ in range(5)]
        assert max_meaningful_iterations(traces, window=1) == 5000

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
        traces, _ = ensemble(inst, cfg, ref_surface)
        got, _ = ensemble_mean_energy(traces)
        assert hexes(got) == hexes(stacked_mean(traces))

    def test_empty_input(self):
        with pytest.raises(InsufficientTraces):
            ensemble_mean_energy(iter([]))
        short = replace(fake_trace([0]), energies=np.empty(0, dtype=np.int64))
        with pytest.raises(InsufficientTraces):
            ensemble_mean_energy([fake_trace([0, -1]), short])


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
        converged = sum(r.converged_count for r in rows)
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
        traces, _ = ensemble(inst, replace(cfg, stop_on_convergence=True), ref_surface)
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
        original = experiments.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            recorded.append(trace.energies.size)
            return trace

        monkeypatch.setattr(experiments, "run", spy)
        cut = proxy_best_known(inst, cfg, ref_surface)
        assert recorded == [0] * 3
        monkeypatch.undo()
        # the proxy ensemble as it ran before, at the default energy stride
        recording_cfg = replace(cfg, scheme="ideal", d2d_cv=0.0, calibrate=False,
                                stop_on_convergence=False, max_iters=6_000)
        traces = [sampler.run(inst, recording_cfg, ref_surface, run_index=r) for r in range(3)]
        assert all(t.energies.size == 6_000 for t in traces)
        assert cut == max(t.best_cut for t in traces)


class TestDriftTrends:
    def meaningful_at(self, m_hrs, ref_surface, seed=14, n=30, horizon=20_000):
        inst = generate_instance(n, 4.0, seed=41)
        drift = DriftModel(m_hrs=m_hrs, s_rw=0.0, hrs_tolerance=0.1)
        cfg = BoltzmannConfig(max_iters=horizon, runs=5, seed=seed,
                              scheme="fixed-input", drift=drift)
        traces, _ = ensemble(inst, cfg, ref_surface)
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
