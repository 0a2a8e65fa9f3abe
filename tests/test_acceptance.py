"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Device-level criteria are property-based against the shipped
reference parameter file; network-level criteria reproduce the simulation
trends at desk scale. Everything is seeded and deterministic.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scistats

from stochanneal.device import DriftModel, mu_sigma, p_switch, sample_tset
from stochanneal.experiments import (
    build_size_ladder,
    cycling_stats,
    d2d_experiment,
    max_solvable_size,
)
from stochanneal.io_ingest import brute_force_maxcut, generate_instance
from stochanneal.maxcut import (
    MaxCutInstance,
    build_form,
    cut_value,
    energy,
    local_field,
)
from stochanneal.sampler import BoltzmannConfig, ensemble, make_state, run, step
from stochanneal.surface import fit_surface, poly6


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


def random_small_instance(rng, n_max, wmax=3):
    n = int(rng.integers(4, n_max + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w = 0
                while w == 0:
                    w = int(rng.integers(-wmax, wmax + 1))
                edges.append((i, j, w))
    return MaxCutInstance(n=n, edges=tuple(edges))


def test_c01_energy_identity_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(50):
        inst = random_small_instance(rng, 12)
        form = build_form(inst)
        for x in itertools.product((0, 1), repeat=inst.n):
            xl = list(x)
            assert energy(form, xl) == -cut_value(inst, xl)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "C01 energy-identity",
        elapsed < 10.0,
        f"E(x) == -M(x) exact on {checked} configurations of 50 instances "
        f"(n <= 12) in {elapsed:.1f}s (< 10s)",
    )


def test_c02_local_field_energy_delta():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        inst = random_small_instance(rng, 12)
        form = build_form(inst)
        x = rng.integers(0, 2, inst.n).tolist()
        i = int(rng.integers(inst.n))
        x1, x0 = list(x), list(x)
        x1[i], x0[i] = 1, 0
        delta_e = energy(form, x1) - energy(form, x0)
        assert local_field(form, x, i) == -delta_e
    report("C02 field-identity", True, "u_i == -dE_i exact on 1000 random triples")


def device_moments(surface, v, hrs):
    """(mu, sigma) of a zero-offset device, as the sampling loop computes them."""
    return mu_sigma(v, hrs, 0.0, surface.mu_coeffs, surface.sigma_coeffs, surface.sigma_floor)


def test_c03_sigmoid_centering(ref_surface):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        hrs = float(rng.uniform(*ref_surface.r_range))
        t_pw = ref_surface.center_pulse_width(1.8, hrs)
        p = p_switch(math.log10(t_pw), *device_moments(ref_surface, 1.8, hrs))
        worst = max(worst, abs(p - 0.5))
    report(
        "C03 sigmoid-centering",
        worst <= 1e-12,
        f"P_switch at centered pulse = 0.5 +/- {worst:.2e} over 100 random HRS (tol 1e-12)",
    )


def test_c04_distribution_fidelity(ref_surface):
    rng = np.random.default_rng(104)
    worst_p = 1.0
    worst_gap = 0.0
    for _ in range(10):
        v = float(rng.uniform(*ref_surface.v_range))
        hrs = float(rng.uniform(*ref_surface.r_range))
        mu, sg = device_moments(ref_surface, v, hrs)
        draws = sample_tset(mu, sg, rng, size=100_000)
        logs = np.log10(draws)
        ks = scistats.kstest(logs, "norm", args=(mu, sg))
        worst_p = min(worst_p, ks.pvalue)
        t_pw = 10.0 ** (mu + sg * float(rng.uniform(-1.5, 1.5)))
        gap = abs(float(np.mean(draws <= t_pw)) - p_switch(math.log10(t_pw), mu, sg))
        worst_gap = max(worst_gap, gap)
    report(
        "C04 distribution-fidelity",
        worst_p > 0.01 and worst_gap <= 0.01,
        f"KS min p = {worst_p:.3f} (> 0.01) and empirical-vs-analytic switch gap "
        f"{worst_gap:.4f} (<= 0.01) at 10 operating points x 1e5 draws",
    )


def test_c05_surface_fit_recovery():
    t0 = time.perf_counter()
    true = (3.35, -7.5, 0.012, 1.25, -2.0e-5, 6.0e-3)
    rng = np.random.default_rng(105)
    vs = np.linspace(1.0, 3.0, 12)
    rs = np.linspace(10.0, 500.0, 12)
    vv, rr = np.meshgrid(vs, rs)
    v = np.repeat(vv.ravel(), 70)
    r = np.repeat(rr.ravel(), 70)
    y = poly6(true, v, r) + 0.3 * rng.standard_normal(v.size)
    surf, r2 = fit_surface(np.column_stack([v, r, 10.0**y]))
    rel = max(abs(g - t) / abs(t) for g, t in zip(surf.mu_coeffs, true))
    elapsed = time.perf_counter() - t0
    report(
        "C05 fit-recovery",
        rel <= 0.05 and r2 >= 0.85 and elapsed < 5.0,
        f"{v.size} noisy samples (sigma 0.3 dec): worst coefficient error "
        f"{100 * rel:.2f}% (<= 5%), R^2 = {r2:.3f} (>= 0.85), {elapsed:.1f}s (< 5s)",
    )


def test_c06_gibbs_loop_validation(ref_surface, ref_drift):
    t0 = time.perf_counter()
    inst = MaxCutInstance(
        n=4, edges=((0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, 1), (0, 3, -1)), name="g4"
    )
    form = build_form(inst)
    weights = np.array(
        [math.exp(-energy(form, [(c >> k) & 1 for k in range(4)])) for c in range(16)]
    )
    exact = weights / weights.sum()
    cfg = BoltzmannConfig(max_iters=1, seed=106, activation="logistic", drift=ref_drift)
    state = make_state(inst, cfg, ref_surface)
    counts = np.zeros(16)
    for _ in range(1_000_000):
        step(state)
        counts[state.x[0] | (state.x[1] << 1) | (state.x[2] << 2) | (state.x[3] << 3)] += 1
    tv = 0.5 * float(np.abs(counts / counts.sum() - exact).sum())
    elapsed = time.perf_counter() - t0
    report(
        "C06 gibbs-loop",
        tv <= 0.05 and elapsed < 60.0,
        f"total variation vs exact Boltzmann = {tv:.4f} (<= 0.05) over 1e6 "
        f"iterations in {elapsed:.1f}s (< 60s)",
    )


def test_c07_small_instance_optimality(ref_surface, ref_drift):
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    good = total = 0
    instances = 0
    while instances < 20:
        n = int(rng.integers(8, 17))
        inst = generate_instance(n, 4.0, seed=int(rng.integers(1 << 30)))
        opt, _ = brute_force_maxcut(inst)
        if opt <= 0:
            continue
        instances += 1
        inst = replace(inst, best_known=opt)
        cfg = BoltzmannConfig(
            max_iters=100_000, runs=25, seed=int(rng.integers(1 << 30)),
            stop_on_convergence=True, drift=ref_drift,
        )
        traces, _ = ensemble(inst, cfg, ref_surface)
        good += sum(t.best_cut >= 0.9 * opt for t in traces)
        total += len(traces)
    elapsed = time.perf_counter() - t0
    report(
        "C07 small-instance-optimality",
        good >= 0.95 * total and elapsed < 300.0,
        f"{good}/{total} runs reached >= 90% of brute-force optimum "
        f"(>= 95% required) in {elapsed:.1f}s (< 5 min)",
    )


def test_c08_drift_contrast(ref_surface, ref_drift):
    fixed = cycling_stats(ref_surface, ref_drift, "fixed-input", 100, seed=108)
    monitored = cycling_stats(ref_surface, ref_drift, "monitored", 100, seed=108)
    sep = fixed.mu_drift / max(monitored.mu_drift, 1e-12)
    ok = 0.5 <= fixed.mu_drift <= 2.0 and monitored.mu_drift <= 0.05 and sep >= 10
    report(
        "C08 drift-contrast",
        ok,
        f"100-cycle mu drift: fixed-input {fixed.mu_drift:.3f} dec (in [0.5, 2.0]), "
        f"monitored {monitored.mu_drift:.4f} dec (<= 0.05), separation {sep:.0f}x (>= 10x)",
    )


def test_c09_solvable_size_separation(ref_surface, ref_drift):
    t0 = time.perf_counter()
    sizes = [25, 50, 125, 250, 500, 1000, 2000]
    cfg = BoltzmannConfig(max_iters=1_000_000, runs=5, seed=109, drift=ref_drift)
    ladder = build_size_ladder(sizes, cfg, ref_surface, avg_degree=4.0, seed=109)
    net_drift = DriftModel(
        m_hrs=0.01, s_rw=ref_drift.s_rw, hrs_tolerance=ref_drift.hrs_tolerance
    )
    fixed = max_solvable_size(
        net_drift, ladder, replace(cfg, scheme="fixed-input"), ref_surface
    )
    monitored = max_solvable_size(
        net_drift, ladder, replace(cfg, scheme="monitored"), ref_surface
    )
    elapsed = time.perf_counter() - t0
    detail_rows = ", ".join(
        f"n={r.size}:{'S' if r.solvable else 'x'}" for r in fixed.rows
    )
    ok = (
        monitored.max_solvable >= 10 * fixed.max_solvable
        and monitored.max_solvable >= 500
        and elapsed < 1800.0
    )
    report(
        "C09 solvable-size-separation",
        ok,
        f"max solvable: monitored {monitored.max_solvable}, fixed-input "
        f"{fixed.max_solvable} (m=0.01 kOhm/cycle) -> {monitored.max_solvable}/"
        f"{max(fixed.max_solvable, 1)} >= 10x; fixed rows [{detail_rows}]; "
        f"{elapsed:.0f}s (< 30 min)",
    )


def test_c10_d2d_calibration(ref_surface, ref_drift):
    inst = generate_instance(60, 4.0, seed=110)
    cfg = BoltzmannConfig(max_iters=20_000, runs=10, seed=110, drift=ref_drift)
    result = d2d_experiment(inst, [0.2], cfg, ref_surface)
    row = result.rows[0]
    spread_ratio = row.spread_uncalibrated / max(row.spread_calibrated, 1e-12)
    err_ratio = row.error_calibrated / max(row.error_uncalibrated, 1e-12)
    ok = spread_ratio >= 5.0 and err_ratio <= 0.5
    report(
        "C10 d2d-calibration",
        ok,
        f"cv=20%: mu_eff spread {row.spread_uncalibrated:.3f} -> "
        f"{row.spread_calibrated:.3f} dec ({spread_ratio:.1f}x >= 5x); settling "
        f"error {row.error_uncalibrated:.1f}% -> {row.error_calibrated:.1f}% "
        f"(ratio {err_ratio:.2f} <= 0.5)",
    )


def test_c11_cli_reproducibility(tmp_path):
    import json

    from click.testing import CliRunner

    from stochanneal.cli import main

    inst_path = tmp_path / "k3.rudy"
    inst_path.write_text("3 3\n1 2 1\n1 3 1\n2 3 1\n")
    out1 = tmp_path / "first.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["solve", "--instance", str(inst_path), "--iters", "2000", "--runs", "3",
         "--seed", "111", "--out", str(out1)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    cfgd = manifest["config"]
    out2 = tmp_path / "second.csv"
    res2 = runner.invoke(
        main,
        ["solve", "--instance", cfgd["instance"], "--scheme", cfgd["scheme"],
         "--iters", str(cfgd["max_iters"]), "--runs", str(cfgd["runs"]),
         "--seed", str(manifest["seed"]), "--gain", str(cfgd["gain"]),
         "--d2d-cv", str(cfgd["d2d_cv"]),
         "--calibrate" if cfgd["calibrate"] else "--no-calibrate",
         "--out", str(out2)],
        catch_exceptions=False,
    )
    assert res2.exit_code == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        "C11 reproducibility",
        identical,
        "CLI invocation rebuilt from its manifest reproduced the result CSV "
        "byte-for-byte",
    )
