"""Scripted simulation studies: cycling drift, size scaling, d2d variability,
and the energy-trace smoothing they and the CLI read settling energies from.

Every comparison here is paired: arms that differ in one manipulated variable
(drift on/off, calibrated or not) share the same seed, and the sampler's
stream split guarantees they see identical node picks and Bernoulli
thresholds. Differences in outcomes are attributable to the manipulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .device import (
    SCHEME_FIXED,
    SCHEME_IDEAL,
    DriftModel,
    mu_sigma,
    reset_noise,
    reset_update,
    scheme_code,
)
from .errors import InsufficientTraces, InvalidParameter, MissingBestKnown
from .io_ingest import brute_force_maxcut, generate_instance
from .maxcut import MaxCutInstance
from .sampler import BoltzmannConfig, RunTrace, ensemble, ensemble_runs, run
from .surface import DeviceSurface

# smoothing width as a fraction of the recorded series length
SMOOTH_FRACTION = 0.02
# the nominal log10 Set time a cycled device starts at
CYCLING_MU_TARGET = -5.0
# the plateau of max_meaningful_iterations: within this fraction of |min|
PLATEAU_TOLERANCE = 0.01
# max_solvable_size runs drift ensembles for this many convergence times
HORIZON_FACTOR = 4.0
# runs of the long ideal-scheme ensemble behind a proxy best-known cut
PROXY_RUNS = 3
# an energy stride no run reaches (the largest BoltzmannConfig takes): runs
# whose energy series nobody reads record none
NO_TRACE_STRIDE = 2 ** 53


# -- cycling statistics (distribution drift) ------------------------------------


@dataclass
class CyclingStats:
    mu_drift: float        # decades
    sigma_drift: float     # decades
    mu_series: np.ndarray  # mu_eff after each cycle (index 0 = pristine)


def cycling_stats(
    surface: DeviceSurface,
    drift: DriftModel,
    scheme: str,
    cycles: int,
    *,
    v_ref: float = 1.8,
    seed: int = 0,
) -> CyclingStats:
    """Drift of the log-time distribution over repeated Reset-Set cycles.

    One device, starting at the HRS that puts its mu at CYCLING_MU_TARGET,
    is cycled `cycles` times under `scheme`, with the sampler's own Reset
    update and actuator draws (`device.reset_update`, `device.reset_noise`),
    recording its mu at v_ref after every cycle with the sampler's mu
    expression. The reported mu drift compares the mean over the first and
    last window of cycles // 5 cycles (at least 2): the monitored scheme
    re-draws HRS inside the verify band every cycle, so the distribution's
    location is the windowed mean, not any single draw. The sigma drift
    compares the running standard deviation of the recorded series over
    the first window against the full record.
    """
    if cycles < 2:
        raise InvalidParameter(f"need at least 2 cycles, got {cycles}")
    hrs = surface.hrs_for_mu(CYCLING_MU_TARGET, v_ref)
    surface.check_domain(v_ref, hrs)
    code = scheme_code(scheme)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = reset_noise(code, drift.hrs_tolerance, rng, cycles)
    coeffs = (surface.mu_coeffs, surface.sigma_coeffs, surface.sigma_floor)
    target = hrs
    series = np.empty(cycles + 1)
    series[0] = mu_sigma(v_ref, hrs, 0.0, *coeffs)[0]
    for c, z in enumerate([None] * cycles if noise is None else noise.tolist(), 1):
        hrs, _ = reset_update(code, hrs, target, z, drift.m_hrs, drift.s_rw, *surface.r_range)
        series[c] = mu_sigma(v_ref, hrs, 0.0, *coeffs)[0]
    if series.max() == series.min():
        # untouched state: exactly zero, no float residue from np.std
        return CyclingStats(mu_drift=0.0, sigma_drift=0.0, mu_series=series)
    w = min(max(2, cycles // 5), cycles)
    mu_drift = float(abs(series[-w:].mean() - series[:w].mean()))
    sigma_drift = float(abs(series.std() - series[:w].std()))
    return CyclingStats(mu_drift=mu_drift, sigma_drift=sigma_drift, mu_series=series)


# -- ensemble energy handling ---------------------------------------------------

# Two "2%" smoothing windows: settling_energy_of uses size // 50, the ensemble
# functions below round(SMOOTH_FRACTION * size). They differ at some sizes;
# the `solve-large` and `d2d` benchmark digests pin both.


def moving_average(series, window: int) -> np.ndarray:
    """Centered moving average with edge-truncated windows."""
    a = np.asarray(series)
    if window <= 1 or a.size == 0:
        return a.astype(float, copy=True)
    n = a.size
    lo_span, hi_span = (window - 1) // 2, window // 2
    csum = np.zeros(n + 1)
    np.cumsum(a, dtype=float, out=csum[1:])
    out = np.empty(n)
    # the full windows, then the truncated ones at either end
    head = min(lo_span, n)
    full = out[head:max(head, n - hi_span)]
    np.subtract(csum[window:], csum[:-window], out=full)
    full /= window
    edge = np.r_[0:head, max(head, n - hi_span):n]
    lo, hi = np.maximum(edge - lo_span, 0), np.minimum(edge + hi_span + 1, n)
    out[edge] = (csum[hi] - csum[lo]) / (hi - lo)
    return out


def settling_energy_of(series) -> float:
    """Minimum of the smoothed energy series (window: 2% of its length)."""
    a = np.asarray(series)
    if a.size == 0:
        return math.nan
    return float(moving_average(a, max(1, a.size // 50)).min())


def ensemble_mean_energy(traces: Iterable[RunTrace], min_traces: int = 1) -> tuple[np.ndarray, int]:
    """Mean instantaneous-energy series over runs; returns (series, stride).

    The traces are summed one at a time, in order, into one float array cut
    to the shortest, so an iterator of runs is never held whole. The sums are
    exact while traces * |energy| < 2**53; past that they round in the order
    of numpy's mean over the stacked traces, for any series of 2 or more points.
    """
    total, stride, count = None, None, 0
    for t in traces:
        if total is None:
            total, stride = np.array(t.energies, dtype=float), t.stride
        elif t.stride != stride:
            raise ValueError("traces disagree on energy stride")
        else:
            total = total[:t.energies.size]
            total += t.energies[:total.size]
        count += 1
        del t  # free this run before the next one starts
    if count < min_traces:
        raise InsufficientTraces(f"need >= {min_traces} traces, got {count}")
    if total.size == 0:
        raise InsufficientTraces("traces carry no recorded energies")
    total /= count
    return total, stride


def max_meaningful_iterations(traces: Iterable[RunTrace], window: Optional[int] = None) -> int:
    """Iteration beyond which the ensemble-mean energy stops improving.

    Smooths the mean energy of at least 5 traces with a centered moving
    average and returns the iteration count of the last point still within
    PLATEAU_TOLERANCE * |min| of the smoothed minimum: once a run sits on its
    settling plateau the minimum itself is sampling noise, and the meaningful
    budget is the end of the plateau, not a random dip inside it. A strictly
    descending series maps to the last iteration.
    """
    mean_series, stride = ensemble_mean_energy(traces, min_traces=5)
    if window is None:
        window = max(1, int(round(SMOOTH_FRACTION * mean_series.size)))
    if window < 1:
        raise ValueError("window must be >= 1")
    smoothed = moving_average(mean_series, window)
    lowest = float(smoothed.min())
    band = lowest + PLATEAU_TOLERANCE * abs(lowest)
    last_at_min = smoothed.size - 1 - int(np.argmax(smoothed[::-1] <= band))
    return (last_at_min + 1) * stride


def settling_energy_ensemble(traces: Sequence[RunTrace]) -> float:
    """Minimum of the smoothed ensemble-mean energy series."""
    mean_series, _ = ensemble_mean_energy(traces)
    window = max(1, int(round(SMOOTH_FRACTION * mean_series.size)))
    return float(moving_average(mean_series, window).min())


# -- convergence scaling (problem size sweep) -------------------------------------


@dataclass
class ScalingRow:
    instance: str
    n: int
    converged: list
    converged_count: int
    runs: int

    @property
    def median(self) -> Optional[float]:
        return float(np.median(self.converged)) if self.converged else None


def convergence_scaling(
    instances: Sequence[MaxCutInstance],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> list[ScalingRow]:
    """Iterations to converge within cfg.convergence_fraction of best-known,
    ideal scheme, one ensemble per instance."""
    for inst in instances:
        if inst.best_known is None:
            raise MissingBestKnown(f"instance {inst.name!r} lacks a best-known cut")
    rows = []
    # only converged_at is read, so the runs record no energies
    run_cfg = replace(cfg, scheme=SCHEME_IDEAL, stop_on_convergence=True,
                      energy_stride=NO_TRACE_STRIDE)
    for inst in instances:
        traces, _ = ensemble(inst, run_cfg, surface)
        conv = [t.converged_at for t in traces if t.converged_at is not None]
        rows.append(
            ScalingRow(
                instance=inst.name,
                n=inst.n,
                converged=conv,
                converged_count=len(conv),
                runs=len(traces),
            )
        )
    return rows


def spearman_trend(xs: Sequence[float], ys: Sequence[float]) -> float:
    from scipy.stats import spearmanr

    rho = spearmanr(xs, ys).statistic
    return float(rho)


# -- drift sweep / solvable size ----------------------------------------------------


@dataclass
class SizeRow:
    size: int
    t_conv_median: Optional[float]   # iterations, ideal scheme
    t_meaningful: Optional[int]      # iterations, scheme under test
    solvable: bool


@dataclass
class SolvableResult:
    scheme: str
    m_hrs: float
    rows: list
    max_solvable: int


def max_solvable_size(
    drift: DriftModel,
    ladder: Sequence[tuple[int, Sequence[MaxCutInstance]]],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> SolvableResult:
    """Largest ladder size whose ideal-scheme convergence fits inside the
    meaningful-iteration budget of cfg.scheme under `drift`.

    For non-drifting schemes (ideal, monitored) the energy never stops
    improving by construction and the budget is cfg.max_iters. For the
    fixed-input scheme the budget is measured: ensembles run under drift for
    min(cfg.max_iters, HORIZON_FACTOR * t_conv) iterations and the smoothed
    ensemble-mean energy argmin is taken.
    """
    sizes = [s for s, _ in ladder]
    if sizes != sorted(sizes):
        raise ValueError("ladder sizes must be ascending")
    rows = []
    for size, instances in ladder:
        for inst in instances:
            if inst.best_known is None:
                raise MissingBestKnown(f"ladder instance {inst.name!r} lacks best_known")
        scaling = convergence_scaling(instances, cfg, surface)
        conv = [c for row in scaling for c in row.converged]
        total_runs = sum(row.runs for row in scaling)
        if len(conv) < max(1, total_runs // 2 + 1):
            # the median run never converged inside cfg.max_iters
            rows.append(SizeRow(size=size, t_conv_median=None, t_meaningful=None, solvable=False))
            continue
        # median over all runs, counting non-converged as +inf; finite, since
        # more than half of the runs converged
        padded = conv + [math.inf] * (total_runs - len(conv))
        t_conv = float(np.median(padded))
        if cfg.scheme != SCHEME_FIXED:
            t_mm = cfg.max_iters
        else:
            horizon = int(min(cfg.max_iters, max(HORIZON_FACTOR * t_conv, 2000)))
            drift_cfg = replace(
                cfg,
                scheme=SCHEME_FIXED,
                drift=drift,
                stop_on_convergence=False,
                max_iters=horizon,
            )
            # the drift runs stream into their mean energy, one alive at a time
            t_mm = max_meaningful_iterations(itertools.chain.from_iterable(
                ensemble_runs(inst, drift_cfg, surface) for inst in instances))
        rows.append(
            SizeRow(
                size=size,
                t_conv_median=t_conv,
                t_meaningful=t_mm,
                solvable=t_conv <= t_mm,
            )
        )
    max_solvable = max((r.size for r in rows if r.solvable), default=0)
    return SolvableResult(scheme=cfg.scheme, m_hrs=drift.m_hrs, rows=rows, max_solvable=max_solvable)


# -- device-to-device variability sweep -----------------------------------------------


@dataclass
class D2DRow:
    cv: float
    error_uncalibrated: float   # settling-energy error % vs ideal
    error_calibrated: float
    spread_uncalibrated: float  # std of per-device mu_eff [decades]
    spread_calibrated: float
    calib_failures: float       # mean dropped devices per run
    settling_uncalibrated: float
    settling_calibrated: float


@dataclass
class D2DSweepResult:
    settling_ideal: float
    rows: list


def d2d_experiment(
    inst: MaxCutInstance,
    cv_list: Sequence[float],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> D2DSweepResult:
    """Settling-energy penalty of device-to-device spread, with and without
    per-device HRS calibration, against a cv = 0 baseline on paired seeds."""
    if cfg.runs < 10:
        raise InvalidParameter(f"d2d_experiment needs cfg.runs >= 10, got {cfg.runs}")
    base = replace(cfg, stop_on_convergence=False)
    ideal_traces, _ = ensemble(inst, replace(base, d2d_cv=0.0, calibrate=False), surface)
    e_ideal = settling_energy_ensemble(ideal_traces)
    denom = max(abs(e_ideal), 1e-12)

    rows = []
    for cv in cv_list:
        arms = {}
        for label, calibrated in (("uncal", False), ("cal", True)):
            arms[label], _ = ensemble(inst, replace(base, d2d_cv=cv, calibrate=calibrated),
                                      surface)
        e_uncal = settling_energy_ensemble(arms["uncal"])
        e_cal = settling_energy_ensemble(arms["cal"])
        rows.append(
            D2DRow(
                cv=cv,
                error_uncalibrated=100.0 * max(0.0, e_uncal - e_ideal) / denom,
                error_calibrated=100.0 * max(0.0, e_cal - e_ideal) / denom,
                spread_uncalibrated=float(np.mean([t.mu_eff_spread for t in arms["uncal"]])),
                spread_calibrated=float(np.mean([t.mu_eff_spread for t in arms["cal"]])),
                calib_failures=float(np.mean([t.calib_failures for t in arms["cal"]])),
                settling_uncalibrated=e_uncal,
                settling_calibrated=e_cal,
            )
        )
    return D2DSweepResult(settling_ideal=e_ideal, rows=rows)


# -- benchmark ladder -------------------------------------------------------------------


def _instance_seed(base_seed: int, size: int, k: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(size, k))
    return int(ss.generate_state(1)[0])


def proxy_best_known(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> int:
    """Best cut of a long ideal-scheme reference ensemble (registry 'proxy')."""
    max_iters = min(cfg.max_iters, int(200 * inst.n * max(math.log(inst.n), 1.0)))
    proxy_cfg = replace(
        cfg,
        scheme=SCHEME_IDEAL,
        d2d_cv=0.0,
        calibrate=False,
        stop_on_convergence=False,
        max_iters=max_iters,
        energy_stride=NO_TRACE_STRIDE,  # only best_cut is read
    )
    return int(max(run(inst, proxy_cfg, surface, run_index=r).best_cut for r in range(PROXY_RUNS)))


def build_size_ladder(
    sizes: Sequence[int],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    *,
    avg_degree: float = 4.0,
    seed: int = 1234,
    registry=None,
) -> list[tuple[int, list[MaxCutInstance]]]:
    """One random benchmark instance per size, with its best-known cut attached.

    Sizes <= 20 get exact brute-force optima; larger sizes get a long-run
    proxy. Provenances land in `registry` when one is passed.
    """
    ladder = []
    for size in sorted(sizes):
        inst = generate_instance(
            size, avg_degree, weight_set=(-1, 1), seed=_instance_seed(seed, size, 0)
        )
        if size <= 20:
            cut, _ = brute_force_maxcut(inst)
            provenance = "exact"
        else:
            cut = proxy_best_known(inst, cfg, surface)
            provenance = "proxy"
        inst = replace(inst, best_known=cut)
        if registry is not None:
            registry.set_entry(inst.name, cut, provenance)
        ladder.append((size, [inst]))
    return ladder
