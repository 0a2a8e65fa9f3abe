"""Scripted simulation studies: cycling drift, size scaling, d2d variability,
and the energy-trace smoothing they and the CLI read settling energies from.

Every comparison here is paired: arms that differ in one manipulated variable
(drift on/off, calibrated or not) share the same seed, and the sampler's
stream split guarantees they see identical node picks and Bernoulli
thresholds. Differences in outcomes are attributable to the manipulation.
The d2d arms run through `sampler.paired_runs`, so at each run index they
share one start and one draw of their random blocks, not one per arm.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .device import MU_TARGET, V_CENTER
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
from .sampler import BoltzmannConfig, RunTrace, ensemble, ensemble_runs, paired_runs
from .surface import DeviceSurface

# smoothing width as a fraction of the recorded series length
SMOOTH_FRACTION = 0.02
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
    v_ref: float = V_CENTER,
    seed: int = 0,
) -> CyclingStats:
    """Drift of the log-time distribution over repeated Reset-Set cycles.

    One device, starting at the HRS that puts its mu at MU_TARGET,
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
    hrs = surface.hrs_for_mu(MU_TARGET, v_ref)
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


# points per chunk of the smoother (64 KiB of doubles)
_SMOOTH_CHUNK = 1 << 13


def _running_sum_writer(a: np.ndarray, k: int):
    """A function that writes the next values of S, from S[k] on, into the
    array it is given: S[i] = a[0] + ... + a[i-1] summed in order as floats,
    0 for i <= 0 and the total for i > a.size.

    The sum is carried from call to call into np.cumsum, which adds in order,
    so every value is that of one cumsum over the whole of `a`.
    """
    n = a.size
    carry = 0.0

    def write(dst: np.ndarray) -> None:
        nonlocal k, carry
        zeros = min(max(1 - k, 0), dst.size)
        dst[:zeros] = 0.0
        i0, i1 = k + zeros, min(k + dst.size, n + 1)
        if i1 > i0:
            part = dst[zeros:zeros + i1 - i0]
            part[...] = a[i0 - 1:i1 - 1]
            if i0 > 1:
                part[0] += carry
            np.cumsum(part, out=part)
            carry = part[-1]
        dst[zeros + max(i1 - i0, 0):] = carry
        k += dst.size

    return write


def _smoothed_chunks(series, window: int) -> Iterator[np.ndarray]:
    """`moving_average(series, window)` in consecutive chunks.

    Point j of the average is (S[j + hi + 1] - S[j - lo]) / count_j, with S
    the running sum of `_running_sum_writer`, lo and hi the window's reach
    before and after j, and count_j its size cut to the series. The two sums
    are two writers, one a window behind the other, so no span of the sum is
    held. Every chunk is a view of one buffer that the next chunk
    overwrites, and no buffer is allocated after the first chunk.
    """
    a = np.asarray(series)
    n = a.size
    if n == 0:
        return
    step = _SMOOTH_CHUNK
    out = np.empty(min(step, n))
    if window <= 1:
        for j in range(0, n, step):
            chunk = out[:min(step, n - j)]
            chunk[...] = a[j:j + chunk.size]
            yield chunk
        return
    lo_span, hi_span = (window - 1) // 2, window // 2
    lead, trail = _running_sum_writer(a, 0), _running_sum_writer(a, -lo_span)
    behind = np.empty_like(out)
    for k in range(0, hi_span + 1, behind.size):  # the lead starts at S[hi_span + 1]
        lead(behind[:hi_span + 1 - k])
    offsets = np.arange(out.size)
    lo, count = np.empty_like(offsets), np.empty_like(offsets)
    for j in range(0, n, step):
        size = min(step, n - j)
        chunk = out[:size]
        lead(chunk)
        trail(behind[:size])
        chunk -= behind[:size]
        if lo_span <= j and j + size <= n - hi_span:
            chunk /= window
        else:
            # count_j = min(j + hi_span + 1, n) - max(j - lo_span, 0)
            np.add(offsets[:size], j + hi_span + 1, out=count[:size])
            np.minimum(count[:size], n, out=count[:size])
            np.add(offsets[:size], j - lo_span, out=lo[:size])
            np.maximum(lo[:size], 0, out=lo[:size])
            np.subtract(count[:size], lo[:size], out=count[:size])
            chunk /= count[:size]
        yield chunk


def moving_average(series, window: int) -> np.ndarray:
    """Centered moving average with edge-truncated windows."""
    a = np.asarray(series)
    out = np.empty(a.size)
    j = 0
    for chunk in _smoothed_chunks(a, window):
        out[j:j + chunk.size] = chunk
        j += chunk.size
    return out


def _smoothed_min(series, window: int) -> float:
    """Minimum of moving_average(series, window), one chunk at a time."""
    lowest = math.inf
    for chunk in _smoothed_chunks(series, window):
        lowest = np.minimum(lowest, chunk.min())
    return float(lowest)


def settling_energy_of(series) -> float:
    """Minimum of the smoothed energy series (window: 2% of its length)."""
    a = np.asarray(series)
    if a.size == 0:
        return math.nan
    return _smoothed_min(a, max(1, a.size // 50))


class _EnergySum:
    """The running float sum of energy traces, added one at a time, in order,
    into one array cut to the shortest."""

    def __init__(self):
        self.total, self.stride, self.count = None, None, 0

    def add(self, t: RunTrace) -> None:
        if self.total is None:
            self.total, self.stride = np.array(t.energies, dtype=float), t.stride
        elif t.stride != self.stride:
            raise ValueError("traces disagree on energy stride")
        else:
            self.total = self.total[:t.energies.size]
            self.total += t.energies[:self.total.size]
        self.count += 1

    def mean(self, min_traces: int = 1) -> tuple[np.ndarray, int]:
        """(mean series, stride); the sum is divided in place, so call it once."""
        if self.count < min_traces:
            raise InsufficientTraces(f"need >= {min_traces} traces, got {self.count}")
        if self.total.size == 0:
            raise InsufficientTraces("traces carry no recorded energies")
        self.total /= self.count
        return self.total, self.stride


def ensemble_mean_energy(traces: Iterable[RunTrace], min_traces: int = 1) -> tuple[np.ndarray, int]:
    """Mean instantaneous-energy series over runs; returns (series, stride).

    The traces are summed one at a time, in order, into one float array cut
    to the shortest, so an iterator of runs is never held whole. The sums are
    exact while traces * |energy| < 2**53; past that they round in the order
    of numpy's mean over the stacked traces, for any series of 2 or more points.
    """
    energy_sum = _EnergySum()
    for t in traces:
        energy_sum.add(t)
        del t  # free this run before the next one starts
    return energy_sum.mean(min_traces)


def max_meaningful_iterations(traces: Iterable[RunTrace]) -> int:
    """Iteration beyond which the ensemble-mean energy stops improving.

    Smooths the mean energy of at least 5 traces with a centered moving
    average SMOOTH_FRACTION of the series wide and returns the iteration
    count of the last point still within PLATEAU_TOLERANCE * |min| of the
    smoothed minimum: once a run sits on its settling plateau the minimum
    itself is sampling noise, and the meaningful budget is the end of the
    plateau, not a random dip inside it. A strictly descending series maps
    to the last iteration.
    """
    mean_series, stride = ensemble_mean_energy(traces, min_traces=5)
    window = max(1, int(round(SMOOTH_FRACTION * mean_series.size)))
    lowest = _smoothed_min(mean_series, window)
    band = lowest + PLATEAU_TOLERANCE * abs(lowest)
    # the last point in the band (the last point if none is, as for NaN)
    last_in_band, j = mean_series.size - 1, 0
    for chunk in _smoothed_chunks(mean_series, window):
        in_band = np.flatnonzero(chunk <= band)
        if in_band.size:
            last_in_band = j + int(in_band[-1])
        j += chunk.size
    return (last_in_band + 1) * stride


def settling_energy_ensemble(traces: Iterable[RunTrace]) -> float:
    """Minimum of the smoothed ensemble-mean energy series; the traces are
    summed one at a time, so an iterator of runs is never held whole."""
    return _settling_of_mean(ensemble_mean_energy(traces)[0])


def _settling_of_mean(mean_series: np.ndarray) -> float:
    return _smoothed_min(mean_series, max(1, int(round(SMOOTH_FRACTION * mean_series.size))))


# -- convergence scaling (problem size sweep) -------------------------------------


@dataclass
class ScalingRow:
    instance: str
    n: int
    converged: list
    runs: int

    @property
    def median(self) -> Optional[float]:
        return float(np.median(self.converged)) if self.converged else None


def convergence_scaling(
    instances: Sequence[MaxCutInstance],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    loops: Optional[collections.Counter] = None,
) -> list[ScalingRow]:
    """Iterations to converge within sampler.CONVERGENCE_FRACTION of best-known,
    ideal scheme, one ensemble per instance, each run counted in `loops`."""
    for inst in instances:
        if inst.best_known is None:
            raise MissingBestKnown(f"instance {inst.name!r} lacks a best-known cut")
    rows = []
    # only converged_at is read, so the runs record no energies
    run_cfg = replace(cfg, scheme=SCHEME_IDEAL, stop_on_convergence=True,
                      energy_stride=NO_TRACE_STRIDE)
    for inst in instances:
        traces = list(_noting_loops(ensemble(inst, run_cfg, surface), loops))
        conv = [t.converged_at for t in traces if t.converged_at is not None]
        rows.append(ScalingRow(instance=inst.name, n=inst.n, converged=conv, runs=len(traces)))
    return rows


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


def max_solvable_sizes(
    drifts: Sequence[DriftModel],
    schemes: Sequence[str],
    ladder: Sequence[tuple[int, Sequence[MaxCutInstance]]],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    loops: Optional[collections.Counter] = None,
) -> list[SolvableResult]:
    """`max_solvable_size` for every (drift, scheme) arm, drift-major.

    The ideal-scheme convergence time of a rung depends on neither the drift
    nor the scheme, so each rung's convergence ensemble runs once, whatever
    the number of arms. Only the fixed-input arms run anything else. Every
    run is counted in `loops` when it is passed.
    """
    sizes = [s for s, _ in ladder]
    if sizes != sorted(sizes):
        raise ValueError("ladder sizes must be ascending")
    for scheme in schemes:
        scheme_code(scheme)  # raises on an unknown scheme
    arms = [(drift, scheme) for drift in drifts for scheme in schemes]
    rows = [[] for _ in arms]
    for size, instances in ladder:
        scaling = convergence_scaling(instances, cfg, surface, loops)
        conv = [c for row in scaling for c in row.converged]
        total_runs = sum(row.runs for row in scaling)
        if len(conv) < max(1, total_runs // 2 + 1):
            # the median run never converged inside cfg.max_iters
            for arm_rows in rows:
                arm_rows.append(SizeRow(size=size, t_conv_median=None, t_meaningful=None,
                                        solvable=False))
            continue
        # median over all runs, counting non-converged as +inf; finite, since
        # more than half of the runs converged
        padded = conv + [math.inf] * (total_runs - len(conv))
        t_conv = float(np.median(padded))
        horizon = int(min(cfg.max_iters, max(HORIZON_FACTOR * t_conv, 2000)))
        for (drift, scheme), arm_rows in zip(arms, rows):
            if scheme != SCHEME_FIXED:
                t_mm = cfg.max_iters
            else:
                drift_cfg = replace(cfg, scheme=SCHEME_FIXED, drift=drift,
                                    stop_on_convergence=False, max_iters=horizon)
                # the drift runs stream into their mean energy, one alive at a time
                t_mm = max_meaningful_iterations(_noting_loops(itertools.chain.from_iterable(
                    ensemble_runs(inst, drift_cfg, surface) for inst in instances), loops))
            arm_rows.append(SizeRow(size=size, t_conv_median=t_conv, t_meaningful=t_mm,
                                    solvable=t_conv <= t_mm))
    return [
        SolvableResult(scheme=scheme, m_hrs=drift.m_hrs, rows=arm_rows,
                       max_solvable=max((r.size for r in arm_rows if r.solvable), default=0))
        for (drift, scheme), arm_rows in zip(arms, rows)
    ]


def _noting_loops(runs: Iterable, loops: Optional[collections.Counter]) -> Iterable:
    """`runs`, RunTraces or `paired_runs`' (arm, RunTrace) pairs, each counted
    as it passes in `loops`, when given, under (RunTrace.kernel,
    RunTrace.drawn_ahead): the tally `io_ingest.write_manifest` renders."""
    def note(item):
        t = item[1] if isinstance(item, tuple) else item
        loops[t.kernel, t.drawn_ahead] += 1
        return item
    # map, unlike a generator, holds no run between items
    return runs if loops is None else map(note, runs)


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
    return max_solvable_sizes([drift], [cfg.scheme], ladder, cfg, surface)[0]


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
    loops: Optional[collections.Counter] = None,
) -> D2DSweepResult:
    """Settling-energy penalty of device-to-device spread, with and without
    per-device HRS calibration, against a cv = 0 baseline on paired seeds.
    Every run is counted in `loops` when it is passed."""
    if cfg.runs < 10:
        raise InvalidParameter(f"d2d_experiment needs cfg.runs >= 10, got {cfg.runs}")
    base = replace(cfg, stop_on_convergence=False)
    # the ideal arm, then the uncalibrated and calibrated arm of each cv
    arms = [(0.0, False)] + [(cv, calibrated) for cv in cv_list for calibrated in (False, True)]
    cfgs = [replace(base, d2d_cv=cv, calibrate=calibrated) for cv, calibrated in arms]
    sums = [_EnergySum() for _ in arms]
    settling = [math.nan] * len(arms)
    spreads, failures = [[] for _ in arms], [[] for _ in arms]
    # each arm streams its runs into its ensemble mean, holding no run, and
    # its sum is freed once its last run is in
    for a, t in _noting_loops(paired_runs(inst, cfgs, surface), loops):
        sums[a].add(t)
        spreads[a].append(t.mu_eff_spread)
        failures[a].append(t.calib_failures)
        del t  # free this run before the next one starts
        if sums[a].count == cfgs[a].runs:
            settling[a] = _settling_of_mean(sums[a].mean()[0])
            sums[a] = None
    spread = [float(np.mean(s)) for s in spreads]
    e_ideal = settling[0]
    denom = max(abs(e_ideal), 1e-12)

    rows = []
    for k, cv in enumerate(cv_list):
        uncal, cal = 1 + 2 * k, 2 + 2 * k
        rows.append(
            D2DRow(
                cv=cv,
                error_uncalibrated=100.0 * max(0.0, settling[uncal] - e_ideal) / denom,
                error_calibrated=100.0 * max(0.0, settling[cal] - e_ideal) / denom,
                spread_uncalibrated=spread[uncal],
                spread_calibrated=spread[cal],
                calib_failures=float(np.mean(failures[cal])),
                settling_uncalibrated=settling[uncal],
                settling_calibrated=settling[cal],
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
    loops: Optional[collections.Counter] = None,
) -> int:
    """Best cut of a long ideal-scheme ensemble of PROXY_RUNS runs (registry 'proxy'),
    streamed from `ensemble_runs`, `cfg.jobs` at a time, and counted in `loops` if given."""
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
    runs = ensemble_runs(inst, replace(proxy_cfg, runs=PROXY_RUNS), surface)
    return int(max(t.best_cut for t in _noting_loops(runs, loops)))


def build_size_ladder(
    sizes: Sequence[int],
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    *,
    avg_degree: float = 4.0,
    seed: int = 1234,
    registry=None,
    loops: Optional[collections.Counter] = None,
) -> list[tuple[int, list[MaxCutInstance]]]:
    """One random benchmark instance per size, with its best-known cut attached.

    Sizes <= 20 get exact brute-force optima; larger sizes get a long-run
    proxy. Provenances land in `registry` when one is passed, and the proxy
    runs are counted in `loops` when it is passed.
    """
    small = [s for s in sizes if s < 2]
    if small:
        raise InvalidParameter(f"ladder sizes must be >= 2, got {small[0]}")
    ladder = []
    for size in sorted(sizes):
        inst = generate_instance(
            size, avg_degree, weight_set=(-1, 1), seed=_instance_seed(seed, size, 0)
        )
        if size <= 20:
            cut, _ = brute_force_maxcut(inst)
            provenance = "exact"
        else:
            cut = proxy_best_known(inst, cfg, surface, loops)
            provenance = "proxy"
        inst = replace(inst, best_known=cut)
        if registry is not None:
            registry.set_entry(inst.name, cut, provenance)
        ladder.append((size, [inst]))
    return ladder
