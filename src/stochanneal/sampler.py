"""Boltzmann-machine SGD loop driven by stochastic RRAM neurons.

One iteration samples exactly one neuron: the node's local field u_i is
mapped to a Set-pulse voltage, the device's switching probability at the
shared pulse width decides x_i in {0, 1} (assignment, not flip), the local
fields are repaired incrementally, and the sampled device undergoes one
Reset-Set cycle under its management scheme.

Reproducibility contract: a run is a pure function of (instance, config,
seed, run_index). Randomness is split into five independent child streams of
numpy's SeedSequence(seed, spawn_key=(run_index,)) - initial configuration,
device offsets, calibration noise, loop draws (node picks + Bernoulli
thresholds), and scheme actuator noise - so paired comparisons (ideal vs
drifting, calibrated vs not) see identical loop dynamics.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import logging
import math
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .device import (
    SCHEME_IDEAL,
    DriftModel,
    calibrate,
    field_to_voltage,
    mu_sigma,
    p_logistic,
    p_switch,
    reset_noise,
    reset_update,
    scheme_code,
)
from .errors import InvalidParameter, MissingBestKnown, NonMonotone, NonPositivePulse, Unattainable
from .maxcut import BoltzmannForm, MaxCutInstance, init_fields
from .maxcut import build_form  # noqa: F401  perfbench/tracer.py wraps it at this name
from .maxcut import energy as energy_of
from .surface import DeviceSurface, poly6

log = logging.getLogger(__name__)

_RNG_BLOCK = 8192

ACTIVATION_DEVICE = "device"
ACTIVATION_LOGISTIC = "logistic"


@dataclass
class BoltzmannConfig:
    """Everything a run needs besides the instance and the fitted surface."""

    v_center: float = 1.8
    v_min: float = 1.6
    v_max: float = 2.2
    gain: float = 0.2              # volts per unit of normalized field
    t_pw: Optional[float] = None   # None: centered at (v_center, nominal HRS)
    mu_target: float = -5.0        # nominal log10 Set-time the neurons bias to
    nominal_hrs: Optional[float] = None  # None: solve mu_target at v_center
    max_iters: int = 10_000
    runs: int = 1
    seed: int = 0
    scheme: str = SCHEME_IDEAL
    drift: DriftModel = field(default_factory=DriftModel)
    d2d_cv: float = 0.0            # fractional std of per-device mu offset
    calibrate: bool = False
    calibration_precision: float = 0.2
    convergence_fraction: float = 0.9
    activation: str = ACTIVATION_DEVICE
    stop_on_convergence: bool = False
    energy_stride: Optional[int] = None  # None: 1 if n <= 512 else n
    jobs: int = 1

    def __post_init__(self):
        if not self.v_min <= self.v_center <= self.v_max:
            raise InvalidParameter("need v_min <= v_center <= v_max")
        if self.gain <= 0:
            raise InvalidParameter("gain must be > 0")
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise InvalidParameter("convergence_fraction must be in (0, 1]")
        if not 0.0 <= self.calibration_precision < 1.0:
            raise InvalidParameter("calibration_precision must be in [0, 1)")
        scheme_code(self.scheme)  # raises on an unknown scheme
        if self.activation not in (ACTIVATION_DEVICE, ACTIVATION_LOGISTIC):
            raise InvalidParameter(f"unknown activation {self.activation!r}")
        # the kernel takes the stride as a double (see Params)
        if self.energy_stride is not None and not 1 <= self.energy_stride <= 2 ** 53:
            raise InvalidParameter("energy_stride must be in [1, 2**53]")


@dataclass
class RunTrace:
    """Per-run record: energy series plus summary statistics."""

    energies: np.ndarray            # recorded every `stride` iterations
    stride: int
    best_cut: int
    best_x: np.ndarray
    converged_at: Optional[int]
    iterations: int
    cycles_per_device: np.ndarray
    clamp_events: int
    mu_eff_spread: float
    calib_failures: int
    u_scale: float
    run_index: int
    kernel: str = "python"          # the loop that ran: "c" or "python"


@dataclass
class EnsembleSummary:
    runs: int
    converged_count: int
    converged_median: Optional[float]
    converged_q25: Optional[float]
    converged_q75: Optional[float]
    best_cut_median: float
    best_cut_min: int
    best_cut_max: int


# A run's constants. The field order is `par[]` in `_kernel.c`, so
# `np.array(params, dtype=np.float64)` is the vector `sa_advance` takes; the
# integer fields at the end (scheme: an index into device.SCHEMES) are exact
# as doubles. The mu and sigma coefficients are in COEFF_NAMES order; a
# threshold of NaN means that no cut counts as converged.
Params = collections.namedtuple("Params", (
    "vc vmin vmax gain inv_uscale log_tpw "
    "mc00 mc10 mc01 mc20 mc02 mc11 sc00 sc10 sc01 sc20 sc02 sc11 floor "
    "m_hrs s_rw r_lo r_hi threshold scheme logistic stride stop_on_conv"
))


@dataclass(eq=False)
class State:
    """One run in progress: its parameter record, flat arrays and counters.

    The arrays are the kernel's: x and best_x int8; u int64, or Python ints
    in an object array when the instance's fields need more than 53 bits;
    hrs, targets and offs float64; cyc int64. `step` advances the state.
    """

    params: Params
    form: BoltzmannForm
    x: np.ndarray
    u: np.ndarray
    hrs: np.ndarray
    targets: np.ndarray
    offs: np.ndarray
    cyc: np.ndarray
    best_x: np.ndarray
    energy: int
    best_energy: int
    converged_at: Optional[int]
    clamps: int
    draws: Iterator                 # RNG blocks, see _draws
    u_scale: float
    calib_failures: int
    mu_eff_spread: float
    t: int = 0
    block: Optional[tuple] = None   # the RNG block in use, consumed from `cursor` on
    cursor: int = 0


def _draws(ss_loop, ss_scheme, n: int, scheme: int, tol: float):
    """Endless RNG blocks: (node picks, Bernoulli thresholds, Reset noise)."""
    rng_loop = np.random.default_rng(ss_loop)
    rng_scheme = np.random.default_rng(ss_scheme)
    while True:
        yield (rng_loop.integers(0, n, _RNG_BLOCK), rng_loop.random(_RNG_BLOCK),
               reset_noise(scheme, tol, rng_scheme, _RNG_BLOCK))


def _next_block(state: State) -> None:
    state.block = None  # free the spent block before drawing the next
    state.block = next(state.draws)
    state.cursor = 0


def step(state: State) -> None:
    """Advance one iteration: sample one neuron, cycle its device."""
    _advance(state, 1)


def _advance(state: State, steps: int, kernel=None) -> np.ndarray:
    """Run up to `steps` iterations; returns the energies recorded meanwhile.

    This is the one walk over the pre-drawn RNG blocks. Each block slice is
    run by `_reference_loop`, or by the compiled `sa_advance` through
    `_kernel_loop(kernel, state)` when a kernel is given; both are called as
    `loop(state, todo, trace, at)`, write the energies they record into one
    int64 trace sized for `steps` from index `at` on, and leave the state as
    it stands after their last iteration. A run that stops on convergence
    (always after at least one iteration) returns a trimmed copy.
    """
    stride, stop_on_conv = state.params.stride, state.params.stop_on_conv
    t0 = state.t
    tend = t0 + steps
    trace = np.empty(tend // stride - t0 // stride, dtype=np.int64)
    loop = _reference_loop if kernel is None else _kernel_loop(kernel, state)
    while state.t < tend:
        if state.block is None or state.cursor == _RNG_BLOCK:
            _next_block(state)
        t = state.t
        loop(state, min(_RNG_BLOCK - state.cursor, tend - t), trace, t // stride - t0 // stride)
        state.cursor += state.t - t
        if stop_on_conv and state.converged_at is not None:
            break
    kept = state.t // stride - t0 // stride
    return trace if kept == trace.size else trace[:kept].copy()


def _reference_loop(state: State, todo: int, trace: np.ndarray, at: int) -> None:
    """Run up to `todo` iterations from the block cursor; energies go to trace[at:].

    The reference form of the sampling dynamics, written with the device
    functions and worked on lists of the state's arrays. `_kernel.c` mirrors
    it expression for expression; `TestKernel` and `TestBitIdentity` in
    tests/test_sampler.py hold the two equal bit for bit.
    """
    (vc, vmin, vmax, gain, inv_uscale, log_tpw, *coeffs, floor, m_hrs, s_rw, r_lo, r_hi,
     threshold, scheme, logistic, stride, stop_on_conv) = state.params
    indptr, indices, wts = state.form.csr_lists
    k = state.cursor
    nodes, unifs, noise = state.block
    nodes, unifs = nodes[k:k + todo].tolist(), unifs[k:k + todo].tolist()
    x, u, cyc = state.x.tolist(), state.u.tolist(), state.cyc.tolist()
    if scheme:
        noise, targets = noise[k:k + todo].tolist(), state.targets.tolist()
    if scheme or not logistic:
        hrs = state.hrs.tolist()
    if not logistic:
        mc, sc, offs = coeffs[:6], coeffs[6:], state.offs.tolist()
    energy, best_energy = state.energy, state.best_energy
    converged_at, clamps, t = state.converged_at, state.clamps, state.t
    best_x = None  # a copy of x at each new best

    for j in range(todo):
        i = nodes[j]
        u_i = u[i]

        if logistic:
            p = p_logistic(u_i)
        else:
            v = field_to_voltage(u_i, vc, vmin, vmax, gain, inv_uscale)
            mu, sg = mu_sigma(v, hrs[i], offs[i], mc, sc, floor)
            p = p_switch(log_tpw, mu, sg)

        new = 1 if unifs[j] < p else 0
        old = x[i]
        if new != old:
            delta = new - old
            x[i] = new
            for kk in range(indptr[i], indptr[i + 1]):
                u[indices[kk]] += wts[kk] * delta
            energy -= u_i * delta
            if energy < best_energy:
                best_energy = energy
                best_x = x.copy()
                if converged_at is None and -energy >= threshold:
                    converged_at = t + 1

        # one Reset-Set per sampling
        cyc[i] += 1
        if scheme:
            hrs[i], clamped = reset_update(scheme, hrs[i], targets[i], noise[j],
                                           m_hrs, s_rw, r_lo, r_hi)
            clamps += clamped

        t += 1
        if t % stride == 0:
            trace[at] = energy
            at += 1
        if stop_on_conv and converged_at is not None:
            break

    state.x[...] = x
    state.u[...] = u
    state.cyc[...] = cyc
    if scheme:
        state.hrs[...] = hrs
    if best_x is not None:
        state.best_x[...] = best_x
    state.energy, state.best_energy = energy, best_energy
    state.converged_at, state.clamps, state.t = converged_at, clamps, t


# -- compiled kernel ------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 60
_P = ctypes.c_void_p
_KERNEL_ARGTYPES = (ctypes.c_int64, _P, _P, _P, ctypes.c_int64) + (_P,) * 13 + (ctypes.c_int64, _P)
# the most entries a p_switch table may have (see _uses_table)
_TABLE_CAP = 2 ** 16
# the self-check grid: erf over the range the device activation reaches,
# exp at the integer arguments the logistic activation passes it
_ERF_GRID = tuple(k * 0.011718 + 1e-9 * k * k for k in range(-700, 701))
_EXP_GRID = tuple(float(k) for k in range(-800, 500)) + _ERF_GRID

_kernel = None  # the loaded sa_advance; False once loading has failed


def load_kernel():
    """The compiled sampling kernel, or None when `run` must use the Python loop.

    The first call compiles `_kernel.c` with the system `cc` into a private
    per-user cache (a temporary directory if that cache is not private),
    loads it with ctypes and checks that its `erf` and `exp` equal
    `math.erf` and `math.exp` bit for bit. Any failure (no compiler, a
    compile error, a failed self-check) is logged once and gives None.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build_kernel()
        except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
            log.warning("compiled sampling kernel unavailable, using the Python loop: %s", exc)
            _kernel = False
    return _kernel or None


def _build_kernel():
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler `cc` on PATH")
    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_KERNEL_FLAGS).encode(), sys.platform.encode(),
         platform.machine().encode()]
    )).hexdigest()[:24]
    so_name = f"_kernel-{key}.so"
    cache = _private_cache_dir()
    if cache is not None:
        lib = _compile_and_load(cc, source, cache / so_name)
    else:
        # the loaded library stays mapped after its file is removed
        with tempfile.TemporaryDirectory(prefix="stochanneal-") as tmp:
            lib = _compile_and_load(cc, source, Path(tmp) / so_name)
    for fn in (lib.sa_erf, lib.sa_exp):
        fn.restype = ctypes.c_double
        fn.argtypes = (ctypes.c_double,)
    checks = (("erf", lib.sa_erf, math.erf, _ERF_GRID), ("exp", lib.sa_exp, math.exp, _EXP_GRID))
    for name, ours, ref, grid in checks:
        for z in grid:
            if ours(z).hex() != ref(z).hex():
                raise RuntimeError(f"self-check failed: C {name}({z!r}) = {ours(z)!r}, "
                                   f"Python gives {ref(z)!r}")
    fn = lib.sa_advance
    fn.restype = ctypes.c_int64
    fn.argtypes = _KERNEL_ARGTYPES
    return fn


def _private_cache_dir() -> Optional[Path]:
    """`${XDG_CACHE_HOME:-~/.cache}/stochanneal` if it is private to this user."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base, "stochanneal")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.lstat()
    except OSError as exc:
        log.warning("kernel cache %s unusable (%s); compiling into a temporary directory",
                    path, exc)
        return None
    if not (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and stat.S_IMODE(st.st_mode) == 0o700):
        log.warning("kernel cache %s is not a directory of mode 0700 owned by this user; "
                    "compiling into a temporary directory", path)
        return None
    return path


def _compile_and_load(cc: str, source: bytes, so: Path):
    if not so.exists():
        # compile beside the target and rename, so concurrent workers never
        # load a half-written library
        fd, tmp = tempfile.mkstemp(dir=so.parent, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *_KERNEL_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True, timeout=_COMPILE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                err = proc.stderr.decode(errors="replace").strip()
                raise RuntimeError(f"{cc} exited with {proc.returncode}: {err[:500]}")
            os.replace(tmp, so)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(so))


def _same_bits(a: np.ndarray) -> bool:
    """Whether every entry of a float64 array has the first one's bit pattern."""
    bits = a.view(np.uint64)
    return bool((bits == bits[0]).all())


def _uses_table(state: State) -> bool:
    """Whether the kernel may cache p_switch by local field in a table.

    Only when p depends on u_i alone: always under the logistic activation;
    under the device activation, with the ideal scheme (no Reset moves an
    HRS) and every device at the same HRS and the same offset, bit for bit.
    Every |u_i| is at most the form's `field_bound` U, so the table has
    2U + 1 slots; above _TABLE_CAP of them the kernel runs without one.
    """
    params = state.params
    field_alone = params.logistic or (
        not params.scheme and _same_bits(state.hrs) and _same_bits(state.offs))
    return field_alone and 2 * state.form.field_bound + 1 <= _TABLE_CAP


def _kernel_loop(kernel, state: State):
    """`_reference_loop` as run by the compiled kernel, with equal results.

    The state's arrays, its `par` vector and the p_switch table are checked
    and packed once; each call of the loop returned runs `sa_advance` over
    one block slice on the state's arrays in place and writes the counters
    back. The caller checks the form's `fits_in_53_bits` first. When
    `_uses_table` allows, the table of p_switch by local field u_i (slot
    u_i + U, U = `form.field_bound`) starts all NaN ("not yet"); the kernel
    fills a slot with the loop's own expression the first time it meets
    that field, so it holds the double the loop would compute again, and
    skips the mu/sigma polynomials and `erf` on every later visit.
    """
    form = state.form
    n, m = form.n, form.indices.size
    # sa_advance's array arguments, in order, with the type and size it reads
    arrays = ((state.x, np.int8, n), (state.u, np.int64, n), (state.cyc, np.int64, n),
              (state.best_x, np.int8, n), (form.indptr, np.int64, n + 1),
              (form.indices, np.int64, m), (form.weights, np.int64, m),
              (state.hrs, np.float64, n), (state.offs, np.float64, n),
              (state.targets, np.float64, n))
    if not all(a.dtype == dtype and a.shape == (size,) and a.flags.c_contiguous
               for a, dtype, size in arrays):
        raise ValueError("run state arrays disagree in type or size with the instance")
    par = np.array(state.params, dtype=np.float64)
    io = np.array([state.t, state.energy, state.best_energy,
                   -1 if state.converged_at is None else state.converged_at,
                   state.clamps], dtype=np.int64)
    table = np.full(2 * form.field_bound + 1, np.nan) if _uses_table(state) else None
    tab = (None, 0) if table is None else (table.ctypes.data, form.field_bound)
    args = (n, *(a.ctypes.data for a, _, _ in arrays), par.ctypes.data, io.ctypes.data, *tab)

    def loop(state: State, todo: int, trace: np.ndarray, at: int) -> None:
        k = state.cursor
        nodes, unifs, noise = state.block
        kernel(todo, nodes.ctypes.data + 8 * k, unifs.ctypes.data + 8 * k,
               None if noise is None else noise.ctypes.data + 8 * k, *args,
               trace.ctypes.data + 8 * at)
        state.t, state.energy, state.best_energy, converged_at, state.clamps = io.tolist()
        state.converged_at = None if converged_at < 0 else converged_at

    loop.buffers = (par, table)  # keeps alive the memory `args` points into
    return loop


@functools.lru_cache
def _nominal_hrs(surface: DeviceSurface, mu_target: float, v_center: float) -> float:
    """The HRS that puts a device's mu at mu_target at v_center; solved once."""
    try:
        return surface.hrs_for_mu(mu_target, v_center)
    except (Unattainable, NonMonotone):
        # toy surfaces (constant mu etc.) have no -5 decade point; run at
        # the middle of the fitted window instead
        return 0.5 * (surface.r_range[0] + surface.r_range[1])


def make_state(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
) -> State:
    """Build the initial State for (instance, config, surface, run_index)."""
    if inst.n < 1:
        raise ValueError("instance must have at least one node")
    if not (surface.v_range[0] <= cfg.v_min and cfg.v_max <= surface.v_range[1]):
        raise ValueError(
            f"voltage window [{cfg.v_min}, {cfg.v_max}] escapes the fitted "
            f"surface range {surface.v_range}"
        )
    form = inst.form
    n = inst.n
    root = np.random.SeedSequence(cfg.seed, spawn_key=(run_index,))
    ss_init, ss_dev, ss_cal, ss_loop, ss_scheme = root.spawn(5)

    x = np.random.default_rng(ss_init).integers(0, 2, n).astype(np.int8)
    u = np.array(init_fields(form, x), dtype=np.int64 if form.fits_in_53_bits else object)
    u_scale = float(np.percentile(np.abs(u.astype(float)), 95))
    if u_scale <= 0:
        u_scale = 1.0

    if cfg.nominal_hrs is not None:
        nominal = surface.clamp_hrs(float(cfg.nominal_hrs))
    else:
        nominal = surface.clamp_hrs(_nominal_hrs(surface, cfg.mu_target, cfg.v_center))
    rng_dev = np.random.default_rng(ss_dev)
    if cfg.d2d_cv > 0:
        offs = rng_dev.standard_normal(n) * (cfg.d2d_cv * abs(cfg.mu_target))
    else:
        offs = np.zeros(n)

    clamps = 0
    calib_failures = 0
    if cfg.calibrate:
        cal = calibrate(surface, cfg.mu_target - offs, cfg.v_center,
                        cfg.calibration_precision, np.random.default_rng(ss_cal))
        calib_failures = int(cal.missed.sum())
        if calib_failures:
            log.info("%d/%d devices have offsets outside the tunable window; parked at the "
                     "nearest HRS bound and excluded from the calibrated-spread statistic",
                     calib_failures, n)
        clamps = cal.clamps
        # the calibrated devices, or all of them when none calibrated
        pop = ~cal.missed if calib_failures < n else np.ones(n, dtype=bool)
        spread_pop = poly6(surface.mu_coeffs, cfg.v_center, cal.hrs[pop]) + offs[pop]
        hrs, targets = cal.hrs, cal.hrs.copy()
    else:
        # every device sits at the nominal HRS
        spread_pop = float(surface.eval_mu(cfg.v_center, nominal)) + offs
        hrs, targets = np.full(n, nominal), np.full(n, nominal)
    mu_eff_spread = float(np.std(spread_pop)) if len(spread_pop) > 1 else 0.0

    t_pw = cfg.t_pw if cfg.t_pw is not None else surface.center_pulse_width(cfg.v_center, nominal)
    if t_pw <= 0:
        raise NonPositivePulse(f"t_pw={t_pw} s must be > 0")

    if inst.best_known is not None:
        threshold = cfg.convergence_fraction * inst.best_known
    elif cfg.stop_on_convergence:
        raise MissingBestKnown(
            f"instance {inst.name!r} has no best-known cut; convergence "
            "stopping needs one"
        )
    else:
        threshold = math.nan  # no cut compares >= NaN
    params = Params(
        cfg.v_center, cfg.v_min, cfg.v_max, cfg.gain, 1.0 / u_scale, math.log10(t_pw),
        *surface.mu_coeffs, *surface.sigma_coeffs, surface.sigma_floor,
        cfg.drift.m_hrs, cfg.drift.s_rw, *surface.r_range, threshold,
        scheme_code(cfg.scheme), int(cfg.activation == ACTIVATION_LOGISTIC),
        cfg.energy_stride if cfg.energy_stride is not None else (1 if n <= 512 else n),
        int(cfg.stop_on_convergence),
    )
    e0 = energy_of(form, x)
    return State(
        params=params, form=form, x=x, u=u, hrs=hrs, targets=targets, offs=offs,
        cyc=np.zeros(n, dtype=np.int64), best_x=x.copy(), energy=e0, best_energy=e0,
        converged_at=0 if -e0 >= threshold else None, clamps=clamps,
        draws=_draws(ss_loop, ss_scheme, n, params.scheme, cfg.drift.hrs_tolerance),
        u_scale=u_scale, calib_failures=calib_failures, mu_eff_spread=mu_eff_spread,
    )


def run(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
) -> RunTrace:
    """Execute one seeded run; fully reproducible from (cfg.seed, run_index).

    The compiled kernel runs the loop when it loads and the instance's fields
    fit in 53 bits; `_reference_loop` runs it otherwise. Results are the same.
    """
    state = make_state(inst, cfg, surface, run_index)
    kernel = None
    if inst.form.fits_in_53_bits:
        kernel = load_kernel()
    else:
        log.debug("instance %r has fields of 2**53 or more; using the Python loop", inst.name)
    energies = _advance(state, cfg.max_iters, kernel)
    return RunTrace(
        energies=energies,
        stride=state.params.stride,
        best_cut=-state.best_energy,
        best_x=state.best_x.astype(np.uint8),
        converged_at=state.converged_at,
        iterations=state.t,
        cycles_per_device=state.cyc,
        clamp_events=state.clamps,
        mu_eff_spread=state.mu_eff_spread,
        calib_failures=state.calib_failures,
        u_scale=state.u_scale,
        run_index=run_index,
        kernel="python" if kernel is None else "c",
    )


def _ensemble_worker(args) -> RunTrace:
    inst, cfg, surface, idx = args
    return run(inst, cfg, surface, run_index=idx)


def summarize(traces: Sequence[RunTrace]) -> EnsembleSummary:
    conv = [t.converged_at for t in traces if t.converged_at is not None]
    cuts = [t.best_cut for t in traces]
    return EnsembleSummary(
        runs=len(traces),
        converged_count=len(conv),
        converged_median=float(np.median(conv)) if conv else None,
        converged_q25=float(np.percentile(conv, 25)) if conv else None,
        converged_q75=float(np.percentile(conv, 75)) if conv else None,
        best_cut_median=float(np.median(cuts)),
        best_cut_min=int(min(cuts)),
        best_cut_max=int(max(cuts)),
    )


def ensemble_runs(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> Iterator[RunTrace]:
    """The runs of `ensemble`, yielded in order, so a caller need hold only one."""
    if cfg.runs < 1:
        raise InvalidParameter("runs must be >= 1")
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            yield from pool.map(_ensemble_worker,
                                [(inst, cfg, surface, r) for r in range(cfg.runs)])
    else:
        yield from (run(inst, cfg, surface, run_index=r) for r in range(cfg.runs))


def ensemble(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> tuple[list[RunTrace], EnsembleSummary]:
    """cfg.runs independent runs with derived child seeds; order-stable."""
    traces = list(ensemble_runs(inst, cfg, surface))
    return traces, summarize(traces)
