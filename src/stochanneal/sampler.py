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

import ctypes
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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .device import SCHEME_FIXED, SCHEME_IDEAL, SCHEME_MONITORED, SCHEMES, DriftModel
from .errors import MissingBestKnown, NonMonotone, Unattainable
from .maxcut import BoltzmannForm, MaxCutInstance, build_form, init_fields
from .maxcut import energy as energy_of
from .surface import DeviceSurface

log = logging.getLogger(__name__)

_RNG_BLOCK = 8192
_SQRT1_2 = 1.0 / math.sqrt(2.0)

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
    u_scale_percentile: float = 95.0
    stop_on_convergence: bool = False
    energy_stride: Optional[int] = None  # None: 1 if n <= 512 else n
    jobs: int = 1

    def __post_init__(self):
        if not self.v_min <= self.v_center <= self.v_max:
            raise ValueError("need v_min <= v_center <= v_max")
        if self.gain <= 0:
            raise ValueError("gain must be > 0")
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise ValueError("convergence_fraction must be in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.activation not in (ACTIVATION_DEVICE, ACTIVATION_LOGISTIC):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.energy_stride is not None and self.energy_stride < 1:
            raise ValueError("energy_stride must be >= 1")


@dataclass
class RunTrace:
    """Per-run record: energy series plus summary statistics."""

    energies: np.ndarray            # recorded every `stride` iterations
    stride: int
    best_cut: int
    best_x: np.ndarray
    converged_at: Optional[int]
    settling_energy: float
    iterations: int
    cycles_per_device: np.ndarray
    clamp_events: int
    mu_eff_spread: float
    calib_failures: int
    u_scale: float
    seed: int
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
    settling_mean: float
    settling_median: float


def map_field_to_voltage(cfg: BoltzmannConfig, u_i: float, u_scale: float) -> float:
    """Scale/shift a local field into the device input window (clamped)."""
    if u_scale <= 0:
        raise ValueError("u_scale must be > 0")
    v = cfg.v_center + cfg.gain * (u_i / u_scale)
    return min(max(v, cfg.v_min), cfg.v_max)


def moving_average(series, window: int) -> np.ndarray:
    """Centered moving average with edge-truncated windows."""
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


def settling_energy_of(series, window: Optional[int] = None) -> float:
    """Minimum of the smoothed energy series (default window: 2% of length)."""
    a = np.asarray(series, dtype=float)
    if a.size == 0:
        return math.nan
    if window is None:
        window = max(1, a.size // 50)
    return float(moving_average(a, window).min())


class RunState:
    """Mutable state of one run; `step` advances it one iteration."""

    __slots__ = (
        "n", "x", "u", "energy", "indptr", "indices", "wts",
        "hrs", "offs", "targets", "cyc", "clamps",
        "scheme_code", "m_hrs", "s_rw", "tol", "r_lo", "r_hi",
        "mc00", "mc10", "mc01", "mc20", "mc02", "mc11",
        "sc00", "sc10", "sc01", "sc20", "sc02", "sc11", "floor",
        "vc", "vmin", "vmax", "gain", "inv_uscale", "log_tpw",
        "logistic",
        "rng_loop", "rng_scheme", "nodes", "unifs", "noise", "cursor", "block",
        "t", "trace", "stride",
        "best_energy", "best_x", "converged_at", "threshold", "stop_on_conv",
        "u_scale", "t_pw", "calib_failures", "mu_eff_spread",
    )

    def _refill(self) -> None:
        b = self.block
        self.nodes = self.rng_loop.integers(0, self.n, b)
        self.unifs = self.rng_loop.random(b)
        if self.scheme_code == 1:
            self.noise = self.rng_scheme.standard_normal(b)
        elif self.scheme_code == 2:
            self.noise = self.rng_scheme.uniform(-self.tol, self.tol, b)
        else:
            self.noise = None
        self.cursor = 0


def step(state: RunState) -> None:
    """Advance one iteration: sample one neuron, cycle its device."""
    _advance(state, 1)


def _advance(state: RunState, steps: int) -> int:
    """Run up to `steps` iterations; returns the number executed.

    Stops early when the convergence threshold is hit and the run was asked
    to. This is the reference form of the sampling dynamics. `_kernel.c`
    mirrors it expression for expression and `run` uses that when it loads
    (see `load_kernel`); `TestKernel` and `TestBitIdentity` in
    tests/test_sampler.py hold the two equal bit for bit.
    """
    x, u = state.x, state.u
    indptr, indices, wts = state.indptr, state.indices, state.wts
    hrs, offs, cyc = state.hrs, state.offs, state.cyc
    scheme = state.scheme_code
    m_hrs, s_rw = state.m_hrs, state.s_rw
    r_lo, r_hi = state.r_lo, state.r_hi
    targets = state.targets
    mc00, mc10, mc01 = state.mc00, state.mc10, state.mc01
    mc20, mc02, mc11 = state.mc20, state.mc02, state.mc11
    sc00, sc10, sc01 = state.sc00, state.sc10, state.sc01
    sc20, sc02, sc11 = state.sc20, state.sc02, state.sc11
    floor = state.floor
    vc, vmin, vmax = state.vc, state.vmin, state.vmax
    gain, inv_uscale, log_tpw = state.gain, state.inv_uscale, state.log_tpw
    logistic = state.logistic
    stride = state.stride
    trace = state.trace
    erf, exp = math.erf, math.exp
    threshold = state.threshold
    stop_on_conv = state.stop_on_conv
    energy = state.energy
    best_energy = state.best_energy
    best_x = state.best_x
    converged_at = state.converged_at
    clamps = state.clamps
    t0 = t = state.t
    tend = t0 + steps
    block = state.block
    k = state.cursor

    while t < tend:
        nodes = unifs = noise = None  # free the spent lists before making the next
        if state.unifs is None or k >= block:
            state._refill()
            k = 0
        kend = min(block, k + tend - t)
        # the draws this pass consumes, as lists: indexing them is the fast path
        nodes = state.nodes[k:kend].tolist()
        unifs = state.unifs[k:kend].tolist()
        if state.noise is not None:
            noise = state.noise[k:kend].tolist()
        for j in range(kend - k):
            i = nodes[j]
            u_i = u[i]

            if logistic:
                p = 1.0 / (1.0 + exp(-u_i)) if u_i > -500 else 0.0
            else:
                v = vc + gain * u_i * inv_uscale
                if v < vmin:
                    v = vmin
                elif v > vmax:
                    v = vmax
                r = hrs[i]
                mu = (mc10 + mc20 * v + mc11 * r) * v + (mc01 + mc02 * r) * r + mc00 + offs[i]
                sg = (sc10 + sc20 * v + sc11 * r) * v + (sc01 + sc02 * r) * r + sc00
                if sg < floor:
                    sg = floor
                p = 0.5 * (1.0 + erf((log_tpw - mu) * _SQRT1_2 / sg))

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
                    if threshold is not None and converged_at is None:
                        if -energy >= threshold:
                            converged_at = t + 1

            # one Reset-Set per sampling
            cyc[i] += 1
            if scheme == 1:
                nh = hrs[i] + m_hrs + s_rw * noise[j]
                if nh < r_lo:
                    nh = r_lo
                    clamps += 1
                elif nh > r_hi:
                    nh = r_hi
                    clamps += 1
                hrs[i] = nh
            elif scheme == 2:
                nh = targets[i] * (1.0 + noise[j])
                if nh < r_lo:
                    nh = r_lo
                    clamps += 1
                elif nh > r_hi:
                    nh = r_hi
                    clamps += 1
                hrs[i] = nh

            t += 1
            if t % stride == 0:
                trace.append(energy)
            if stop_on_conv and converged_at is not None:
                break
        k += j + 1
        if stop_on_conv and converged_at is not None:
            break

    state.cursor = k
    state.energy = energy
    state.best_energy = best_energy
    state.best_x = best_x
    state.converged_at = converged_at
    state.clamps = clamps
    state.t = t
    return t - t0


# -- compiled kernel ------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 60
# local fields and energies below this are exact as doubles, so int64 and
# Python ints agree, and so does every int/float comparison
_EXACT_INT_LIMIT = 2 ** 53
_P = ctypes.c_void_p
_KERNEL_ARGTYPES = (ctypes.c_int64, _P, _P, _P, ctypes.c_int64) + (_P,) * 14
# the self-check grid: erf over the range the device activation reaches,
# exp at the integer arguments the logistic activation passes it
_ERF_GRID = tuple(k * 0.011718 + 1e-9 * k * k for k in range(-700, 701))
_EXP_GRID = tuple(float(k) for k in range(-800, 500)) + _ERF_GRID

_kernel = None  # the loaded sa_advance; False once loading has failed


def load_kernel():
    """The compiled sampling kernel, or None when `run` must use `_advance`.

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


def _fits_in_53_bits(form: BoltzmannForm) -> bool:
    """Whether every local field and energy of the instance is below 2**53."""
    total = sum(map(abs, form.b.tolist())) + sum(map(abs, form.weights.tolist()))
    return total < _EXACT_INT_LIMIT


def _advance_kernel(kernel, state: RunState, steps: int) -> np.ndarray:
    """`_advance(state, steps)` run by the compiled kernel, with equal results.

    It consumes the same pre-drawn blocks. The state's lists become flat
    arrays for the call and are written back at the end. The energies it
    records are returned as an int64 array instead of being appended to
    `state.trace`. The caller checks `_fits_in_53_bits` first.
    """
    x = np.array(state.x, dtype=np.int8)
    best_x = np.array(state.best_x, dtype=np.int8)
    u = np.array(state.u, dtype=np.int64)
    cyc = np.array(state.cyc, dtype=np.int64)
    indptr = np.array(state.indptr, dtype=np.int64)
    indices = np.array(state.indices, dtype=np.int64)
    wts = np.array(state.wts, dtype=np.int64)
    hrs = np.array(state.hrs, dtype=np.float64)
    offs = np.array(state.offs, dtype=np.float64)
    targets = np.array(state.targets, dtype=np.float64)
    n = state.n
    if not (x.size == best_x.size == u.size == cyc.size == hrs.size == offs.size
            == targets.size == indptr.size - 1 == n and indices.size == wts.size == indptr[-1]):
        raise ValueError("run state arrays disagree in size with the instance")
    has_threshold = state.threshold is not None
    par = np.array([
        state.vc, state.vmin, state.vmax, state.gain, state.inv_uscale, state.log_tpw, _SQRT1_2,
        state.mc00, state.mc10, state.mc01, state.mc20, state.mc02, state.mc11,
        state.sc00, state.sc10, state.sc01, state.sc20, state.sc02, state.sc11, state.floor,
        state.m_hrs, state.s_rw, state.r_lo, state.r_hi,
        state.threshold if has_threshold else 0.0,
    ], dtype=np.float64)
    opt = np.array([state.scheme_code, state.logistic, state.stride, state.stop_on_conv,
                    has_threshold], dtype=np.int64)
    io = np.array([state.t, state.energy, state.best_energy,
                   -1 if state.converged_at is None else state.converged_at,
                   state.clamps], dtype=np.int64)
    arrays = (n, x.ctypes.data, u.ctypes.data, cyc.ctypes.data, best_x.ctypes.data,
              indptr.ctypes.data, indices.ctypes.data, wts.ctypes.data,
              hrs.ctypes.data, offs.ctypes.data, targets.ctypes.data,
              par.ctypes.data, opt.ctypes.data, io.ctypes.data)
    stride = state.stride
    t = state.t
    tend = t + steps
    k = state.cursor
    chunks = []  # the energies recorded by each call, sized for its iterations
    while t < tend:
        if state.unifs is None or k >= state.block:
            state._refill()
            k = 0
        m = min(state.block - k, tend - t)
        chunk = np.empty((t + m) // stride - t // stride, dtype=np.int64)
        noise = None if state.noise is None else state.noise.ctypes.data + 8 * k
        ran = kernel(m, state.nodes.ctypes.data + 8 * k, state.unifs.ctypes.data + 8 * k,
                     noise, *arrays, chunk.ctypes.data)
        chunks.append(chunk[:(t + ran) // stride - t // stride])
        k += ran
        t += ran
        if state.stop_on_conv and io[3] >= 0:
            break

    state.t, state.energy, state.best_energy, converged_at, state.clamps = io.tolist()
    state.converged_at = None if converged_at < 0 else converged_at
    state.cursor = k
    state.x = x.tolist()
    state.u = u.tolist()
    state.cyc = cyc.tolist()
    state.hrs = hrs.tolist()
    state.best_x = best_x.tolist()
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _nominal_hrs(surface: DeviceSurface, cfg: BoltzmannConfig) -> float:
    if cfg.nominal_hrs is not None:
        return float(cfg.nominal_hrs)
    try:
        return surface.hrs_for_mu(cfg.mu_target, cfg.v_center)
    except (Unattainable, NonMonotone):
        # toy surfaces (constant mu etc.) have no -5 decade point; run at
        # the middle of the fitted window instead
        return 0.5 * (surface.r_range[0] + surface.r_range[1])


def make_state(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
    form: Optional[BoltzmannForm] = None,
) -> RunState:
    """Build the initial RunState for (instance, config, surface, run_index)."""
    if inst.n < 1:
        raise ValueError("instance must have at least one node")
    if not (surface.v_range[0] <= cfg.v_min and cfg.v_max <= surface.v_range[1]):
        raise ValueError(
            f"voltage window [{cfg.v_min}, {cfg.v_max}] escapes the fitted "
            f"surface range {surface.v_range}"
        )
    if form is None:
        form = build_form(inst)
    n = inst.n
    root = np.random.SeedSequence(cfg.seed, spawn_key=(run_index,))
    ss_init, ss_dev, ss_cal, ss_loop, ss_scheme = root.spawn(5)

    rng_init = np.random.default_rng(ss_init)
    x = rng_init.integers(0, 2, n).tolist()
    u = init_fields(form, x)
    u_scale = float(np.percentile(np.abs(np.asarray(u, dtype=float)), cfg.u_scale_percentile))
    if u_scale <= 0:
        u_scale = 1.0

    nominal = _nominal_hrs(surface, cfg)
    nominal = surface.clamp_hrs(nominal)
    rng_dev = np.random.default_rng(ss_dev)
    if cfg.d2d_cv > 0:
        offs = (rng_dev.standard_normal(n) * (cfg.d2d_cv * abs(cfg.mu_target))).tolist()
    else:
        offs = [0.0] * n

    hrs = [nominal] * n
    targets = [nominal] * n
    clamps = 0
    calib_failures = 0
    if cfg.calibrate:
        rng_cal = np.random.default_rng(ss_cal)
        jitter = rng_cal.uniform(-cfg.calibration_precision, cfg.calibration_precision, n)
        calibrated_mu = []
        for i in range(n):
            want = cfg.mu_target - offs[i]
            try:
                r_star = surface.hrs_for_mu(want, cfg.v_center)
                ok = True
            except Unattainable:
                # best effort: park at the window end whose mu is closest
                lo_mu = float(surface.eval_mu(cfg.v_center, surface.r_range[0]))
                hi_mu = float(surface.eval_mu(cfg.v_center, surface.r_range[1]))
                r_star = (
                    surface.r_range[0]
                    if abs(lo_mu - want) <= abs(hi_mu - want)
                    else surface.r_range[1]
                )
                calib_failures += 1
                ok = False
            realized = r_star * (1.0 + jitter[i])
            clamped = surface.clamp_hrs(realized)
            if clamped != realized:
                clamps += 1
            hrs[i] = targets[i] = clamped
            if ok:
                calibrated_mu.append(float(surface.eval_mu(cfg.v_center, clamped)) + offs[i])
        spread_pop = calibrated_mu if calibrated_mu else [
            float(surface.eval_mu(cfg.v_center, hrs[i])) + offs[i] for i in range(n)
        ]
        if calib_failures:
            warnings.warn(
                f"{calib_failures}/{n} devices have offsets outside the tunable "
                "window; parked at the nearest HRS bound and excluded from the "
                "calibrated-spread statistic"
            )
    else:
        spread_pop = [float(surface.eval_mu(cfg.v_center, hrs[i])) + offs[i] for i in range(n)]
    mu_eff_spread = float(np.std(spread_pop)) if len(spread_pop) > 1 else 0.0

    t_pw = cfg.t_pw if cfg.t_pw is not None else surface.center_pulse_width(cfg.v_center, nominal)
    if t_pw <= 0:
        raise ValueError("t_pw must be > 0")

    stride = cfg.energy_stride if cfg.energy_stride is not None else (1 if n <= 512 else n)

    st = RunState()
    st.n = n
    st.x = x
    st.u = u
    st.indptr = form.indptr.tolist()
    st.indices = form.indices.tolist()
    st.wts = form.weights.tolist()
    st.hrs = hrs
    st.offs = offs
    st.targets = targets
    st.cyc = [0] * n
    st.clamps = clamps
    st.scheme_code = {SCHEME_IDEAL: 0, SCHEME_FIXED: 1, SCHEME_MONITORED: 2}[cfg.scheme]
    st.m_hrs = cfg.drift.m_hrs
    st.s_rw = cfg.drift.s_rw
    st.tol = cfg.drift.hrs_tolerance
    st.r_lo, st.r_hi = surface.r_range
    (st.mc00, st.mc10, st.mc01, st.mc20, st.mc02, st.mc11) = surface.mu_coeffs
    (st.sc00, st.sc10, st.sc01, st.sc20, st.sc02, st.sc11) = surface.sigma_coeffs
    st.floor = surface.sigma_floor
    st.vc, st.vmin, st.vmax = cfg.v_center, cfg.v_min, cfg.v_max
    st.gain = cfg.gain
    st.inv_uscale = 1.0 / u_scale
    st.log_tpw = math.log10(t_pw)
    st.logistic = cfg.activation == ACTIVATION_LOGISTIC
    st.rng_loop = np.random.default_rng(ss_loop)
    st.rng_scheme = np.random.default_rng(ss_scheme)
    st.nodes = st.unifs = st.noise = None
    st.cursor = 0
    st.block = _RNG_BLOCK
    st.t = 0
    st.trace = []
    st.stride = stride
    e0 = energy_of(form, x)
    st.energy = e0
    st.best_energy = e0
    st.best_x = x.copy()
    if inst.best_known is not None:
        st.threshold = cfg.convergence_fraction * inst.best_known
        st.converged_at = 0 if -e0 >= st.threshold else None
    else:
        if cfg.stop_on_convergence:
            raise MissingBestKnown(
                f"instance {inst.name!r} has no best-known cut; convergence "
                "stopping needs one"
            )
        st.threshold = None
        st.converged_at = None
    st.stop_on_conv = cfg.stop_on_convergence
    st.u_scale = u_scale
    st.t_pw = t_pw
    st.calib_failures = calib_failures
    st.mu_eff_spread = mu_eff_spread
    return st


def run(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
) -> RunTrace:
    """Execute one seeded run; fully reproducible from (cfg.seed, run_index).

    The compiled kernel runs the loop when it loads and the instance's fields
    fit in 53 bits; `_advance` runs it otherwise. Results are the same.
    """
    form = build_form(inst)
    state = make_state(inst, cfg, surface, run_index, form)
    kernel = None
    if _fits_in_53_bits(form):
        kernel = load_kernel()
    else:
        log.debug("instance %r has fields of 2**53 or more; using the Python loop", inst.name)
    if kernel is None:
        _advance(state, cfg.max_iters)
        energies = np.asarray(state.trace, dtype=np.int64)
    else:
        energies = _advance_kernel(kernel, state, cfg.max_iters)
    return RunTrace(
        energies=energies,
        stride=state.stride,
        best_cut=-state.best_energy,
        best_x=np.asarray(state.best_x, dtype=np.uint8),
        converged_at=state.converged_at,
        settling_energy=settling_energy_of(energies),
        iterations=state.t,
        cycles_per_device=np.asarray(state.cyc, dtype=np.int64),
        clamp_events=state.clamps,
        mu_eff_spread=state.mu_eff_spread,
        calib_failures=state.calib_failures,
        u_scale=state.u_scale,
        seed=cfg.seed,
        run_index=run_index,
        kernel="python" if kernel is None else "c",
    )


def _ensemble_worker(args) -> RunTrace:
    inst, cfg, surface, idx = args
    return run(inst, cfg, surface, run_index=idx)


def summarize(traces: Sequence[RunTrace]) -> EnsembleSummary:
    conv = [t.converged_at for t in traces if t.converged_at is not None]
    cuts = [t.best_cut for t in traces]
    settle = [t.settling_energy for t in traces]
    return EnsembleSummary(
        runs=len(traces),
        converged_count=len(conv),
        converged_median=float(np.median(conv)) if conv else None,
        converged_q25=float(np.percentile(conv, 25)) if conv else None,
        converged_q75=float(np.percentile(conv, 75)) if conv else None,
        best_cut_median=float(np.median(cuts)),
        best_cut_min=int(min(cuts)),
        best_cut_max=int(max(cuts)),
        settling_mean=float(np.mean(settle)),
        settling_median=float(np.median(settle)),
    )


def ensemble(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> tuple[list[RunTrace], EnsembleSummary]:
    """cfg.runs independent runs with derived child seeds; order-stable."""
    if cfg.runs < 1:
        raise ValueError("runs must be >= 1")
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            traces = list(
                pool.map(_ensemble_worker, [(inst, cfg, surface, r) for r in range(cfg.runs)])
            )
    else:
        traces = [run(inst, cfg, surface, run_index=r) for r in range(cfg.runs)]
    return traces, summarize(traces)
