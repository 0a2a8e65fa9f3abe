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
drifting, calibrated vs not) see identical loop dynamics. `paired_runs` runs
such arms so that, at each run index, they share one `Start`: the initial
configuration, built once, and the loop and noise blocks, each drawn once.

Concurrency is threads in this process: with jobs > 1 `paired_runs` runs
whole run indices on a pool of them, and with jobs == 1 `run` may draw a
run's blocks ahead on a second thread (`_ahead`). Each generator is used by
one thread at a time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import logging
import math
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .device import CALIBRATION_PRECISION, GAIN, MU_TARGET, V_CENTER, V_MAX, V_MIN
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
from .errors import InvalidParameter, MissingBestKnown, NonMonotone, Unattainable
from .io_ingest import _cpus
from .maxcut import BoltzmannForm, MaxCutInstance, _field_sums, _sums_energy
from .maxcut import build_form  # noqa: F401  perfbench/tracer.py wraps it at this name
from .native import load_kernel
from .surface import DeviceSurface, poly6

log = logging.getLogger(__name__)

_RNG_BLOCK = 8192
# the most bytes of RNG blocks `paired_runs` keeps for the arms of one run index
_KEEP_BYTES = 1 << 20
# `.run`: the `Start` shared by the `paired_runs` call of `run` running in this
# thread, else None; not an argument of `run`, whose wrappers fix its signature
_kept = threading.local()
# the fewest blocks a second thread must be left to draw for `run` to start
# it: for fewer, starting and joining it and waiting for a CPU to run it
# on cost more than it saves. A run that stops on convergence, whose length
# is unknown, draws this many itself before the thread starts.
_AHEAD_BLOCKS = 8

ACTIVATION_DEVICE = "device"
ACTIVATION_LOGISTIC = "logistic"
CONVERGENCE_FRACTION = 0.9  # a run converges at this fraction of the best-known cut


@dataclass
class BoltzmannConfig:
    """Everything a run needs besides the instance, the surface and `device`'s operating point."""

    gain: float = GAIN             # volts per unit of normalized field
    max_iters: int = 10_000
    runs: int = 1
    seed: int = 0
    scheme: str = SCHEME_IDEAL
    drift: DriftModel = field(default_factory=DriftModel)
    d2d_cv: float = 0.0            # fractional std of per-device mu offset
    calibrate: bool = False
    activation: str = ACTIVATION_DEVICE
    stop_on_convergence: bool = False
    energy_stride: Optional[int] = None  # None: 1 if n <= 512 else n
    jobs: int = 1

    def __post_init__(self):
        if not 0 < self.gain < math.inf:  # NaN too
            raise InvalidParameter(f"gain must be > 0 and finite, got {self.gain}")
        if self.max_iters < 0:
            raise InvalidParameter(f"max_iters must be >= 0, got {self.max_iters}")
        if self.runs < 1:
            raise InvalidParameter("runs must be >= 1")
        if not 0 <= self.d2d_cv < math.inf:
            raise InvalidParameter(f"d2d_cv must be >= 0 and finite, got {self.d2d_cv}")
        if self.jobs < 1:
            raise InvalidParameter(f"jobs must be >= 1, got {self.jobs}")
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
    run_index: int
    kernel: str = "python"          # the loop that ran: "c" or "python"
    drawn_ahead: bool = False       # whether a second thread drew its blocks (see run)


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

    The arrays are the kernel's: x and best_x int8; u int64, below 2**53 in
    magnitude (see `build_form`); hrs, targets and offs float64; cyc int64.
    `_advance` advances the state.
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
    calib_failures: int
    mu_eff_spread: float
    t: int = 0
    block: Optional[tuple] = None   # the RNG block in use, consumed from `cursor` on
    cursor: int = 0


# What a run starts from, which depends on (instance, seed, run index) alone:
# the five SeedSequence children (see the module docstring), the initial
# configuration x and its local fields u (both read-only; each run copies
# them), the field scale, the energy, the loop and Reset-noise generators
# (children 3 and 4), and the blocks those have drawn so far, read-only, or
# None when the start keeps none.
Start = collections.namedtuple("Start", "children x u u_scale energy gens blocks")


def _start(form: BoltzmannForm, seed: int, run_index: int,
           blocks: Optional[list] = None) -> Start:
    """The start of run `run_index` on `form` under `seed`, keeping `blocks`."""
    children = tuple(np.random.SeedSequence(seed, spawn_key=(run_index,)).spawn(5))
    x = np.random.default_rng(children[0]).integers(0, 2, form.n).astype(np.int8)
    on, b, wx = _field_sums(form, x)
    u = wx - b  # u_i = sum_j W_B_ij x_j - b_i, the energy drop of setting x_i to 1
    x.flags.writeable = u.flags.writeable = False
    u_scale = float(np.percentile(np.abs(u.astype(float)), 95)) or 1.0  # 1 where it is 0
    gens = tuple(np.random.default_rng(ss) for ss in children[3:])
    return Start(children, x, u, u_scale, _sums_energy(on, b, wx), gens, blocks)


def _stream(cfg: BoltzmannConfig) -> tuple:
    """The key of a config's loop and Reset-noise stream on one instance and
    run index; configs with equal keys draw equal blocks."""
    return (cfg.seed, scheme_code(cfg.scheme), cfg.drift.hrs_tolerance)


def _block_bytes(scheme: int) -> int:
    """The size of one RNG block: node picks and thresholds, plus Reset noise but for ideal."""
    return _RNG_BLOCK * (24 if scheme else 16)


def _draws(start: Start, n: int, scheme: int, tol: float):
    """Endless RNG blocks of `start`'s stream: (node picks, Bernoulli thresholds, Reset noise).

    The states made from one start share its generators. When the start
    keeps blocks, block b is served from them if a state has drawn it, and
    is otherwise drawn now and appended, read-only.
    """
    (rng_loop, rng_scheme), blocks = start.gens, start.blocks
    for b in itertools.count():
        if blocks is not None and b < len(blocks):
            yield blocks[b]
            continue
        block = (rng_loop.integers(0, n, _RNG_BLOCK), rng_loop.random(_RNG_BLOCK),
                 reset_noise(scheme, tol, rng_scheme, _RNG_BLOCK))
        if blocks is not None:
            for a in block:
                if a is not None:
                    a.flags.writeable = False
            blocks.append(block)
        yield block


def _ahead(draws: Iterator, count: int, inline: int) -> Iterator:
    """Blocks 0 to count - 1 of `draws`, of which a one-thread pool draws
    blocks `inline` to count - 1, at most two ahead of the consumer.

    The consumer draws blocks 0 to inline - 1 itself, and the pool starts
    as it takes the last of them, so a run that stops before then starts
    none. From then on, only the pool's thread touches the stream's
    generators; it draws the blocks in order, so the consumer sees what
    drawing inline gives it. An exception in a draw is raised where the
    consumer takes that block. When the generator ends or is closed, the
    pool cancels the draws not begun and joins its thread, whether or not
    the consumer took every block.
    """
    for _ in range(inline - 1):
        yield next(draws)
    block = next(draws)
    pool = ThreadPoolExecutor(1, thread_name_prefix="stochanneal-draws")
    try:
        asks = map(functools.partial(pool.submit, next), itertools.repeat(draws, count - inline))
        window = collections.deque(itertools.islice(asks, 2))
        yield block
        del block  # hold no block the consumer has taken
        while window:
            block = window.popleft().result()
            window.extend(itertools.islice(asks, 1))
            yield block
            del block
    finally:
        pool.shutdown(cancel_futures=True)


def _advance(state: State, steps: int, kernel=None) -> np.ndarray:
    """Run up to `steps` iterations; returns the energies recorded meanwhile.

    This is the one walk over the pre-drawn RNG blocks. Each block slice is
    run by `_reference_loop`, or by the compiled `sa_advance` through
    `_kernel_loop(kernel, state)` when `kernel`, the library `load_kernel()`
    gives, is given; both are called as `loop(state, todo, trace, at)`,
    write the energies they record into one int64 trace sized for `steps`
    from index `at` on, and leave the state as it stands after their last
    iteration. A run that stops on convergence (always after at least one
    iteration) returns a trimmed copy.
    """
    stride, stop_on_conv = state.params.stride, state.params.stop_on_conv
    t0 = state.t
    tend = t0 + steps
    trace = np.empty(tend // stride - t0 // stride, dtype=np.int64)
    loop = _reference_loop if kernel is None else _kernel_loop(kernel, state)
    while state.t < tend:
        if state.block is None or state.cursor == _RNG_BLOCK:
            state.block = None  # free the spent block before drawing the next
            state.block, state.cursor = next(state.draws), 0
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

# the most entries a p_switch table may have (see _uses_table)
_TABLE_CAP = 2 ** 16


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
    back; `build_form` keeps every field and energy below 2**53. When
    `_uses_table` allows, the table of p_switch by local field u_i (slot
    u_i + U, U = `form.field_bound`) starts all NaN ("not yet"); the kernel
    fills a slot with the loop's own expression the first time it meets
    that field, so it holds the double the loop would compute again, and
    skips the mu/sigma polynomials and `erf` on every later visit. Without a
    table, the kernel's squeeze decides most iterations without `erf`.
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
    advance = kernel.sa_advance

    def loop(state: State, todo: int, trace: np.ndarray, at: int) -> None:
        k = state.cursor
        nodes, unifs, noise = state.block
        advance(todo, nodes.ctypes.data + 8 * k, unifs.ctypes.data + 8 * k,
                None if noise is None else noise.ctypes.data + 8 * k, *args,
                trace.ctypes.data + 8 * at)
        state.t, state.energy, state.best_energy, converged_at, state.clamps = io.tolist()
        state.converged_at = None if converged_at < 0 else converged_at

    loop.buffers = (par, table)  # keeps alive the memory `args` points into
    return loop


@functools.lru_cache
def _operating_point(surface: DeviceSurface) -> tuple[float, float, float]:
    """(nominal HRS, mu there, t_pw) at V_CENTER on `surface`; solved once.

    The nominal HRS puts a device's mu at MU_TARGET, clamped into r_range;
    t_pw is `DeviceSurface.center_pulse_width` there, which raises
    NonPositivePulse (and then nothing is cached).
    """
    try:
        hrs = surface.hrs_for_mu(MU_TARGET, V_CENTER)
    except (Unattainable, NonMonotone):
        # toy surfaces (constant mu etc.) have no -5 decade point; run at
        # the middle of the fitted window instead
        hrs = 0.5 * (surface.r_range[0] + surface.r_range[1])
    nominal = surface.clamp_hrs(hrs)
    return (nominal, float(surface.eval_mu(V_CENTER, nominal)),
            surface.center_pulse_width(V_CENTER, nominal))


def make_state(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
    start: Optional[Start] = None,
) -> State:
    """Build the initial State for (instance, config, surface, run_index),
    from `start` when given (a start that `paired_runs` shares) and from a
    start of its own, keeping no blocks, otherwise."""
    if inst.n < 1:
        raise InvalidParameter("instance must have at least one node")
    if not (surface.v_range[0] <= V_MIN and V_MAX <= surface.v_range[1]):
        raise InvalidParameter(f"voltage window [{V_MIN}, {V_MAX}] escapes the fitted "
                               f"surface range {surface.v_range}")
    form = inst.form
    n = inst.n
    if start is None:
        start = _start(form, cfg.seed, run_index)
    _, ss_dev, ss_cal, _, _ = start.children
    x, u = start.x.copy(), start.u.copy()

    rng_dev = np.random.default_rng(ss_dev)
    if cfg.d2d_cv > 0:
        offs = rng_dev.standard_normal(n) * (cfg.d2d_cv * abs(MU_TARGET))
    else:
        offs = np.zeros(n)

    clamps = 0
    calib_failures = 0
    if cfg.calibrate:
        cal = calibrate(surface, MU_TARGET - offs, V_CENTER, CALIBRATION_PRECISION,
                        np.random.default_rng(ss_cal))
        calib_failures = int(cal.missed.sum())
        if calib_failures:
            log.info("%d/%d devices have offsets outside the tunable window; parked at the "
                     "nearest HRS bound and excluded from the calibrated-spread statistic",
                     calib_failures, n)
        clamps = cal.clamps
        # the calibrated devices, or all of them when none calibrated
        pop = ~cal.missed if calib_failures < n else np.ones(n, dtype=bool)
        spread_pop = poly6(surface.mu_coeffs, V_CENTER, cal.hrs[pop]) + offs[pop]
        hrs, targets = cal.hrs, cal.hrs.copy()
    # after calibration, whose NonMonotone comes before NonPositivePulse
    nominal, mu_nominal, t_pw = _operating_point(surface)
    if not cfg.calibrate:
        # every device sits at the nominal HRS
        spread_pop = mu_nominal + offs
        hrs, targets = np.full(n, nominal), np.full(n, nominal)
    mu_eff_spread = float(np.std(spread_pop)) if len(spread_pop) > 1 else 0.0

    if inst.best_known is not None:
        threshold = CONVERGENCE_FRACTION * inst.best_known
    elif cfg.stop_on_convergence:
        raise MissingBestKnown(
            f"instance {inst.name!r} has no best-known cut; convergence "
            "stopping needs one"
        )
    else:
        threshold = math.nan  # no cut compares >= NaN
    params = Params(
        V_CENTER, V_MIN, V_MAX, cfg.gain, 1.0 / start.u_scale, math.log10(t_pw),
        *surface.mu_coeffs, *surface.sigma_coeffs, surface.sigma_floor,
        cfg.drift.m_hrs, cfg.drift.s_rw, *surface.r_range, threshold,
        scheme_code(cfg.scheme), int(cfg.activation == ACTIVATION_LOGISTIC),
        cfg.energy_stride if cfg.energy_stride is not None else (1 if n <= 512 else n),
        int(cfg.stop_on_convergence),
    )
    e0 = start.energy
    return State(
        params=params, form=form, x=x, u=u, hrs=hrs, targets=targets, offs=offs,
        cyc=np.zeros(n, dtype=np.int64), best_x=x.copy(), energy=e0, best_energy=e0,
        converged_at=0 if -e0 >= threshold else None, clamps=clamps,
        draws=_draws(start, n, params.scheme, cfg.drift.hrs_tolerance),
        calib_failures=calib_failures, mu_eff_spread=mu_eff_spread,
    )


def run(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
    run_index: int = 0,
) -> RunTrace:
    """Execute one seeded run; fully reproducible from (cfg.seed, run_index).

    The loop is `sa_advance` in the library `load_kernel()` gives, or
    `_reference_loop` if that is None; results are the same. A run on the
    start that `paired_runs` shares (`_kept.run`, read here alone) draws its
    blocks inline. Otherwise, with
    the kernel, jobs == 1 and more than one CPU, a second thread draws the
    blocks after the first while the kernel runs (`_ahead`), and ends before
    this returns. It starts only with _AHEAD_BLOCKS blocks or more to draw
    past the first (past the first _AHEAD_BLOCKS for a run that stops on
    convergence). `RunTrace.drawn_ahead` records whether it ran.
    """
    start = getattr(_kept, "run", None)
    state = make_state(inst, cfg, surface, run_index, start=start)
    kernel = load_kernel()
    inline = _AHEAD_BLOCKS if cfg.stop_on_convergence else 1
    count = -(-cfg.max_iters // _RNG_BLOCK)
    ahead = (start is None and kernel is not None and cfg.jobs == 1
             and count - inline >= _AHEAD_BLOCKS and _cpus() > 1)
    if ahead:
        state.draws = _ahead(state.draws, count, inline)
    with contextlib.closing(state.draws):
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
        run_index=run_index,
        kernel="python" if kernel is None else "c",
        drawn_ahead=ahead and state.t > (inline - 1) * _RNG_BLOCK,
    )


def paired_runs(
    inst: MaxCutInstance,
    cfgs: Sequence[BoltzmannConfig],
    surface: DeviceSurface,
) -> Iterator[tuple[int, RunTrace]]:
    """(arm index, run) for every run of every config (arm) in `cfgs`; each
    arm's runs come in run order, and every run is a `run` call.

    The arms must share one stream (`_stream`), as every arm of
    `experiments.d2d_experiment` does; otherwise this raises ValueError
    before any run. When they are two or more and the blocks of one run
    index fit in _KEEP_BYTES, the runs come in groups of one run index
    (run-major) whose arms share one `Start` (see `_group`); otherwise a
    group is one run (arm-major). With jobs == 1, or on the Python loop,
    which holds the interpreter lock (no kernel loads), the groups run in
    this thread; otherwise `jobs` threads run whole groups, at most `jobs`
    of them submitted and not yet read in full, so the threads never run
    ahead of the consumer by more than that. Either way the order and runs
    are equal.
    """
    cfgs = list(cfgs)
    key = _stream(cfgs[0])
    if any(_stream(cfg) != key for cfg in cfgs):
        raise ValueError("paired arms must share one seed, scheme and HRS tolerance")
    # the blocks of one run index: those of the longest run
    need = -(-max(cfg.max_iters for cfg in cfgs) // _RNG_BLOCK) * _block_bytes(key[1])
    if len(cfgs) > 1 and need <= _KEEP_BYTES:
        groups = ((r, [a for a, cfg in enumerate(cfgs) if r < cfg.runs])
                  for r in range(max(cfg.runs for cfg in cfgs)))
    else:
        groups = ((r, [a]) for a, cfg in enumerate(cfgs) for r in range(cfg.runs))
    groups = (_group(inst, cfgs, surface, r, arms) for r, arms in groups)
    jobs = max(cfg.jobs for cfg in cfgs)
    if jobs == 1 or load_kernel() is None:
        yield from itertools.chain.from_iterable(groups)
        return
    inst.form  # built here, once, not by two threads at once, and TooLarge before any run
    pool = ThreadPoolExecutor(jobs, thread_name_prefix="stochanneal-runs")
    try:
        submit = functools.partial(pool.submit, collections.deque)
        window = collections.deque(map(submit, itertools.islice(groups, jobs)))
        while window:
            runs = window.popleft().result()
            while runs:  # a run leaves the window as it is yielded
                yield runs.popleft()
            window.extend(map(submit, itertools.islice(groups, 1)))
    finally:  # a consumer that stops, or a run that raised, starts no queued group
        pool.shutdown(cancel_futures=True)


def _group(inst: MaxCutInstance, cfgs: list, surface: DeviceSurface, run_index: int,
           arms: list) -> Iterator[tuple[int, RunTrace]]:
    """(arm index, run) for each arm in `arms` at `run_index`. Two or more
    arms share one `Start`, built as the first runs and in `_kept.run` only
    while a `run` call made here runs; the first run to need a block keeps it."""
    start = _start(inst.form, cfgs[0].seed, run_index, []) if len(arms) > 1 else None
    for a in arms:
        # a call, so that no name here holds the run once it is yielded
        yield a, _run_from(start, inst, cfgs[a], surface, run_index)


def _run_from(start: Optional[Start], inst: MaxCutInstance, cfg: BoltzmannConfig,
              surface: DeviceSurface, run_index: int) -> RunTrace:
    """`run`, looked up as the module global, with `start` in `_kept.run` while it runs."""
    _kept.run = start
    try:
        return run(inst, cfg, surface, run_index=run_index)
    finally:
        _kept.run = None


def ensemble_runs(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> Iterator[RunTrace]:
    """The runs of `ensemble`, yielded in order, so a caller need hold only one."""
    # map holds no run between items, as a loop variable would
    return map(operator.itemgetter(1), paired_runs(inst, [cfg], surface))


def ensemble(
    inst: MaxCutInstance,
    cfg: BoltzmannConfig,
    surface: DeviceSurface,
) -> list[RunTrace]:
    """cfg.runs independent runs with derived child seeds; order-stable."""
    return list(ensemble_runs(inst, cfg, surface))
