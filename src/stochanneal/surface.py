"""Bi-quadratic switching-time surface of a stochastic RRAM neuron.

The Set time of the device is lognormal once the operating point is fixed:
log10(t_set) ~ Normal(mu(V, R), sigma(V, R)) where V is the Set-pulse
magnitude in volts and R the pre-Set high-resistance state in kOhm. Both
moments are modelled as full bi-quadratics

    f(V, R) = c00 + c10*V + c01*R + c20*V^2 + c02*R^2 + c11*V*R

with mu in log10(seconds) and sigma in decades. Coefficients are stored in
that fixed order everywhere (files, fits, constructors).

A surface is only trusted inside the rectangle it was fitted on; evaluating
outside `v_range` x `r_range` raises OutOfDomain rather than extrapolating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDesign,
    InvalidParameter,
    NonMonotone,
    NonPositivePulse,
    NonPositiveTime,
    OutOfDomain,
    Unattainable,
)
from .io_ingest import open_output
from .native import load_kernel

COEFF_NAMES = ("c00", "c10", "c01", "c20", "c02", "c11")

# Tolerance of the HRS bisection solve, in decades of log10(t_set), and its
# most steps
HRS_SOLVE_TOL = 1e-6
HRS_SOLVE_STEPS = 200
# fit_surface bins the mu-fit residuals on this (V, R) grid for the sigma fit
# and skips cells holding fewer samples than SIGMA_MIN_CELL_COUNT
SIGMA_GRID = (5, 5)
SIGMA_MIN_CELL_COUNT = 5
# the least sigma a surface evaluates to, in decades, unless it sets its own
SIGMA_FLOOR = 0.05


def poly6(coeffs: Sequence[float], v, r):
    """Evaluate the 6-coefficient bi-quadratic at (v, r); numpy-broadcasting."""
    c00, c10, c01, c20, c02, c11 = coeffs
    return c00 + (c10 + c20 * v + c11 * r) * v + (c01 + c02 * r) * r


@dataclass(frozen=True)
class DeviceSurface:
    """Fitted (mu, sigma) fields over the (|V_set|, HRS) operating plane."""

    mu_coeffs: tuple[float, ...]
    sigma_coeffs: tuple[float, ...]
    v_range: tuple[float, float]
    r_range: tuple[float, float]
    sigma_floor: float = SIGMA_FLOOR

    def __post_init__(self):
        sizes = {"mu_coeffs": 6, "sigma_coeffs": 6, "v_range": 2, "r_range": 2}
        for name, size in sizes.items():
            try:
                values = tuple(float(c) for c in getattr(self, name))
            except (TypeError, ValueError):
                raise InvalidParameter(f"{name} must be a list of numbers") from None
            if len(values) != size:
                raise InvalidParameter(f"{name} takes exactly {size} numbers, got {len(values)}")
            if not all(map(math.isfinite, values)):
                raise InvalidParameter(f"{name} must be finite, got {list(values)}")
            object.__setattr__(self, name, values)
        if not self.v_range[0] < self.v_range[1]:
            raise InvalidParameter("v_range must be an increasing interval")
        if not 0 < self.r_range[0] < self.r_range[1]:
            raise InvalidParameter("r_range must be positive and increasing")
        try:
            object.__setattr__(self, "sigma_floor", float(self.sigma_floor))
        except (TypeError, ValueError):
            raise InvalidParameter(f"sigma_floor must be a number, got {self.sigma_floor!r}") from None
        if not math.isfinite(self.sigma_floor):
            raise InvalidParameter(f"sigma_floor must be finite, got {self.sigma_floor}")
        if not self.sigma_floor > 0:
            raise InvalidParameter("sigma_floor must be > 0")

    # -- domain ------------------------------------------------------------

    def in_domain(self, v, r) -> bool:
        v_lo, v_hi = self.v_range
        r_lo, r_hi = self.r_range
        return bool(np.all((v >= v_lo) & (v <= v_hi) & (r >= r_lo) & (r <= r_hi)))

    def check_domain(self, v, r) -> None:
        if not self.in_domain(v, r):
            raise OutOfDomain(
                f"(v={v}, r={r}) outside fitted ranges "
                f"v_range={self.v_range} V, r_range={self.r_range} kOhm"
            )

    def clamp_hrs(self, r: float) -> float:
        r_lo, r_hi = self.r_range
        return r_lo if r < r_lo else (r_hi if r > r_hi else r)

    # -- evaluation ---------------------------------------------------------

    def eval_mu(self, v, r):
        """mu of log10(t_set) in decades at (v [V], r [kOhm])."""
        self.check_domain(v, r)
        return poly6(self.mu_coeffs, v, r)

    def eval_sigma(self, v, r):
        """sigma of log10(t_set), clamped below at sigma_floor."""
        self.check_domain(v, r)
        return np.maximum(poly6(self.sigma_coeffs, v, r), self.sigma_floor)

    def center_pulse_width(self, v_center: float, hrs: float) -> float:
        """Pulse width (s) that puts the switching probability at 0.5.

        The lognormal CDF equals 1/2 at the log-mean, so t_pw = 10**mu
        centers the sigmoid at v_center for a zero-offset device. Raises
        NonPositivePulse unless t_pw is a finite double above 0.
        """
        try:
            t_pw = float(10.0 ** self.eval_mu(v_center, hrs))
        except OverflowError:
            t_pw = math.inf
        if not 0.0 < t_pw < math.inf:  # NaN too
            raise NonPositivePulse(f"t_pw={t_pw} s must be a finite double > 0")
        return t_pw

    # -- inverse ------------------------------------------------------------

    def hrs_for_mu(self, mu_target, v_ref: float):
        """Solve eval_mu(v_ref, r) == mu_target for r by bisection.

        mu(v_ref, .) is a quadratic in r; it must be monotone over r_range
        (NonMonotone otherwise) and bracket the target (Unattainable
        otherwise). Converges to |mu - mu_target| <= HRS_SOLVE_TOL decades,
        or stops after HRS_SOLVE_STEPS steps at the bracket's midpoint.

        mu_target may be an array: one call then solves every target and
        returns an array of roots, NaN where a target is unattainable
        instead of raising. Each root equals, bit for bit, what a scalar call
        returns; a scalar target gives a Python float. A target that is not
        finite is unattainable.

        The targets on a window end or missed are settled here; the others
        are bisected by `sa_hrs_bisect` in the compiled library when
        `load_kernel()` gives one, and otherwise by numpy, all targets a
        step at a time. Both evaluate `poly6` in its expression order and
        give the same roots, bit for bit.
        """
        r_lo, r_hi = self.r_range
        self.check_domain(v_ref, r_lo)
        # d(mu)/dr is linear in r: same sign at both ends <=> monotone.
        _, _, c01, _, c02, c11 = self.mu_coeffs
        d_lo = c01 + c11 * v_ref + 2.0 * c02 * r_lo
        d_hi = c01 + c11 * v_ref + 2.0 * c02 * r_hi
        if d_lo * d_hi < 0:
            raise NonMonotone(
                f"mu(v={v_ref}, .) is not monotone over r_range={self.r_range}"
            )
        target = np.asarray(mu_target, dtype=float)
        shape = target.shape
        mu_lo, mu_hi = (float(poly6(self.mu_coeffs, v_ref, r)) for r in (r_lo, r_hi))
        f_lo, f_hi = mu_lo - target, mu_hi - target
        at_lo = f_lo == 0.0
        at_hi = ~at_lo & (f_hi == 0.0)
        missed = ~at_lo & ~at_hi & ~(f_lo * f_hi <= 0)  # a NaN target too
        if not shape and missed:
            raise Unattainable(
                f"mu_target={mu_target} not reachable at v={v_ref}: "
                f"mu spans [{min(mu_lo, mu_hi):.4f}, {max(mu_lo, mu_hi):.4f}] "
                f"over r_range={self.r_range}"
            )
        roots = np.where(at_lo, r_lo, np.where(at_hi, r_hi, np.nan)).ravel()
        # the targets still bisecting, with their brackets
        idx = np.flatnonzero(~(at_lo | at_hi | missed))
        target, f_lo = target.ravel()[idx], f_lo.ravel()[idx]
        lib = load_kernel()
        if lib is not None:
            got, coeffs = np.empty(idx.size), np.array(self.mu_coeffs)
            lib.sa_hrs_bisect(idx.size, target.ctypes.data, f_lo.ctypes.data, coeffs.ctypes.data,
                              float(v_ref), r_lo, r_hi, float(HRS_SOLVE_TOL), HRS_SOLVE_STEPS,
                              got.ctypes.data)
            roots[idx] = got
        else:
            lo, hi = np.full(idx.size, r_lo), np.full(idx.size, r_hi)
            for _ in range(HRS_SOLVE_STEPS):
                if not idx.size:
                    break
                mid = 0.5 * (lo + hi)
                f_mid = poly6(self.mu_coeffs, v_ref, mid) - target
                done = np.abs(f_mid) <= HRS_SOLVE_TOL
                if np.count_nonzero(done):
                    roots[idx[done]] = mid[done]
                    go = ~done
                    idx, target, f_lo, lo, hi, mid, f_mid = (
                        a[go] for a in (idx, target, f_lo, lo, hi, mid, f_mid))
                left = f_lo * f_mid <= 0
                hi = np.where(left, mid, hi)
                lo = np.where(left, lo, mid)
                f_lo = np.where(left, f_lo, f_mid)
            roots[idx] = 0.5 * (lo + hi)
        return roots.reshape(shape) if shape else float(roots[0])

    # -- audits ---------------------------------------------------------------

    def mu_monotone_on_grid(self) -> bool:
        """True if mu is non-increasing in V and non-decreasing in R on a 50 x 50 grid."""
        vs = np.linspace(*self.v_range, 50)
        rs = np.linspace(*self.r_range, 50)
        mu = poly6(self.mu_coeffs, vs[:, None], rs[None, :])
        dec_in_v = bool(np.all(np.diff(mu, axis=0) <= 1e-12))
        inc_in_r = bool(np.all(np.diff(mu, axis=1) >= -1e-12))
        return dec_in_v and inc_in_r

    def sigma_grid_range(self) -> tuple[float, float]:
        """(min, max) of the floored sigma on a 50 x 50 grid."""
        vs = np.linspace(*self.v_range, 50)
        rs = np.linspace(*self.r_range, 50)
        sg = np.maximum(poly6(self.sigma_coeffs, vs[:, None], rs[None, :]), self.sigma_floor)
        return float(sg.min()), float(sg.max())

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mu_coeffs": list(self.mu_coeffs),
            "sigma_coeffs": list(self.sigma_coeffs),
            "v_range": list(self.v_range),
            "r_range": list(self.r_range),
            "sigma_floor": self.sigma_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceSurface":
        """The inverse of to_dict."""
        return cls(
            mu_coeffs=d["mu_coeffs"],
            sigma_coeffs=d["sigma_coeffs"],
            v_range=d["v_range"],
            r_range=d["r_range"],
            sigma_floor=d.get("sigma_floor", SIGMA_FLOOR),
        )


# -- fitting -------------------------------------------------------------------


def _design_matrix(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(v), v, r, v * v, r * r, v * r])


def _fit_quadratic(v: np.ndarray, r: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares bi-quadratic fit on a centered/scaled basis.

    Raw V and R live on wildly different scales (volts vs hundreds of kOhm),
    so the fit runs on (v-v0)/vs, (r-r0)/rs and the coefficients are expanded
    back analytically. Returns (coeffs in COEFF_NAMES order, R^2).
    """
    v0, vs = 0.5 * (v.max() + v.min()), 0.5 * (v.max() - v.min())
    r0, rs = 0.5 * (r.max() + r.min()), 0.5 * (r.max() - r.min())
    vs = vs if vs > 0 else 1.0
    rs = rs if rs > 0 else 1.0
    vn, rn = (v - v0) / vs, (r - r0) / rs
    design = _design_matrix(vn, rn)
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 6:
        raise DegenerateDesign(
            f"normal system rank {rank} < 6; samples do not span a bi-quadratic"
        )
    resid = y - design @ sol
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    d00, d10, d01, d20, d02, d11 = sol
    a, b = 1.0 / vs, -v0 / vs
    c, d = 1.0 / rs, -r0 / rs
    coeffs = np.array(
        [
            d00 + d10 * b + d01 * d + d20 * b * b + d02 * d * d + d11 * b * d,
            d10 * a + 2.0 * d20 * a * b + d11 * a * d,
            d01 * c + 2.0 * d02 * c * d + d11 * b * c,
            d20 * a * a,
            d02 * c * c,
            d11 * a * c,
        ]
    )
    return coeffs, r_squared


def fit_surface(samples) -> tuple[DeviceSurface, float]:
    """Fit (mu, sigma) surfaces from raw (v [V], r [kOhm], t_set [s]) samples.

    mu is least-squares fit to log10(t_set). sigma is fit to the standard
    deviations of the mu-fit residuals binned on SIGMA_GRID over the sampled
    rectangle; cells holding fewer than SIGMA_MIN_CELL_COUNT points are
    skipped, and if fewer than 6 usable cells remain the sigma surface
    degrades to the pooled residual standard deviation (a constant).

    Returns (surface, R^2 of the mu fit).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be (m, 3): columns v, r, t_set")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise InvalidParameter(f"samples must be finite; sample {bad[0]} is {arr[bad[0]].tolist()}")
    if arr.shape[0] < 12:
        raise DegenerateDesign(f"need >= 12 samples, got {arr.shape[0]}")
    v, r, t = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.unique(v).size < 3 or np.unique(r).size < 3:
        raise DegenerateDesign("need >= 3 distinct voltages and >= 3 distinct HRS values")
    if np.any(t <= 0):
        raise NonPositiveTime("all t_set samples must be > 0 seconds")

    y = np.log10(t)
    mu_coeffs, r_squared = _fit_quadratic(v, r, y)
    resid = y - poly6(mu_coeffs, v, r)

    nv, nr = SIGMA_GRID
    v_edges = np.linspace(v.min(), v.max(), nv + 1)
    r_edges = np.linspace(r.min(), r.max(), nr + 1)
    iv = np.clip(np.searchsorted(v_edges, v, side="right") - 1, 0, nv - 1)
    ir = np.clip(np.searchsorted(r_edges, r, side="right") - 1, 0, nr - 1)
    cell_v, cell_r, cell_s = [], [], []
    for i in range(nv):
        for j in range(nr):
            mask = (iv == i) & (ir == j)
            cnt = int(mask.sum())
            if cnt < SIGMA_MIN_CELL_COUNT:
                continue
            cell_v.append(0.5 * (v_edges[i] + v_edges[i + 1]))
            cell_r.append(0.5 * (r_edges[j] + r_edges[j + 1]))
            cell_s.append(float(resid[mask].std(ddof=1)))
    if len(cell_s) >= 6:
        try:
            sigma_coeffs, _ = _fit_quadratic(
                np.array(cell_v), np.array(cell_r), np.array(cell_s)
            )
        except DegenerateDesign:
            sigma_coeffs = np.array([float(resid.std(ddof=1)), 0, 0, 0, 0, 0])
    else:
        sigma_coeffs = np.array([float(resid.std(ddof=1)), 0, 0, 0, 0, 0])

    surface = DeviceSurface(
        mu_coeffs=tuple(mu_coeffs),
        sigma_coeffs=tuple(sigma_coeffs),
        v_range=(float(v.min()), float(v.max())),
        r_range=(float(r.min()), float(r.max())),
    )
    return surface, float(r_squared)


# -- parameter files ----------------------------------------------------------


def params_to_dict(surface: DeviceSurface, drift) -> dict:
    """A parameter file's content: the surface's fields plus a "drift" dict."""
    return {**surface.to_dict(), "drift": drift.to_dict()}


def params_from_dict(d: dict):
    """(DeviceSurface, DriftModel) from a parameter file's content; a file
    that is not an object or lacks a surface field raises InvalidParameter."""
    from .device import DriftModel

    if not isinstance(d, dict):
        raise InvalidParameter("a parameter file holds one JSON object")
    missing = [name for name in ("mu_coeffs", "sigma_coeffs", "v_range", "r_range")
               if name not in d]
    if missing:
        raise InvalidParameter(f"parameter file lacks {', '.join(missing)}")
    return DeviceSurface.from_dict(d), DriftModel.from_dict(d.get("drift", {}))


def params_json(d: dict) -> str:
    """The text of a parameter file holding d: sorted keys, indent 2, final newline."""
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def save_params(path, surface: DeviceSurface, drift) -> None:
    with open_output(path) as fh:
        fh.write(params_json(params_to_dict(surface, drift)))


def load_params(path):
    """Read a device parameter file; returns (DeviceSurface, DriftModel)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return params_from_dict(json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"{path}: not a JSON parameter file ({exc})") from None
