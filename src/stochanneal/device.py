"""Stochastic RRAM neuron physics: lognormal Set, deterministic Reset control.

These functions are the one statement of the device model. The sampling
loop (`sampler._reference_loop`) calls them, in this expression order;
`_kernel.c` is their compiled mirror, held equal bit for bit by the tests;
the cycling and calibration studies call them too.

A device carries the state that matters for switching statistics: its
pre-Set HRS in kOhm, a fixed offset of its log-time mean in decades
(device-to-device spread), and the Reset management scheme applied after
every sampling:

    ideal       HRS untouched each cycle (drift-free abstraction)
    fixed-input Reset with fixed electrical input only; HRS random-walks with
                a deterministic per-cycle slope on top
    monitored   Reset-with-verify; HRS re-targeted to its target within a
                fractional tolerance every cycle

HRS is physical state, so every update clamps into the surface's fitted
range and reports the clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter
from .surface import DeviceSurface

SCHEME_IDEAL = "ideal"
SCHEME_FIXED = "fixed-input"
SCHEME_MONITORED = "monitored"
SCHEMES = (SCHEME_IDEAL, SCHEME_FIXED, SCHEME_MONITORED)
_FIXED, _MONITORED = 1, 2  # the codes the sampler and the kernel compare against

# The operating point: a neuron biases at V_CENTER [V] with the HRS that puts its
# log10 Set-time mean at MU_TARGET, under a pulse 10**mu s wide there (P = 1/2 at
# zero field); the field moves the voltage GAIN V per unit, within [V_MIN, V_MAX].
# Calibration writes each HRS within the fractional CALIBRATION_PRECISION.
V_CENTER, V_MIN, V_MAX = 1.8, 1.6, 2.2
MU_TARGET = -5.0
GAIN = 0.2
CALIBRATION_PRECISION = 0.2

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass
class DriftModel:
    """Per-cycle HRS dynamics of the Reset actuator.

    m_hrs: deterministic drift slope [kOhm/cycle], fixed-input scheme.
    s_rw:  random-walk standard deviation [kOhm/cycle], fixed-input scheme.
    hrs_tolerance: fractional verify tolerance of the monitored scheme.
    """

    m_hrs: float = 0.0
    s_rw: float = 0.0
    hrs_tolerance: float = 0.1

    def __post_init__(self):
        if not (0 <= self.m_hrs < math.inf and 0 <= self.s_rw < math.inf):  # NaN too
            raise InvalidParameter("m_hrs and s_rw must be >= 0 and finite")
        if not 0.0 < self.hrs_tolerance < 1.0:
            raise InvalidParameter("hrs_tolerance must be in (0, 1)")

    def to_dict(self) -> dict:
        return {"m_hrs": self.m_hrs, "s_rw": self.s_rw, "hrs_tolerance": self.hrs_tolerance}

    @classmethod
    def from_dict(cls, d: dict) -> "DriftModel":
        """The inverse of to_dict; a field that d lacks takes its default."""
        try:
            values = {f.name: float(d[f.name]) for f in fields(cls) if f.name in d}
        except (TypeError, ValueError):
            raise InvalidParameter(f"drift fields must be numbers, got {d!r}") from None
        return cls(**values)


def scheme_code(scheme: str) -> int:
    """The code of a scheme name, its index in SCHEMES; raises on an unknown name."""
    if scheme not in SCHEMES:
        raise InvalidParameter(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return SCHEMES.index(scheme)


# -- Set: the activation --------------------------------------------------------


def field_to_voltage(u, vc, vmin, vmax, gain, inv_uscale):
    """Set-pulse voltage for local field u: vc + gain*u/u_scale, clamped to [vmin, vmax]."""
    v = vc + gain * u * inv_uscale
    if v < vmin:
        return vmin
    if v > vmax:
        return vmax
    return v


def mu_sigma(v, r, off, mc, sc, floor):
    """(mu, sigma) of log10(t_set) at voltage v, HRS r and mu offset off.

    mc and sc are the surface's coefficient tuples (`DeviceSurface.mu_coeffs`,
    `.sigma_coeffs`); sigma is floored at `floor`.
    """
    mc00, mc10, mc01, mc20, mc02, mc11 = mc
    sc00, sc10, sc01, sc20, sc02, sc11 = sc
    mu = (mc10 + mc20 * v + mc11 * r) * v + (mc01 + mc02 * r) * r + mc00 + off
    sg = (sc10 + sc20 * v + sc11 * r) * v + (sc01 + sc02 * r) * r + sc00
    return mu, (floor if sg < floor else sg)


def p_switch(log_tpw, mu, sg):
    """P(t_set <= t_pw) for log10(t_set) ~ Normal(mu, sg), given log10(t_pw)."""
    return 0.5 * (1.0 + math.erf((log_tpw - mu) * _SQRT1_2 / sg))


def p_logistic(u):
    """The logistic activation 1 / (1 + e^-u), the ideal p-bit the device stands in for."""
    return 1.0 / (1.0 + math.exp(-u)) if u > -500 else 0.0


def sample_tset(mu, sg, rng: np.random.Generator, size=None):
    """Draw Set time(s) [s] with log10(t_set) ~ Normal(mu, sg)."""
    t = 10.0 ** (mu + sg * rng.standard_normal(size))
    return float(t) if size is None else t


# -- Reset: the management schemes ------------------------------------------------


def reset_noise(scheme: int, tol: float, rng: np.random.Generator, size: int):
    """The actuator draws `reset_update` takes under scheme code `scheme`:
    N(0, 1) for fixed-input, U(-tol, tol) for monitored, None for ideal."""
    if scheme == _FIXED:
        return rng.standard_normal(size)
    if scheme == _MONITORED:
        return rng.uniform(-tol, tol, size)
    return None


def reset_update(scheme, hrs, target, z, m_hrs, s_rw, r_lo, r_hi):
    """One Reset under scheme code `scheme` with actuator draw z.

    Returns (new HRS, whether it was clamped into [r_lo, r_hi]).
    """
    if scheme == _FIXED:
        nh = hrs + m_hrs + s_rw * z
    elif scheme == _MONITORED:
        nh = target * (1.0 + z)
    else:
        return hrs, False
    if nh < r_lo:
        return r_lo, True
    if nh > r_hi:
        return r_hi, True
    return nh, False


# -- calibration --------------------------------------------------------------------


class Calibration(NamedTuple):
    hrs: np.ndarray      # the written HRS per device, clamped into r_range
    r_star: np.ndarray   # the exact roots; the parking bound where missed
    missed: np.ndarray   # bool: the target was outside the tunable window
    clamps: int          # devices whose written HRS was clamped


def calibrate(surface: DeviceSurface, mu_want, v_ref: float, precision: float,
              rng: np.random.Generator) -> Calibration:
    """Tune each device's HRS so its mu(v_ref) hits mu_want (an array).

    Solves every root with one `DeviceSurface.hrs_for_mu` call, which
    bisects in the compiled library when it loads and with numpy otherwise,
    to the same roots bit for bit. Parks unattainable devices at the window
    end whose mu is closest, then writes each root with the actuator's
    fractional precision:
    hrs = r* (1 + e), e ~ U(-precision, precision), clamped into r_range.
    """
    if not 0.0 <= precision < 1.0:
        raise InvalidParameter(f"calibration precision {precision} must be in [0, 1)")
    mu_want = np.asarray(mu_want, dtype=float)
    jitter = rng.uniform(-precision, precision, mu_want.size)
    r_star = surface.hrs_for_mu(mu_want, v_ref)
    missed = np.isnan(r_star)
    if missed.any():
        r_lo, r_hi = surface.r_range
        lo_mu = float(surface.eval_mu(v_ref, r_lo))
        hi_mu = float(surface.eval_mu(v_ref, r_hi))
        park = np.where(np.abs(lo_mu - mu_want) <= np.abs(hi_mu - mu_want), r_lo, r_hi)
        r_star = np.where(missed, park, r_star)
    realized = r_star * (1.0 + jitter)
    hrs = np.clip(realized, *surface.r_range)
    return Calibration(hrs, r_star, missed, int((hrs != realized).sum()))
