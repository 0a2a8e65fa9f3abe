"""Reference device parameters shipped with the package.

No public coefficient tables exist for the modelled device, so the shipped
surface is fit (through fit_surface, like any measurement campaign would be)
to a synthetic anchor campaign drawn from designed target fields. The targets
encode the documented operating envelope:

  * fast-switching limit near 100 ns at the strongest pulse / lowest HRS
    corner (2.2 V, 10 kOhm);
  * the nominal neuron bias point mu = -5 (10 us) at 1.8 V around 100 kOhm,
    where HRS calibration aims;
  * mu non-increasing in V, non-decreasing in HRS across the whole window;
  * sigma growing with HRS, staying inside [0.1, 0.7] decades.

Regeneration is deterministic: build_reference_params(REFERENCE_SEED) must
reproduce stochanneal/data/reference_params.json byte-for-byte (tested), so
the provenance of every shipped number is a seeded, auditable fit.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .device import DriftModel
from .surface import (
    DeviceSurface,
    fit_surface,
    params_from_dict,
    params_json,
    params_to_dict,
    poly6,
)

REFERENCE_SEED = 20260808

V_RANGE = (1.6, 2.2)
R_RANGE = (10.0, 500.0)
SIGMA_FLOOR = 0.05

# Target mu field [log10 s]: separable quadratics in V and R.
#   V part: slope -3.0 dec/V at 1.8 V easing to -2.0 at 2.2 V (saturation
#           toward the fast limit);
#   R part: slope +0.010 dec/kOhm at 100 kOhm with apex parked at 625 kOhm
#           so mu stays strictly increasing in HRS across R_RANGE.
MU_TARGET_COEFFS = (
    3.3547619047619048,      # c00
    -7.5,                    # c10
    0.011904761904761904,    # c01
    1.25,                    # c20
    -9.523809523809524e-06,  # c02
    0.0,                     # c11
)

# Target sigma field [decades]: linear growth with HRS, 0.18 at 10 kOhm to
# 0.62 at 500 kOhm (inside the documented 0.1-0.7 window with fit margin).
SIGMA_TARGET_COEFFS = (
    0.17102040816326532,     # c00
    0.0,                     # c10
    0.0008979591836734694,   # c01
    0.0,                     # c20
    0.0,                     # c02
    0.0,                     # c11
)

# Unmonitored Reset actuator: slope sized so ~100 fixed-input cycles from the
# nominal bias point walk mu by about one decade, plus per-cycle random walk.
DRIFT_M_HRS = 2.0     # kOhm/cycle
DRIFT_S_RW = 3.0      # kOhm/cycle
HRS_TOLERANCE = 0.1   # monitored verify tolerance (fractional)

# Anchor campaign shape: grid points x repeats per point.
ANCHOR_GRID = (13, 13)
ANCHOR_REPEATS = 60


def anchor_samples(seed: int = REFERENCE_SEED) -> np.ndarray:
    """Synthetic (v, r, t_set) campaign drawn from the target fields."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vs = np.linspace(*V_RANGE, ANCHOR_GRID[0])
    rs = np.linspace(*R_RANGE, ANCHOR_GRID[1])
    vv, rr = np.meshgrid(vs, rs, indexing="ij")
    v = np.repeat(vv.ravel(), ANCHOR_REPEATS)
    r = np.repeat(rr.ravel(), ANCHOR_REPEATS)
    mu = poly6(MU_TARGET_COEFFS, v, r)
    sg = poly6(SIGMA_TARGET_COEFFS, v, r)
    t = 10.0 ** (mu + sg * rng.standard_normal(v.size))
    return np.column_stack([v, r, t])


def build_reference_params(seed: int = REFERENCE_SEED) -> dict:
    """Fit the anchor campaign and return the parameter-file dict."""
    surface, r_squared = fit_surface(anchor_samples(seed), sigma_floor=SIGMA_FLOOR)
    if r_squared < 0.85:
        raise RuntimeError(f"anchor fit unexpectedly poor: R^2 = {r_squared:.3f}")
    if not surface.mu_monotone_on_grid():
        raise RuntimeError("fitted reference mu surface lost monotonicity")
    s_lo, s_hi = surface.sigma_grid_range()
    if not (0.1 <= s_lo and s_hi <= 0.7):
        raise RuntimeError(f"fitted reference sigma range [{s_lo:.3f}, {s_hi:.3f}] escapes [0.1, 0.7]")
    drift = DriftModel(m_hrs=DRIFT_M_HRS, s_rw=DRIFT_S_RW, hrs_tolerance=HRS_TOLERANCE)
    return params_to_dict(surface, drift)


def reference_params_json(seed: int = REFERENCE_SEED) -> str:
    return params_json(build_reference_params(seed))


def _reference_file():
    return resources.files("stochanneal").joinpath("data/reference_params.json")


def reference_sha256() -> str:
    """sha256 of the shipped parameter file, for manifests."""
    return hashlib.sha256(_reference_file().read_bytes()).hexdigest()


@lru_cache(maxsize=1)
def get_reference() -> tuple[DeviceSurface, DriftModel]:
    """Load the shipped parameter file."""
    return params_from_dict(json.loads(_reference_file().read_text()))
