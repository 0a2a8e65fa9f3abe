import json
from importlib import resources

import numpy as np
import pytest

from stochanneal.reference import (
    REFERENCE_SEED,
    build_reference_params,
    get_reference,
    reference_params_json,
)


def shipped_text() -> str:
    return resources.files("stochanneal").joinpath("data/reference_params.json").read_text()


def test_regeneration_is_byte_identical():
    assert reference_params_json(REFERENCE_SEED) == shipped_text()


def test_schema_fields():
    d = json.loads(shipped_text())
    assert set(d) == {"mu_coeffs", "sigma_coeffs", "v_range", "r_range",
                      "sigma_floor", "drift"}
    assert len(d["mu_coeffs"]) == 6 and len(d["sigma_coeffs"]) == 6
    assert set(d["drift"]) == {"m_hrs", "s_rw", "hrs_tolerance"}


def test_fast_corner_near_100ns(ref_surface):
    t_fast = 10.0 ** ref_surface.eval_mu(2.2, ref_surface.r_range[0])
    assert 3e-8 <= t_fast <= 3e-7


def test_bias_point_attainable(ref_surface):
    r_star = ref_surface.hrs_for_mu(-5.0, 1.8)
    assert 50.0 <= r_star <= 200.0
    assert ref_surface.center_pulse_width(1.8, r_star) == pytest.approx(1e-5, rel=1e-4)


def test_monotone_and_sigma_window(ref_surface):
    assert ref_surface.mu_monotone_on_grid()
    lo, hi = ref_surface.sigma_grid_range()
    assert 0.1 <= lo <= hi <= 0.7


def test_different_seed_changes_fit():
    d = build_reference_params(seed=REFERENCE_SEED + 1)
    assert d["mu_coeffs"] != json.loads(shipped_text())["mu_coeffs"]
