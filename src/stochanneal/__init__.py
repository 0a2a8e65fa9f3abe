"""Stochastic RRAM neurons driving a Boltzmann-machine Max-Cut annealer."""

from .device import (
    SCHEME_FIXED,
    SCHEME_IDEAL,
    SCHEME_MONITORED,
    SCHEMES,
    DriftModel,
    calibrate,
    field_to_voltage,
    mu_sigma,
    p_logistic,
    p_switch,
    reset_update,
    sample_tset,
)
from .errors import StochAnnealError
from .maxcut import (
    BoltzmannForm,
    MaxCutInstance,
    build_form,
    cut_value,
    energy,
    init_fields,
    local_field,
    update_fields_after_assign,
)
from .reference import get_reference
from .sampler import (
    BoltzmannConfig,
    EnsembleSummary,
    RunTrace,
    ensemble,
    run,
)
from .surface import DeviceSurface, fit_surface, load_params, save_params

__version__ = "0.1.0"

__all__ = [
    "BoltzmannConfig",
    "BoltzmannForm",
    "DeviceSurface",
    "DriftModel",
    "EnsembleSummary",
    "MaxCutInstance",
    "RunTrace",
    "SCHEMES",
    "SCHEME_FIXED",
    "SCHEME_IDEAL",
    "SCHEME_MONITORED",
    "StochAnnealError",
    "build_form",
    "calibrate",
    "cut_value",
    "energy",
    "ensemble",
    "field_to_voltage",
    "fit_surface",
    "get_reference",
    "init_fields",
    "load_params",
    "local_field",
    "mu_sigma",
    "p_logistic",
    "p_switch",
    "reset_update",
    "run",
    "sample_tset",
    "save_params",
    "update_fields_after_assign",
]
