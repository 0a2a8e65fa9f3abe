"""Command-line surface. Every subcommand prints its seed, writes tidy CSV
plus a JSON manifest, and is reproducible byte-for-byte from those flags.

Exit codes: 0 ok, 2 usage, 3 input error (a file that cannot be written
included), 4 runtime error.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .device import CALIBRATION_PRECISION, GAIN, MU_TARGET, SCHEME_IDEAL, SCHEMES, V_CENTER
from .device import DriftModel, calibrate as calibrate_devices
from .errors import InvalidParameter, StochAnnealError
from .experiments import (
    D2DRow,
    build_size_ladder,
    cycling_stats,
    d2d_experiment,
    max_solvable_sizes,
    settling_energy_of,
)
from .io_ingest import (
    BestKnownRegistry,
    ResultRow,
    brute_force_maxcut,
    generate_instance,
    open_staged,
    read_instance,
    read_measurements,
    write_instance,
    write_manifest,
    write_results,
    write_table,
)
from .reference import get_reference
from .sampler import BoltzmannConfig, ensemble_runs
from .sampler import ensemble  # noqa: F401  perfbench/tracer.py wraps it at this name
from .surface import fit_surface, load_params, save_params

PARAMS_ENV = "STOCHANNEAL_PARAMS"
_TRACE_CHUNK = 1 << 16  # trace points `solve --trace` makes Python ints of at once


def _load_device_params(params_path):
    if params_path is None:
        params_path = os.environ.get(PARAMS_ENV)
    if params_path is None:
        return get_reference() + (None,)
    surface, drift = load_params(params_path)
    return surface, drift, params_path


def _params_input(params_path) -> dict:
    """The device-parameter file a command reads, under the name that gave it."""
    if params_path is None and PARAMS_ENV in os.environ:
        return {f"${PARAMS_ENV}": os.environ[PARAMS_ENV]}
    return {"--params": params_path}


def _check_paths(inputs: dict, outputs: dict) -> None:
    """InvalidParameter when an output path resolves, by os.path.realpath, to an
    input path or to another output path; each dict maps a name to a path or None.
    Commands call it before they run or write anything."""
    claimed = {os.path.realpath(p): name for name, p in inputs.items() if p is not None}
    for name, path in outputs.items():
        if path is not None:
            real = os.path.realpath(path)
            if real in claimed:
                raise InvalidParameter(f"{name} {path} is also the {claimed[real]} file")
            claimed[real] = name


def _fail(code: int, module: str, exc: Exception):
    click.echo(f"error [{module}]: {exc}", err=True)
    sys.exit(code)


def _module_of(exc: Exception) -> str:
    """The stochanneal module that raised exc: its innermost frame in the package."""
    module = "stochanneal"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("stochanneal."):
            module = name.rpartition(".")[2]
        tb = tb.tb_next
    return module


def handle_errors(module_on_input: str):
    """Map input-shaped failures, any OSError among them, to exit 3, the rest to exit 4."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except click.ClickException:
                raise
            except StochAnnealError as exc:  # IoFailure, an OSError too, included
                _fail(3, _module_of(exc), exc)
            except OSError as exc:
                _fail(3, module_on_input, exc)
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                _fail(4, module_on_input, exc)

        return wrapper

    return decorate


@click.group()
@click.version_option(__version__)
def main():
    """Stochastic-RRAM Boltzmann machine toolkit."""


params_option = click.option(
    "--params",
    "params_path",
    type=click.Path(),
    default=None,
    show_default="packaged reference file",
    help=f"Device parameter JSON (falls back to ${PARAMS_ENV}).",
)
seed_option = click.option("--seed", type=int, default=0, show_default=True)
jobs_option = click.option("--jobs", type=int, default=1, show_default=True,
                           help="Runs of an ensemble at once, on threads in this process.")


def _comma_list(kind):
    """A click callback that parses a non-empty comma list of `kind` values, or fails as usage."""
    def parse(ctx, param, value):
        try:
            values = [kind(s) for s in value.split(",") if s]
        except ValueError:
            values = []
        if not values:
            raise click.BadParameter(f"{value!r} is not a comma list of {kind.__name__}s")
        return values
    return parse


@main.command()
@click.option("--instance", "instance_path", type=click.Path(), required=True)
@params_option
@click.option("--scheme", type=click.Choice(SCHEMES), default=SCHEME_IDEAL, show_default=True)
@click.option("--iters", type=int, default=10000, show_default=True)
@click.option("--runs", type=int, default=1, show_default=True)
@seed_option
@click.option("--best-known", type=int, default=None, help="Override best-known cut.")
@click.option("--registry", "registry_path", type=click.Path(), default=None,
              help="Best-known registry JSON to consult.")
@click.option("--gain", type=float, default=GAIN, show_default=True)
@click.option("--d2d-cv", type=float, default=0.0, show_default=True)
@click.option("--calibrate/--no-calibrate", default=False, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Also dump per-iteration energy series CSV.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@jobs_option
@handle_errors("cli")
def solve(instance_path, params_path, scheme, iters, runs, seed, best_known,
          registry_path, gain, d2d_cv, calibrate, trace_path, out_path, jobs):
    """Run a Boltzmann-machine ensemble on one Max-Cut instance, holding one run at a time."""
    _check_paths({"--instance": instance_path, "--registry": registry_path,
                  **_params_input(params_path)},
                 {"--out": out_path, "--out manifest": out_path + ".manifest.json",
                  "--trace": trace_path,  # and the file open_staged writes it to first
                  "--trace staging": None if trace_path is None else trace_path + ".part"})
    surface, drift, params_path = _load_device_params(params_path)
    inst = read_instance(instance_path)
    if best_known is None and registry_path is not None:
        best_known = BestKnownRegistry.load(registry_path).get(inst.name)
    if best_known is not None:
        inst = dataclasses.replace(inst, best_known=best_known)
    cfg = BoltzmannConfig(
        scheme=scheme, drift=drift, max_iters=iters, runs=runs, seed=seed,
        gain=gain, d2d_cv=d2d_cv, calibrate=calibrate, jobs=jobs,
    )
    click.echo(f"seed = {seed}")
    loops, rows = collections.Counter(), []
    # the trace goes beside its path, and there only once every run is in;
    # each run is written and dropped before the next
    with open_staged(trace_path) if trace_path is not None else contextlib.nullcontext() as fh:
        if fh is not None:
            fh.write("run_id,iteration,energy\n")
        for t in ensemble_runs(inst, cfg, surface):
            loops[t.kernel, t.drawn_ahead] += 1
            rows.append(ResultRow(
                run_id=t.run_index, instance=inst.name, n=inst.n, scheme=scheme,
                m_hrs=drift.m_hrs, d2d_cv=d2d_cv, calibrated=calibrate, seed=seed,
                converged_at=t.converged_at, best_cut=t.best_cut,
                settling_energy=settling_energy_of(t.energies), iterations=t.iterations,
                clamp_events=t.clamp_events))
            for j in range(0, t.energies.size if fh is not None else 0, _TRACE_CHUNK):
                for k, e in enumerate(t.energies[j:j + _TRACE_CHUNK].tolist(), j):
                    fh.write(f"{t.run_index},{(k + 1) * t.stride},{e}\n")
            del t  # free this run before the next one starts
    write_results(out_path, rows)
    write_manifest(
        out_path + ".manifest.json", "solve",
        {**dataclasses.asdict(cfg), "instance": str(instance_path),
         "best_known": inst.best_known},
        seed, params_path, loops,
    )
    click.echo(f"best cut {max(row.best_cut for row in rows)} over {len(rows)} runs -> {out_path}")


@main.command(name="sweep-drift")
@click.option("--sizes", default="25,50,125,250", show_default=True,
              callback=_comma_list(int), help="Comma list of ladder sizes.")
@click.option("--mhrs", default="0.01", show_default=True, callback=_comma_list(float),
              help="Comma list of fixed-input drift slopes [kOhm/cycle].")
@params_option
@click.option("--iters", type=int, default=200000, show_default=True)
@click.option("--runs", type=int, default=5, show_default=True)
@click.option("--degree", type=float, default=4.0, show_default=True)
@seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
@jobs_option
@handle_errors("experiments")
def sweep_drift(sizes, mhrs, params_path, iters, runs, degree, seed, out_path, jobs):
    """Max meaningful iterations and solvable size per drift slope."""
    _check_paths(_params_input(params_path),
                 {"--out": out_path, "--out manifest": out_path + ".manifest.json"})
    surface, drift, params_path = _load_device_params(params_path)
    click.echo(f"seed = {seed}")
    cfg = BoltzmannConfig(max_iters=iters, runs=runs, seed=seed, jobs=jobs)
    loops = collections.Counter()  # every run, the proxy runs of the ladder included
    ladder = build_size_ladder(sizes, cfg, surface, avg_degree=degree, seed=seed, loops=loops)
    drifts = [DriftModel(m_hrs=m, s_rw=drift.s_rw, hrs_tolerance=drift.hrs_tolerance)
              for m in mhrs]
    results = max_solvable_sizes(drifts, ("fixed-input", "monitored"), ladder, cfg, surface, loops)
    write_table(
        out_path,
        ["scheme", "m_hrs", "size", "t_conv_median", "t_meaningful", "solvable", "max_solvable"],
        ([res.scheme, res.m_hrs, row.size, row.t_conv_median, row.t_meaningful, row.solvable,
          res.max_solvable] for res in results for row in res.rows),
    )
    write_manifest(
        out_path + ".manifest.json", "sweep-drift",
        {"sizes": sizes, "mhrs": mhrs, "iters": iters, "runs": runs,
         "degree": degree, "jobs": jobs},
        seed, params_path, loops,
    )
    click.echo(f"wrote {out_path}")


@main.command(name="sweep-d2d")
@click.option("--cv", default="0.0,0.05,0.1,0.2", show_default=True,
              callback=_comma_list(float), help="Comma list of device-to-device cv values.")
@click.option("--nodes", type=int, default=60, show_default=True)
@click.option("--degree", type=float, default=4.0, show_default=True)
@params_option
@click.option("--iters", type=int, default=20000, show_default=True)
@click.option("--runs", type=int, default=10, show_default=True)
@seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
@jobs_option
@handle_errors("experiments")
def sweep_d2d(cv, nodes, degree, params_path, iters, runs, seed, out_path, jobs):
    """Settling-energy error vs device-to-device variability, cal vs uncal."""
    _check_paths(_params_input(params_path),
                 {"--out": out_path, "--out manifest": out_path + ".manifest.json"})
    surface, drift, params_path = _load_device_params(params_path)
    click.echo(f"seed = {seed}")
    inst = generate_instance(nodes, degree, seed=seed)
    cfg = BoltzmannConfig(max_iters=iters, runs=runs, seed=seed, drift=drift, jobs=jobs)
    loops = collections.Counter()
    result = d2d_experiment(inst, cv, cfg, surface, loops)
    write_table(
        out_path, [f.name for f in dataclasses.fields(D2DRow)] + ["settling_ideal"],
        (dataclasses.astuple(row) + (result.settling_ideal,) for row in result.rows),
    )
    write_manifest(
        out_path + ".manifest.json", "sweep-d2d",
        {"cv": cv, "nodes": nodes, "degree": degree, "iters": iters,
         "runs": runs, "jobs": jobs},
        seed, params_path, loops,
    )
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--scheme", type=click.Choice(SCHEMES), required=True)
@click.option("--cycles", type=int, default=100, show_default=True)
@params_option
@click.option("--vref", type=float, default=V_CENTER, show_default=True)
@seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
@handle_errors("experiments")
def cycling(scheme, cycles, params_path, vref, seed, out_path):
    """Distribution drift of one device over repeated Reset-Set cycles."""
    _check_paths(_params_input(params_path),
                 {"--out": out_path, "--out manifest": out_path + ".manifest.json"})
    surface, drift, params_path = _load_device_params(params_path)
    click.echo(f"seed = {seed}")
    stats = cycling_stats(surface, drift, scheme, cycles, v_ref=vref, seed=seed)
    write_table(out_path, ["scheme", "cycles", "mu_drift", "sigma_drift"],
                [[scheme, cycles, stats.mu_drift, stats.sigma_drift]])
    write_manifest(
        out_path + ".manifest.json", "cycling",
        {"scheme": scheme, "cycles": cycles, "vref": vref},
        seed, params_path,
    )
    click.echo(f"mu drift {stats.mu_drift:.4f} dec, sigma drift {stats.sigma_drift:.4f} dec")


@main.command()
@click.option("--mu-target", type=float, default=MU_TARGET, show_default=True)
@click.option("--precision", type=float, default=CALIBRATION_PRECISION, show_default=True)
@click.option("--devices", type=int, default=50, show_default=True)
@click.option("--cv", type=float, default=0.2, show_default=True)
@params_option
@click.option("--vref", type=float, default=V_CENTER, show_default=True)
@seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
@handle_errors("device")
def calibrate(mu_target, precision, devices, cv, params_path, vref, seed, out_path):
    """Per-device HRS calibration demo: mu_eff before/after tuning."""
    _check_paths(_params_input(params_path),
                 {"--out": out_path, "--out manifest": out_path + ".manifest.json"})
    if devices < 0:
        raise InvalidParameter(f"--devices must be >= 0, got {devices}")
    if not 0 <= cv < math.inf:  # NaN too, as BoltzmannConfig checks d2d_cv
        raise InvalidParameter(f"--cv must be >= 0 and finite, got {cv}")
    surface, drift, params_path = _load_device_params(params_path)
    click.echo(f"seed = {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nominal = surface.hrs_for_mu(mu_target, vref)
    offsets = rng.standard_normal(devices) * (cv * abs(mu_target))
    before = surface.eval_mu(vref, nominal) + offsets
    cal = calibrate_devices(surface, mu_target - offsets, vref, precision, rng)
    after = surface.eval_mu(vref, cal.hrs) + offsets
    write_table(
        out_path, ["device", "mu_offset", "mu_before", "mu_after", "hrs_target", "attained"],
        ([d, off, mu0, None if missed else mu1, None if missed else r_star, not missed]
         for d, (off, mu0, mu1, r_star, missed) in enumerate(zip(
             offsets.tolist(), before.tolist(), after.tolist(), cal.r_star.tolist(),
             cal.missed.tolist()))),
    )
    write_manifest(
        out_path + ".manifest.json", "calibrate",
        {"mu_target": mu_target, "precision": precision, "devices": devices,
         "cv": cv, "vref": vref},
        seed, params_path,
    )
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="Measurement CSV with header v_set,hrs_kohm,t_set_s.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Fitted device parameter JSON.")
@handle_errors("surface")
def fit(data_path, out_path):
    """Fit mu/sigma surfaces from a measurement campaign."""
    _check_paths({"--data": data_path}, {"--out": out_path})
    samples = read_measurements(data_path)
    surface, r_squared = fit_surface(samples)
    save_params(out_path, surface, DriftModel())
    click.echo(f"R^2 = {r_squared}")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--nodes", type=int, required=True)
@click.option("--degree", type=float, default=4.0, show_default=True)
@click.option("--weights", type=click.Choice(["pm1", "plus1"]), default="pm1",
              show_default=True, help="pm1: weights in {-1,+1}; plus1: all +1.")
@seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--register", "registry_path", type=click.Path(), default=None,
              help="Registry JSON to update with the exact cut (needs nodes <= 20).")
@handle_errors("io_ingest")
def gen(nodes, degree, weights, seed, out_path, registry_path):
    """Generate a random benchmark instance."""
    # the registry is read and updated in place: an output only
    _check_paths({}, {"--out": out_path, "--register": registry_path})
    wset = (-1, 1) if weights == "pm1" else (1,)
    click.echo(f"seed = {seed}")
    # name by the output file stem so registry lookups made on the re-read
    # file (which is named by its basename) resolve
    stem = os.path.splitext(os.path.basename(out_path))[0]
    inst = generate_instance(nodes, degree, weight_set=wset, seed=seed, name=stem)
    if registry_path is not None:
        # before any file is written: a malformed registry, or TooLarge past 20
        # nodes; a registry path that holds no file is written afresh
        registry = (BestKnownRegistry.load(registry_path) if os.path.isfile(registry_path)
                    else BestKnownRegistry())
        cut, _ = brute_force_maxcut(inst)
    write_instance(out_path, inst)
    if registry_path is not None:
        registry.set_entry(inst.name, cut, "exact")
        registry.save(registry_path)
        click.echo(f"registered exact best-known {cut}")
    click.echo(f"wrote {out_path} ({inst.n} nodes, {inst.m} edges)")


@main.command()
@click.option("--instance", "instance_path", type=click.Path(), required=True)
@handle_errors("io_ingest")
def brute(instance_path):
    """Exact Max-Cut by enumeration (n <= 20)."""
    inst = read_instance(instance_path)
    cut, x = brute_force_maxcut(inst)
    click.echo(f"{cut}")
    click.echo(f"x = {''.join(str(int(b)) for b in x)}", err=True)


if __name__ == "__main__":
    main()
