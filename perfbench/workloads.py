"""The benchmark's three closed-batch studies.

A pass of a workload makes its inputs from the seed, runs the study to its
result and checks that result from outside the package. It returns the result
rows, whose sha256 is the workload's digest, and the checks that failed.

Every workload runs with jobs=1: ensembles stay in this process, so host time
and peak RSS belong to the study alone.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from stochanneal import cli, experiments, io_ingest, reference
from stochanneal.device import DriftModel
from stochanneal.sampler import BoltzmannConfig

DEGREE = 4.0


def digest(rows) -> str:
    """sha256 of the rows as canonical JSON (floats by repr, keys sorted)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def _instance_seed(seed: int, size: int) -> int:
    # the derivation build_size_ladder uses for its first instance per size
    return int(np.random.SeedSequence(seed, spawn_key=(size, 0)).generate_state(1)[0])


class Ladder:
    """C09 shape: proxy best-knowns, then solvable size per Reset scheme.

    Runs the ideal and fixed-input sampling loops, runs that stop on
    convergence, and stride-1 energy traces at n <= 512. The n = 2000 rung
    and the 2e6 iteration cap make the fixed proxy stage 80% of the work:
    the convergence and drift stages scale with the seed's convergence
    times, and with rungs up to 1000 and a 1e6 cap the work per pass spread
    18% across seeds instead of 7%.
    """

    name = "ladder"
    full = {"sizes": (25, 50, 125, 250, 500, 1000, 2000), "max_iters": 2 * 10**6, "runs": 5,
            "m_hrs": 0.01}
    smoke = {"sizes": (25, 40), "max_iters": 20_000, "runs": 5, "m_hrs": 0.01}

    @staticmethod
    def generate(seed, p):
        return [
            io_ingest.generate_instance(n, DEGREE, weight_set=(-1, 1), seed=_instance_seed(seed, n))
            for n in p["sizes"]
        ]

    @staticmethod
    def run(seed, p, ctx):
        surface, drift = reference.get_reference()
        cfg = BoltzmannConfig(max_iters=p["max_iters"], runs=p["runs"], seed=seed, drift=drift)
        ladder = experiments.build_size_ladder(p["sizes"], cfg, surface, avg_degree=DEGREE,
                                               seed=seed)
        dm = DriftModel(m_hrs=p["m_hrs"], s_rw=drift.s_rw, hrs_tolerance=drift.hrs_tolerance)
        results = [
            experiments.max_solvable_size(dm, ladder, dataclasses.replace(cfg, scheme=scheme),
                                          surface)
            for scheme in ("fixed-input", "monitored")
        ]
        rows = {
            "instances": [[i.name, i.n, i.m, i.best_known] for _, insts in ladder for i in insts],
            "solvable": [
                [r.scheme, r.m_hrs, r.max_solvable,
                 [[s.size, s.t_conv_median, s.t_meaningful, s.solvable] for s in r.rows]]
                for r in results
            ],
        }
        return rows, []


class D2D:
    """C10 shape: settling-energy penalty of device spread, with and without
    per-device HRS calibration, under the monitored scheme.

    The monitored scheme writes device state on every cycle, and the
    calibrated arms solve hrs_for_mu once per device per run.
    """

    name = "d2d"
    full = {"n": 500, "cvs": (0.1, 0.2), "runs": 10, "sweeps": 50}
    smoke = {"n": 40, "cvs": (0.1, 0.2), "runs": 10, "sweeps": 5}

    @staticmethod
    def generate(seed, p):
        return io_ingest.generate_instance(p["n"], DEGREE, seed=seed)

    @staticmethod
    def run(seed, p, ctx):
        surface, drift = reference.get_reference()
        inst = D2D.generate(seed, p)
        cfg = BoltzmannConfig(max_iters=p["sweeps"] * p["n"], runs=p["runs"], seed=seed,
                              drift=drift, scheme="monitored")
        res = experiments.d2d_experiment(inst, p["cvs"], cfg, surface)
        rows = {
            "instance": [inst.name, inst.n, inst.m],
            "settling_ideal": res.settling_ideal,
            "rows": [dataclasses.astuple(r) for r in res.rows],
        }
        problems = [
            f"cv={r.cv}: calibrated spread {r.spread_calibrated!r} is not below "
            f"uncalibrated spread {r.spread_uncalibrated!r}"
            for r in res.rows
            if not r.spread_calibrated < r.spread_uncalibrated
        ]
        return rows, problems


class SolveLarge:
    """The file path at large n: `gen`, then `solve` on the written file,
    both through the CLI in this process."""

    name = "solve-large"
    full = {"n": 10_000, "runs": 4, "sweeps": 20}
    smoke = {"n": 200, "runs": 2, "sweeps": 2}

    @staticmethod
    def generate(seed, p):
        return io_ingest.generate_instance(p["n"], DEGREE, seed=seed)

    @staticmethod
    def run(seed, p, ctx):
        graph = os.path.join(ctx.workdir, "large.rudy")
        table = os.path.join(ctx.workdir, "results.csv")
        first = len(ctx.log.records)
        with ctx.span("cli.gen"):
            _cli("gen", "--nodes", p["n"], "--degree", DEGREE, "--seed", seed, "--out", graph)
        with ctx.span("cli.solve"):
            _cli("solve", "--instance", graph, "--scheme", "monitored",
                 "--iters", p["sweeps"] * p["n"], "--runs", p["runs"], "--seed", seed,
                 "--out", table)
        with open(graph, "rb") as fh:
            graph_sha = hashlib.sha256(fh.read()).hexdigest()
        with open(table, encoding="utf-8", newline="") as fh:
            text = fh.read()
        written = list(csv.DictReader(io.StringIO(text)))
        traced = ctx.log.records[first:]
        problems = []
        if len(written) != p["runs"]:
            problems.append(f"results CSV has {len(written)} rows, expected {p['runs']}")
        cuts = [int(r["best_cut"]) for r in written]
        if cuts != [rec.best_cut for rec in traced]:
            problems.append(f"CSV best_cut {cuts} differ from the runs' "
                            f"{[rec.best_cut for rec in traced]}")
        return {"instance_sha256": graph_sha, "results_csv": text}, problems


def _cli(*args) -> None:
    """Run one CLI command in this process; its exit code must be 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main([str(a) for a in args], standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise RuntimeError(f"stochanneal {args[0]} exited with {exc.code}") from exc


WORKLOADS = {w.name: w for w in (Ladder, D2D, SolveLarge)}
