import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import stochanneal
from stochanneal.cli import main
from stochanneal.experiments import settling_energy_of
from stochanneal.io_ingest import generate_instance, read_results, serialize_rudy
from stochanneal.reference import get_reference
from stochanneal.surface import poly6, save_params

K3_TEXT = "3 3\n1 2 1\n1 3 1\n2 3 1\n"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


TRUE_COEFFS = (3.35, -7.5, 0.012, 1.25, -2e-5, 6e-3)


def write_campaign(path, k):
    """A noiseless measurement CSV of TRUE_COEFFS on a k x k (V, R) grid."""
    with path.open("w") as fh:
        fh.write("v_set,hrs_kohm,t_set_s\n")
        for v in np.linspace(1.6, 2.2, k):
            for r in np.linspace(10, 500, k):
                fh.write(f"{v},{r},{10.0 ** poly6(TRUE_COEFFS, v, r)}\n")
    return path


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSolve:
    def test_k3_reaches_two(self, runner, tmp_path):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        out = tmp_path / "res.csv"
        r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "1000",
                            "--runs", "3", "--seed", "5", "--out", str(out)])
        assert r.exit_code == 0
        assert "seed = 5" in r.output
        rows = read_results(out)
        assert all(row["best_cut"] == "2" for row in rows)
        assert (tmp_path / "res.csv.manifest.json").exists()

    def test_manifest_pins_environment(self, runner, tmp_path):
        import hashlib
        import platform
        from importlib import resources

        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        out = tmp_path / "res.csv"
        r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "200",
                            "--out", str(out)])
        assert r.exit_code == 0
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        packaged = resources.files("stochanneal").joinpath("data/reference_params.json")
        assert manifest["params_file"] is None
        assert manifest["params_sha256"] == hashlib.sha256(packaged.read_bytes()).hexdigest()
        assert manifest["kernel"] in ("c", "python")
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["libc"] == list(platform.libc_ver())

    def test_weights_beyond_int64_exit_3(self, runner, tmp_path):
        # b_0 = -3 * 2**62 does not fit in int64, nor does the summed |w|
        inst = tmp_path / "big.rudy"
        inst.write_text(f"4 3\n1 2 {2**62}\n1 3 {2**62}\n1 4 {2**62}\n")
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--iters", "10",
                                 "--out", str(tmp_path / "o.csv")])
        assert r.exit_code == 3, r.output
        # named after the module that raised it: maxcut.MaxCutInstance, as the file is read
        assert "error [maxcut]: the summed |edge weight| does not fit in int64" in r.output

    def test_energies_beyond_int64_exit_3(self, runner, tmp_path):
        # every b_i = -39 * 2**56 fits in int64, but a cut reaches 400 * 2**56
        pairs = [(i, j) for i in range(1, 41) for j in range(i + 1, 41)]
        inst = tmp_path / "k40.rudy"
        inst.write_text(f"40 {len(pairs)}\n" + "".join(f"{i} {j} {2**56}\n" for i, j in pairs))
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--iters", "10",
                                 "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [maxcut]: the summed |edge weight| does not fit in int64" in r.output
        assert not out.exists()

    def test_fields_at_2_53_exit_3(self, runner, tmp_path):
        # the weight fits in int64, but the form's fields would reach 2**53
        inst = tmp_path / "wide.rudy"
        inst.write_text(f"4 3\n1 2 {2**60}\n2 3 1\n3 4 1\n")
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--iters", "10", "--out",
                                 str(tmp_path / "o.csv"), "--trace", str(tmp_path / "t.csv")])
        assert r.exit_code == 3, r.output
        assert "error [maxcut]: the summed |b_i| and |W_B_ij| reach 2**53" in r.output
        assert os.listdir(tmp_path) == ["wide.rudy"]

    def test_a_solve_that_fails_leaves_no_trace_file(self, runner, tmp_path):
        pairs = [(i, j) for i in range(1, 41) for j in range(i + 1, 41)]
        inst = tmp_path / "k40.rudy"
        inst.write_text(f"40 {len(pairs)}\n" + "".join(f"{i} {j} {2**56}\n" for i, j in pairs))
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--iters", "10", "--out",
                                 str(tmp_path / "o.csv"), "--trace", str(tmp_path / "t.csv")])
        assert r.exit_code == 3, r.output
        assert os.listdir(tmp_path) == ["k40.rudy"]

    def test_a_run_that_raises_midway_leaves_the_old_trace_file(self, runner, tmp_path,
                                                                monkeypatch):
        from stochanneal import sampler

        original = sampler.run

        def failing(inst, cfg, surface, run_index=0):
            if run_index == 2:
                raise RuntimeError("run 2 failed")
            return original(inst, cfg, surface, run_index=run_index)

        monkeypatch.setattr(sampler, "run", failing)
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        trace = tmp_path / "t.csv"
        trace.write_text("an earlier trace\n")
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "k3.rudy"), "--iters",
                                 "100", "--runs", "4", "--out", str(tmp_path / "o.csv"),
                                 "--trace", str(trace)])
        assert r.exit_code == 4, r.output
        assert "run 2 failed" in r.output
        assert sorted(os.listdir(tmp_path)) == ["k3.rudy", "t.csv"]
        assert trace.read_text() == "an earlier trace\n"

    @pytest.mark.parametrize("text, v_range, message", [
        ("0 0\n", None, "instance must have at least one node"),
        (K3_TEXT, (1.7, 2.2), "voltage window [1.6, 2.2] escapes the fitted surface range"),
    ], ids=["no-nodes", "narrow-surface"])
    def test_instance_or_surface_the_sampler_rejects_exits_3(self, runner, tmp_path, text,
                                                              v_range, message):
        from dataclasses import replace

        from stochanneal.reference import get_reference
        from stochanneal.surface import save_params

        surface, drift = get_reference()
        params = tmp_path / "params.json"
        save_params(params, replace(surface, v_range=v_range or surface.v_range), drift)
        (tmp_path / "g.rudy").write_text(text)
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "g.rudy"),
                                 "--params", str(params), "--iters", "10", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [sampler]: {message}" in r.output
        assert not out.exists()

    def test_unwritable_trace_fails_before_any_run(self, runner, tmp_path, monkeypatch):
        from stochanneal import sampler

        monkeypatch.setattr(sampler, "run", lambda *a, **k: pytest.fail("a run was made"))
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        (tmp_path / "dir").mkdir()
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "k3.rudy"), "--iters",
                                 "10", "--out", str(out), "--trace", str(tmp_path / "dir")])
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]: cannot write" in r.output
        assert not out.exists() and not (tmp_path / "o.csv.manifest.json").exists()

    def test_holds_one_run_at_a_time(self, runner, tmp_path, monkeypatch):
        from stochanneal import cli

        # n=60, so each of the 10,000 iterations is a trace point (80 kB), and
        # a write chunk shorter than a trace, so that each run takes several;
        # a solve that held every run peaked 578 kB above one run, this one 50 kB
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 1 << 9)
        inst = tmp_path / "g.rudy"
        inst.write_text(serialize_rudy(generate_instance(60, 4.0, seed=2)))
        iters = 10_000

        def solve(runs):
            r = invoke(runner, ["solve", "--instance", str(inst), "--iters", str(iters),
                                "--runs", str(runs), "--out", str(tmp_path / "o.csv"),
                                "--trace", str(tmp_path / "t.csv")])
            assert r.exit_code == 0

        def peak(runs):
            tracemalloc.start()
            try:
                solve(runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solve(1)  # fills the set-up caches
        one, eight = peak(1), peak(8)
        # one run's int64 trace, plus one write chunk as a list of Python ints
        assert eight - one < iters * 8 + cli._TRACE_CHUNK * (8 + 32), (one, eight)
        # the same bytes as each trace written in one piece
        chunked = (tmp_path / "t.csv").read_bytes()
        monkeypatch.setattr(cli, "_TRACE_CHUNK", iters)
        solve(8)
        assert (tmp_path / "t.csv").read_bytes() == chunked

    def test_missing_instance_exits_3(self, runner, tmp_path):
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "nope.rudy"),
                                 "--out", str(tmp_path / "o.csv")])
        assert r.exit_code == 3
        assert "nope.rudy" in r.output

    @pytest.mark.parametrize("mu, width", [(-400.0, "0.0"), (400.0, "inf")])
    def test_pulse_width_out_of_range_exits_3(self, runner, tmp_path, mu, width):
        # the centred pulse 10**mu s underflows to 0 or overflows
        from dataclasses import replace

        from stochanneal.reference import get_reference
        from stochanneal.surface import save_params

        surface, drift = get_reference()
        params = tmp_path / "params.json"
        save_params(params, replace(surface, mu_coeffs=(mu, 0, 0, 0, 0, 0)), drift)
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "k3.rudy"),
                                 "--params", str(params), "--out", str(tmp_path / "o.csv")])
        assert r.exit_code == 3, r.output
        assert f"error [surface]: t_pw={width} s must be a finite double > 0" in r.output

    @pytest.mark.parametrize("option, name", [("--gain", "gain"), ("--d2d-cv", "d2d_cv")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_gain_or_spread_exits_3(self, runner, tmp_path, option, name, value):
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "k3.rudy"),
                                 option, value, "--iters", "10", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [sampler]: {name} must be" in r.output
        assert not out.exists()

    def test_manifest_records_the_best_known_cut(self, runner, tmp_path):
        # converged_at is measured against it, so two runs that differ only in
        # --best-known write different results and must write different configs
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps({"k3": {"cut": 2, "provenance": "exact"}}))
        cases = [([], None), (["--best-known", "9"], 9), (["--registry", str(reg)], 2),
                 (["--registry", str(reg), "--best-known", "9"], 9)]
        for k, (flags, want) in enumerate(cases):
            out = tmp_path / f"res{k}.csv"
            r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "50", *flags,
                                "--out", str(out)])
            assert r.exit_code == 0, r.output
            config = json.loads((tmp_path / f"res{k}.csv.manifest.json").read_text())["config"]
            assert config["best_known"] == want, flags

    def test_byte_identical_reruns(self, runner, tmp_path):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        args = ["solve", "--instance", str(inst), "--iters", "500", "--runs", "2",
                "--seed", "9"]
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(runner, args + ["--out", str(o1)]).exit_code == 0
        assert invoke(runner, args + ["--out", str(o2)]).exit_code == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_trace_dump(self, runner, tmp_path):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        trace = tmp_path / "trace.csv"
        r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "100",
                            "--out", str(tmp_path / "o.csv"), "--trace", str(trace)])
        assert r.exit_code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "run_id,iteration,energy"
        assert len(lines) == 101

    def test_settling_energy_is_that_of_the_dumped_trace(self, runner, tmp_path):
        inst = tmp_path / "g.rudy"
        inst.write_text(serialize_rudy(generate_instance(30, 4.0, seed=2)))
        out, trace = tmp_path / "o.csv", tmp_path / "trace.csv"
        # 1990 points: a 39-point window (size // 50), where round(2% of size) gives 40
        r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "1990", "--runs", "3",
                            "--scheme", "fixed-input", "--seed", "4", "--out", str(out),
                            "--trace", str(trace)])
        assert r.exit_code == 0
        energies = {}
        with open(trace, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                energies.setdefault(row["run_id"], []).append(int(row["energy"]))
        rows = read_results(out)
        assert [row["run_id"] for row in rows] == ["0", "1", "2"]
        for row in rows:
            series = energies[row["run_id"]]
            assert len(series) == 1990
            assert row["settling_energy"] == repr(settling_energy_of(series))


class TestCycling:
    def test_ideal_zero_drift(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        r = invoke(runner, ["cycling", "--scheme", "ideal", "--cycles", "50",
                            "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0
        header, row = out.read_text().splitlines()
        assert header == "scheme,cycles,mu_drift,sigma_drift"
        assert row.split(",")[2] == "0.0"

    @pytest.mark.parametrize("scheme", ["fixed-input", "monitored"])
    def test_byte_identical_reruns(self, runner, tmp_path, scheme):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            r = invoke(runner, ["cycling", "--scheme", scheme, "--cycles", "100",
                                "--seed", "108", "--out", str(out)])
            assert r.exit_code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    # a parameter file with one field broken, and the message it exits 3 with
    BROKEN_PARAMS = {
        "five-mu-coeffs": (lambda d: d["mu_coeffs"].pop(), "mu_coeffs takes exactly 6 numbers"),
        "decreasing-v-range": (lambda d: d["v_range"].reverse(), "v_range must be an increasing"),
        "no-mu-coeffs": (lambda d: d.pop("mu_coeffs"), "parameter file lacks mu_coeffs"),
        "nan-mu-coeff": (lambda d: d["mu_coeffs"].__setitem__(0, math.nan),
                         "mu_coeffs must be finite"),
        "nan-sigma-coeff": (lambda d: d["sigma_coeffs"].__setitem__(2, math.nan),
                            "sigma_coeffs must be finite"),
        "infinite-sigma-floor": (lambda d: d.__setitem__("sigma_floor", math.inf),
                                 "sigma_floor must be finite"),
        "text-coeff": (lambda d: d["mu_coeffs"].__setitem__(1, "a"),
                       "mu_coeffs must be a list of numbers"),
        "not-json": (None, "{path}: not a JSON parameter file"),
    }

    @pytest.mark.parametrize("broken", list(BROKEN_PARAMS))
    def test_malformed_params_file_exits_3(self, runner, tmp_path, broken):
        from stochanneal.reference import build_reference_params

        params = build_reference_params()
        breaks, message = self.BROKEN_PARAMS[broken]
        path = tmp_path / "params.json"
        if breaks is None:
            path.write_text("{bad")
        else:
            breaks(params)
            path.write_text(json.dumps(params))
        out = tmp_path / "c.csv"
        r = runner.invoke(main, ["cycling", "--scheme", "monitored", "--cycles", "10",
                                 "--params", str(path), "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [surface]: {message.format(path=path)}" in r.output
        assert not out.exists()

    def test_single_cycle_is_input_error(self, runner, tmp_path):
        r = runner.invoke(main, ["cycling", "--scheme", "ideal", "--cycles", "1",
                                 "--out", str(tmp_path / "c.csv")])
        assert r.exit_code == 3, r.output
        assert "error [experiments]: need at least 2 cycles" in r.output


class TestFit:
    def test_noiseless_fit_r2_one(self, runner, tmp_path):
        data = write_campaign(tmp_path / "meas.csv", 7)
        out = tmp_path / "fitted.json"
        r = invoke(runner, ["fit", "--data", str(data), "--out", str(out)])
        assert r.exit_code == 0
        assert "R^2 = 1.0" in r.output
        fitted = json.loads(out.read_text())
        assert fitted["mu_coeffs"] == pytest.approx(TRUE_COEFFS, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("column, value", [(2, "nan"), (2, "inf"), (2, "-inf"),
                                               (0, "nan"), (1, "inf")])
    def test_non_finite_measurement_exits_3(self, runner, tmp_path, column, value):
        data = write_campaign(tmp_path / "meas.csv", 7)
        lines = data.read_text().splitlines()
        row = lines[5].split(",")
        row[column] = value
        lines[5] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fitted.json"
        r = runner.invoke(main, ["fit", "--data", str(data), "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]: line 6: expected three finite numbers" in r.output
        assert not out.exists()


class TestGenBrute:
    def test_gen_then_brute(self, runner, tmp_path):
        inst = tmp_path / "g.rudy"
        reg = tmp_path / "registry.json"
        r = invoke(runner, ["gen", "--nodes", "12", "--degree", "3", "--seed", "7",
                            "--out", str(inst), "--register", str(reg)])
        assert r.exit_code == 0
        r2 = invoke(runner, ["brute", "--instance", str(inst)])
        assert r2.exit_code == 0
        printed = int(r2.output.strip().splitlines()[0])
        entry = next(iter(json.loads(reg.read_text()).values()))
        assert entry["cut"] == printed
        assert entry["provenance"] == "exact"

    def test_registry_key_matches_solve_lookup(self, runner, tmp_path):
        # the registry entry must be keyed so solve's basename lookup hits it,
        # otherwise convergence tracking silently never engages
        inst = tmp_path / "bench16.rudy"
        reg = tmp_path / "registry.json"
        assert invoke(runner, ["gen", "--nodes", "16", "--degree", "4", "--seed", "21",
                               "--out", str(inst), "--register", str(reg)]).exit_code == 0
        assert "bench16" in json.loads(reg.read_text())
        out = tmp_path / "res.csv"
        r = invoke(runner, ["solve", "--instance", str(inst), "--registry", str(reg),
                            "--iters", "20000", "--runs", "3", "--seed", "3",
                            "--out", str(out)])
        assert r.exit_code == 0
        rows = read_results(out)
        assert any(row["converged_at"] != "" for row in rows)

    def test_register_past_20_nodes_exits_3_before_writing(self, runner, tmp_path):
        inst, reg = tmp_path / "g25.rudy", tmp_path / "reg.json"
        r = runner.invoke(main, ["gen", "--nodes", "25", "--out", str(inst),
                                 "--register", str(reg)])
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]: brute force capped at 20 nodes, got 25" in r.output
        assert not inst.exists() and not reg.exists()

    # a registry file broken one way, and the message it exits 3 with
    BROKEN_REGISTRIES = {
        "not-json": ("{bad", "not JSON"),
        "list": ("[]", "a registry holds one JSON object"),
        "no-provenance": ('{"g": {"cut": 3}}', "entry 'g' needs an integer cut and a "
                          "provenance (KeyError('provenance'))"),
        "text-cut": ('{"g": {"cut": "x", "provenance": "exact"}}',
                     "entry 'g' needs an integer cut and a provenance (ValueError("),
        # once read as 7, 1 and 12
        "float-cut": ('{"g": {"cut": 7.9, "provenance": "exact"}}',
                      "entry 'g' needs an integer cut and a provenance "
                      "(ValueError('cut 7.9 is not a JSON integer'))"),
        "bool-cut": ('{"g": {"cut": true, "provenance": "exact"}}',
                     "entry 'g' needs an integer cut and a provenance "
                     "(ValueError('cut true is not a JSON integer'))"),
        "numeric-text-cut": ('{"g": {"cut": "12", "provenance": "exact"}}',
                             "entry 'g' needs an integer cut and a provenance "
                             """(ValueError('cut "12" is not a JSON integer'))"""),
    }

    @pytest.mark.parametrize("broken", list(BROKEN_REGISTRIES))
    def test_malformed_registry_exits_3(self, runner, tmp_path, broken):
        text, message = self.BROKEN_REGISTRIES[broken]
        reg = tmp_path / "reg.json"
        reg.write_text(text)
        inst, out = tmp_path / "g12.rudy", tmp_path / "s.csv"
        r = runner.invoke(main, ["gen", "--nodes", "12", "--out", str(inst),
                                 "--register", str(reg)])
        assert r.exit_code == 3, r.output
        assert f"error [io_ingest]: {reg}: {message}" in r.output
        assert not inst.exists()  # the registry is read before the instance is written
        inst.write_text(K3_TEXT)
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--registry", str(reg),
                                 "--iters", "100", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [io_ingest]: {reg}: {message}" in r.output
        assert not out.exists() and reg.read_text() == text

    def test_brute_too_large_exit_3(self, runner, tmp_path):
        inst = tmp_path / "n21.rudy"
        inst.write_text("21 1\n1 2 1\n")
        r = runner.invoke(main, ["brute", "--instance", str(inst)])
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]:" in r.output

    @pytest.mark.parametrize("w", [2 ** 62, 2 ** 63])
    def test_brute_summed_weight_past_int64_exits_3(self, runner, tmp_path, w):
        # K4; at 2**62 brute once printed 0 for the cut 2**64, past int64 it exited 4
        inst = tmp_path / "k4.rudy"
        inst.write_text("4 6\n" + "".join(f"{i} {j} {w}\n" for i in range(1, 5)
                                          for j in range(i + 1, 5)))
        r = runner.invoke(main, ["brute", "--instance", str(inst)])
        assert r.exit_code == 3, r.output
        want = "the summed |edge weight|" if w < 2 ** 63 else "an edge weight"
        assert f"error [maxcut]: {want} does not fit in int64" in r.output

    def test_brute_k3(self, runner, tmp_path):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        r = invoke(runner, ["brute", "--instance", str(inst)])
        assert r.exit_code == 0
        assert r.output.strip().splitlines()[0] == "2"


class TestSweeps:
    def test_sweep_d2d_writes_rows(self, runner, tmp_path):
        out = tmp_path / "d2d.csv"
        r = invoke(runner, ["sweep-d2d", "--cv", "0.0,0.1", "--nodes", "24",
                            "--iters", "2000", "--runs", "10", "--seed", "2",
                            "--out", str(out)])
        assert r.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("cv,error_uncalibrated")
        assert len(lines) == 3

    SWEEP_FLAGS = {
        "sweep-d2d": ["--nodes", "12", "--iters", "200", "--runs", "10", "--cv", "0.1"],
        "sweep-drift": ["--sizes", "10,16", "--iters", "2000", "--runs", "5"],
    }

    @pytest.mark.parametrize("command", list(SWEEP_FLAGS))
    @pytest.mark.parametrize("loaded", [True, False], ids=["kernel", "no-kernel"])
    def test_manifest_names_the_loop_that_ran(self, runner, tmp_path, monkeypatch, command,
                                              loaded):
        from stochanneal import sampler

        if loaded:
            want = "python" if sampler.load_kernel() is None else "c"
        else:
            monkeypatch.setattr(sampler, "load_kernel", lambda: None)
            want = "python"
        out = tmp_path / "sweep.csv"
        r = invoke(runner, [command, *self.SWEEP_FLAGS[command], "--out", str(out)])
        assert r.exit_code == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["kernel"] == want
        assert manifest["drawn_ahead"] == 0  # no run here lasts two blocks

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_manifest_counts_the_runs_drawn_ahead(self, runner, tmp_path, monkeypatch, cpus):
        from stochanneal import sampler

        if sampler.load_kernel() is None:
            pytest.skip("the compiled kernel did not load here")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(sampler, "_AHEAD_BLOCKS", 2)  # so that runs of three blocks do
        # every run a command makes, how it ran; every one is a call of
        # sampler.run, the proxy best-known runs of the ladder included
        ran = []
        original = sampler.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            ran.append((trace.kernel, trace.drawn_ahead))
            return trace

        monkeypatch.setattr(sampler, "run", spy)
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        # three blocks per run of solve and of the proxy best-known of the
        # 30-node rung; the d2d arms share each run index's start, so they
        # draw inline
        commands = {
            "solve": ["--instance", str(inst), "--iters", "20000", "--runs", "2"],
            "sweep-d2d": ["--nodes", "12", "--iters", "20000", "--runs", "10", "--cv", "0.1"],
            "sweep-drift": ["--sizes", "10,30", "--iters", "30000", "--runs", "5"],
        }
        for command, flags in commands.items():
            ran.clear()
            out = tmp_path / f"{command}.csv"
            assert invoke(runner, [command, *flags, "--out", str(out)]).exit_code == 0
            manifest = json.loads((tmp_path / f"{command}.csv.manifest.json").read_text())
            ahead = sum(drawn for _, drawn in ran)
            assert manifest["kernel"] == ",".join(sorted({kernel for kernel, _ in ran})), command
            assert manifest["drawn_ahead"] == ahead, command
            if cpus == 1 or command == "sweep-d2d":
                assert ahead == 0, command
            else:
                assert ahead > 0, command

    def test_sweep_drift_nan_slope_exits_3(self, runner, tmp_path):
        out = tmp_path / "sd.csv"
        r = runner.invoke(main, ["sweep-drift", "--mhrs", "nan", "--sizes", "10",
                                 "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [device]: m_hrs and s_rw must be >= 0" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("size", ["-3", "0", "1"])
    def test_sweep_drift_size_below_two_exits_3(self, runner, tmp_path, size):
        out = tmp_path / "sd.csv"
        r = runner.invoke(main, ["sweep-drift", "--sizes", f"10,{size}", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [experiments]: ladder sizes must be >= 2, got {size}" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("cv", ["nan", "inf", "-inf"])
    def test_sweep_d2d_non_finite_cv_exits_3(self, runner, tmp_path, cv):
        out = tmp_path / "d2d.csv"
        r = runner.invoke(main, ["sweep-d2d", "--cv", f"0.1,{cv}", "--nodes", "12",
                                 "--iters", "200", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [sampler]: d2d_cv must be >= 0 and finite" in r.output
        assert not out.exists()

    def test_sweep_d2d_too_few_runs_exit_3(self, runner, tmp_path):
        out = tmp_path / "d2d.csv"
        r = runner.invoke(main, ["sweep-d2d", "--nodes", "24", "--iters", "200", "--runs", "5",
                                 "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [experiments]: d2d_experiment needs cfg.runs >= 10" in r.output
        assert not out.exists()

    def test_sweep_drift_writes_rows(self, runner, tmp_path):
        out = tmp_path / "drift.csv"
        r = invoke(runner, ["sweep-drift", "--sizes", "10,16", "--mhrs", "0.01",
                            "--iters", "20000", "--runs", "5", "--seed", "2",
                            "--out", str(out)])
        assert r.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,m_hrs,size")
        assert len(lines) == 5  # 2 sizes x 2 schemes

    def test_sweep_drift_csv_is_pinned(self, runner, tmp_path):
        # the digest of this CSV as written when every (slope, scheme) arm ran
        # its own convergence ensembles; sharing them changes no byte
        out = tmp_path / "drift.csv"
        r = invoke(runner, ["sweep-drift", "--sizes", "10,16,25,50", "--mhrs", "0.0,0.5",
                            "--iters", "50000", "--seed", "4", "--out", str(out)])
        assert r.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9f0e1d5a5c9b225dfc8e07cc563fb00d2092527a6b4c04958cda1c3afa1f216b")

    def test_sweep_d2d_csv_is_pinned(self, runner, tmp_path):
        # the digest of this CSV as written when every arm held all its runs;
        # streaming them into the ensemble means changes no byte
        out = tmp_path / "d2d.csv"
        r = invoke(runner, ["sweep-d2d", "--cv", "0.0,0.1,0.3", "--nodes", "60",
                            "--iters", "20000", "--runs", "10", "--seed", "4",
                            "--out", str(out)])
        assert r.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "85db3755449a0d195f2b5845bd1be4efdf90af6c8c69346600da23a962abe9aa")

    @pytest.mark.parametrize("args", [
        ["solve", "--iters", "-1"],
        ["sweep-drift", "--sizes", "10", "--iters", "-5"],
        ["sweep-d2d", "--nodes", "12", "--iters", "-5"],
    ], ids=["solve", "sweep-drift", "sweep-d2d"])
    def test_negative_iterations_exit_3(self, runner, tmp_path, args):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        if args[0] == "solve":
            args = args + ["--instance", str(inst)]
        out = tmp_path / "o.csv"
        r = runner.invoke(main, args + ["--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [sampler]: max_iters must be >= 0" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [["solve", "--instance", "k3.rudy"],
                                     ["sweep-drift", "--sizes", "10"]], ids=lambda c: c[0])
    def test_runs_below_one_exit_3(self, runner, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        r = runner.invoke(main, cmd + ["--runs", "0", "--out", "o.csv"])
        assert r.exit_code == 3, r.output
        assert "error [sampler]: runs must be >= 1" in r.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args", [
        ["sweep-drift", "--sizes", "10,abc"],
        ["sweep-drift", "--mhrs", "0.01,x"],
        ["sweep-d2d", "--cv", "0.1,x"],
    ], ids=["sizes", "mhrs", "cv"])
    def test_malformed_comma_list_is_usage_error(self, runner, tmp_path, args):
        out = tmp_path / "o.csv"
        r = runner.invoke(main, args + ["--out", str(out)])
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{args[1]}': '{args[2]}' is not a comma list of" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["sweep-drift", "--sizes", ","],
        ["sweep-drift", "--mhrs", ""],
        ["sweep-d2d", "--cv", ""],
    ], ids=["sizes", "mhrs", "cv"])
    def test_empty_comma_list_is_usage_error(self, runner, tmp_path, args):
        out = tmp_path / "o.csv"
        r = runner.invoke(main, args + ["--out", str(out)])
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{args[1]}': '{args[2]}' is not a comma list of" in r.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("args", [
        ["solve", "--iters", "10"],
        ["sweep-drift", "--sizes", "10", "--iters", "10"],
        ["sweep-d2d", "--nodes", "12", "--iters", "10"],
    ], ids=["solve", "sweep-drift", "sweep-d2d"])
    def test_jobs_below_one_exit_3(self, runner, tmp_path, args, jobs):
        inst = tmp_path / "k3.rudy"
        inst.write_text(K3_TEXT)
        if args[0] == "solve":
            args = args + ["--instance", str(inst)]
        out = tmp_path / "o.csv"
        r = runner.invoke(main, args + ["--jobs", jobs, "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert f"error [sampler]: jobs must be >= 1, got {jobs}" in r.output
        assert not out.exists()
        assert not os.path.exists(str(out) + ".manifest.json")


class TestHelp:
    def test_subcommands_list_defaults(self, runner):
        for cmd in ("solve", "sweep-drift", "sweep-d2d", "cycling", "calibrate",
                    "fit", "gen", "brute"):
            r = invoke(runner, [cmd, "--help"])
            assert r.exit_code == 0
        r = invoke(runner, ["solve", "--help"])
        assert "default" in r.output

    def test_unknown_flag_is_usage_error(self, runner):
        r = runner.invoke(main, ["solve", "--bogus"])
        assert r.exit_code == 2


class TestCalibrateCommand:
    def test_writes_per_device_rows(self, runner, tmp_path):
        out = tmp_path / "cal.csv"
        r = invoke(runner, ["calibrate", "--devices", "20", "--cv", "0.1",
                            "--seed", "4", "--out", str(out)])
        assert r.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        assert lines[0].startswith("device,mu_offset")

    def test_byte_identical_reruns(self, runner, tmp_path):
        # the default cv of 0.2 puts some devices outside the tunable window
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            r = invoke(runner, ["calibrate", "--devices", "50", "--seed", "4",
                                "--out", str(out)])
            assert r.exit_code == 0
        rows = outs[0].read_text().splitlines()[1:]
        assert {row[-1] for row in rows} == {"0", "1"}
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("precision", ["1.5", "1.0", "-0.1"])
    def test_precision_outside_unit_interval_exit_3(self, runner, tmp_path, precision):
        out = tmp_path / "cal.csv"
        r = runner.invoke(main, ["calibrate", "--precision", precision, "--devices", "3",
                                 "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [device]: calibration precision" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("cv", ["nan", "inf", "-inf", "-0.5"])
    def test_negative_or_non_finite_cv_exit_3(self, runner, tmp_path, cv):
        out = tmp_path / "cal.csv"
        r = runner.invoke(main, ["calibrate", "--cv", cv, "--devices", "3", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [cli]: --cv must be >= 0 and finite" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_non_finite_mu_target_exit_3(self, runner, tmp_path, mu):
        out = tmp_path / "cal.csv"
        r = runner.invoke(main, ["calibrate", "--mu-target", mu, "--devices", "3",
                                 "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [surface]: mu_target=" in r.output and "not reachable" in r.output
        assert not out.exists()

    def test_negative_device_count_exit_3(self, runner, tmp_path):
        out = tmp_path / "cal.csv"
        r = runner.invoke(main, ["calibrate", "--devices", "-1", "--out", str(out)])
        assert r.exit_code == 3, r.output
        assert "error [cli]: --devices must be >= 0" in r.output
        assert not out.exists()


class TestParamsbyEnvVar:
    def test_env_var_points_at_params(self, runner, tmp_path, monkeypatch):
        from stochanneal.reference import get_reference
        from stochanneal.surface import save_params

        surface, drift = get_reference()
        params = tmp_path / "params.json"
        save_params(params, surface, drift)
        monkeypatch.setenv("STOCHANNEAL_PARAMS", str(params))
        out = tmp_path / "c.csv"
        r = invoke(runner, ["cycling", "--scheme", "monitored", "--cycles", "40",
                            "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["params_file"] == str(params)
        assert manifest["params_sha256"] is not None

    def test_malformed_measurement_header_exits_3(self, runner, tmp_path):
        bad = tmp_path / "meas.csv"
        bad.write_text("volts,ohms,secs\n1.8,100,1e-5\n")
        r = runner.invoke(main, ["fit", "--data", str(bad),
                                 "--out", str(tmp_path / "o.json")])
        assert r.exit_code == 3
        assert "io_ingest" in r.output


class TestOutputFiles:
    """Every file a command writes: its bytes and what a failed write does."""

    # the digests of these files as written when each command formatted and
    # opened its own output; one table writer and one opener change no byte
    def test_solve_results_and_trace_are_pinned(self, runner, tmp_path):
        inst = tmp_path / "g.rudy"
        inst.write_text(serialize_rudy(generate_instance(30, 4.0, seed=2)))
        out, trace = tmp_path / "s.csv", tmp_path / "t.csv"
        r = invoke(runner, ["solve", "--instance", str(inst), "--iters", "1500", "--runs", "3",
                            "--scheme", "fixed-input", "--d2d-cv", "0.1", "--calibrate",
                            "--seed", "4", "--out", str(out), "--trace", str(trace)])
        assert r.exit_code == 0
        # calibrated cells read 1 and converged_at cells are blank
        assert sha256_of(out) == (
            "81ba91ab9008ef2b387d2a75f51528187f4a0b9bcf73d8b5ec6828c033c0aec9")
        assert sha256_of(trace) == (
            "a925b4e97171ffcc9d7612dc22c682b116d37fe8592eab048cf4b86016bc6dfc")

    def test_cycling_csv_is_pinned(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        r = invoke(runner, ["cycling", "--scheme", "monitored", "--cycles", "40",
                            "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0
        assert sha256_of(out) == (
            "736e5505afca798575b7a147a82e02c86b6fc1789dcb98abe674620471b76ab1")

    def test_calibrate_csv_is_pinned(self, runner, tmp_path):
        # the default cv of 0.2 leaves devices unattained: their cells are blank
        out = tmp_path / "cal.csv"
        r = invoke(runner, ["calibrate", "--devices", "50", "--seed", "4", "--out", str(out)])
        assert r.exit_code == 0
        assert ",,,0\n" in out.read_text()
        assert sha256_of(out) == (
            "637af0cc9465e32a59292b94f966f7fd9bc131c4dc1b1bd4ea06960435734098")

    def test_fit_params_are_pinned(self, runner, tmp_path):
        out = tmp_path / "fitted.json"
        data = write_campaign(tmp_path / "meas.csv", 7)
        assert invoke(runner, ["fit", "--data", str(data), "--out", str(out)]).exit_code == 0
        assert sha256_of(out) == (
            "9d2cb0e38bd394a4b62b71470946c76784c8777989cb016fac1287721ecd57d8")

    def test_gen_instance_and_registry_are_pinned(self, runner, tmp_path):
        reg = tmp_path / "reg.json"
        for nodes, degree, seed, name in [("12", "3", "7", "g12"), ("16", "4", "21", "b16")]:
            r = invoke(runner, ["gen", "--nodes", nodes, "--degree", degree, "--seed", seed,
                                "--out", str(tmp_path / f"{name}.rudy"), "--register", str(reg)])
            assert r.exit_code == 0
        assert sha256_of(tmp_path / "g12.rudy") == (
            "0c382fda5b6809f3819013b3d2435d7eb1afadb3b840ed0cf7b5e01efac94e9d")
        # the second gen loads the registry the first one wrote and adds to it
        assert sha256_of(reg) == (
            "042ce2c10b3327aa9cd518f0294af4ee87c7716a2dc5534d5d108f7173f11d69")

    @pytest.mark.parametrize("args", [
        ["solve", "--instance", "k3.rudy", "--iters", "10", "--out", "dir"],
        ["solve", "--instance", "k3.rudy", "--iters", "10", "--out", "o.csv", "--trace", "dir"],
        ["sweep-drift", "--sizes", "10", "--iters", "200", "--out", "dir"],
        ["sweep-d2d", "--nodes", "12", "--iters", "200", "--out", "dir"],
        ["cycling", "--scheme", "monitored", "--cycles", "5", "--out", "dir"],
        ["calibrate", "--devices", "3", "--out", "dir"],
        ["gen", "--nodes", "8", "--out", "dir"],
        ["gen", "--nodes", "8", "--out", "g.rudy", "--register", "dir"],
        ["fit", "--data", "meas.csv", "--out", "dir"],
    ], ids=["solve", "solve-trace", "sweep-drift", "sweep-d2d", "cycling", "calibrate",
            "gen", "gen-register", "fit"])
    def test_unwritable_output_exits_3(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k3.rudy").write_text(K3_TEXT)
        write_campaign(tmp_path / "meas.csv", 4)
        (tmp_path / "dir").mkdir()
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]: cannot write dir: " in r.output
        # no manifest vouches for a table that was not written
        out = args[args.index("--out") + 1]
        assert not os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("args, module", [
        (["solve", "--instance", "dir", "--out", "o.csv"], "cli"),
        (["fit", "--data", "dir", "--out", "o.json"], "surface"),
        (["cycling", "--scheme", "ideal", "--params", "dir", "--out", "o.csv"], "experiments"),
    ], ids=["solve", "fit", "cycling"])
    def test_unreadable_input_exits_3(self, runner, tmp_path, monkeypatch, args, module):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert f"error [{module}]: [Errno 21] Is a directory: 'dir'" in r.output
        assert not (tmp_path / args[-1]).exists()


class TestOutputOverInput:
    """A command whose output path resolves to one of its inputs, or to another
    of its outputs, exits 3 before it runs or writes anything."""

    @pytest.mark.parametrize("args, message", [
        (["solve", "--instance", "g.rudy", "--iters", "10", "--out", "g.rudy"],
         "--out g.rudy is also the --instance file"),
        (["fit", "--data", "m.csv", "--out", "m.csv"], "--out m.csv is also the --data file"),
        (["gen", "--nodes", "8", "--out", "x.rudy", "--register", "x.rudy"],
         "--register x.rudy is also the --out file"),
        (["solve", "--instance", "g.rudy", "--iters", "10", "--out", "s.csv",
          "--trace", "s.csv.manifest.json"],
         "--trace s.csv.manifest.json is also the --out manifest file"),
        (["solve", "--instance", "t.part", "--iters", "10", "--out", "s.csv", "--trace", "t"],
         "--trace staging t.part is also the --instance file"),
        (["solve", "--instance", "g.rudy", "--iters", "10", "--out", "link.csv"],
         "--out link.csv is also the --instance file"),
        (["solve", "--instance", "g.rudy", "--registry", "reg.json", "--iters", "10",
          "--out", "reg.json"], "--out reg.json is also the --registry file"),
        (["cycling", "--scheme", "ideal", "--cycles", "5", "--params", "p.json",
          "--out", "p.json"], "--out p.json is also the --params file"),
        (["sweep-d2d", "--nodes", "8", "--iters", "50", "--out", "p.json"],
         "--out p.json is also the $STOCHANNEAL_PARAMS file"),
    ], ids=["solve-instance", "fit-data", "gen-register", "solve-trace-manifest",
            "solve-trace-staging", "solve-symlink", "solve-registry", "cycling-params",
            "sweep-d2d-params-env"])
    def test_exits_3_and_leaves_every_file_as_it_was(self, runner, tmp_path, monkeypatch,
                                                     args, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STOCHANNEAL_PARAMS", "p.json")
        (tmp_path / "g.rudy").write_text(K3_TEXT)
        (tmp_path / "t.part").write_text(K3_TEXT)
        (tmp_path / "link.csv").symlink_to("g.rudy")
        (tmp_path / "reg.json").write_text('{"g": {"cut": 2, "provenance": "exact"}}\n')
        write_campaign(tmp_path / "m.csv", 4)
        save_params(tmp_path / "p.json", *get_reference())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert f"error [cli]: {message}\n" in r.output
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert (tmp_path / "link.csv").is_symlink()


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from stochanneal.cli import main
codes = {}
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        codes[args[0]] = exc.code
print(json.dumps(codes))
"""


def test_commands_run_without_scipy(tmp_path):
    data = write_campaign(tmp_path / "meas.csv", 4)
    commands = [
        ["gen", "--nodes", "12", "--seed", "1", "--out", "g.rudy"],
        ["solve", "--instance", "g.rudy", "--iters", "200", "--runs", "2", "--out", "s.csv"],
        ["sweep-drift", "--sizes", "10,12", "--iters", "2000", "--out", "sd.csv"],
        ["sweep-d2d", "--nodes", "12", "--iters", "200", "--out", "d2d.csv"],
        ["cycling", "--scheme", "monitored", "--cycles", "10", "--out", "c.csv"],
        ["calibrate", "--devices", "5", "--out", "cal.csv"],
        ["fit", "--data", str(data), "--out", "fitted.json"],
    ]
    package_root = os.path.dirname(os.path.dirname(stochanneal.__file__))
    path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == {args[0]: 0 for args in commands}, done.stdout + done.stderr
