import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from stochanneal.cli import main
from stochanneal.experiments import settling_energy_of
from stochanneal.io_ingest import generate_instance, read_results, serialize_rudy
from stochanneal.surface import poly6

K3_TEXT = "3 3\n1 2 1\n1 3 1\n2 3 1\n"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


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

    def test_weights_beyond_int64_exit_3(self, runner, tmp_path):
        # b_0 = -3 * 2**62 does not fit in int64
        inst = tmp_path / "big.rudy"
        inst.write_text(f"4 3\n1 2 {2**62}\n1 3 {2**62}\n1 4 {2**62}\n")
        r = runner.invoke(main, ["solve", "--instance", str(inst), "--iters", "10",
                                 "--out", str(tmp_path / "o.csv")])
        assert r.exit_code == 3, r.output
        # named after the module that raised it: maxcut.build_form
        assert "error [maxcut]: a node's summed edge weight does not fit in int64" in r.output

    def test_missing_instance_exits_3(self, runner, tmp_path):
        r = runner.invoke(main, ["solve", "--instance", str(tmp_path / "nope.rudy"),
                                 "--out", str(tmp_path / "o.csv")])
        assert r.exit_code == 3
        assert "nope.rudy" in r.output

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

    def test_single_cycle_is_input_error(self, runner, tmp_path):
        r = runner.invoke(main, ["cycling", "--scheme", "ideal", "--cycles", "1",
                                 "--out", str(tmp_path / "c.csv")])
        assert r.exit_code == 3, r.output
        assert "error [experiments]: need at least 2 cycles" in r.output


class TestFit:
    def test_noiseless_fit_r2_one(self, runner, tmp_path):
        true = (3.35, -7.5, 0.012, 1.25, -2e-5, 6e-3)
        rng = np.random.default_rng(0)
        data = tmp_path / "meas.csv"
        with data.open("w") as fh:
            fh.write("v_set,hrs_kohm,t_set_s\n")
            for v in np.linspace(1.6, 2.2, 7):
                for r in np.linspace(10, 500, 7):
                    fh.write(f"{v},{r},{10.0 ** poly6(true, v, r)}\n")
        out = tmp_path / "fitted.json"
        r = invoke(runner, ["fit", "--data", str(data), "--out", str(out)])
        assert r.exit_code == 0
        assert "R^2 = 1.0" in r.output
        fitted = json.loads(out.read_text())
        assert fitted["mu_coeffs"] == pytest.approx(true, rel=1e-6, abs=1e-9)


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

    def test_brute_too_large_exit_3(self, runner, tmp_path):
        inst = tmp_path / "n21.rudy"
        inst.write_text("21 1\n1 2 1\n")
        r = runner.invoke(main, ["brute", "--instance", str(inst)])
        assert r.exit_code == 3, r.output
        assert "error [io_ingest]:" in r.output

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
