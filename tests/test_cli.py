import csv
import io
import json
import math

import numpy as np
import pytest

import edho.cli
from edho.cli import (SweepSpec, _fmt, _write_csv, main, run_sweep,
                      run_validation)
from edho.errors import DomainError, NonConvergence
from edho.information import cramer_rao, moments
from edho.spectrum import _energies, eigenvalue
from edho.thermo import specific_heat_curve
from edho.wavefunction import psi


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunSweep:
    def test_spectrum_csv_and_manifest(self, tmp_path):
        spec = SweepSpec(nu=1, gamma_list=(-1e-5, -0.5, -2.0), n_max=100,
                         outputs=("spectrum",), out_dir=str(tmp_path))
        written = run_sweep(spec)
        rows = read_rows(written["spectrum"])
        assert len(rows) == 3 * 101
        for gamma in (-0.5, -2.0):
            energies = [float(r["energy"]) for r in rows
                        if float(r["gamma"]) == gamma]
            assert all(a < b for a, b in zip(energies, energies[1:]))
            assert energies[-1] < 1 / abs(gamma)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["spec"]["gamma_list"] == [-1e-5, -0.5, -2.0]
        # eps_sat plus each validate gate, under its CHECK name
        assert manifest["tolerances"] == {
            "eps_sat": 1e-6, "residual": 1e-10, "normalization": 1e-8,
            "moment_closed_form": 1e-8, "cramer_rao_bound": 1e-10}

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            spec = SweepSpec(gamma_list=(-0.5,), n_max=5,
                             outputs=("spectrum", "shannon"),
                             out_dir=str(tmp_path / name))
            run_sweep(spec)
        for fname in ("spectrum.csv", "shannon.csv"):
            assert ((tmp_path / "a" / fname).read_bytes()
                    == (tmp_path / "b" / fname).read_bytes())

    def test_row_errors_do_not_abort(self, tmp_path):
        # nu=2 with gamma > 0 fails beyond a threshold n; earlier rows and
        # the other coupling must still come out
        spec = SweepSpec(nu=2, gamma_list=(0.5, -0.5), n_max=5,
                         outputs=("spectrum",), permissive=True,
                         out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["spectrum"])
        assert len(rows) == 12
        failed = [r for r in rows if r["error"]]
        good = [r for r in rows if not r["error"]]
        assert failed and good
        assert all(float(r["gamma"]) == 0.5 for r in failed)
        assert {float(r["gamma"]) for r in good} >= {-0.5}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        counts = manifest["per_output"]["spectrum"]
        assert counts["rows"] == len(rows)
        assert counts["error_rows"] == len(failed)
        assert counts["wall_s"] >= 0

    def test_fisher_weight_free_row(self, tmp_path):
        spec = SweepSpec(gamma_list=(0.0,), n_max=4, outputs=("fisher",),
                         out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["fisher"])
        for r in rows:
            n = int(r["n"])
            assert float(r["fisher_closed"]) == 2 * (2 * n + 1)
            assert float(r["fisher_numeric"]) == pytest.approx(
                2 * (2 * n + 1), abs=1e-8)

    def test_fisher_closed_blank_outside_regime(self, tmp_path):
        # truncated closed form turns negative at strong coupling; the row
        # keeps its numeric value and marks the closed column as nan
        spec = SweepSpec(gamma_list=(-0.8,), n_max=6, outputs=("fisher",),
                         out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["fisher"])
        assert all(not r["error"] for r in rows)
        assert all(float(r["fisher_numeric"]) > 0 for r in rows)
        assert any(math.isnan(float(r["fisher_closed"])) for r in rows)

    @pytest.mark.parametrize("source", ["numeric", "closed"])
    def test_cramer_rao_fisher_is_fisher_column(self, source, tmp_path):
        spec = SweepSpec(gamma_list=(-0.5, -0.01, 0.0), n_max=30,
                         outputs=("fisher", "cramer_rao"),
                         fisher_source=source, out_dir=str(tmp_path))
        written = run_sweep(spec)
        fisher = read_rows(written["fisher"])
        rows = read_rows(written["cramer_rao"])
        assert [r["fisher"] for r in rows] == [r["fisher"] for r in fisher]
        assert any(not r["error"] for r in rows)
        for r in rows:
            if not r["error"]:
                assert float(r["product"]) == \
                    float(r["fisher"]) * float(r["variance"])

    def test_thermo_csv(self, tmp_path):
        spec = SweepSpec(gamma_list=(-1e-5,), n_max=5, eps_sat=0.5,
                         beta_grid=tuple(np.linspace(0.5, 10, 20)),
                         outputs=("thermo",), out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["thermo"])
        for r in rows:
            beta = float(r["beta"])
            ref = (beta / 2) ** 2 / math.sinh(beta / 2) ** 2
            assert float(r["Cv"]) == pytest.approx(ref, abs=1e-2)

    def test_template_rows_match_csv_writer(self, tmp_path):
        # rows without an error or a blank value take the one-template path;
        # the rest keep csv.writer, which quotes a comma or a quote
        rows = [
            (1, -0.5, 3, 0.1, np.float64(2.0) / 3, ""),
            (2, np.int64(7), 10**15, math.nan, math.inf, ""),
            (1, -math.inf, -0.0, np.float64(-0.0), 1e-300, ""),
            (1, -0.5, 4, None, 2.5, ""),
            (1, -0.5, 5, None, None, "DomainError: a, b"),
            (1, -0.5, 6, None, None, 'ValueError: "quoted"'),
            (2, 0.25, np.int64(8), 5e-324, -1.7976931348623157e308, ""),
        ]
        header = ["nu", "gamma", "n", "a", "b", "error"]
        counts = _write_csv(tmp_path / "out.csv", header, iter(rows))
        assert counts == {"rows": 7, "error_rows": 2}
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        assert (tmp_path / "out.csv").read_bytes() == \
            expected.getvalue().encode()

    def test_spectrum_sweep_is_one_array_call_per_coupling(self, tmp_path,
                                                            monkeypatch):
        calls = []

        def counting(params, ns):
            calls.append(params.gamma)
            return _energies(params, ns)

        def scalar(params, n):
            raise AssertionError(f"scalar eigenvalue called at n={n}")

        monkeypatch.setattr(edho.cli, "_energies", counting)
        monkeypatch.setattr(edho.cli, "eigenvalue", scalar)
        spec = SweepSpec(gamma_list=(-0.5, 0.0, -1e-3), n_max=500,
                         outputs=("spectrum",), out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["spectrum"])
        assert calls == [-0.5, 0.0, -1e-3]
        assert len(rows) == 3 * 501 and not any(r["error"] for r in rows)

    @pytest.mark.parametrize("gamma, betas_per_call, n_errors", [
        ("-0.5", [4], 0),
        # NotReached before any level set is built, then once per beta
        ("-1e-5", [4, 1, 1, 1, 1], 4),
    ], ids=["healthy", "not-reached"])
    def test_thermo_retries_a_failed_curve_per_beta(self, gamma,
                                                     betas_per_call, n_errors,
                                                     tmp_path, monkeypatch):
        calls = []

        def counting(params, betas, eps_sat=1e-6):
            calls.append(len(betas))
            return specific_heat_curve(params, betas, eps_sat=eps_sat)

        monkeypatch.setattr(edho.cli, "specific_heat_curve", counting)
        assert main(["thermo", f"--gamma={gamma}", "--beta-grid", "0.5:5:4",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "thermo.csv")
        errors = [r["error"] for r in rows if r["error"]]
        assert calls == betas_per_call
        assert len(rows) == 4 and len(errors) == n_errors
        assert len(set(errors)) <= 1
        assert all(e.startswith("NotReached: ") for e in errors)

    def test_density_and_perey_csv(self, tmp_path):
        spec = SweepSpec(gamma_list=(-0.5,), n_min=2, n_max=2,
                         x_grid=tuple(np.linspace(-4, 4, 81)),
                         outputs=("density", "perey"), out_dir=str(tmp_path))
        written = run_sweep(spec)
        rho = np.array([float(r["rho"]) for r in read_rows(written["density"])])
        assert np.all(rho >= 0)
        np.testing.assert_allclose(rho, rho[::-1], rtol=1e-12)
        perey = [float(r["perey"]) for r in read_rows(written["perey"])]
        assert all(v >= 1.0 for v in perey)


# (argv, output, key columns after nu and gamma, number of error rows,
#  whether a row must fail)
ERROR_SWEEPS = {
    # NotReached: the saturation search stops at its cap, once per beta
    "thermo": (["thermo", "--gamma=-1e-5,-0.5", "--beta-grid", "0.5:5:4"],
               "thermo", ["beta"], 4,
               lambda r: float(r["gamma"]) == -1e-5),
    # gamma**2 overflows, so no level of -1e300 has an energy
    "thermo-overflow": (["thermo", "--gamma=-1e300,-0.5", "--beta-grid",
                         "0.5:5:4"], "thermo", ["beta"], 4,
                        lambda r: float(r["gamma"]) == -1e300),
    # nu = 2, gamma = 0.1 has no real level above n = 2
    "spectrum": (["spectrum", "--nu", "2", "--gamma=0.1,-0.5", "--permissive",
                  "--n-max", "4"], "spectrum", ["n"], 2,
                 lambda r: float(r["gamma"]) > 0 and int(r["n"]) >= 3),
    "density": (["density", "--nu", "2", "--gamma=0.1", "--permissive",
                 "--n-max", "4", "--x-grid=-2:2:5"], "density", ["n", "x"], 10,
                lambda r: int(r["n"]) >= 3),
    # the weight f = 1 - x^2/4 is negative only at |x| = 3
    "perey": (["perey", "--gamma=0.5,-0.5", "--permissive", "--x-grid=-3:3:7"],
              "perey", ["x"], 2,
              lambda r: 1 - float(r["gamma"]) / 2 * float(r["x"]) ** 2 < 0),
    "shannon": (["shannon", "--nu", "2", "--gamma=0.1", "--permissive",
                 "--n-max", "4"], "shannon", ["n"], 2,
                lambda r: int(r["n"]) >= 3),
    # the closed source: fisher_numeric refuses gamma > 0 here, since the
    # weight f vanishes inside its window
    "cramer_rao": (["cramer-rao", "--fisher-source", "closed", "--nu", "2",
                    "--gamma=0.1", "--permissive", "--n-max", "4"],
                   "cramer_rao", ["n"], 2, lambda r: int(r["n"]) >= 3),
    # fisher_numeric fails at every level, so its column reads nan and the
    # closed rows survive; only the levels with no eigenvalue fail
    "fisher-nu2": (["fisher", "--fisher-source", "closed", "--nu", "2",
                    "--gamma=0.1", "--permissive", "--n-max", "4"], "fisher",
                   ["n"], 2, lambda r: int(r["n"]) >= 3),
    # the truncated closed form is invalid from n = 2 on at gamma = -0.8
    "fisher-closed": (["fisher", "--gamma=-0.8", "--n-max", "6",
                       "--fisher-source", "closed"], "fisher", ["n"], 5,
                      lambda r: int(r["n"]) >= 2),
}


@pytest.mark.parametrize("case", sorted(ERROR_SWEEPS))
def test_error_rows_keep_keys_and_blank_values(case, tmp_path):
    argv, name, keys, n_errors, must_fail = ERROR_SWEEPS[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    key_cols = ["nu", "gamma", *keys]
    assert header[:len(key_cols)] == key_cols and header[-1] == "error"
    value_cols = header[len(key_cols):-1]
    assert body and all(len(row) == len(header) for row in body)
    rows = [dict(zip(header, row)) for row in body]
    failed = [r for r in rows if r["error"]]
    for r in rows:
        assert all(r[k] for k in key_cols)
        if r["error"]:
            assert must_fail(r), r
            assert all(r[v] == "" for v in value_cols), r
        else:
            assert not must_fail(r), r
            assert r[value_cols[0]], r
    assert len(failed) == n_errors
    if name == "thermo":
        kind = "NotReached" if case == "thermo" else "NonPositiveEnergy"
        assert all(r["error"].startswith(kind) for r in failed)
        assert [float(r["beta"]) for r in failed] == [0.5, 2.0, 3.5, 5.0]
    if case == "fisher-nu2":
        for r in rows[:3]:
            assert math.isnan(float(r["fisher_numeric"])), r
            assert float(r["fisher"]) == float(r["fisher_closed"]) > 0, r
    if name == "density":
        for n in (3, 4):
            assert [float(r["x"]) for r in failed if r["n"] == str(n)] == [
                -2.0, -1.0, 0.0, 1.0, 2.0]
    counts = json.loads((tmp_path / "manifest.json").read_text())[
        "per_output"][name]
    assert (counts["rows"], counts["error_rows"]) == (len(rows), len(failed))


class TestSpecValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(n_min=3, n_max=2)

    def test_positive_gamma_needs_permissive(self):
        with pytest.raises(DomainError):
            SweepSpec(gamma_list=(0.5,))
        SweepSpec(gamma_list=(0.5,), permissive=True)

    @pytest.mark.parametrize("fields", [
        {"beta_grid": (0.0, 1.0)},
        {"beta_grid": (-1.0, 1.0)},
        {"x_grid": (-1.0, math.nan)},
        {"x_grid": (-math.inf, 0.0)},
        {"n_max": 2**52},  # n + 1/2 is no longer exact
        {"nu": 3},
        {"gamma_list": (-0.5, math.nan)},
        {"density_mode": "bogus"},
        {"fisher_source": "exact"},
        {"outputs": ("spectrum", "bogus")},
        {"eps_sat": 2.0},
        {"eps_sat": -1.0},
        {"eps_sat": math.nan},
    ])
    def test_bad_grid_or_range_rejected(self, fields):
        with pytest.raises(DomainError):
            SweepSpec(**fields)

    @pytest.mark.parametrize("fields, want", [
        ({"x_grid": np.linspace(-1.0, 1.0, 5)},
         {"x_grid": (-1.0, -0.5, 0.0, 0.5, 1.0)}),
        ({"beta_grid": np.array([0.5, 1.0])}, {"beta_grid": (0.5, 1.0)}),
        ({"gamma_list": np.array([-0.5, -0.1])},
         {"gamma_list": (-0.5, -0.1)}),
        ({"gamma_list": -0.5}, {"gamma_list": (-0.5,)}),
        ({"gamma_list": [-1, -0.5]}, {"gamma_list": (-1, -0.5)}),
        ({"outputs": "perey"}, {"outputs": ("perey",)}),
        ({"outputs": ["fisher", "shannon"]},
         {"outputs": ("fisher", "shannon")}),
    ])
    def test_library_input_becomes_tuples(self, fields, want):
        spec = SweepSpec(**fields)
        for name, value in want.items():
            assert type(getattr(spec, name)) is tuple
            assert getattr(spec, name) == value

    @pytest.mark.parametrize("fields", [
        {"gamma_list": None},
        {"gamma_list": "-0.5"},
        {"gamma_list": np.array(-0.5)},
        {"gamma_list": np.array([[-0.5]])},
        {"x_grid": ("0", "1")},
        {"outputs": None},
        {"gamma_list": (-0.5, False)},
        {"n_max": 5.0},
        {"n_max": None},
        {"n_max": True},
        {"n_min": "1"},
        {"nu": 1.0},
        {"eps_sat": "0.5"},
        {"permissive": 1},
        {"permissive": "yes"},
        {"out_dir": None},
    ])
    def test_library_input_of_wrong_type_rejected(self, fields):
        with pytest.raises(DomainError):
            SweepSpec(**fields)

    @pytest.mark.parametrize("fields", [
        {},
        {"gamma_list": np.array([-1, 0])},
        {"x_grid": np.arange(-2, 3)},
        {"nu": np.int64(1)},
        {"n_max": np.int32(2)},
        {"eps_sat": np.float32(1e-6)},
        {"permissive": np.True_},
    ], ids=["path", "int-array", "arange", "int64", "int32", "float32",
            "numpy-bool"])
    def test_library_input_is_stored_plain(self, fields, tmp_path):
        # out_dir is a Path in every case
        spec = SweepSpec(**{"n_max": 2, "outputs": ("spectrum", "perey"),
                            "out_dir": tmp_path / "out", **fields})
        plain = {"nu": int, "n_min": int, "n_max": int, "eps_sat": float,
                 "density_mode": str, "fisher_source": str,
                 "permissive": bool, "out_dir": str, "gamma_list": float,
                 "beta_grid": float, "x_grid": float, "outputs": str}
        for name, value in vars(spec).items():
            items = value if isinstance(value, tuple) else (value,)
            assert all(type(item) is plain[name] for item in items), name
        run_sweep(spec)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["spec"]["out_dir"] == str(tmp_path / "out")
        assert manifest["spec"] == json.loads(json.dumps(vars(spec)))

    def test_numpy_grid_sweeps(self, tmp_path):
        spec = SweepSpec(gamma_list=np.array([-0.3]),
                         x_grid=np.linspace(-1.0, 1.0, 5), outputs="perey",
                         out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["perey"])
        assert [float(r["x"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        json.loads((tmp_path / "manifest.json").read_text())


class TestMainEntry:
    def test_spectrum_subcommand(self, tmp_path, capsys):
        code = main(["spectrum", "--gamma=-0.5,-2", "--n-max", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()
        assert "spectrum" in capsys.readouterr().out

    def test_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n-max", "-1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--frequency", "3"])
        assert exc.value.code == 2

    def test_flags_before_command(self, tmp_path):
        assert main(["--gamma=-0.5", "--n-max", "2", "spectrum",
                     "--out", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "spectrum.csv")) == 3

    def test_help_lists_every_command_and_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("spectrum", "thermo", "fisher", "cramer-rao",
                        "shannon", "density", "perey", "validate"):
            assert command in out
        for flag in ("--nu", "--gamma", "--n-min", "--n-max", "--beta-grid",
                     "--x-grid", "--eps-sat", "--density-mode",
                     "--fisher-source", "--out", "--config", "--permissive"):
            assert flag in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "gamma = -0.25\nn_max = 3\nout = {}\n# comment line\n".format(
                tmp_path / "from-config"))
        config = ["--config", str(cfg)]
        # the config file may come after the command or before it
        for argv in (["spectrum", *config], [*config, "spectrum"]):
            csv_path = tmp_path / "from-config" / "spectrum.csv"
            csv_path.unlink(missing_ok=True)
            code = main([*argv, "--n-max", "7"])
            assert code == 0
            rows = read_rows(csv_path)
            assert len(rows) == 8  # flag n_max=7 beats config n_max=3
            assert all(float(r["gamma"]) == -0.25 for r in rows)

    @pytest.mark.parametrize("command, line", [
        ("spectrum", "n_max = abc"),
        ("spectrum", "gamma = -0.5,x"),
        ("validate", "nu = 3"),
        ("validate", "density_mode = bogus"),
        ("fisher", "fisher_source = bogus"),
        ("spectrum", "frequency = 3"),
        ("spectrum", "n_max 3"),
        ("spectrum", "permissive = maybe"),
        ("spectrum", None),  # no config file at all
    ])
    def test_bad_config_is_usage_error(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        if line is not None:
            cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("grid", [
        "--beta-grid=0.1:10:0",   # no points at all
        "--x-grid=-1:nan:3",      # nan keys and values
        "--x-grid=-inf:1:3",
        "--beta-grid=-1:1:3",     # beta must be positive
        "--beta-grid=0:1:3",
        "--x-grid=-1:1:1000001",  # one point past the count limit
        "--eps-sat=2",            # the saturation threshold lies in (0, 1)
    ])
    def test_bad_grid_is_usage_error(self, grid, tmp_path, capsys):
        command = "perey" if "x-grid" in grid else "thermo"
        with pytest.raises(SystemExit) as exc:
            main([command, "--gamma=-0.5", grid, "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("answer, code", [("yes", 0), ("no", 2)])
    def test_config_permissive(self, answer, code, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"gamma = 0.5\nn-max = 2\npermissive = {answer}\n")
        try:
            result = main(["spectrum", "--config", str(cfg),
                           "--out", str(tmp_path)])
        except SystemExit as exc:
            result = exc.code
        assert result == code
        if code == 2:
            assert "--permissive" in capsys.readouterr().err
        if code == 0:
            rows = read_rows(tmp_path / "spectrum.csv")
            assert len(rows) == 3
            assert all(float(r["gamma"]) == 0.5 and not r["error"]
                       for r in rows)

    def test_validate_passes_on_default_grid(self, tmp_path, capsys):
        code = main(["validate", "--gamma=-0.5", "--n-max", "6",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CHECK residual" in out
        assert "REPORT orthogonality" in out
        assert "FAILED" not in out

    def test_validate_flags_positivity_violation(self, tmp_path, capsys):
        code = main(["validate", "--gamma=0.3,0.1", "--permissive",
                     "--n-max", "2", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        failed = [line for line in out.splitlines()
                  if line.startswith("CHECK density_positivity: FAILED")]
        # one line per coupling, each naming its two negative tails of f
        assert [line.split()[3] for line in failed] == ["gamma=0.3:",
                                                        "gamma=0.1:"]
        for line in failed:
            assert "x in [-8, " in line and " and [" in line
            assert line.endswith(", 8]")

    @pytest.mark.parametrize("gammas", ["nan", "inf", "-0.5,-inf"])
    def test_validate_non_finite_gamma_is_usage_error(self, gammas, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", f"--gamma={gammas}", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, failed, positivity, gated", [
        # nu=2 with gamma=0.1 has no real level at n=3
        (["--gamma=0.1", "--nu", "2", "--permissive"], "gamma=0.1",
         "FAILED", []),
        # gamma**2 overflows, so -1e300 has no level with an energy
        (["--gamma=-1e300,-0.5"], "gamma=-1e+300", "PASS", [-0.5]),
    ], ids=["nu2-no-level", "gamma-overflow"])
    def test_validate_domain_error_is_failed_gate(self, argv, failed,
                                                  positivity, gated, tmp_path,
                                                  capsys, monkeypatch):
        gammas = set()

        def recording(level, params):
            gammas.add(params.gamma)
            return moments(level, params)

        monkeypatch.setattr(edho.cli, "moments", recording)
        code = main(["validate", *argv, "--n-max", "3",
                     "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert f"CHECK domain: FAILED {failed}" in out
        assert "CHECK residual" in out
        assert f"density_positivity: {positivity}" in out
        assert sorted(gammas) == gated

    def test_validate_non_convergence_is_failed_gate(self, tmp_path, capsys,
                                                     monkeypatch):
        def failing(level, params):
            if params.gamma == -1e6:
                raise NonConvergence("no convergence after 18 refinements")
            return cramer_rao(level, params)

        monkeypatch.setattr(edho.cli, "cramer_rao", failing)
        code = main(["validate", "--gamma=-1e6,-0.5", "--n-max", "0",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECK convergence: FAILED gamma=-1e+06" in out
        assert "gamma=-0.5" not in out
        assert "CHECK cramer_rao_bound" in out

    @pytest.mark.parametrize("argv", [
        # the Fisher integral at gamma = -1e6, n = 0 converges
        ["--gamma=-1e6,-0.5", "--n-max", "0"],
        # <x^2> is about 6e7 at n = 200, where 1e-8 is about one ulp
        ["--gamma=-1e3", "--n-max", "200"],
        ["--gamma=-0.5,-1e6", "--n-max", "6"],
    ])
    def test_validate_passes_at_strong_coupling(self, argv, tmp_path, capsys):
        code = main(["validate", *argv, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "FAILED" not in out

    @pytest.mark.parametrize("gamma, n_max", [(-0.5, 0), (-1e3, 200)])
    def test_validate_moment_gate_fails_relative_error(self, gamma, n_max,
                                                       monkeypatch):
        # 1e-7 relative is 1e-7 <x^2> absolute, over the bound at any scale
        def off(level, params):
            mean, second, variance = moments(level, params)
            return mean, second * (1.0 + 1e-7), variance

        monkeypatch.setattr(edho.cli, "moments", off)
        lines, ok = run_validation(SweepSpec(gamma_list=(gamma,), n_max=n_max))
        assert not ok
        gate = next(line for line in lines
                    if line.startswith("CHECK moment_closed_form"))
        assert gate.endswith("FAILED")

    def test_validate_gates_range_start_and_top(self, monkeypatch):
        gated = []

        def recording(level, params):
            gated.append(level.n)
            return moments(level, params)

        monkeypatch.setattr(edho.cli, "moments", recording)
        spec = SweepSpec(gamma_list=(-0.5,), n_min=20, n_max=40)
        _, ok = run_validation(spec)
        assert ok
        assert gated == [*range(20, 33), 40]

    def test_validate_builds_each_level_once(self, tmp_path, monkeypatch):
        # the residual scan keeps the gated levels 0..12 and 20, so every
        # level of 0..20 is built exactly once
        built = []

        def counting(params, n):
            built.append(n)
            return eigenvalue(params, n)

        monkeypatch.setattr(edho.cli, "eigenvalue", counting)
        assert main(["validate", "--gamma=-0.5", "--n-max", "20",
                     "--out", str(tmp_path)]) == 0
        assert built == list(range(21))

    def test_validate_overlap_report_takes_range_start(self, monkeypatch):
        reported = set()

        def recording(level, params, x):
            reported.add(level.n)
            return psi(level, params, x)

        monkeypatch.setattr(edho.cli, "psi", recording)
        lines, ok = run_validation(SweepSpec(gamma_list=(-0.5,), n_min=20,
                                             n_max=30))
        assert ok
        assert reported == set(range(20, 27))
        assert lines[-1].startswith("REPORT orthogonality")
