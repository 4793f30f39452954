import csv
import io
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import edho.cli
from edho.cli import (SweepSpec, _write_csv, main, run_sweep,
                      run_validation)
from edho.errors import DomainError, NonConvergence
from edho.information import (cramer_rao, fisher_closed, fisher_numeric,
                              moments)
from edho.quadrature import gaussian_window, integrate
from edho.spectrum import (DensityMode, _energies, _levels, eigenvalue,
                           residual)
from edho.thermo import specific_heat_curve
from edho.wavefunction import density, psi, weight_coefficient


FLAG = re.compile(r"--[a-z][a-z-]*")


def _fmt(value):
    # the reference rendering of a value for csv.writer, which prints None
    # as an empty field and the rest through str()
    return format(value, ".17g") if isinstance(value, float) else value


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
            "eps_sat": 1e-6, "residual": 1e-10, "normalization": 1e-12,
            "moment_closed_form": 1e-12, "cramer_rao_bound": 1e-10,
            "orthogonality": 1e-12}
        assert manifest["limits"] == {
            "psi_max_n": 680, "i_n_max_n": 10**5, "n_sat_limit": 2**52,
            "thermo_head": 2000}

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

    # past an order limit a level is a DomainError row, written at once
    @pytest.mark.parametrize("output, n", [("fisher", 10**8),
                                           ("shannon", 700)])
    def test_level_past_order_limit_is_error_row(self, output, n, tmp_path):
        spec = SweepSpec(gamma_list=(-0.5,), n_min=n, n_max=n,
                         outputs=(output,), out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)[output])
        assert len(rows) == 1
        assert rows[0]["error"].startswith(f"DomainError: n={n} is past")

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

    def test_cramer_rao_fisher_is_fisher_column(self, tmp_path):
        spec = SweepSpec(gamma_list=(-0.5, -0.01, 0.0), n_max=30,
                         outputs=("fisher", "cramer_rao"),
                         out_dir=str(tmp_path))
        written = run_sweep(spec)
        fisher = read_rows(written["fisher"])
        rows = read_rows(written["cramer_rao"])
        assert [r["fisher"] for r in rows] == [r["fisher"] for r in fisher]
        assert any(not r["error"] for r in rows)
        for r in rows:
            if not r["error"]:
                assert float(r["product"]) == \
                    float(r["fisher"]) * float(r["variance"])

    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_fisher_rows_are_those_of_each_level(self, nu, mode, tmp_path,
                                                 monkeypatch):
        # a coupling's levels are one cell, from one _levels call, and
        # each row holds the values of the level eigenvalue gives, bit for
        # bit (%.17g reads back exactly); one call of each per level
        cells, calls = [], []

        def counting(params, ns):
            cells.append((params.gamma, ns))
            return _levels(params, ns)

        def scalar(params, n):
            raise AssertionError(f"scalar eigenvalue called at n={n}")

        def counted(name):
            original = getattr(edho.cli, name)

            def call(level, params):
                calls.append(name)
                return original(level, params)
            monkeypatch.setattr(edho.cli, name, call)

        monkeypatch.setattr(edho.cli, "_levels", counting)
        monkeypatch.setattr(edho.cli, "eigenvalue", scalar)
        for name in ("fisher_closed", "fisher_numeric", "moments"):
            counted(name)
        gammas = (0.0, -0.5, -1e-3)
        spec = SweepSpec(nu=nu, density_mode=mode, gamma_list=gammas,
                         n_min=5, n_max=40, outputs=("fisher", "cramer_rao"),
                         out_dir=str(tmp_path))
        written = run_sweep(spec)
        assert cells == [(g, range(5, 41)) for g in gammas] * 2
        # 3 couplings x 36 levels, in fisher and then in cramer_rao
        assert calls == (["fisher_closed", "fisher_numeric"] * 108
                         + ["fisher_numeric", "moments"] * 108)
        fisher = read_rows(written["fisher"])
        product = read_rows(written["cramer_rao"])
        assert len(fisher) == len(product) == 3 * 36
        for row, cr in zip(fisher, product):
            params = spec.params(float(row["gamma"]))
            level = eigenvalue(params, int(row["n"]))
            try:
                closed = fisher_closed(level, params)
            except DomainError:
                closed = math.nan
            numeric, variance = (fisher_numeric(level, params),
                                 moments(level, params))
            assert [row[k] for k in ("fisher_closed", "fisher_numeric",
                                     "fisher", "error")] == [
                _fmt(closed), _fmt(numeric), _fmt(numeric), ""]
            assert [cr[k] for k in ("fisher", "variance", "product",
                                    "error")] == [
                _fmt(numeric), _fmt(variance), _fmt(numeric * variance), ""]

    def test_level_past_i_n_limit_runs_each_i_n_once(self, tmp_path,
                                                     monkeypatch):
        # a cell of several levels whose last lies past _I_N_MAX_N = 1e5 is
        # refused before any level runs, and each level is then taken
        # alone: each level's _i_n runs once (at gamma = -1e-300 a call is
        # about 1e5 cheap steps), and the rows are those each level writes
        # in a sweep of its own
        calls = []

        def counting(n, c):
            calls.append(n)
            return i_n(n, c)

        i_n = edho.information._i_n
        monkeypatch.setattr(edho.information, "_i_n", counting)
        for output in ("fisher", "cramer_rao"):
            calls.clear()
            spec = dict(gamma_list=(-1e-300,), outputs=(output,))
            run_sweep(SweepSpec(n_min=99_999, n_max=100_001,
                                out_dir=str(tmp_path / "all"), **spec))
            assert calls == [99_999, 100_000, 100_001]
            alone = []
            for n in range(99_999, 100_002):
                run_sweep(SweepSpec(n_min=n, n_max=n,
                                    out_dir=str(tmp_path / str(n)), **spec))
                alone += data_lines(tmp_path / str(n) / f"{output}.csv")
            lines = data_lines(tmp_path / "all" / f"{output}.csv")
            assert lines == alone
            assert b'"DomainError: n=100001 is past n=100000, ' in lines[2]

    def test_fisher_memory_is_bounded(self, tmp_path):
        # 5,000 levels in one cell per output: a float per level and value,
        # and each level made as it is reached.  The tracemalloc peak is
        # 0.33 MB (CPython 3.11, NumPy 2.4, x86-64); holding a list of
        # EnergyLevels and Python floats for the cell took 1.47 MB
        spec = SweepSpec(gamma_list=(0.0,), n_max=4_999,
                         outputs=("fisher", "cramer_rao"),
                         out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8e6

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
        # every row goes through the cell writer, which quotes an error
        # text holding a comma, a quote, a CR or an LF as csv.writer does
        rows = [
            (1, -0.5, 3, 0.1, np.float64(2.0) / 3, ""),
            (2, np.int64(7), 10**15, math.nan, math.inf, ""),
            (1, -math.inf, -0.0, np.float64(-0.0), 1e-300, ""),
            (1, -0.5, 4, None, 2.5, ""),
            (1, -0.5, 5, None, None, "DomainError: a, b"),
            (1, -0.5, 6, None, None, 'ValueError: "quoted"'),
            (1, -0.5, 7, None, None, "NonConvergence: one\ntwo"),
            (1, -0.5, 8, None, None, "DomainError: one\r\ntwo"),
            (1, -0.5, 9, None, None, 'ValueError: a,"b",c'),
            (2, 0.25, np.int64(8), 5e-324, -1.7976931348623157e308, ""),
        ]
        header = ["nu", "gamma", "n", "a", "b", "error"]
        # each row as a cell of one row: no key text, its values, its error
        counts = _write_csv(tmp_path / "out.csv", header,
                            (((), row[:-1], row[-1]) for row in rows))
        assert counts == {"rows": 10, "error_rows": 5}
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
        # NotReached before any level set is built (n_sat is about 1e20,
        # past 2**52), then once per beta
        ("-1e-14", [4, 1, 1, 1, 1], 4),
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

    @pytest.mark.parametrize("nu, gamma, eps", [
        ("1", "-1e-06", "1e-12"),
        ("2", "-4.015749210286968e-17", "8.7213686928063e-13")])
    def test_thermo_at_a_tight_eps_sat(self, nu, gamma, eps, tmp_path,
                                       monkeypatch):
        # n_sat is about 1e12 and 1.2e14, where the computed deviation from
        # the limit stays within its rounding of eps over 1e8 levels and
        # more; the saturation search still evaluates few of them
        levels = []
        energies = edho.spectrum._energies

        def counting(params, ns):
            levels.append(ns)
            # fail at once rather than after a search that may not end
            assert len(levels) <= 2 * 53
            return energies(params, ns)

        monkeypatch.setattr(edho.spectrum, "_energies", counting)
        assert main(["thermo", "--nu", nu, f"--gamma={gamma}", "--eps-sat",
                     eps, "--beta-grid", "0.1:20:5",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "thermo.csv")
        assert len(rows) == 5 and not any(r["error"] for r in rows)
        assert 1e11 < int(rows[0]["N_used"]) < 2**52

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


def test_density_and_perey_where_g_x2_overflows(tmp_path, capsys):
    # at |x| = 1e160, g x**2 overflows: rho is 0 (psi underflows there)
    # and the Perey factor hypot(1, x / 2) = 5e159, not nan and inf, and
    # nothing reaches stderr
    for command in ("density", "perey"):
        assert main([command, "--gamma=-0.5", "--x-grid=-1e160:1e160:3",
                     "--n-max", "0", "--out", str(tmp_path)]) == 0
    rho = read_rows(tmp_path / "density.csv")
    perey = read_rows(tmp_path / "perey.csv")
    params = SweepSpec().params(-0.5)
    assert [float(r["rho"]) for r in rho] == [
        0.0, density(eigenvalue(params, 0), params, 0.0), 0.0]
    assert [float(r["perey"]) for r in perey] == [5e159, 1.0, 5e159]
    assert not any(r["error"] for r in rho + perey)
    assert capsys.readouterr().err == ""


def data_lines(path):
    return path.read_bytes().split(b"\r\n")[1:-1]


class TestShannonSweep:
    def sweep(self, argv, gammas, out):
        assert main([*argv, "--gamma=" + ",".join(gammas),
                     "--out", str(out)]) == 0
        return data_lines(out / "shannon.csv")

    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("nu", ["1", "2"])
    def test_couplings_together_write_each_alone(self, nu, mode, tmp_path,
                                                 capsys):
        # a coupling's rows are byte for byte those of its sweep alone; at
        # nu = 2, gamma = 0.1 the levels n >= 3 have no energy, so there
        # the call for every coupling raises and each takes the level alone
        gammas = ("-0.5", "0", "0.1")
        argv = ["shannon", "--nu", nu, "--density-mode", mode,
                "--permissive", "--n-max", "6"]
        together = self.sweep(argv, gammas, tmp_path / "all")
        alone = [line for i, gamma in enumerate(gammas)
                 for line in self.sweep(argv, [gamma], tmp_path / str(i))]
        assert together == alone and len(together) == 21
        errors = [line for line in together if not line.endswith(b",")]
        assert all(b',,"NonPositiveEnergy: ' in line for line in errors)
        assert len(errors) == (4 if nu == "2" else 0)
        assert capsys.readouterr().err == ""

    def test_refused_coupling_keeps_its_error_rows(self, tmp_path, capsys):
        # at gamma = -1e130 sqrt(lam)/b is 0: every level of that coupling
        # fails the call for both, and each coupling takes its level alone
        argv = ["shannon", "--n-max", "2"]
        together = self.sweep(argv, ["-0.5", "-1e130"], tmp_path / "all")
        alone = [self.sweep(argv, [gamma], tmp_path / gamma)
                 for gamma in ("-0.5", "-1e130")]
        assert together == alone[0] + alone[1]
        assert all(line.endswith(b",") for line in alone[0])
        assert all(b',,"DomainError: sqrt(lam)/b = 0 ' in line
                   for line in alone[1])
        assert capsys.readouterr().err == ""

    def test_one_hermite_pass_per_level_for_every_coupling(self, tmp_path,
                                                           monkeypatch):
        # three couplings make the zeros and Hermite calls of one; each
        # coupling is its own integral over the shared tau grids
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)
            monkeypatch.setattr(module, name, counted)

        counting(edho.wavefunction, "hermite_fn_pair")
        counting(edho.information, "_hermite_zeros")
        counting(edho.information, "integrate")
        seen = []
        for gammas in (["-0.5"], ["-0.5", "-0.2", "-0.05"]):
            calls.clear()
            self.sweep(["shannon", "--n-max", "6"], gammas,
                       tmp_path / str(len(gammas)))
            seen.append(dict(calls))
        assert seen == [
            {"hermite_fn_pair": 7, "_hermite_zeros": 7, "integrate": 7},
            {"hermite_fn_pair": 7, "_hermite_zeros": 7, "integrate": 21}]


class TestDensitySweep:
    def sweep(self, argv, gammas, out):
        assert main(["density", *argv, "--gamma=" + ",".join(gammas),
                     "--out", str(out)]) == 0
        return data_lines(out / "density.csv")

    def test_couplings_together_write_each_alone(self, tmp_path, capsys):
        # n = 679..682 take one call, which raises past the order limit and
        # for gamma = -1e130, where sqrt(lam)/b is 0; each level is then
        # taken alone and keeps its error text
        argv = ["--n-min", "679", "--n-max", "682"]
        together = self.sweep(argv, ["-0.5", "-1e130"], tmp_path / "all")
        alone = [self.sweep(argv, [gamma], tmp_path / gamma)
                 for gamma in ("-0.5", "-1e130")]
        assert together == alone[0] + alone[1]
        assert len(together) == 8 * 241
        assert sum(line.endswith(b",") for line in together) == 2 * 241
        assert sum(b',,"DomainError: n=681 is past' in line
                   for line in together) == 2 * 241
        assert sum(b',,"DomainError: sqrt(lam)/b = 0 ' in line
                   for line in together) == 2 * 241
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("grid, calls", [
        # 4096 // 241 = 16 levels per call
        ((), [16, 16, 16, 13] * 2),
        # 4096 // 2000 = 2 levels per call, and level 60 alone
        (tuple(np.linspace(-6.0, 6.0, 2000)), ([2] * 30 + [1]) * 2),
        # more than 2048 points: each level alone
        (tuple(np.linspace(-6.0, 6.0, 2049)), [1] * 122),
    ], ids=["default-grid", "2000-points", "2049-points"])
    def test_levels_take_one_call_per_block(self, grid, calls, tmp_path,
                                            monkeypatch):
        # the length of each call's level sequence, None for a level alone
        seen = []

        def recording(level, params, x):
            seen.append(None if hasattr(level, "n") else len(level))
            return density(level, params, x)

        monkeypatch.setattr(edho.cli, "density", recording)
        spec = SweepSpec(gamma_list=(-0.5, -0.05), n_max=60, x_grid=grid,
                         outputs=("density",), out_dir=str(tmp_path))
        run_sweep(spec)
        assert seen == calls

    def test_memory_is_bounded(self, tmp_path):
        # 2 couplings x 681 levels x 241 points: a call holds one block of
        # about 4096 values, kept until its rows are written.  The
        # tracemalloc peak is 0.25 MB (CPython 3.11, NumPy 2.4, x86-64);
        # one call for all levels of a coupling takes 8.1 MB, and one call
        # per level 0.10 MB
        spec = SweepSpec(gamma_list=(-0.5, -0.05), n_max=680,
                         outputs=("density",), out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6


# (argv, output, key columns after nu and gamma, number of error rows,
#  whether a row must fail)
ERROR_SWEEPS = {
    # NotReached: the saturation index of -1e-14 lies past 2**52, once per
    # beta
    "thermo": (["thermo", "--gamma=-1e-14,-0.5", "--beta-grid", "0.5:5:4"],
               "thermo", ["beta"], 4,
               lambda r: float(r["gamma"]) == -1e-14),
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
    # every row fails: fisher_numeric refuses every gamma > 0, where the
    # weight f vanishes, and the levels from n = 3 on have no eigenvalue
    "cramer_rao": (["cramer-rao", "--nu", "2", "--gamma=0.1", "--permissive",
                    "--n-max", "4"], "cramer_rao", ["n"], 5, lambda r: True),
    "fisher-nu2": (["fisher", "--nu", "2", "--gamma=0.1", "--permissive",
                    "--n-max", "4"], "fisher", ["n"], 5, lambda r: True),
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
    if name in ("fisher", "cramer_rao"):
        kinds = [r["error"].split(":")[0] for r in failed]
        assert kinds == ["DomainError"] * 3 + ["NonPositiveEnergy"] * 2
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

    def test_removed_fisher_source_is_no_field(self):
        with pytest.raises(TypeError):
            SweepSpec(fisher_source="closed")

    @pytest.mark.parametrize("fields", [
        {"beta_grid": (0.0, 1.0)},
        {"beta_grid": (-1.0, 1.0)},
        {"x_grid": (-1.0, math.nan)},
        {"x_grid": (-math.inf, 0.0)},
        {"n_max": 2**52},  # n + 1/2 is no longer exact
        {"nu": 3},
        {"gamma_list": (-0.5, math.nan)},
        {"density_mode": "bogus"},
        {"gamma_list": ()},
        {"outputs": ("spectrum", "bogus")},
        {"eps_sat": 2.0},
        {"eps_sat": -1.0},
        {"eps_sat": math.nan},
        {"n_max": 10**6},  # one level past the count limit
        {"n_min": 5, "n_max": 10**6 + 5},
        {"n_max": 10**5000},  # too many digits to print
        {"n_min": -10**5000},
    ])
    def test_bad_grid_or_range_rejected(self, fields):
        with pytest.raises(DomainError):
            SweepSpec(**fields)

    @pytest.mark.parametrize("n_min", [0, 5])
    def test_range_at_count_limit_accepted(self, n_min):
        spec = SweepSpec(n_min=n_min, n_max=n_min + 10**6 - 1)
        assert spec.n_max - spec.n_min + 1 == 10**6

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
        {"gamma_list": [-10**400]},  # past the float range
        {"eps_sat": 10**400},
        {"beta_grid": [1, 10**400]},
        # integers too long for repr, which the message must not print
        *({name: 10**5000} for name in ("outputs", "nu", "out_dir",
                                         "density_mode", "n_min",
                                         "permissive")),
        {"outputs": ("spectrum", 10**5000)},
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
                 "density_mode": str, "permissive": bool, "out_dir": str,
                 "gamma_list": float, "beta_grid": float, "x_grid": float,
                 "outputs": str}
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
        # the README's flag list and the parser's agree both ways
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        flags = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
        assert set(FLAG.findall(out)) == set(FLAG.findall(flags)) | {"--help"}

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
        ("fisher", "fisher_source = closed"),  # the option is gone
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

    def test_removed_fisher_source_flag_is_usage_error(self, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fisher", "--fisher-source", "closed",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "fisher.csv").exists()

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

    def test_overflowing_grid_span_is_usage_error(self, tmp_path, capsys):
        # both ends are finite, but stop - start overflows: refused before
        # linspace, which would warn and fill the grid with inf and nan
        with pytest.raises(SystemExit) as exc:
            main(["perey", "--gamma=-0.5", "--x-grid=-1e308:1e308:3",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "grid span stop - start overflows" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "perey.csv").exists()

    @pytest.mark.parametrize("command", ["spectrum", "validate"])
    def test_huge_level_range_is_usage_error(self, command, tmp_path, capsys):
        # below 2**52 but far past the count limit: refused before any level
        # is computed or any CSV written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--gamma=-0.5", "--n-max", str(2**52 - 1),
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "levels" in err and "Traceback" not in err
        assert not out.exists()

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
        assert "CHECK orthogonality" in out
        assert "FAILED" not in out

    def test_validate_flags_positivity_violation(self, tmp_path, capsys):
        code = main(["validate", "--gamma=0.3,0.1,5e-324", "--permissive",
                     "--n-max", "2", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines()
                  if line.startswith("CHECK density_positivity")]
        # one line per coupling, each naming the zero 1/sqrt(gamma/2) of f
        # past which rho < 0; at a subnormal gamma, gamma/2 underflows to 0
        assert failed == [
            "CHECK density_positivity: FAILED gamma=0.3: rho < 0 for |x| > "
            "2.582",
            "CHECK density_positivity: FAILED gamma=0.1: rho < 0 for |x| > "
            "4.472",
            "CHECK density_positivity: FAILED gamma=4.94066e-324: rho < 0 "
            "for |x| > inf"]

    @pytest.mark.parametrize("gamma, nu, mode, n_min", [
        *[(g, 1, "paper", 0) for g in (0.01, 0.03, 0.3, 1e5, 1e6)],
        # g = nu gamma E/2 takes the energy of level n_min
        (0.1, 2, "nu-consistent", 0),
        (0.1, 2, "nu-consistent", 1),
    ])
    def test_validate_positivity_is_closed_form(self, gamma, nu, mode, n_min,
                                                tmp_path, capsys, monkeypatch):
        # the zero of f = 1 - g x**2 decides it, wherever it lies (14.1 at
        # gamma = 0.01, 1.4e-3 at gamma = 1e6), whatever the x grid: no
        # density is evaluated and no gated level is built
        built = []

        def counting(params, n):
            built.append(n)
            return eigenvalue(params, n)

        def no_density(*args):
            raise AssertionError("density evaluated")

        monkeypatch.setattr(edho.cli, "eigenvalue", counting)
        monkeypatch.setattr(edho.cli, "density", no_density)
        code = main(["validate", f"--gamma={gamma}", "--nu", str(nu),
                     "--density-mode", mode, "--permissive", "--n-min",
                     str(n_min), "--n-max", "3", "--x-grid=-1:1:3",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        params = SweepSpec(gamma_list=(gamma,), nu=nu, density_mode=mode,
                           permissive=True).params(gamma)
        x0 = 1 / math.sqrt(weight_coefficient(params,
                                              eigenvalue(params, n_min)))
        failed = [line for line in out.splitlines()
                  if line.startswith("CHECK density_positivity")]
        assert failed == [f"CHECK density_positivity: FAILED gamma={gamma:g}: "
                          f"rho < 0 for |x| > {x0:.4g}"]
        assert built == [n_min]

    @pytest.mark.parametrize("argv", [
        # E overflows at n = 0: no level of the coupling has an energy
        ["--gamma=1e308", "--n-max", "3"],
        # nu = 2, gamma = 0.1 has no real level above n = 2
        ["--gamma=0.1", "--nu", "2", "--n-min", "3", "--n-max", "4"],
    ], ids=["energy-overflow", "nu2-no-level"])
    def test_validate_gate_without_level_is_skipped(self, argv, tmp_path,
                                                    capsys):
        code = main(["validate", *argv, "--permissive",
                     "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        checks = [line for line in out.splitlines()
                  if line.startswith("CHECK ")]
        gamma = f"{float(argv[0].split('=')[1]):g}"
        assert checks[0].startswith(f"CHECK domain: FAILED gamma={gamma}:")
        assert checks[1:] == [
            *(f"CHECK {name}: SKIPPED (no level checked)"
              for name in edho.cli._GATES),
            f"CHECK density_positivity: SKIPPED gamma={gamma} "
            "(no level checked)"]

    def test_validate_huge_gamma_writes_no_warning(self, tmp_path, capsys):
        # E**2 overflows in the residual scan; that level reads nan, and the
        # other levels' residual, relative to E**2, passes the gate; the
        # exit code comes from positivity
        code = main(["validate", "--gamma=1e152", "--permissive",
                     "--n-max", "12", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert ("CHECK residual: max_err=2.078e-16 tol=1e-10 PASS"
                in out.splitlines())
        assert "CHECK density_positivity: FAILED gamma=1e+152" in out

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

    def test_validate_past_order_limit_is_failed_gate(self, tmp_path, capsys):
        # the quadrature gates reach psi, which refuses n > 680 at once
        code = main(["validate", "--gamma=-0.5", "--n-min", "681",
                     "--n-max", "681", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert "CHECK domain: FAILED gamma=-0.5: n=681 is past n=680" in out

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
            return moments(level, params) * (1.0 + 1e-7)

        monkeypatch.setattr(edho.cli, "moments", off)
        lines, ok = run_validation(SweepSpec(gamma_list=(gamma,), n_max=n_max))
        assert not ok
        gate = next(line for line in lines
                    if line.startswith("CHECK moment_closed_form"))
        assert gate.endswith("FAILED")

    @pytest.mark.parametrize("name, value, gate", [
        ("moments", math.inf, "moment_closed_form"),
        ("cramer_rao", math.nan, "cramer_rao_bound"),
    ])
    def test_validate_nan_or_inf_error_fails_its_gate(self, name, value, gate,
                                                      monkeypatch):
        # a nan error at level 1 of 0..2 stays the gate's maximum after the
        # finite errors of level 2 (Python's max(0.0, nan) is 0.0)
        real = getattr(edho.cli, name)
        monkeypatch.setattr(edho.cli, name, lambda level, params: (
            value if level.n == 1 else real(level, params)))
        lines, ok = run_validation(SweepSpec(gamma_list=(-0.5,), n_max=2))
        assert not ok
        tol = edho.cli._GATES[gate]
        assert f"CHECK {gate}: max_err=nan tol={tol:.0e} FAILED" in lines

    @pytest.mark.parametrize("argv, code", [
        # g/lam**2 overflows here, but no error is nan
        (["--gamma=-1e110"], 0),
        (["--nu", "2", "--gamma=-1e160"], 0),
        # sqrt(lam)/b is 0: every density is refused
        (["--gamma=-1e130"], 1),
        (["--nu", "2", "--gamma=-1e190"], 1),
    ])
    def test_validate_at_huge_coupling(self, argv, code, capsys):
        assert main(["validate", *argv, "--n-max", "2"]) == code
        out, err = capsys.readouterr()
        assert err == ""
        if code:
            assert out.startswith("CHECK domain: FAILED gamma=-1e+1")
            assert "below the normal float range at n=0" in out
        else:
            assert "FAILED" not in out and "nan" not in out

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
        # the residual scan takes all of 0..20 in one array call per
        # coupling, and only the gated levels 0..12 and 20 are built
        built, scanned = [], []

        def counting(params, n):
            built.append(n)
            return eigenvalue(params, n)

        def scanning(params, n, energy):
            scanned.append((params.gamma, list(n)))
            return residual(params, n, energy)

        monkeypatch.setattr(edho.cli, "eigenvalue", counting)
        monkeypatch.setattr(edho.cli, "residual", scanning)
        assert main(["validate", "--gamma=-0.5,-0.25", "--n-max", "20",
                     "--out", str(tmp_path)]) == 0
        assert built == [*range(13), 20] * 2
        assert scanned == [(-0.5, list(range(21))), (-0.25, list(range(21)))]

    def test_validate_residual_skips_a_nan_level(self, monkeypatch):
        # a residual that overflows to nan at one level (E**2 past the float
        # range at a huge permissive gamma) must not hide the other levels'
        def nan_at_top(params, n, energy):
            return np.where(np.asarray(n) == 12, math.nan, 1.0)

        monkeypatch.setattr(edho.cli, "residual", nan_at_top)
        lines, ok = run_validation(SweepSpec(gamma_list=(-0.5,), n_max=12))
        assert not ok
        # the worst level is n = 0: 1 / (0 + 1/2)**2
        assert lines[0] == "CHECK residual: max_err=4.000e+00 tol=1e-10 FAILED"

    def test_validate_overlap_report_takes_range_start(self, monkeypatch):
        # the gate's overlaps are columns of the gates' one integral; the
        # oracle is one integral per same-parity pair among levels 20..26,
        # the first seven of the range, of psi psi times the pair weight
        # 1 - (k_m + k_n) x**2 / 2, k the nu-consistent weight coefficient,
        # on the pair's window
        yielded = []

        def recording(levels, params):
            for item in gated(levels, params):
                yielded.append(item)
                yield item

        gated = edho.cli._gated_integrals
        monkeypatch.setattr(edho.cli, "_gated_integrals", recording)
        for nu, mode in ((1, "paper"), (2, "paper"), (2, "nu-consistent")):
            yielded.clear()
            spec = SweepSpec(gamma_list=(-0.5,), nu=nu, density_mode=mode,
                             n_min=20, n_max=30)
            params = spec.params(-0.5)
            consistent = replace(params,
                                 density_mode=DensityMode.NU_CONSISTENT)
            levels = [eigenvalue(params, n) for n in range(20, 27)]
            oracle = []
            for i, lm in enumerate(levels):
                for ln in levels[i + 2::2]:
                    k = (weight_coefficient(consistent, lm)
                         + weight_coefficient(consistent, ln))
                    value, _ = integrate(
                        lambda x: (psi(lm, params, x) * psi(ln, params, x)
                                   * (1.0 - 0.5 * k * x * x)),
                        gaussian_window(min(lm.lam, ln.lam), ln.n), 1e-10)
                    oracle.append(value)
            lines, ok = run_validation(spec)
            assert ok
            (part, _, _, overlaps), = yielded
            assert [lv.n for lv in part] == list(range(20, 31))
            assert len(overlaps) == 9
            assert np.all(abs(overlaps - oracle) < 1e-14)
            assert (f"CHECK orthogonality: max_err="
                    f"{max(abs(overlaps)):.3e} tol=1e-12 PASS") in lines
            assert abs(max(abs(overlaps)) - max(map(abs, oracle))) < 1e-14

    def test_validate_takes_one_integral_per_coupling(self, monkeypatch):
        # n_max = 12: one integral whose 26 + 9 columns are the norm and
        # <x^2> of the 13 gated levels and the 9 overlaps among levels 0..6
        shapes = []

        def counting(integrand, window, rel_tol):
            value, err = integrate(integrand, window, rel_tol)
            shapes.append(np.shape(value))
            return value, err

        monkeypatch.setattr(edho.cli, "integrate", counting)
        lines, ok = run_validation(SweepSpec(gamma_list=(-0.5,), n_max=12))
        assert ok
        assert shapes == [(26 + 9,)]

    def test_validate_gates_the_levels_below_a_refused_one(self,
                                                            monkeypatch):
        # the integral of levels 670..682 and 690 raises at n = 681, past
        # the order limit; the levels below the top then take one integral
        # and the top its own, so that 670..680 are still gated, with the
        # overlaps among 670..676, as they were one integral per level
        gated, shapes = [], []

        def recording(level, params):
            gated.append(level.n)
            return moments(level, params)

        def counting(integrand, window, rel_tol):
            shapes.append(None)
            value, err = integrate(integrand, window, rel_tol)
            shapes[-1] = np.shape(value)
            return value, err

        monkeypatch.setattr(edho.cli, "moments", recording)
        monkeypatch.setattr(edho.cli, "integrate", counting)
        lines, ok = run_validation(SweepSpec(gamma_list=(-0.5,), n_min=670,
                                             n_max=690))
        assert not ok
        assert lines[0].startswith("CHECK domain: FAILED gamma=-0.5: n=681 "
                                   "is past n=680")
        assert gated == list(range(670, 681))
        # 670..682 and 690, 670..682 and 670..681 raise; 670..680 gives its
        # 22 + 9 columns, and 681 alone raises
        assert shapes == [None, None, None, (22 + 9,), None]
        assert next(line for line in lines if "normalization" in line
                    ).endswith("tol=1e-12 PASS")
        assert next(line for line in lines if "orthogonality" in line
                    ).endswith("tol=1e-12 PASS")

    @pytest.mark.parametrize("argv", [
        ["--gamma=0.01", "--permissive", "--n-max", "3"],  # gamma > 0
        ["--gamma=1e308", "--permissive", "--n-max", "3"],  # no energy
        ["--n-max", "1"],  # levels 0 and 1 differ in parity
    ], ids=["positive-gamma", "energy-overflow", "no-same-parity-pair"])
    def test_validate_overlap_report_without_pair_is_skipped(self, argv,
                                                             capsys):
        main(["validate", *argv])
        out = capsys.readouterr().out
        assert ("CHECK orthogonality: SKIPPED (no level checked)"
                in out.splitlines())

    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("gamma", [-1e-5, -0.5, -1e3])
    @pytest.mark.parametrize("n_min", [0, 20])
    def test_validate_orthogonality_gates_nu2(self, mode, gamma, n_min):
        # at nu = 2 the density weight of either mode is no pair's weight
        # (the overlaps under it reach 8e-2 at gamma = -0.5); under the pair
        # weight the nine overlaps stay below 5e-15
        lines, ok = run_validation(SweepSpec(
            nu=2, gamma_list=(gamma,), density_mode=mode, n_min=n_min,
            n_max=n_min + 12))
        assert ok
        line = next(line for line in lines if "orthogonality" in line)
        assert re.fullmatch(r"CHECK orthogonality: max_err=\S+ tol=1e-12 "
                            "PASS", line)


# output -> sweeps whose cells the writer must print exactly as csv.writer
# prints their rows (SweepSpec fields besides outputs and out_dir)
CELL_SWEEPS = {
    # blank saturation_limit at gamma = 0; 4,101 levels fill 16 chunks of
    # rows and part of a 17th
    "spectrum": dict(gamma_list=(0.0, -0.5), n_max=4100),
    # the largest levels: %d prints the level column as %.17g does
    "spectrum-top": dict(gamma_list=(-0.5,), n_min=2**52 - 3,
                         n_max=2**52 - 1),
    # nu = 2, gamma = 0.1 fails from n = 3 on: the whole-axis block is
    # retried per level, which mixes good rows and error rows
    "spectrum-retry": dict(nu=2, gamma_list=(0.1, -0.5), permissive=True,
                           n_max=4),
    # blank N_used at gamma = 0
    "thermo": dict(gamma_list=(0.0, -0.5), beta_grid=(0.5, 2.0, 5.0)),
    "thermo-error": dict(gamma_list=(-1e-14, -0.5), beta_grid=(0.5, 5.0)),
    # nan fisher_closed at strong coupling, DomainError rows at gamma > 0
    "fisher": dict(gamma_list=(-3.0, -0.5), n_max=3),
    "fisher-error": dict(nu=2, gamma_list=(0.1,), permissive=True, n_max=4),
    "cramer_rao": dict(nu=2, gamma_list=(-0.5, 0.1), permissive=True,
                       n_max=3),
    # n = 100001 is past the largest order of I_n: the whole-axis block is
    # retried per level, which mixes good rows and error rows.  At
    # gamma = -1e-300 a level that far up takes milliseconds; at gamma = 0,
    # where I_n = 1, no level fails
    "fisher-retry": dict(gamma_list=(-1e-300,), n_min=99_999,
                         n_max=100_001),
    "cramer_rao-retry": dict(gamma_list=(-1e-300, 0.0), n_min=99_999,
                             n_max=100_001),
    "shannon": dict(gamma_list=(-0.5,), n_max=2),
    # every level raises CELL_FAULTS' error
    "shannon-fault": dict(gamma_list=(-0.5, -0.1), n_max=2),
    # the levels past n = 680 are error rows, one per x
    "density": dict(gamma_list=(-0.5,), n_min=679, n_max=682,
                    x_grid=(-2.0, -0.5, 0.0, 1.0, 2.0)),
    # f < 0 at |x| = 3 only: the per-point retry mixes good and error rows
    "perey": dict(gamma_list=(0.5, -0.5), permissive=True,
                  x_grid=tuple(np.linspace(-3, 3, 7))),
}


# case -> (a function of edho.cli made to raise at every call, its error
# text); the text holds a comma and a quote, which csv.writer quotes, and %,
# which the writer must write as it is, not read as a %-template's slot
CELL_FAULTS = {
    "shannon-fault": ("shannon_entropy", '100% of "rho", %s and %d %%'),
}


def cell_sweep(case, out, monkeypatch):
    """(output name, spec) of a CELL_SWEEPS case, with its CELL_FAULTS
    function made to raise."""
    name = case.split("-")[0]
    if case in CELL_FAULTS:
        function, text = CELL_FAULTS[case]

        def raising(*args):
            raise ValueError(text)

        monkeypatch.setattr(edho.cli, function, raising)
    return name, SweepSpec(outputs=(name,), out_dir=str(out),
                           **CELL_SWEEPS[case])


@pytest.mark.parametrize("case", sorted(CELL_SWEEPS))
def test_cell_writer_matches_csv_writer(case, tmp_path, monkeypatch):
    name, spec = cell_sweep(case, tmp_path, monkeypatch)
    keys, columns, *_ = edho.cli._OUTPUTS[name]
    # a later axis reaches the writer as text; the reference takes its values
    # from the spec
    later = [edho.cli._AXES[k](spec) for k in keys[1:]]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["nu", "gamma", *keys, *columns, "error"])
    for shared, cell_columns, error in edho.cli._rows(spec, name):
        # the keys reach the writer as text: the reference takes the values
        # they read as (17 digits read back exactly)
        shared = [int(k) if k.lstrip("-").isdigit() else float(k)
                  for k in shared]
        # a column is one value per row, or one value all rows share
        cell_columns = [c if isinstance(c, (list, tuple, range, np.ndarray))
                        else [c] for c in [*later, *cell_columns[len(later):]]]
        for i in range(max(map(len, cell_columns))):
            row = [c[i % len(c)] for c in cell_columns]
            writer.writerow([_fmt(v) for v in (*shared, *row, error)])
    text = run_sweep(spec)[name].read_bytes()
    assert text == expected.getvalue().encode()
    if case in ("spectrum", "thermo"):
        assert b",," in text  # a blank value column
    if case == "fisher":
        assert b",nan," in text
    if case in CELL_FAULTS:
        assert text.count(b',"ValueError: 100% of ""rho"", %s and %d %%"\r\n'
                          ) == 6
    if case.endswith("retry") or case in ("perey", "density"):
        rows = read_rows(tmp_path / f"{name}.csv")
        assert {bool(r["error"]) for r in rows} == {False, True}


@pytest.mark.parametrize("case", sorted(CELL_SWEEPS))
def test_blocks_of_one_point_write_the_same_bytes(case, tmp_path,
                                                  monkeypatch):
    # _rows alone decides how much of the first axis a compute call takes:
    # a bound of one value per call, for every output, changes no byte
    name, spec = cell_sweep(case, tmp_path, monkeypatch)
    text = run_sweep(spec)[name].read_bytes()
    monkeypatch.setitem(edho.cli._OUTPUTS, name,
                        (*edho.cli._OUTPUTS[name][:3], 1))
    assert run_sweep(spec)[name].read_bytes() == text


def test_writer_memory_is_bounded(tmp_path):
    # 2 couplings x 5e4 levels: the writer holds one chunk of rows and one
    # cell at a time.  The tracemalloc peak is 2.94 MB (CPython 3.11, NumPy
    # 2.4, x86-64); joining each cell's rows at once takes 9.97 MB, and
    # keeping a written cell while the next one is computed 3.74 MB
    spec = SweepSpec(gamma_list=(-0.5, -1e-3), n_max=49_999,
                     outputs=("spectrum",), out_dir=str(tmp_path))
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6
