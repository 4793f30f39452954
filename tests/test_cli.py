import csv
import json
import math

import numpy as np
import pytest

from edho.cli import SweepSpec, main, run_sweep, run_validation
from edho.errors import DomainError


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
        assert "eps_sat" in manifest["tolerances"]

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

    def test_thermo_csv(self, tmp_path):
        spec = SweepSpec(gamma_list=(-1e-5,), n_max=5, eps_sat=0.5,
                         beta_grid=tuple(np.linspace(0.5, 10, 20)),
                         outputs=("thermo",), out_dir=str(tmp_path))
        rows = read_rows(run_sweep(spec)["thermo"])
        for r in rows:
            beta = float(r["beta"])
            ref = (beta / 2) ** 2 / math.sinh(beta / 2) ** 2
            assert float(r["Cv"]) == pytest.approx(ref, abs=1e-2)

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


class TestSpecValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(n_min=3, n_max=2)

    def test_positive_gamma_needs_permissive(self):
        with pytest.raises(DomainError):
            SweepSpec(gamma_list=(0.5,))
        SweepSpec(gamma_list=(0.5,), permissive=True)


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

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "gamma = -0.25\nn_max = 3\nout = {}\n# comment line\n".format(
                tmp_path / "from-config"))
        code = main(["spectrum", "--config", str(cfg),
                     "--n-max", "7"])
        assert code == 0
        rows = read_rows(tmp_path / "from-config" / "spectrum.csv")
        assert len(rows) == 8  # flag n_max=7 beats config n_max=3
        assert all(float(r["gamma"]) == -0.25 for r in rows)

    def test_validate_passes_on_default_grid(self, tmp_path, capsys):
        code = main(["validate", "--gamma=-0.5", "--n-max", "6",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CHECK residual" in out
        assert "REPORT orthogonality" in out
        assert "FAILED" not in out

    def test_validate_flags_positivity_violation(self, tmp_path, capsys):
        code = main(["validate", "--gamma=0.5", "--permissive",
                     "--n-max", "2", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "density_positivity: FAILED" in out
        assert "x in [" in out

    @pytest.mark.parametrize("gammas", ["nan", "inf", "-0.5,-inf"])
    def test_validate_non_finite_gamma_is_usage_error(self, gammas, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", f"--gamma={gammas}", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_validate_domain_error_is_failed_gate(self, tmp_path, capsys):
        # nu=2 with gamma=0.1 has no real level at n=3
        code = main(["validate", "--gamma=0.1", "--nu", "2", "--permissive",
                     "--n-max", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHECK domain: FAILED gamma=0.1" in out
        assert "CHECK residual" in out
        assert "density_positivity: FAILED" in out
