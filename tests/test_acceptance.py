"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import csv
import math
import time

import numpy as np

from edho import (ModelParams, cramer_rao, density, eigenvalue, fisher_closed,
                  fisher_numeric, gaussian_window, integrate, perey_factor,
                  residual, shannon_entropy)
from edho.cli import SweepSpec, run_sweep


def report(num, description, ok, elapsed, budget):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num:2d} [{status}] {description} "
          f"({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert in_time, f"criterion {num} overran: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_weak_coupling_recovery():
    t0 = time.perf_counter()
    params = ModelParams(gamma=-1e-5, nu=1)
    ok = all(abs(eigenvalue(params, n).energy - (n + 0.5)) < 1e-3
             for n in range(11))
    report(1, "gamma->0 recovery of the textbook spectrum", ok,
           time.perf_counter() - t0, 1.0)


def test_criterion_2_saturation_limits():
    t0 = time.perf_counter()
    e1 = eigenvalue(ModelParams(gamma=-2.0, nu=1), 200).energy
    e2 = eigenvalue(ModelParams(gamma=-0.25, nu=2), 200).energy
    ok = abs(e1 - 0.5) / 0.5 < 1e-3 and abs(e2 - 2.0) / 2.0 < 1e-3
    report(2, "saturation limits 1/|g| and 1/sqrt|g| at n=200", ok,
           time.perf_counter() - t0, 1.0)


def test_criterion_3_characteristic_residual():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (1, 2):
        for gamma in (-0.1, -0.5, -1.0, -2.0):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in range(501):
                rel = abs(residual(params, n, eigenvalue(params, n).energy)) \
                    / (n + 0.5) ** 2
                worst = max(worst, rel)
    report(3, f"characteristic residual (max {worst:.2e})", worst < 1e-10,
           time.perf_counter() - t0, 5.0)


def test_criterion_4_modified_norm():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (1, 2):
        for gamma in (0.0, -0.1, -0.5, -1.0):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in range(51):
                level = eigenvalue(params, n)
                norm, _ = integrate(lambda x: density(level, params, x),
                                    gaussian_window(level.lam, n), 1e-11)
                worst = max(worst, abs(norm - 1.0))
    report(4, f"unit modified norm for n<=50 (max dev {worst:.2e})",
           worst < 1e-8, time.perf_counter() - t0, 30.0)


def test_criterion_5_fisher_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for nu in (1, 2):
        for gamma in (-0.1, -0.05):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in range(6):
                level = eigenvalue(params, n)
                gap = abs(fisher_closed(level, params)
                          - fisher_numeric(level, params)) \
                    / fisher_numeric(level, params)
                worst = max(worst, gap)
        ok = ok and worst < 1e-2
        params = ModelParams(gamma=0.0, nu=nu)
        for n in range(6):
            level = eigenvalue(params, n)
            ok = ok and fisher_closed(level, params) == 2 * (2 * n + 1)
            ok = ok and abs(fisher_numeric(level, params)
                            - 2 * (2 * n + 1)) < 1e-8
    report(5, f"Fisher closed vs numeric (max gap {worst:.2e})", ok,
           time.perf_counter() - t0, 30.0)


def test_criterion_6_cramer_rao():
    t0 = time.perf_counter()
    ok = True
    for nu in (1, 2):
        for gamma in (0.0, -0.1, -0.3, -0.5, -1.0):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in range(21):
                level = eigenvalue(params, n)
                product = cramer_rao(level, params)
                ok = ok and product >= 1.0 - 1e-10
                if gamma == 0.0:
                    ok = ok and abs(product - (2 * n + 1) ** 2) < 1e-8
    p0 = ModelParams(gamma=0.0, nu=1)
    ok = ok and abs(cramer_rao(eigenvalue(p0, 0), p0) - 1.0) < 1e-8
    report(6, "Cramer-Rao bound across the sweep grid", ok,
           time.perf_counter() - t0, 60.0)


def test_criterion_7_shannon_reference():
    t0 = time.perf_counter()
    params = ModelParams(gamma=0.0)
    value = shannon_entropy(eigenvalue(params, 0), params)
    exact = 0.5 * (1 + math.log(math.pi))
    ok = abs(value - exact) < 1e-12 * exact
    report(7, f"Shannon entropy Gaussian reference ({value:.8f})", ok,
           time.perf_counter() - t0, 1.0)


def test_criterion_8_thermodynamics():
    t0 = time.perf_counter()
    from edho import specific_heat_curve
    params = ModelParams(gamma=-1e-5, nu=1)
    betas = np.linspace(0.5, 10, 39)
    curve = specific_heat_curve(params, betas, eps_sat=0.5)
    dev = max(abs(p.Cv - (p.beta / 2) ** 2 / math.sinh(p.beta / 2) ** 2)
              for p in curve)
    ok = dev < 1e-2

    params = ModelParams(gamma=-0.5, nu=1)
    betas = np.concatenate(([1e-3], np.linspace(0.05, 40, 160), [1e3]))
    cv = np.array([p.Cv for p in specific_heat_curve(params, betas, 1e-6)])
    peak = int(np.argmax(cv))
    ok = ok and 0 < peak < len(cv) - 1
    ok = ok and cv[0] < 1e-3 and cv[-1] < 1e-3 and cv[peak] > 1e-2
    report(8, f"specific heat: textbook match (dev {dev:.2e}) + peak", ok,
           time.perf_counter() - t0, 10.0)


def test_criterion_9_perey_factor():
    t0 = time.perf_counter()
    x = np.linspace(-25, 25, 1001)
    ok = True
    for gamma in (-1e-5, -0.1, -0.5, -2.0):
        params = ModelParams(gamma=gamma)
        values = perey_factor(params, x)
        ok = ok and np.all(values >= 1.0)
        ok = ok and perey_factor(params, 0.0) == 1.0
        ok = ok and np.all(values[x != 0] > 1.0)
    report(9, "Perey factor >= 1 with equality only at x=0", ok,
           time.perf_counter() - t0, 1.0)


def _column(path, name, where=None):
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if not r["error"]]
    if where:
        rows = [r for r in rows if all(float(r[k]) == v for k, v in where.items())]
    return [float(r[name]) for r in rows]


def test_criterion_10_figure_shapes(tmp_path):
    t0 = time.perf_counter()
    ok = True

    # spectrum: monotone rise then plateau at the saturation limit
    run_sweep(SweepSpec(nu=1, gamma_list=(-1e-5, -0.5, -2.0), n_max=100,
                        outputs=("spectrum",), out_dir=str(tmp_path / "spectrum-sweep")))
    for gamma in (-0.5, -2.0):
        e = _column(tmp_path / "spectrum-sweep" / "spectrum.csv", "energy",
                    {"gamma": gamma})
        ok = ok and all(a < b for a, b in zip(e, e[1:]))
        ok = ok and abs(e[-1] - 1 / abs(gamma)) / (1 / abs(gamma)) < 1e-2

    # Fisher: non-decreasing in n for each weak coupling (monotonicity in n
    # genuinely breaks at strong coupling once the spectrum saturates)
    run_sweep(SweepSpec(nu=1, gamma_list=(0.0, -0.05, -0.1), n_max=10,
                        outputs=("fisher",), out_dir=str(tmp_path / "fisher-sweep")))
    for gamma in (0.0, -0.05, -0.1):
        f = _column(tmp_path / "fisher-sweep" / "fisher.csv", "fisher_numeric",
                    {"gamma": gamma})
        ok = ok and all(a < b for a, b in zip(f, f[1:]))

    # Shannon entropy: monotone in gamma at fixed n (direction recorded)
    gammas = (-1.0, -0.75, -0.5, -0.25, -0.1, -1e-5)
    run_sweep(SweepSpec(nu=1, gamma_list=gammas, n_min=1, n_max=1,
                        outputs=("shannon",), out_dir=str(tmp_path / "shannon-sweep")))
    s = _column(tmp_path / "shannon-sweep" / "shannon.csv", "shannon")
    diffs = np.diff(s)
    ok = ok and (np.all(diffs > 0) or np.all(diffs < 0))
    direction = "decreasing" if diffs[0] < 0 else "increasing"

    # density: even in x with n interior nodes
    run_sweep(SweepSpec(nu=1, gamma_list=(-0.5,), n_min=3, n_max=3,
                        x_grid=tuple(np.linspace(-6, 6, 481)),
                        outputs=("density",), out_dir=str(tmp_path / "density-sweep")))
    rho = np.array(_column(tmp_path / "density-sweep" / "density.csv", "rho"))
    ok = ok and np.allclose(rho, rho[::-1], rtol=1e-12, atol=0)
    params = ModelParams(gamma=-0.5, nu=1)
    level = eigenvalue(params, 3)
    from edho import psi
    signs = np.sign(psi(level, params, np.linspace(-6, 6, 481)))
    nodes = int(np.sum(np.abs(np.diff(signs[signs != 0])) == 2))
    ok = ok and nodes == 3

    report(10, f"figure shapes (S_x {direction} toward gamma=0)", ok,
           time.perf_counter() - t0, 120.0)
