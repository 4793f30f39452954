"""Seeded sweep definitions for the edho benchmark.

A workload is a list of CLI sweeps that run one after another, as a user
runs them.  The seed picks one coupling per band; the bands are narrow
enough that the amount of work changes little from seed to seed, and the
sizes (level ranges, grids) are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation of ``edho <command>`` with its sweep parameters."""

    command: str
    gammas: tuple
    nu: int = 1
    n_min: int = 0
    n_max: int | None = None
    beta_grid: str | None = None
    x_grid: str | None = None

    def argv(self, out_dir) -> list:
        argv = [self.command, "--nu", str(self.nu),
                "--gamma=" + ",".join(repr(g) for g in self.gammas)]
        if self.n_max is not None:
            argv += ["--n-min", str(self.n_min), "--n-max", str(self.n_max)]
        if self.beta_grid is not None:
            argv += ["--beta-grid", self.beta_grid]
        if self.x_grid is not None:
            argv += [f"--x-grid={self.x_grid}"]
        return argv + ["--out", str(out_dir)]


def _pick(rng: random.Random, lo: float, hi: float) -> float:
    """A coupling from [lo, hi], rounded to 6 significant digits."""
    return float(f"{rng.uniform(lo, hi):.6g}")


def _entropy(rng):
    # Shannon entropy: rho ln rho has kinks at the zeros of H_n, so Romberg
    # refines about 12 times per level and the Hermite recurrence dominates.
    # The two n = 200 levels show the O(n)-per-abscissa cost of the recurrence.
    # Sizes are small enough that a run times a dozen or more passes.
    low = (_pick(rng, -1.0, -0.3), _pick(rng, -0.3, -0.1),
           _pick(rng, -0.1, -0.03))
    return [
        Sweep("shannon", low, n_max=24),
        Sweep("shannon", (_pick(rng, -1.0, -0.1),), n_min=200, n_max=201),
    ]


def _fisher_cr(rng):
    # Fisher information and the Cramer-Rao product: a smooth integrand
    # (about 9 refinements) where psi and psi_prime each rerun the Hermite
    # recurrence.  gamma = 0 rows have exact closed forms to check against
    # (Fisher 2(2n+1), Cramer-Rao (2n+1)^2).
    return [
        Sweep("fisher", (0.0, _pick(rng, -0.5, -0.1), _pick(rng, -0.1, -0.01)),
              n_max=60),
        Sweep("cramer-rao", (0.0, _pick(rng, -1e-2, -1e-3)), nu=2, n_max=60),
        Sweep("fisher", (_pick(rng, -3e-4, -1e-4),), nu=2, n_min=500,
              n_max=501),
        Sweep("validate", (_pick(rng, -1.0, -0.1), _pick(rng, -0.1, -0.01)),
              n_max=12),
    ]


def _tables(rng):
    # Closed-form and CSV-heavy subcommands, no quadrature: thermo Boltzmann
    # sums (the weakest coupling has n_sat of about 3e5 levels), 30k scalar
    # eigenvalue calls, 12k scalar Perey factors and about 6 MB of CSV rows.
    # The thermo bands are narrow because the work grows as 1/|gamma|; the
    # grids are small enough that a run times a dozen or more passes.
    wide = (_pick(rng, -1.0, -0.3), _pick(rng, -0.3, -0.05),
            _pick(rng, -0.05, -1e-3))
    return [
        Sweep("thermo", (_pick(rng, -1.0, -0.5), _pick(rng, -0.035, -0.03),
                         _pick(rng, -3.3e-3, -3.1e-3)),
              beta_grid="0.01:20:80"),
        Sweep("spectrum", (-1e-5, _pick(rng, -1.0, -0.1),
                           _pick(rng, -0.1, -1e-3)), n_max=10000),
        Sweep("density", wide, n_max=60),
        Sweep("perey", wide, x_grid="-10:10:4001"),
    ]


WORKLOADS = {"entropy": _entropy, "fisher-cr": _fisher_cr, "tables": _tables}


def build(name: str, seed: int) -> list:
    """The sweeps of workload ``name`` for ``seed``; same seed, same sweeps."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
