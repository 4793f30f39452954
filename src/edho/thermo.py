"""Canonical thermodynamics from the saturation-split partition function.

For gamma < 0 the spectrum accumulates at a finite limit, so the partition
function is a finite sum over the pre-saturation levels plus one term for
the accumulation point.  Internal energy and specific heat come from exact
Boltzmann-weighted moments of that discrete level set, never from numeric
differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectrum import ModelParams, _energies, saturation_index, saturation_limit


@dataclass(frozen=True)
class ThermoPoint:
    """(beta, Z, U, Cv) with the saturation index used; N_used is None for
    the textbook reference."""

    beta: float
    Z: float
    U: float
    Cv: float
    N_used: int | None = None


def reference_partition_function(beta: float) -> ThermoPoint:
    """Textbook oscillator: Z = 1/(2 sinh(beta/2)) and its exact U, Cv."""
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    half = 0.5 * beta
    z = 1.0 / (2.0 * math.sinh(half))
    u = 0.5 / math.tanh(half)
    cv = (half / math.sinh(half)) ** 2
    return ThermoPoint(beta=beta, Z=z, U=u, Cv=cv, N_used=None)


def _point(e0: float, d: np.ndarray, beta: float, n_used: int) -> ThermoPoint:
    """Boltzmann moments over the levels E = e0 + d (d >= 0, d[0] = 0).

    U comes from the offsets d and Cv from the two-pass variance
    sum w (d - (U - e0))**2 / sum w, so neither cancels at low temperature,
    where U - e0 is tiny.  d is sorted and exp(-x) is exactly 0 for
    x > 745.14, so the levels past d = 746/beta add nothing and are cut.
    """
    d = d[:np.searchsorted(d, 746.0 / beta, side="right")]
    w = np.exp(-beta * d)
    w_sum = float(w.sum())
    z = math.exp(-beta * e0) * w_sum
    shift = float((w * d).sum() / w_sum)  # U - e0
    cv = beta * beta * float((w * (d - shift) ** 2).sum() / w_sum)
    return ThermoPoint(beta=beta, Z=z, U=e0 + shift, Cv=cv, N_used=n_used)


def specific_heat_curve(params: ModelParams, beta_grid,
                        eps_sat: float = 1e-6) -> list[ThermoPoint]:
    """Thermo points over a sorted, strictly positive beta grid.

    gamma = 0 routes to the textbook reference.  Otherwise the levels are
    0..n_sat (the saturation index at eps_sat) plus the accumulation point
    as exactly one pseudo-level.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0:
        raise DomainError("beta grid is empty")
    if np.any(beta_grid <= 0) or np.any(np.diff(beta_grid) <= 0):
        raise DomainError("beta grid must be strictly positive and increasing")
    if params.gamma == 0:
        return [reference_partition_function(b) for b in beta_grid]
    n_sat = saturation_index(params, eps_sat)
    energies = np.append(_energies(params, np.arange(n_sat + 1)),
                         saturation_limit(params))
    e0 = energies[0]
    d = energies - e0
    return [_point(e0, d, float(b), n_sat) for b in beta_grid]
