"""Canonical thermodynamics from the saturation-split partition function.

For gamma < 0 the spectrum accumulates at a finite limit, so the partition
function is a finite sum over the pre-saturation levels 0..n_sat plus one
term for the accumulation point.  Internal energy and specific heat come
from exact Boltzmann-weighted moments of that level set, never from numeric
differentiation.  No array of all n_sat + 1 levels is built: the first
_HEAD levels are summed directly, and only where the Boltzmann factor
reaches past them are the levels _HEAD..n_sat summed by Gregory's form of
Euler-Maclaurin (``_tail_sum``), so a curve costs the same at any n_sat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import integrate, tanh_sinh
from .spectrum import ModelParams, _energies, saturation_index, saturation_limit

# levels summed directly; a level set too short for the tail's Gregory
# ends, n_sat < _HEAD + len(_GREGORY), is summed whole
_HEAD = 2000
# exp(-x) is exactly 0 for x > 745.14, so levels with beta d > _CUT add
# nothing and are cut
_CUT = 746.0
# Gregory's coefficients: the weight of the j-th differences at both ends
_GREGORY = (-1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192)
# half-width of the tanh-sinh variable of the tail integral: at tau = -4
# a node lies within 2e-37 of the width past level _HEAD, well under a
# level even for a width of 2**52
_TAIL_T = 4.0
_TAIL_REL_TOL = 1e-13
_TAIL_BLOCK = 32  # betas whose tail is integrated at once


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
    """Textbook oscillator: Z = 1/(2 sinh(beta/2)) and its exact U, Cv.

    Past beta = 1420, where sinh overflows, 1 - exp(-beta) is 1, so
    Z = exp(-beta/2) (0 past beta = 1490), U = 1/2 and Cv = (beta Z)**2 = 0.
    """
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    half = 0.5 * beta
    if half < 710.0:
        sinh = math.sinh(half)
        z, cv = 0.5 / sinh, (half / sinh) ** 2
    else:
        z, cv = math.exp(-half), 0.0
    return ThermoPoint(beta=beta, Z=z, U=0.5 / math.tanh(half), Cv=cv,
                       N_used=None)


def _point(e0: float, d: np.ndarray, beta: float, n_used: int) -> ThermoPoint:
    """Boltzmann moments over the levels E = e0 + d (d >= 0, d[0] = 0).

    U comes from the offsets d and Cv from the two-pass variance
    sum w (d - (U - e0))**2 / sum w, so neither cancels at low temperature,
    where U - e0 is tiny.  d is sorted, so the levels past d = _CUT/beta
    add nothing and are cut.
    """
    d = d[:np.searchsorted(d, _CUT / beta, side="right")]
    w = np.exp(-beta * d)
    w_sum = float(w.sum())
    z = math.exp(-beta * e0) * w_sum
    shift = float((w * d).sum() / w_sum)  # U - e0
    var = float((w * (d - shift) ** 2).sum() / w_sum)
    # beta**2 overflows past 1.3e154, where var is 0 (one level left) or tiny
    cv = beta * beta * var if beta < 1e154 else beta * (beta * var)
    return ThermoPoint(beta=beta, Z=z, U=e0 + shift, Cv=cv, N_used=n_used)


def _tail_sum(params: ModelParams, e0: float, n_sat: int, f) -> np.ndarray:
    """The sum over n = _HEAD..n_sat of f(d_n), d_n = E_n - e0, where f
    maps a column of offsets to one row of terms per offset.

    Gregory's form of Euler-Maclaurin: the integral of f over
    [_HEAD, n_sat], plus half the end terms, plus _GREGORY times the 1st to
    6th forward differences at _HEAD and backward differences at n_sat;
    exact for polynomials of degree 7.  The integral is taken in tau by
    ``tanh_sinh``, which keeps the offset of a node from _HEAD exact at any
    width n_sat - _HEAD.
    """
    def terms(n):
        return f((_energies(params, n) - e0)[:, None])

    def integrand(tau):
        n, weights = tanh_sinh(tau, _HEAD, n_sat - _HEAD)
        return terms(n) * weights[:, None]

    total, _ = integrate(integrand, _TAIL_T, _TAIL_REL_TOL)
    ends = len(_GREGORY) + 1  # the levels the differences take at each end
    first = terms(np.arange(_HEAD, _HEAD + ends))
    last = terms(np.arange(n_sat, n_sat - ends, -1))
    total += 0.5 * (first[0] + last[0])
    for j, coefficient in enumerate(_GREGORY, 1):
        total += coefficient * (np.diff(first, j, axis=0)[0]
                                + np.diff(last, j, axis=0)[0])
    return total


def _tail_points(params: ModelParams, e0: float, head: np.ndarray,
                 n_sat: int, betas: np.ndarray) -> list[ThermoPoint]:
    """Thermo points for betas whose cut reaches past the head levels
    0.._HEAD-1 (offsets ``head``): the moments of ``_point`` over those,
    the tail _HEAD..n_sat and the accumulation point.  Z and U - e0 come
    first, then Cv from sum w (d - (U - e0))**2 over the same three parts,
    so it does not cancel either."""
    d_limit = saturation_limit(params) - e0

    def moments(*fs, shift):
        # each f(d, beta, shift) summed over the three parts, one value per
        # beta; the tails of all fs are taken in one integral
        tails = _tail_sum(params, e0, n_sat, lambda d: np.concatenate(
            [f(d, betas, shift) for f in fs], axis=1))
        return [np.array([f(head, beta, c).sum()
                          for beta, c in zip(betas, shift)])
                + tail + f(d_limit, betas, shift)
                for f, tail in zip(fs, np.split(tails, len(fs)))]

    w_sum, w_d = moments(lambda d, beta, c: np.exp(-beta * d),
                         lambda d, beta, c: np.exp(-beta * d) * d,
                         shift=np.zeros_like(betas))
    shift = w_d / w_sum
    w_var, = moments(lambda d, beta, c: np.exp(-beta * d) * (d - c) ** 2,
                     shift=shift)
    var = w_var / w_sum
    z = np.exp(-betas * e0) * w_sum
    return [ThermoPoint(beta=float(b), Z=float(zb), U=float(e0 + c),
                        Cv=float(b * b * v), N_used=n_sat)
            for b, zb, c, v in zip(betas, z, shift, var)]


def specific_heat_curve(params: ModelParams, beta_grid,
                        eps_sat: float = 1e-6) -> list[ThermoPoint]:
    """Thermo points over a sorted, strictly positive beta grid.

    gamma = 0 routes to the textbook reference.  Otherwise the levels are
    0..n_sat (the saturation index at eps_sat) plus the accumulation point
    as exactly one pseudo-level.  Below n_sat = _HEAD + len(_GREGORY) they
    are summed whole.  Otherwise only levels 0.._HEAD are built: a beta
    whose cut stops before level _HEAD sums them directly, bit for bit as
    the whole set would, and the betas up to _CUT / d_HEAD (a prefix of the
    grid) add the tail by ``_tail_points``.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0:
        raise DomainError("beta grid is empty")
    if np.any(beta_grid <= 0) or np.any(np.diff(beta_grid) <= 0):
        raise DomainError("beta grid must be strictly positive and increasing")
    if params.gamma == 0:
        return [reference_partition_function(b) for b in beta_grid]
    n_sat = saturation_index(params, eps_sat)
    if n_sat < _HEAD + len(_GREGORY):
        energies = np.append(_energies(params, np.arange(n_sat + 1)),
                             saturation_limit(params))
        n_tail = 0
    else:
        energies = _energies(params, np.arange(_HEAD + 1))
        n_tail = int(np.count_nonzero(energies[-1] - energies[0]
                                      <= _CUT / beta_grid))
    e0 = energies[0]
    d = energies - e0
    points = []
    # in blocks, so that the tail's arrays stay small on any grid
    for i in range(0, n_tail, _TAIL_BLOCK):
        points += _tail_points(params, e0, d[:-1], n_sat,
                               beta_grid[i:min(i + _TAIL_BLOCK, n_tail)])
    return points + [_point(e0, d, float(b), n_sat)
                     for b in beta_grid[n_tail:]]
