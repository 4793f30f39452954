"""Canonical thermodynamics from the saturation-split partition function.

For gamma < 0 the spectrum accumulates at a finite limit, so the partition
function is a finite sum over the pre-saturation levels 0..n_sat plus one
term for the accumulation point.  Internal energy and specific heat come
from exact Boltzmann-weighted moments of that level set (``_points``),
never from numeric differentiation.  No array of all n_sat + 1 levels is
built: past a short set summed whole, the first _HEAD levels are summed
directly, and only where the Boltzmann factor reaches past them are the
levels _HEAD..n_sat added by Gregory's form of Euler-Maclaurin
(``_tail_sum``), so a curve costs the same at any n_sat.
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


def _points(params: ModelParams, e0: float, d: np.ndarray, n_sat: int,
            betas: np.ndarray, tail: bool) -> list[ThermoPoint]:
    """Thermo points for ``betas``: Boltzmann moments over the levels
    E = e0 + d (d sorted, d[0] = 0) up to each beta's cut d = _CUT/beta,
    the accumulation point as one term, exactly 0 where the cut stops inside
    d, and, where ``tail`` is set, the levels _HEAD..n_sat by ``_tail_sum``.
    Z and U - e0 come first, then Cv from sum w (d - (U - e0))**2 / sum w
    over the same parts, so neither cancels at low temperature."""
    d_limit = saturation_limit(params) - e0
    heads = [d[:k] for k in np.searchsorted(d, _CUT / betas, side="right")]

    def moments(*fs, shift):
        # each f(w, d, shift), w = exp(-beta d), summed over the parts: one
        # row per f, one column per beta (there may be none); the tails of
        # all fs in one integral
        def terms(beta, d, c):
            w = np.exp(-beta * d)
            return [f(w, d, c) for f in fs]

        sums = np.array([[t.sum() for t in terms(beta, h, c)]
                         for beta, h, c in zip(betas, heads, shift)])
        sums = sums.reshape(-1, len(fs)).T
        if tail:
            sums += _tail_sum(params, e0, n_sat, lambda x: np.concatenate(
                terms(betas, x, shift), axis=1)).reshape(len(fs), -1)
        # beta d_limit may overflow past the cut, to a term of exactly 0
        with np.errstate(over="ignore"):
            return sums + terms(betas, d_limit, shift)

    w_sum, w_d = moments(lambda w, d, c: w, lambda w, d, c: w * d,
                         shift=np.zeros_like(betas))
    shift = w_d / w_sum
    var = moments(lambda w, d, c: w * (d - c) ** 2, shift=shift)[0] / w_sum
    # beta**2 overflows past 1.3e154, where var is 0 (one level left) or tiny
    return [ThermoPoint(beta=float(b), Z=math.exp(-b * e0) * float(z),
                        U=float(e0 + c), N_used=n_sat,
                        Cv=float(b * b * v if b < 1e154 else b * (b * v)))
            for b, z, c, v in zip(betas, w_sum, shift, var)]


def specific_heat_curve(params: ModelParams, beta_grid,
                        eps_sat: float = 1e-6) -> list[ThermoPoint]:
    """Thermo points over a sorted, strictly positive beta grid.

    gamma = 0 routes to the textbook reference.  Otherwise the levels are
    0..n_sat (the saturation index at eps_sat) plus the accumulation point
    as exactly one pseudo-level, their moments taken by ``_points``.  Below
    n_sat = _HEAD + len(_GREGORY) they are summed whole.  Otherwise only
    levels 0.._HEAD are built: the betas up to _CUT / d_HEAD (a prefix of
    the grid) sum levels 0.._HEAD-1 and add the tail, in blocks; every
    other beta's cut stops before level _HEAD, so it sums the levels
    directly, bit for bit as the whole set would.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0:
        raise DomainError("beta grid is empty")
    if np.any(beta_grid <= 0) or np.any(np.diff(beta_grid) <= 0):
        raise DomainError("beta grid must be strictly positive and increasing")
    if params.gamma == 0:
        return [reference_partition_function(b) for b in beta_grid]
    n_sat = saturation_index(params, eps_sat)
    whole = n_sat < _HEAD + len(_GREGORY)
    energies = _energies(params, np.arange((n_sat if whole else _HEAD) + 1))
    e0 = energies[0]
    d = energies - e0
    n_tail = 0 if whole else int(np.count_nonzero(d[-1] <= _CUT / beta_grid))
    points = []
    # in blocks, so that the tail's arrays stay small on any grid
    for i in range(0, n_tail, _TAIL_BLOCK):
        points += _points(params, e0, d[:-1], n_sat,
                          beta_grid[i:min(i + _TAIL_BLOCK, n_tail)], True)
    return points + _points(params, e0, d, n_sat, beta_grid[n_tail:], False)
