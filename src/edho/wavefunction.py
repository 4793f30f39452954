"""Eigenfunctions normalized under the modified scalar product.

The norm carries the weight f(x) = 1 - g*x**2 (g from the density mode),
so the normalization constant differs from the textbook oscillator by the
brace factor 1 - g(2n+1)/(2 lam).  All Hermite evaluations go through the
normalized functions h_n(y) = H_n(y) exp(-y^2/2) / sqrt(2^n n! sqrt(pi)),
which stay O(1) and never overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spectrum import DensityMode, EnergyLevel, ModelParams


def hermite_fn_pair(n: int, y):
    """(h_n(y), h_{n-1}(y)) by upward three-term recurrence.

    h_{k+1} = y sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}; h_{-1} = 0.
    """
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    y_arr = np.asarray(y, dtype=float)
    h_prev = np.zeros_like(y_arr)[()]
    h = math.pi ** -0.25 * np.exp(-0.5 * y_arr * y_arr)
    for k in range(n):
        h, h_prev = (y_arr * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1)) * h_prev), h
    return h, h_prev


def weight_coefficient(params: ModelParams, level: EnergyLevel | None = None) -> float:
    """Coefficient g in the density weight f(x) = 1 - g*x**2."""
    if params.density_mode is DensityMode.NU_CONSISTENT and level is not None:
        return 0.5 * params.nu * params.gamma * level.energy ** (params.nu - 1)
    return 0.5 * params.gamma


def weight(params: ModelParams, x, level: EnergyLevel | None = None):
    """Density weight f(x) = 1 - g*x**2 (>= 1 everywhere for gamma <= 0)."""
    g = weight_coefficient(params, level)
    x = np.asarray(x, dtype=float)
    return 1.0 - g * x * x


def perey_factor(params: ModelParams, x):
    """sqrt(f(x)) with g = gamma/2: the local-to-non-local wavefunction ratio.

    >= 1 for gamma <= 0, with equality only at x = 0 (or gamma = 0).
    """
    f = weight(params, x)
    if np.any(f < 0):
        raise DomainError("weight went negative (gamma > 0 regime)")
    return np.sqrt(f)


def _brace(level: EnergyLevel, params: ModelParams) -> float:
    g = weight_coefficient(params, level)
    b = 1.0 - g * (2 * level.n + 1) / (2.0 * level.lam)
    if b <= 0:
        raise DomainError(
            f"normalization brace factor non-positive at n={level.n}, "
            f"gamma={params.gamma}"
        )
    return b


def psi(level: EnergyLevel, params: ModelParams, x):
    """Normalized eigenfunction value(s) at x."""
    a = math.sqrt(level.lam)
    scale = math.sqrt(a / _brace(level, params))
    hn, _ = hermite_fn_pair(level.n, a * np.asarray(x, dtype=float))
    return scale * hn


def psi_prime(level: EnergyLevel, params: ModelParams, x):
    """Analytic derivative of ``psi`` with respect to x."""
    a = math.sqrt(level.lam)
    scale = math.sqrt(a / _brace(level, params))
    y = a * np.asarray(x, dtype=float)
    hn, hn1 = hermite_fn_pair(level.n, y)
    return scale * a * (math.sqrt(2.0 * level.n) * hn1 - y * hn)


def density(level: EnergyLevel, params: ModelParams, x):
    """Modified probability density rho_n(x) = psi**2 * f(x).

    Non-negative for gamma <= 0 and underflows cleanly to zero far out.
    """
    p = psi(level, params, x)
    return p * p * weight(params, x, level)


def density_gradient_sq_terms(level: EnergyLevel, params: ModelParams, x):
    """The three pointwise integrands whose sum is rho * (d ln rho / dx)**2.

    Returns (4 f psi'^2, 4 psi psi' f', psi^2 f'^2 / f); f > 0 everywhere
    for gamma <= 0, so the last term is finite.
    """
    g = weight_coefficient(params, level)
    x = np.asarray(x, dtype=float)
    p, pp = psi(level, params, x), psi_prime(level, params, x)
    f = 1.0 - g * x * x
    fp = -2.0 * g * x
    return 4.0 * f * pp * pp, 4.0 * p * pp * fp, p * p * fp * fp / f

