"""Fisher information, Cramer-Rao product and Shannon entropy per level.

Two routes to the Fisher information are kept deliberately separate:
``fisher_numeric`` integrates the exact integrand (including the full
1/f factor) and is the ground truth; ``fisher_closed`` evaluates the
first-order closed form whose last term truncates the geometric expansion
of 1/f, so the two agree only up to that truncation (well under 1% for
|gamma| <= 0.1).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .quadrature import IntegrationSpec, gaussian_window, integrate
from .spectrum import EnergyLevel, ModelParams
from .wavefunction import (density, density_gradient_sq_terms,
                           weight_coefficient, _brace)

# tight tolerances: the Cramer-Rao product must hold to 1e-10 even where
# the bound is saturated, so the integration error has to sit well below
_FISHER_SPEC = dict(abs_tol=1e-12, rel_tol=1e-12, max_refinements=18)
_ENTROPY_SPEC = dict(abs_tol=1e-12, rel_tol=1e-10, max_refinements=18)


def fisher_closed(level: EnergyLevel, params: ModelParams) -> float:
    """First-order closed form of the Fisher information.

    Sum of the three decomposition terms over the normalization brace;
    the 1/f term keeps only the first geometric correction.  Reduces to
    2(2n+1) at gamma = 0.
    """
    n, lam = level.n, level.lam
    g2 = 2.0 * weight_coefficient(params, level)  # full x**2 coefficient in f
    b = _brace(level, params)
    poly = 2.0 * n * n + 2.0 * n + 1.0
    term_i = 4.0 * lam * (n + 0.5) - 0.5 * g2 * (poly + 2.0)
    term_ii = 2.0 * g2
    term_iii = g2 * g2 * (n + 0.5) / lam + g2**3 * 3.0 * poly / (8.0 * lam * lam)
    value = (term_i + term_ii + term_iii) / b
    if value <= 0:
        raise DomainError("closed-form Fisher non-positive: invalid regime")
    return value


def _level_spec(level: EnergyLevel, **kwargs) -> IntegrationSpec:
    return IntegrationSpec(window=gaussian_window(level.lam, level.n), **kwargs)


def fisher_numeric(level: EnergyLevel, params: ModelParams,
                   spec: IntegrationSpec | None = None) -> float:
    """Quadrature of rho (d ln rho / dx)**2 with no truncation of 1/f."""
    spec = spec or _level_spec(level, **_FISHER_SPEC)

    def integrand(x):
        t1, t2, t3 = density_gradient_sq_terms(level, params, x)
        return t1 + t2 + t3

    value, _ = integrate(integrand, spec)
    return value


def moments(level: EnergyLevel, params: ModelParams) -> tuple[float, float, float]:
    """(mean, second moment, variance) of position under the modified density.

    The mean vanishes by parity.  The second moment is the exact Gaussian-
    moment closed form (no truncation), matching quadrature to rounding.
    """
    n, lam = level.n, level.lam
    g = weight_coefficient(params, level)
    b = _brace(level, params)
    second = ((n + 0.5) / lam
              - 0.75 * g * (2.0 * n * n + 2.0 * n + 1.0) / (lam * lam)) / b
    return 0.0, second, second


def cramer_rao(level: EnergyLevel, params: ModelParams,
               source: str = "numeric") -> float:
    """Fisher * variance; >= 1, equal to (2n+1)**2 at gamma = 0.

    source "numeric" (default) guarantees the bound; "closed" uses the
    truncated closed form instead.
    """
    if source == "numeric":
        fisher = fisher_numeric(level, params)
    elif source == "closed":
        fisher = fisher_closed(level, params)
    else:
        raise ValueError(f"source must be 'numeric' or 'closed', got {source!r}")
    _, _, variance = moments(level, params)
    return fisher * variance


def entropy_density(level: EnergyLevel, params: ModelParams, x,
                    floor: float = 1e-300):
    """Pointwise rho ln rho, with the 0 ln 0 = 0 convention below ``floor``."""
    rho = np.asarray(density(level, params, x), dtype=float)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    out = np.zeros_like(rho)
    mask = rho > floor
    out[mask] = rho[mask] * np.log(rho[mask])
    return float(out[0]) if scalar else out


def shannon_entropy(level: EnergyLevel, params: ModelParams,
                    spec: IntegrationSpec | None = None,
                    floor: float = 1e-300) -> float:
    """Position-space entropy -integral of rho ln rho (numeric only)."""
    spec = spec or _level_spec(level, **_ENTROPY_SPEC)
    value, _ = integrate(lambda x: -entropy_density(level, params, x, floor), spec)
    return value

