"""Fisher information, Cramer-Rao product and Shannon entropy per level.

Both Fisher routes evaluate the exact identity ``_fisher`` and differ only
in its integral I_n: ``fisher_numeric`` integrates it (the ground truth),
``fisher_closed`` truncates its series, well within 1% for |gamma| <= 0.1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import gaussian_window, integrate
from .spectrum import EnergyLevel, ModelParams
# unused here: bench/tracing.py wraps density_gradient_sq_terms at this site
from .wavefunction import (density, density_gradient_sq_terms, psi, weight,
                           weight_coefficient, _brace)

# tight tolerances: the Cramer-Rao product must hold to 1e-10 even where
# the bound is saturated, so the integration error has to sit well below
_FISHER_REL_TOL = 1e-12
_ENTROPY_REL_TOL = 1e-10
_RHO_FLOOR = 1e-300  # rho ln rho is 0 at and below it (0 ln 0 = 0)
# half-width of each tanh-sinh piece in the substitution variable: past
# |tau| = 3 lies about 2e-14 of the piece width, at |tau| = 3 the Jacobian
# is down to about 7e-13 of it
_TANH_SINH_T = 3.0


def _fisher(level: EnergyLevel, params: ModelParams, i_n: float) -> float:
    """F = [4 lam (n+1/2) - g(2n**2+2n+3) + 4 g I_n] / b, exact given
    I_n = integral of h_n(y)**2 / (1 + c y**2) dy, where y = sqrt(lam) x,
    c = -g/lam and b = 1 + c(n+1/2) is the normalization brace."""
    n, g = level.n, weight_coefficient(params, level)
    return (4.0 * level.lam * (n + 0.5) - g * (2.0 * n * n + 2.0 * n + 3.0)
            + 4.0 * g * i_n) / _brace(level, params)


def fisher_closed(level: EnergyLevel, params: ModelParams) -> float:
    """The Fisher identity with I_n from the series of 1/(1 + c y**2) to
    second order in c.  Reduces to 2(2n+1) at gamma = 0."""
    n, c = level.n, -weight_coefficient(params, level) / level.lam
    i_n = 1.0 - c * (n + 0.5) + 0.75 * c * c * (2.0 * n * n + 2.0 * n + 1.0)
    value = _fisher(level, params, i_n)
    if value <= 0:
        raise DomainError("closed-form Fisher non-positive: invalid regime")
    return value


def fisher_numeric(level: EnergyLevel, params: ModelParams) -> float:
    """The Fisher identity with I_n by quadrature: no truncation of 1/f.

    x = s sinh(u) maps the Lorentzian 1/f of width s = |g|**-1/2 to a fixed
    strip of analyticity in u; the factor b makes the integral the O(1) I_n."""
    window = gaussian_window(level.lam, level.n)
    g = weight_coefficient(params, level)
    # the 1/f term is not integrable across a zero of f = 1 - g x**2
    if g > 0 and 1.0 / math.sqrt(g) < window:
        raise DomainError(f"weight vanishes at |x| = {1.0 / math.sqrt(g):g}, "
                          f"inside the Fisher window {window:g}")
    if g == 0:
        return _fisher(level, params, 1.0)
    s, b = abs(g) ** -0.5, _brace(level, params)

    def integrand(u):
        x = s * np.sinh(u)
        return (b * s * np.cosh(u) * psi(level, params, x) ** 2
                / weight(params, x, level))

    i_n, _ = integrate(integrand, math.asinh(window / s), _FISHER_REL_TOL)
    return _fisher(level, params, i_n)


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


def cramer_rao(level: EnergyLevel, params: ModelParams) -> float:
    """Numeric Fisher * variance; >= 1, equal to (2n+1)**2 at gamma = 0."""
    fisher = fisher_numeric(level, params)
    _, _, variance = moments(level, params)
    return fisher * variance


def entropy_density(level: EnergyLevel, params: ModelParams, x):
    """Pointwise rho ln rho, with the 0 ln 0 = 0 convention below _RHO_FLOOR."""
    rho = density(level, params, x)
    return np.where(rho > _RHO_FLOOR,
                    rho * np.log(np.maximum(rho, _RHO_FLOOR)), 0.0)[()]


def _hermite_zeros(n: int) -> np.ndarray:
    """The n zeros of H_n, ascending (Golub-Welsch).

    They are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    with zero diagonal and off-diagonal sqrt(k/2), k = 1 .. n-1.
    """
    if n == 0:
        return np.empty(0)
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def shannon_entropy(level: EnergyLevel, params: ModelParams) -> float:
    """Position-space entropy -integral of rho ln rho (numeric only).

    rho ln rho has x**2 ln x**2 kinks at the zeros of H_n, which slow the
    trapezoid rule to about h**3.  rho is even, so [0, L] is cut at the
    positive zeros and each of the K pieces is mapped from tau in [-T, T]
    by the tanh-sinh substitution x = lo + w (1 + tanh(pi/2 sinh tau)) / 2.
    The pieces lie end to end on t in [-K T, K T]; the mapped integrand
    vanishes doubly exponentially at every piece boundary, so it is smooth
    in t and ``integrate`` converges exponentially there.
    """
    n, a = level.n, math.sqrt(level.lam)
    # the middle zero of an odd order comes out as about +2e-16, not 0,
    # so slice by count rather than filter by sign
    cuts = np.concatenate(([0.0], _hermite_zeros(n)[(n + 1) // 2:] / a,
                           [gaussian_window(level.lam, n)]))
    lo, width = cuts[:-1], np.diff(cuts)
    pieces, half = len(width), _TANH_SINH_T

    def integrand(t):
        k = np.clip(((t + pieces * half) // (2.0 * half)).astype(int),
                    0, pieces - 1)
        tau = t + (pieces - 2 * k - 1) * half
        u = 0.5 * math.pi * np.sinh(tau)
        x = lo[k] + 0.5 * width[k] * (1.0 + np.tanh(u))
        jac = 0.25 * math.pi * width[k] * np.cosh(tau) / np.cosh(u) ** 2
        return -entropy_density(level, params, x) * jac

    value, _ = integrate(integrand, pieces * half, _ENTROPY_REL_TOL)
    return 2.0 * value
