"""Closed-form eigenvalues of the oscillator with energy-dependent frequency.

The eigenvalue problem is self-consistent: the squared frequency is
1 + gamma * E**nu, so each level solves a characteristic equation that is
quadratic in E.  Only the positive, normalizable branch is kept.  For
gamma < 0 the spectrum is bounded and accumulates at a finite limit
instead of growing linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NonPositiveEnergy, NotReached, shown

# saturation_index returns an index below this: past it n + 1/2 is no
# longer exact in floating point
_N_SAT_MAX = 2**52


class DensityMode(Enum):
    """How the density weight f(x) = 1 - g*x**2 picks its coefficient g.

    LITERAL uses g = gamma/2 for both cases (the published convention).
    NU_CONSISTENT differentiates the potential with respect to E, giving
    g = nu * gamma * E**(nu-1) / 2, which differs from LITERAL when nu = 2.
    """

    LITERAL = "paper"
    NU_CONSISTENT = "nu-consistent"


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration in units hbar = m = omega = k_B = 1.

    gamma must be <= 0 for the density to stay positive; gamma > 0 is
    rejected unless ``permissive`` is set (exploratory use only).
    """

    gamma: float
    nu: int = 1
    density_mode: DensityMode = DensityMode.LITERAL
    permissive: bool = False

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise DomainError(f"nu must be 1 or 2, got {shown(self.nu)}")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma}")
        if self.gamma > 0 and not self.permissive:
            raise DomainError(
                f"gamma = {self.gamma} > 0 breaks density positivity; "
                "pass permissive=True to override"
            )


@dataclass(frozen=True)
class EnergyLevel:
    """Quantum number n with its eigenvalue and width parameter lam."""

    n: int
    energy: float
    lam: float


def residual(params: ModelParams, n: int, energy: float) -> float:
    """Characteristic-equation residual E**2 - (n+1/2)**2 (gamma E**nu + 1).

    Zero (to rounding) exactly when ``energy`` is an eigenvalue of case nu.
    """
    s = (n + 0.5) ** 2
    return energy * energy - s * params.gamma * energy**params.nu - s


def _formula(params: ModelParams, ns: np.ndarray) -> np.ndarray:
    """The positive-branch root of the characteristic equation at each n."""
    half = ns + 0.5
    s = half * half
    g = params.gamma
    if params.nu == 1:
        q = half * np.sqrt(1.0 + g * g * s / 4.0)
        if g <= 0:
            # rearranged root: avoids the cancellation of the textbook
            # quadratic formula when |gamma| * n is large
            return s / (q - g * s / 2.0)
        return g * s / 2.0 + q
    # no real root once 4 - gamma*(2n+1)**2 < 0: E reads nan (inf at 0)
    return (2.0 * ns + 1.0) / np.sqrt(4.0 - g * (2.0 * ns + 1.0) ** 2)


def _energies(params: ModelParams, ns) -> np.ndarray:
    """Vectorized positive-branch eigenvalues for an array of quantum numbers.

    NonPositiveEnergy names the first level whose energy is not positive
    and finite: at nu = 1 gamma**2 (n + 1/2)**2 overflows past |gamma|
    (n + 1/2) ~ 1.34e154 and the root reads 0; at nu = 2, gamma > 0 a
    level with no real root reads nan.  Neither is also warned by numpy.
    """
    ns = np.asarray(ns, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        energies = _formula(params, ns)
    # min and max rather than a mask: no temporaries on a large level set
    if energies.size and not (energies.min() > 0
                              and np.isfinite(energies.max())):
        i = int(np.argmin(np.isfinite(energies) & (energies > 0)))
        raise NonPositiveEnergy(
            f"retained branch gave E={float(energies.flat[i])} at "
            f"n={int(ns.flat[i])}, gamma={params.gamma}"
        )
    return energies


def eigenvalue(params: ModelParams, n: int) -> EnergyLevel:
    """Positive-branch eigenvalue for quantum number n.

    lam = sqrt(1 + gamma * E**nu) follows from the characteristic equation
    as E / (n + 1/2), which is exact and free of cancellation.
    """
    if n < 0:
        raise DomainError(f"quantum number must be non-negative, got {n}")
    energy = float(_energies(params, n))
    lam = energy / (n + 0.5)
    return EnergyLevel(n=n, energy=energy, lam=lam)


def _levels(params: ModelParams, ns):
    """The ``eigenvalue`` level of each quantum number of ns, bit for bit,
    made one at a time from one ``_energies`` call, which raises at once."""
    return (EnergyLevel(n=n, energy=energy, lam=energy / (n + 0.5))
            for n, energy in zip(ns, map(float, _energies(params, ns))))


def saturation_limit(params: ModelParams) -> float:
    """Accumulation point of the spectrum: 1/|gamma| (nu=1) or 1/sqrt|gamma| (nu=2)."""
    if params.gamma >= 0:
        raise DomainError("saturation limit requires gamma < 0")
    a = abs(params.gamma)
    return 1.0 / a if params.nu == 1 else 1.0 / math.sqrt(a)


def saturation_index(params: ModelParams, eps: float = 1e-6) -> int:
    """Smallest n whose relative deviation from the saturation limit is < eps,
    as far as rounding resolves it.

    The deviation d = (limit - E_n)/limit falls with n and inverts exactly:
    n + 1/2 = (1 - d)/(|gamma| sqrt(d)) for nu = 1, 2n + 1 = 2(1 - d)/
    sqrt(|gamma| (2d - d**2)) for nu = 2.  The search starts at the first
    n past the inverse at d = eps, gallops away from it in doubling steps
    until the computed d crosses eps, and bisects that bracket; it returns
    the n with d(n - 1) >= eps > d(n).  NotReached iff n >= _N_SAT_MAX.

    The computed d carries a rounding error of a few 1e-16, while one level
    moves it by about 2 eps / n.  Once n passes about 1e15 eps, that error
    outweighs many levels: the computed d is no longer monotone there, and
    the n returned is one of several crossings.  The gallop and bisection
    evaluate at most about 2 log2(2**52) = 104 levels at any n and eps.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    limit = saturation_limit(params)
    a = abs(params.gamma)

    def within(n):
        # level -1 is never within eps and level _N_SAT_MAX always is, so
        # every search ends with a bracket inside [-1, _N_SAT_MAX]
        return n >= 0 and (n >= _N_SAT_MAX
                           or (limit - float(_energies(params, n))) / limit
                           < eps)

    if params.nu == 1:
        n_eps = (1.0 - eps) / math.sqrt(eps) / a - 0.5
    else:
        n_eps = ((1.0 - eps) / math.sqrt(2.0 * eps - eps * eps)
                 / math.sqrt(a) - 0.5)
    # n_eps may be inf
    n = max(math.floor(min(n_eps, _N_SAT_MAX - 1)) + 1, 0)
    step = 1
    if within(n):
        lo, hi = n - 1, n
        while within(lo):
            lo, hi = max(lo - step, -1), lo
            step *= 2
    else:
        lo, hi = n, n + 1
        while not within(hi):
            lo, hi = hi, min(hi + step, _N_SAT_MAX)
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid
    if hi < _N_SAT_MAX:
        return hi
    raise NotReached(f"no n < {_N_SAT_MAX} within eps={eps} of the "
                     "saturation limit")

