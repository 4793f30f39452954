"""Self-contained integration engine used to validate every closed form.

The plain trapezoid rule on an explicit symmetric window [-L, L]; callers
that know their Gaussian scale get L from ``gaussian_window``.  The
integrands here decay like a Gaussian, so for the analytic ones (densities,
moments, Fisher) the rule converges exponentially once the window covers
the support.  A kinked integrand, such as rho ln rho integrated directly
with its x**2 ln x**2 kinks at the zeros of H_n, slows the rule to about
h**3; the stopping rule guards such callers.  ``shannon_entropy`` avoids
the kinks: it splits at the zeros and substitutes tanh-sinh on each piece,
which hands this rule a smooth integrand.  The step is halved until the
error estimate, taken from the changes successive halvings make to the
sum, meets the tolerance; it is returned alongside the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence


@dataclass(frozen=True)
class IntegrationSpec:
    """Truncation window and tolerances for ``integrate``.

    window is the half-width L of the symmetric interval [-L, L].
    """

    window: float
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_refinements: int = 16

    def __post_init__(self):
        if not 0 < self.window < math.inf:
            raise ValueError("window half-width must be positive and finite")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinements < 4:
            raise ValueError("need at least 4 refinement levels")


# at a kink like those of rho ln rho (x**2 ln x**2 at the zeros of H_n) the
# rule's error falls only about 8-fold per halving (like h**3), and
# erratically; this floor on the estimate serves callers that integrate a
# kinked integrand directly (``shannon_entropy`` removes its kinks first)
_KINK_RATE = 8.0


def gaussian_window(lam: float = 1.0, n: int = 0, pad: float = 10.0) -> float:
    """Half-width enclosing exp(-lam x**2) * poly spread of the n-th level.

    In the scaled variable y = sqrt(lam) x the integrand support ends near
    sqrt(2n+1); pad sigmas beyond that push the tail under 1e-40 of peak.
    """
    return (math.sqrt(2.0 * n + 1.0) + pad) / math.sqrt(lam)


def integrate(integrand, spec: IntegrationSpec) -> tuple[float, float]:
    """Integrate a vectorized callable over [-spec.window, spec.window].

    Starts from 64 intervals and halves the step, reusing every earlier
    node.  Returns (value, error_estimate) once the estimate meets the
    tolerance.  The estimate is the last change to the sum, but no less
    than the change before it over _KINK_RATE.  Raises NonConvergence if
    the refinement budget runs out.
    """
    a = -spec.window
    n = 64
    h = 2.0 * spec.window / n
    fx = np.asarray(integrand(np.linspace(a, spec.window, n + 1)), dtype=float)
    value = h * (fx.sum() - 0.5 * (fx[0] + fx[-1]))
    prev_change = math.inf
    for k in range(1, spec.max_refinements + 1):
        h *= 0.5
        mids = a + h * np.arange(1, 2 * n, 2)
        n *= 2
        fx = np.asarray(integrand(mids), dtype=float)
        refined = 0.5 * value + h * fx.sum()
        change = abs(refined - value)
        value = refined
        # a change that falls faster than _KINK_RATE can be a chance
        # agreement; k >= 3 guards against it on coarse grids
        err = max(change, prev_change / _KINK_RATE)
        if k >= 3 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return value, err
        prev_change = change
    raise NonConvergence(
        f"no convergence after {spec.max_refinements} refinements "
        f"(last change {change:g})"
    )
