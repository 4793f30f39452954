"""Self-contained integration engine of the Shannon entropy, of the
quadrature gates of ``validate`` and of the thermodynamics' level tail;
the Fisher information needs none.

The plain trapezoid rule on an explicit symmetric window [-L, L]; callers
that know their Gaussian scale get L from ``gaussian_window``.  The
integrands here decay like a Gaussian, so for the analytic ones (densities
and moments) the rule converges exponentially once the window covers the
support.  A kinked integrand, such as rho ln rho integrated directly
with its x**2 ln x**2 kinks at the zeros of H_n, slows the rule to about
h**3; the stopping rule guards such callers.  ``shannon_entropy`` avoids
the kinks: it splits at the zeros, maps every piece by ``tanh_sinh`` onto
one shared grid and sums the pieces at each node, which hands this rule a
smooth integrand on [-T, T].  The step is halved until the error
estimate, taken from the changes successive halvings make to the sum,
meets the caller's relative tolerance (or a fixed absolute floor); it is
returned alongside the value.  No call stops before the third halving, so
its uniform grid of 257 nodes goes to the integrand in one call, and each
later halving's midpoints in one call.  Only an integrand whose changes
fall fast, or to rounding, at the second and third halvings may stop
there; every other one takes at least a fourth halving, 513 nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence


_ABS_TOL = 1e-12  # absolute floor of every tolerance
_MAX_REFINEMENTS = 18  # step halvings before NonConvergence
_MIN_HALVINGS = 3  # step halvings before the rule may stop
# the rule stops at the third halving (257 nodes), with the last change as
# its estimate, only if the second and third each cut the change more than
# _FAST_RATE-fold or to within _ROUNDING of the integral of |f|.  Most
# mapped Shannon integrands cut it 1e3- and 1e7-fold; thermo's tail at
# beta = 0.03, gamma = -1e-4 only 30- and 3500-fold (1.3e-13 off there).
# Where the first grid already resolves an integrand, as validate's gates
# at low n, the changes are rounding, up to 10 eps of that integral
_FAST_RATE = 64.0
_ROUNDING = 16 * 2.0 ** -52
_PAD = 10.0  # Gaussian sigmas that gaussian_window adds past the support

# at a kink like those of rho ln rho (x**2 ln x**2 at the zeros of H_n) the
# rule's error falls only about 8-fold per halving (like h**3), and
# erratically; this floor on the estimate serves callers that integrate a
# kinked integrand directly.  It applies from the fourth halving on (513
# nodes); ``shannon_entropy`` removes its kinks first, and its changes fall
# so fast that it stops at the third (257 nodes)
_KINK_RATE = 8.0


def gaussian_window(lam: float, n: int) -> float:
    """Half-width enclosing exp(-lam x**2) * poly spread of the n-th level.

    In the scaled variable y = sqrt(lam) x the integrand support ends near
    sqrt(2n+1); _PAD sigmas beyond that push the tail under 1e-40 of peak.
    """
    return (math.sqrt(2.0 * n + 1.0) + _PAD) / math.sqrt(lam)


def tanh_sinh(tau, lo, width):
    """Nodes lo + width / (1 + exp(-2s)), s = pi/2 sinh(tau), of the
    tanh-sinh map onto [lo, lo + width] and their weights, the Jacobian
    pi/4 width cosh(tau) / cosh(s)**2 (lo and width broadcast).  The offset
    from lo is a quotient, never a difference, so it stays positive and
    exact to rounding at any width: about 6e-38 of it at tau = -4."""
    s = 0.5 * math.pi * np.sinh(tau)
    return (lo + width / (1.0 + np.exp(-2.0 * s)),
            0.25 * math.pi * width * np.cosh(tau) / np.cosh(s) ** 2)


def integrate(integrand, window: float, rel_tol: float) -> tuple[float, float]:
    """Integrate a vectorized callable over [-window, window].

    Starts from 32 intervals and halves the step, reusing every earlier
    node.  Every call takes the first _MIN_HALVINGS halvings: their 257
    nodes go to the integrand as one uniform grid in one call, whose
    strided slices are the first grid and each halving's midpoints; each
    later halving is one call.  For an integrand that maps each node on
    its own, the results are those of one call per grid, bit for bit.
    Returns (value, error_estimate) once the estimate meets
    max(_ABS_TOL, rel_tol * |value|).  At the third halving the estimate
    is the last change to the sum, and it may stop there only if the
    second and third halvings each cut the change more than _FAST_RATE
    fold or to within _ROUNDING of the integral of |f| (per column).
    From the fourth halving on (513 nodes) the estimate is the
    last change, but no less than the change before it over _KINK_RATE.
    Raises NonConvergence after _MAX_REFINEMENTS halvings.  An integrand
    that maps k nodes to k rows integrates each column at once; value and
    estimate are then arrays, and every column must meet its tolerance.
    """
    if not 0 < window < math.inf:
        raise ValueError("window half-width must be positive and finite")
    a = -window
    n = 32
    h = 2.0 * window / n
    # the 257 nodes of the third halving, every 8th the first grid's
    first = np.asarray(integrand(np.linspace(a, window, (n << _MIN_HALVINGS)
                                             + 1)), dtype=float)
    fx = first[::1 << _MIN_HALVINGS]
    # numpy's elementwise forms only for columns: on one value they cost
    # more than the rest of a halving's bookkeeping
    larger, every = (max, bool) if fx.ndim == 1 else (np.maximum, np.all)
    value = h * (fx.sum(axis=0) - 0.5 * (fx[0] + fx[-1]))
    noise = _ROUNDING * h / (1 << _MIN_HALVINGS) * abs(first).sum(axis=0)
    prev_change, settled = math.inf, True
    for k in range(1, _MAX_REFINEMENTS + 1):
        h *= 0.5
        if k <= _MIN_HALVINGS:  # first[4::8], then [2::4], then [1::2]
            fx = first[1 << (_MIN_HALVINGS - k)::2 << (_MIN_HALVINGS - k)]
        else:
            fx = np.asarray(integrand(a + h * np.arange(1, 2 * n, 2)),
                            dtype=float)
        n *= 2
        refined = 0.5 * value + h * fx.sum(axis=0)
        change = abs(refined - value)
        value = refined
        # one change that falls faster than _KINK_RATE can be a chance
        # agreement; two in a row (the second and third halvings; the first
        # is measured against inf) that fall faster than _FAST_RATE, or to
        # rounding, mark a converged integrand, so only those may stop at
        # the third halving
        if k <= _MIN_HALVINGS:
            settled = settled and every((_FAST_RATE * change < prev_change)
                                        | (change <= noise))
            stop, err = k == _MIN_HALVINGS and settled, change
        else:
            stop, err = True, larger(change, prev_change / _KINK_RATE)
        if stop and every(err <= larger(_ABS_TOL, rel_tol * abs(value))):
            return value, err
        prev_change = change
    raise NonConvergence(
        f"no convergence after {_MAX_REFINEMENTS} refinements "
        f"(last change {np.max(change):g})"
    )
