"""Fisher information, Cramer-Rao product and Shannon entropy per level.

Both Fisher routes evaluate the exact identity ``_fisher`` and differ only
in its integral I_n: ``fisher_numeric`` takes it exact from a three-term
recurrence (``_i_n``, no quadrature), ``fisher_closed`` truncates its
series, well within 1% for |gamma| <= 0.1.  The Shannon entropy has no
closed form and is integrated, in y = sqrt(lam) x, where the coupling
enters the density only through three numbers per level: sqrt(lam), the
brace b and c = -g/lam.  Here, as for Fisher and <x**2>, they come from
``wavefunction._coupling``.  The zeros of H_n, the quadrature nodes and
h_n(y) are those of the ordinary oscillator, so a level's zeros and its
Hermite pass on each quadrature grid serve every coupling of a sweep.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import wavefunction
from .errors import DomainError
from .quadrature import gaussian_window, integrate, tanh_sinh
from .spectrum import EnergyLevel, ModelParams
# unused here: bench/tracing.py wraps density_gradient_sq_terms at this site
from .wavefunction import (density, density_gradient_sq_terms,
                           weight_coefficient, _amplitude, _coupling)

_ENTROPY_REL_TOL = 1e-10
_RHO_FLOOR = 1e-300  # rho ln rho is 0 at and below it (0 ln 0 = 0)
# half-width of the tau grid that every tanh-sinh piece shares: past
# |tau| = 3 lies about 2e-14 of a piece's width, at |tau| = 3 the Jacobian
# is down to about 7e-13 of it
_TANH_SINH_T = 3.0
# the largest order _i_n takes: its cost is O(n) Python steps, over 100n
# just above the regime split, where one call took about 1 s at n = 1e5 and
# 10 s at 1e6 (2-CPU host); past it one level would hold a sweep for minutes
_I_N_MAX_N = 10**5


def _fisher(level: EnergyLevel, g: float, b: float, i_n: float) -> float:
    """F = [4 lam (n+1/2) - g(2n**2+2n+3) + 4 g I_n] / b, exact given
    I_n = integral of h_n(y)**2 / (1 + c y**2) dy, where y = sqrt(lam) x,
    and (g, c, b) are the level's ``_coupling``."""
    n = level.n
    return (4.0 * level.lam * (n + 0.5) - g * (2.0 * n * n + 2.0 * n + 3.0)
            + 4.0 * g * i_n) / b


def fisher_closed(level: EnergyLevel, params: ModelParams) -> float:
    """The Fisher identity with I_n from the series of 1/(1 + c y**2) to
    second order in c.  Reduces to 2(2n+1) at gamma = 0."""
    n, (g, c, b) = level.n, _coupling(level, params)
    i_n = 1.0 - c * (n + 0.5) + 0.75 * c * c * (2.0 * n * n + 2.0 * n + 1.0)
    value = _fisher(level, g, b, i_n)
    if value <= 0:
        raise DomainError("closed-form Fisher non-positive: invalid regime")
    return value


def _i_n(n: int, c: float) -> float:
    """I_n(c) = integral of h_n(y)**2 / (1 + c y**2) dy for c > 0 in O(n)
    steps, to 2e-15 relative (5e-14 just below the split, see the end).

    With kappa = 1/sqrt(c), the orthonormal Hermite polynomials p_k and
    their Cauchy transforms rho_k(z) = integral of exp(-y**2) p_k / (z - y)
    dy at z = -i kappa give I_n = Re[-i kappa p_n rho_n].  Both solve the
    recurrence with a_k**2 = k/2, and their Casoratian is 1, so p_n rho_n
    = 1/(z - q_n - t_n) with the ratios q_n = a_n p_{n-1}/p_n and t_n =
    a_{n+1} rho_{n+1}/rho_n.  At this z both are i times a positive real
    number, x_n and t_n below, which makes I_n = kappa/(kappa + x_n + t_n):
      x_k = (k/2) / (kappa + x_{k-1}) from x_0 = 0, forward (stable);
      t_{k-1} = (k/2) / (kappa + t_k), the continued fraction of the
      minimal solution rho, run backward from t_K = 0 (Miller's method,
      Gautschi, SIAM Review 9 (1967) 24-82).
    K - n must grow like 1/c, so where kappa sqrt(n+1) < 2 t_n runs forward
    instead, from t_0 = 1/(sqrt(pi) erfcx(kappa)) - kappa; there the
    dominant solution outgrows rho, and with it the rounding, by no more
    than exp(4 sqrt 2), about 300-fold.
    """
    if n > _I_N_MAX_N:
        raise DomainError(f"n={n} is past n={_I_N_MAX_N}, the largest order "
                          "whose Fisher integral I_n is computed")
    kappa = c ** -0.5
    x = 0.0
    for k in range(1, n + 1):
        x = 0.5 * k / (kappa + x)
    if kappa * math.sqrt(n + 1) < 2.0:
        # erfc(kappa) exp(kappa**2) is erfcx(kappa) to 1e-15 for kappa < 2
        t = 1.0 / (math.sqrt(math.pi) * math.erfc(kappa)
                   * math.exp(kappa * kappa)) - kappa
        for k in range(1, n + 1):
            t = 0.5 * k / t - kappa
    else:
        # start where sqrt(K) lies 20/kappa past sqrt(n), but at least 40
        # levels past n: without that floor weak coupling starts about two
        # levels past n, and I_1 at c = 5e-4 comes out 3.7e-10 off
        t = 0.0
        for k in range(max(int((math.sqrt(n) + 20.0 / kappa) ** 2) + 1,
                           n + 40), n, -1):
            t = 0.5 * k / (kappa + t)
    return kappa / (kappa + x + t)


def fisher_numeric(level: EnergyLevel, params: ModelParams) -> float:
    """The Fisher identity with I_n exact (``_i_n``): no truncation of 1/f.

    For g > 0 the weight f = 1 - g x**2 vanishes at |x| = 1/sqrt(g), where
    the 1/f term of I_n is not integrable, so no level has a value."""
    g = weight_coefficient(params, level)
    if g > 0:
        raise DomainError(f"weight vanishes at |x| = {1.0 / math.sqrt(g):g}, "
                          "where the Fisher integrand diverges")
    _, c, b = _coupling(level, params)  # refuses before _i_n runs
    # c = 0 at gamma = 0, or where -g/lam underflows: f = 1 and I_n = 1
    return _fisher(level, g, b, _i_n(level.n, c) if c else 1.0)


def moments(level: EnergyLevel, params: ModelParams) -> float:
    """<x**2> under the modified density, which is also the variance: the
    mean vanishes by parity.  It is the exact Gaussian-moment closed form
    (no truncation), matching quadrature to rounding:
    [(n+1/2) + 3/4 c (2n**2+2n+1)] / (lam b) with c = -g/lam, divided
    through by b, so that no term overflows where b is finite.
    """
    n, (_, c, b) = level.n, _coupling(level, params)
    return ((n + 0.5) / b
            + 0.75 * (2.0 * n * n + 2.0 * n + 1.0) * (c / b)) / level.lam


def cramer_rao(level: EnergyLevel, params: ModelParams) -> float:
    """Numeric Fisher * variance; >= 1, equal to (2n+1)**2 at gamma = 0."""
    return fisher_numeric(level, params) * moments(level, params)


def _rho_ln_rho(rho: np.ndarray) -> np.ndarray:
    """rho ln rho over the array rho, in place: 0 at and below _RHO_FLOOR
    (0 ln 0 = 0), and where rho is nan."""
    small = ~(rho > _RHO_FLOOR)
    rho *= np.log(np.maximum(rho, _RHO_FLOOR))
    np.copyto(rho, 0.0, where=small)
    return rho


def entropy_density(level: EnergyLevel, params: ModelParams, x):
    """Pointwise rho ln rho, with the 0 ln 0 = 0 convention below _RHO_FLOOR."""
    return _rho_ln_rho(np.asarray(density(level, params, x)))[()]


def _hermite_zeros(n: int) -> np.ndarray:
    """The n zeros of H_n, ascending (Golub-Welsch).

    They are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    with zero diagonal and off-diagonal sqrt(k/2), k = 1 .. n-1.
    """
    if n == 0:
        return np.empty(0)
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def shannon_entropy(level, params):
    """Position-space entropy -integral of rho ln rho (numeric only).

    Takes one level and its params, or equal-length sequences of levels of
    one order and their params, one per coupling, and then returns an
    array of one entropy per coupling.  In y = sqrt(lam) x, rho dx =
    s h_n(y)**2 (1 + c y**2) dy / sqrt(lam), with s = sqrt(lam)/b and
    c = -g/lam.  rho ln rho has y**2 ln y**2 kinks at the zeros of H_n,
    which slow the trapezoid rule to about h**3.  rho is even, so [0, L] is
    cut at the positive zeros and each of the K pieces is mapped from tau
    in [-T, T] by ``tanh_sinh``; the integrand sums the K mapped pieces at
    each node of one shared tau grid.  Each mapped piece is smooth in tau
    and vanishes doubly exponentially at +-T, so ``integrate`` converges
    exponentially.  The zeros, and on each tau grid the nodes and
    h_n(y)**2, serve every coupling.  Each coupling is its own integral,
    so its value is bit for bit the one its level gives alone.  A coupling
    that ``_amplitude`` refuses (past the order limit, where ``_coupling``
    refuses, a subnormal sqrt(lam)/b) fails the call, before the zeros.
    """
    single = isinstance(level, EnergyLevel)
    levels, each = ([level], [params]) if single else (level, params)
    if len(levels) != len(each) or len({lv.n for lv in levels}) != 1:
        raise ValueError("shannon_entropy needs levels of one order, "
                         "one params per level")
    n = levels[0].n
    # (g, c, sqrt(lam), s) per coupling; _amplitude refuses an order past
    # the limit before the zeros' n x n eigenproblem.  Wherever it passes,
    # c y**2 came to at most 3e265 (nu 1 and 2, both modes, |gamma| up to
    # 1e308), so 1 + c y**2 does not overflow
    couplings = [_amplitude(lv, p) for lv, p in zip(levels, each)]
    # the middle zero of an odd order comes out as about +2e-16, not 0,
    # so slice by count rather than filter by sign
    cuts = np.concatenate(([0.0], _hermite_zeros(n)[(n + 1) // 2:],
                           [gaussian_window(1.0, n)]))
    lo, width = cuts[:-1], np.diff(cuts)
    grids = {}  # tau grid -> y**2, weights and h_n(y)**2 at its nodes

    def integrand(g, c, a, s, tau):
        key = tau.tobytes()
        if key not in grids:
            y, weights = tanh_sinh(tau[:, None], lo, width)
            # a new array: h_n is a view into one block with h_{n-1},
            # which is let go here
            h2 = np.square(wavefunction.hermite_fn_pair(n, y)[0])
            y *= y
            grids[key] = y, weights, h2
        y2, weights, h2 = grids[key]
        rho = np.multiply(y2, c)
        rho += 1.0
        rho *= h2
        rho *= s
        _rho_ln_rho(rho)
        rho *= weights
        return rho.sum(axis=1) / -a

    values = np.array([integrate(partial(integrand, *coupling), _TANH_SINH_T,
                                 _ENTROPY_REL_TOL)[0]
                       for coupling in couplings])
    values *= 2.0
    return values[0] if single else values
