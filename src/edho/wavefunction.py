"""Eigenfunctions normalized under the modified scalar product.

The norm carries the weight f(x) = 1 - g*x**2 (g from the density mode),
so the normalization constant differs from the textbook oscillator by the
brace factor b = 1 - g(2n+1)/(2 lam); every kernel reads g, c = -g/lam
and b from ``_coupling`` alone.  All Hermite evaluations go through the
normalized functions h_n(y) = H_n(y) exp(-y^2/2) / sqrt(2^n n! sqrt(pi)),
which stay O(1) and never overflow, from one driver, ``_hermite``, which
steps one row of points per order, for ascending orders, at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spectrum import DensityMode, EnergyLevel, ModelParams

# the largest order psi evaluates: the exp(-y**2/2) start of hermite_fn_pair
# underflows past |y| ~ 37.6, which cuts into the support of higher levels;
# the dense-grid norm is within 2.4e-14 of 1 up to n = 680 (gamma 0 and
# -0.5), 6.4e-12 off at 690 and 1.2e-9 off at 700
_PSI_MAX_N = 680

# points per block of hermite_fn_pair: its three 256 KB buffers stay in L2.
# On the 87.6k points of a Shannon grid at n = 680 (257 tau nodes times 341
# pieces; 2-CPU Xeon, 2 MB L2 per core) one call took 69-73 ms, against
# 83-91 ms at 2**13-2**14, 73-76 ms at 2**16 and 89-108 ms in one block
_BLOCK = 2 ** 15
_FLOAT_MAX, _FLOAT_TINY = np.finfo(float).max, np.finfo(float).tiny


def _recurrence(ns, y: np.ndarray, bufs: np.ndarray, out: np.ndarray):
    """h_{ns[i]}(y[i]) and h_{ns[i]-1}(y[i]) into out[0, i] and out[1, i],
    for each row i of a 2-D y and strictly ascending orders ns.

    The three rows of bufs, each of y's shape, rotate, so no step
    allocates; row i leaves the active suffix of rows once it reaches its
    order ns[i], at most one row per step, and is written to out then (the
    last row after the last step).  Each step rounds exactly as
    y * sqrt(2/(k+1)) * h_k - sqrt(k/(k+1)) * h_{k-1} does.
    """
    h_prev, h, new = bufs
    h_prev.fill(0.0)
    np.multiply(y, -0.5, out=h)
    h *= y
    np.exp(h, out=h)
    h *= math.pi ** -0.25
    i = 0  # the first active row
    for k in range(ns[-1]):
        if k == ns[i]:  # the first active row has reached its order
            out[0, i], out[1, i] = h[0], h_prev[0]
            y, h_prev, h, new = y[1:], h_prev[1:], h[1:], new[1:]
            i += 1
        np.multiply(y, math.sqrt(2.0 / (k + 1)), out=new)
        new *= h
        h_prev *= math.sqrt(k / (k + 1))
        new -= h_prev
        h_prev, h, new = h, new, h_prev
    out[0, -1], out[1, -1] = h[-1], h_prev[-1]


def _hermite(ns, y: np.ndarray) -> np.ndarray:
    """(h_{ns[i]}, h_{ns[i]-1}) at row i of the 2-D y as one new (2, *y.shape)
    array, by ``_recurrence`` over blocks of columns of at most _BLOCK
    values, with three rotating buffers, so no step allocates and a block
    stays in cache.  Each block of y is clipped at +-1e150 into the block's
    slot of the output h, which its result overwrites only after the last
    step: that changes no value (h_n underflows to 0 past |y| = 38.6) and
    keeps y**2 and every step finite, and y is never written.
    """
    out = np.empty((2, *y.shape))
    width = max(1, _BLOCK // len(y))
    bufs = np.empty((3, len(y), min(y.shape[1], width)))
    for start in range(0, y.shape[1], width):
        block = slice(start, start + width)
        part = np.clip(y[:, block], -1e150, 1e150, out=out[0, :, block])
        _recurrence(ns, part, bufs[..., :part.shape[1]], out[..., block])
    return out


def hermite_fn_pair(n: int, y):
    """(h_n(y), h_{n-1}(y)) by upward three-term recurrence.

    h_{k+1} = y sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}; h_{-1} = 0,
    run by ``_hermite``, which clips y at +-1e150.  Returns two new
    C-ordered arrays of y's shape (NumPy scalars for a scalar y), bit for
    bit those of the formula evaluated one new array per operation.
    """
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    y = np.asarray(y, dtype=float)
    # y.reshape is a copy only when y is not C-ordered
    h, h_prev = _hermite([n], y.reshape(1, -1)).reshape(2, *y.shape)
    return h[()], h_prev[()]


def weight_coefficient(params: ModelParams, level: EnergyLevel | None = None) -> float:
    """Coefficient g in the density weight f(x) = 1 - g*x**2."""
    if params.density_mode is DensityMode.NU_CONSISTENT and level is not None:
        return 0.5 * params.nu * params.gamma * level.energy ** (params.nu - 1)
    return 0.5 * params.gamma


def _weight(g, x: np.ndarray) -> np.ndarray:
    """f = 1 - g*x**2 as a new array, for g, or a column of g, against x:
    exactly 1 where g = 0, also at x = +-inf (0 inf = nan); past
    |x| ~ sqrt(DBL_MAX / |g|), g x**2 overflows and f is +-inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(1.0 - g * x * x)
    np.copyto(f, 1.0, where=np.equal(g, 0.0))
    return f


def weight(params: ModelParams, x, level: EnergyLevel | None = None):
    """Density weight f(x) = 1 - g*x**2 (>= 1 everywhere for gamma <= 0)."""
    return _weight(weight_coefficient(params, level),
                   np.asarray(x, dtype=float))[()]


def perey_factor(params: ModelParams, x):
    """sqrt(f(x)) with g = gamma/2: the local-to-non-local wavefunction ratio.

    >= 1 for gamma <= 0, with equality only at x = 0 (or gamma = 0).  Where
    f overflows (g < 0) it is hypot(1, sqrt(|g|) x), finite while
    sqrt(|g|) |x| is, and inf past that.
    """
    f = weight(params, x)
    if np.any(f < 0):
        raise DomainError("weight went negative (gamma > 0 regime)")
    root_g = math.sqrt(abs(weight_coefficient(params)))
    # far is nan at g = 0, x = +-inf, where f is 1 and not inf
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.hypot(1.0, root_g * np.asarray(x))
        return np.where(np.isinf(f), far, np.sqrt(f))[()]


def _coupling(level: EnergyLevel, params: ModelParams):
    """(g, c, b) of a level: the weight coefficient g, c = -g/lam and the
    normalization brace b = 1 + c (n + 1/2); DomainError unless b > 0 and
    b and c are finite (at nu = 2 in the paper density mode, one of them
    overflows from |gamma| of about 8e205 at n = 0, 1e199 at n = 1e5)."""
    g = weight_coefficient(params, level)
    b = 1.0 - g * (2 * level.n + 1) / (2.0 * level.lam)
    if b <= 0:
        raise DomainError(f"normalization brace factor non-positive at "
                          f"n={level.n}, gamma={params.gamma}")
    c = -g / level.lam
    if not max(b, abs(c)) < math.inf:
        raise DomainError(f"c = -g/lam or the normalization brace factor "
                          f"overflows at n={level.n}, gamma={params.gamma}")
    return g, c, b


def _amplitude(level: EnergyLevel, params: ModelParams):
    """(g, c, sqrt(lam), sqrt(lam)/b): psi**2 = (sqrt(lam)/b) h_n(y)**2.

    A DomainError past _PSI_MAX_N, where ``_coupling`` fails, and where
    sqrt(lam)/b is subnormal, so that the normalization has lost its
    precision (|gamma| from about 3e123 at n = 0 and 2e120 at n = 680 for
    nu = 1, 2.5e176 and 8e171 for nu = 2 in the paper density mode).
    """
    if level.n > _PSI_MAX_N:
        raise DomainError(f"n={level.n} is past n={_PSI_MAX_N}, the largest "
                          "order whose wavefunction stays accurate")
    g, c, b = _coupling(level, params)
    a = math.sqrt(level.lam)
    ratio = a / b
    if ratio < _FLOAT_TINY:
        raise DomainError(f"sqrt(lam)/b = {ratio:.3g} is below the normal "
                          f"float range at n={level.n}, gamma={params.gamma}")
    return g, c, a, ratio


def _psi(level, params: ModelParams, x):
    """(psi rows, column of g, x rows, shape of the result) of ``psi``."""
    single = isinstance(level, EnergyLevel)
    levels = [level] if single else list(level)
    ns = [lv.n for lv in levels]
    if not ns or any(m >= n for m, n in zip(ns, ns[1:])):
        raise ValueError("psi and density need one level or strictly "
                         "ascending levels of one coupling")
    # one row per level: g, sqrt(lam) and sqrt(lam)/b as columns
    g, _, a, ratio = np.array([_amplitude(lv, params)
                               for lv in levels]).T[..., None]
    x = np.asarray(x, dtype=float)
    own = x.ndim == 2 and not single  # one x row per level
    rows = x if own else x.reshape(1, -1)
    p = _hermite(ns, a * rows)[0]
    p *= np.sqrt(ratio)
    return p, g, rows, x.shape if single or own else (len(levels), *x.shape)


def psi(level, params: ModelParams, x):
    """Normalized eigenfunction at x: of x's shape for one level, and one
    row per level for strictly ascending levels of one coupling, which
    share x or take one row each of a 2-D x, from one Hermite pass, bit for
    bit each level's own; a level ``_amplitude`` refuses fails it first."""
    p, _, _, shape = _psi(level, params, x)
    return p.reshape(shape)[()]


def psi_prime(level: EnergyLevel, params: ModelParams, x):
    """Analytic derivative of ``psi`` with respect to x; y is clipped at
    +-1e150, which changes no value and keeps y h_n finite."""
    _, _, a, ratio = _amplitude(level, params)
    y = np.clip(a * np.asarray(x, dtype=float), -1e150, 1e150)
    hn, hn1 = hermite_fn_pair(level.n, y)
    return math.sqrt(ratio) * a * (math.sqrt(2.0 * level.n) * hn1 - y * hn)


def density(level, params: ModelParams, x):
    """Modified probability density rho_n(x) = psi**2 * f(x), for the
    levels and x that ``psi`` takes, from its one Hermite pass; >= 0 for
    gamma <= 0.  Where f overflows psi is 0, and f is capped at the
    largest float, so rho is 0 there rather than nan."""
    rho, g, rows, shape = _psi(level, params, x)
    rho *= rho
    f = _weight(g, rows)
    rho *= np.clip(f, -_FLOAT_MAX, _FLOAT_MAX, out=f)
    return rho.reshape(shape)[()]


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

