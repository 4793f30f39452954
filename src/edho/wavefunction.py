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


def _recurrence(n: int, y: np.ndarray, bufs: np.ndarray, out: np.ndarray):
    """h_{n+i}(y[i]) and h_{n+i-1}(y[i]) into out[0, i] and out[1, i], for
    each row i of a 2-D y.

    The three rows of bufs, each of y's shape, rotate, so no step
    allocates; row i leaves the active suffix of rows once it reaches its
    order n + i, and is written to out then (the last row after the last
    step).  Each step rounds exactly as y * sqrt(2/(k+1)) * h_k
    - sqrt(k/(k+1)) * h_{k-1} does.
    """
    h_prev, h, new = bufs
    h_prev.fill(0.0)
    np.multiply(y, -0.5, out=h)
    h *= y
    np.exp(h, out=h)
    h *= math.pi ** -0.25
    for k in range(n + len(y) - 1):
        if k >= n:  # the first active row has reached its order k
            out[0, k - n], out[1, k - n] = h[0], h_prev[0]
            y, h_prev, h, new = y[1:], h_prev[1:], h[1:], new[1:]
        np.multiply(y, math.sqrt(2.0 / (k + 1)), out=new)
        new *= h
        h_prev *= math.sqrt(k / (k + 1))
        new -= h_prev
        h_prev, h, new = h, new, h_prev
    out[0, -1], out[1, -1] = h[-1], h_prev[-1]


def hermite_fn_pair(n: int, y):
    """(h_n(y), h_{n-1}(y)) by upward three-term recurrence.

    h_{k+1} = y sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}; h_{-1} = 0.
    Runs ``_recurrence`` in place, with three rotating buffers, on blocks
    of _BLOCK points, so no step allocates and a block stays in cache.
    Each block of y is clipped at +-1e150 into the block's slot of the
    output h, which its result overwrites only after the last step: that
    changes no value (h_n underflows to 0 past |y| = 38.6) and keeps y**2
    and every step finite, and y is never written.  Returns two new
    C-ordered arrays of y's shape (NumPy scalars for a scalar y), bit for
    bit those of the formula evaluated one new array per operation.
    """
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)  # a copy only when y is not C-ordered
    pair = np.empty((2, 1, flat.size))
    bufs = np.empty((3, 1, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        part = np.clip(flat[block], -1e150, 1e150, out=pair[0, :, block])
        _recurrence(n, part, bufs[..., :part.shape[1]], pair[..., block])
    h, h_prev = pair.reshape(2, *y.shape)
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


def _brace(level: EnergyLevel, params: ModelParams) -> float:
    """b = 1 + c (n + 1/2) with c = -g/lam; DomainError unless b > 0 and b
    and c are finite (at nu = 2 in the paper density mode, one of them
    overflows from |gamma| of about 8e205 at n = 0, 1e199 at n = 1e5)."""
    g = weight_coefficient(params, level)
    b = 1.0 - g * (2 * level.n + 1) / (2.0 * level.lam)
    if b <= 0:
        raise DomainError(
            f"normalization brace factor non-positive at n={level.n}, "
            f"gamma={params.gamma}"
        )
    if not max(b, abs(g) / level.lam) < math.inf:
        raise DomainError(f"c = -g/lam or the normalization brace factor "
                          f"overflows at n={level.n}, gamma={params.gamma}")
    return b


def _check_order(n: int) -> None:
    """DomainError for an order past _PSI_MAX_N."""
    if n > _PSI_MAX_N:
        raise DomainError(f"n={n} is past n={_PSI_MAX_N}, the largest order "
                          "whose wavefunction stays accurate")


def _amplitude(level: EnergyLevel, params: ModelParams) -> tuple[float, float]:
    """(sqrt(lam), sqrt(lam)/b): psi**2 = (sqrt(lam)/b) h_n(y)**2.

    A DomainError past _PSI_MAX_N, where ``_brace`` fails, and where
    sqrt(lam)/b is subnormal, so that the normalization has lost its
    precision (|gamma| from about 3e123 at n = 0 and 2e120 at n = 680 for
    nu = 1, 2.5e176 and 8e171 for nu = 2 in the paper density mode).
    """
    _check_order(level.n)
    a = math.sqrt(level.lam)
    ratio = a / _brace(level, params)
    if ratio < _FLOAT_TINY:
        raise DomainError(f"sqrt(lam)/b = {ratio:.3g} is below the normal "
                          f"float range at n={level.n}, gamma={params.gamma}")
    return a, ratio


def _scaled(level: EnergyLevel, params: ModelParams, x):
    """(normalization, sqrt(lam), y = sqrt(lam) x) of psi and psi_prime.

    Past |y| = 38.6 the start exp(-y**2/2) of hermite_fn_pair underflows
    to 0, and with it h_n of every order; y is clipped at 1e150, which
    changes no value and keeps psi_prime's y h_n finite.
    """
    a, ratio = _amplitude(level, params)
    y = np.asarray(a * np.asarray(x, dtype=float))  # a new array, even 0-d
    return math.sqrt(ratio), a, np.clip(y, -1e150, 1e150, out=y)


def psi(level: EnergyLevel, params: ModelParams, x):
    """Normalized eigenfunction value(s) at x; DomainError past _PSI_MAX_N."""
    scale, _, y = _scaled(level, params, x)
    return scale * hermite_fn_pair(level.n, y)[0]


def psi_prime(level: EnergyLevel, params: ModelParams, x):
    """Analytic derivative of ``psi`` with respect to x."""
    scale, a, y = _scaled(level, params, x)
    hn, hn1 = hermite_fn_pair(level.n, y)
    return scale * a * (math.sqrt(2.0 * level.n) * hn1 - y * hn)


def density(level, params: ModelParams, x):
    """Modified probability density rho_n(x) = psi**2 * f(x).

    Non-negative for gamma <= 0 and underflows cleanly to zero far out.
    Where f overflows psi is 0, and f is capped at the largest float, so
    rho is 0 there rather than nan.  Takes one level, or a non-empty
    sequence of consecutive levels of one coupling, and then returns one
    row of rho per level, from one Hermite pass (``_recurrence``) over all
    of them: bit for bit the values each level gives alone.  The levels
    share x, or, for a 2-D x of one row per level, each takes its own row.
    A level that ``_amplitude`` refuses fails the call, before the pass.
    """
    if isinstance(level, EnergyLevel):
        p = psi(level, params, x)
        f = np.asarray(weight(params, x, level))
        return p * p * np.clip(f, -_FLOAT_MAX, _FLOAT_MAX, out=f)
    levels = list(level)
    ns = [lv.n for lv in levels]
    if not ns or ns != list(range(ns[0], ns[0] + len(ns))):
        raise ValueError("density needs one level or consecutive levels "
                         "of one coupling")
    x = np.asarray(x, dtype=float)
    rows = x if x.ndim == 2 else x.reshape(-1)
    # one row per level: sqrt(lam), sqrt(lam)/b and g as columns, and then
    # the steps of psi and weight for each level, in the same order
    a, ratio, g = np.array([(*_amplitude(lv, params),
                             weight_coefficient(params, lv))
                            for lv in levels]).T[..., None]
    y = a * rows
    np.clip(y, -1e150, 1e150, out=y)
    out = np.empty((2, *y.shape))
    _recurrence(ns[0], y, np.empty((3, *y.shape)), out)
    rho = out[0]
    rho *= np.sqrt(ratio)
    rho *= rho
    f = _weight(g, rows)
    rho *= np.clip(f, -_FLOAT_MAX, _FLOAT_MAX, out=f)
    return rho if x.ndim == 2 else rho.reshape(len(levels), *x.shape)


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

