"""Independent Fisher-information oracle shared by the test modules.

The Fisher information of a level is the exact identity

    F = [4 lam (n + 1/2) - g(2n**2 + 2n + 3) + 4 g I_n] / b,

with c = -g/lam, b = 1 + c(n + 1/2) and I_n = integral of
h_n(y)**2 / (1 + c y**2) dy.  I_n (``i_n_by_quad``, which the tests also
pin on its own) comes from scipy's adaptive ``quad_vec``
on the pieces between the zeros of H_n and the points {1, 10, 100, 1000}
/ sqrt(c), which resolve the Lorentzian of width 1/sqrt(c) at y = 0.  Each
piece is mapped to t in [0, 1] and all pieces are one vector-valued
integrand, so the Hermite recurrence runs once per t over every piece.
Nothing here calls edho: the recurrence, the weight and the zeros are
recomputed from scratch.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad_vec


def i_n_by_quad(n, c):
    """I_n = integral of h_n(y)**2 / (1 + c y**2) dy for c >= 0, to about
    1e-15 relative (1e-13 at c near 1e7, where the spike is narrow)."""
    up = np.sqrt(2.0 / np.arange(1, n + 1))
    down = np.sqrt(np.arange(n) / np.arange(1, n + 1))

    # h_n**2 / (1 + c y**2) is even: integrate over y >= 0 and double
    off = np.sqrt(np.arange(1, n) / 2.0)
    zeros = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    edge = math.sqrt(2 * n + 1) + 12.0
    spike = np.array([1.0, 10.0, 100.0, 1000.0]) / math.sqrt(c) if c else []
    cuts = np.unique(np.concatenate(([0.0, edge], zeros[zeros > 1e-8],
                                     [y for y in spike if y < edge])))
    lo, width = cuts[:-1], np.diff(cuts)

    def pieces(t):
        y = lo + t * width
        h_prev, h = np.zeros_like(y), math.pi ** -0.25 * np.exp(-0.5 * y * y)
        for u, d in zip(up, down):
            h, h_prev = y * u * h - d * h_prev, h
        return width * h * h / (1.0 + c * y * y)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning means no answer
        parts, _, info = quad_vec(pieces, 0.0, 1.0, epsabs=1e-17,
                                  epsrel=1e-13, full_output=True)
    # status 2 means the error estimate reached the rounding floor first
    if info.status == 1:
        raise RuntimeError(f"quad_vec did not converge: {info.message}")
    return 2.0 * math.fsum(parts)


def fisher_by_quad(level, params):
    """Fisher information of ``level``, to about 1e-15 relative."""
    n, lam, gamma, nu = level.n, level.lam, params.gamma, params.nu
    # weight f = 1 - g x**2: the paper's convention keeps g = gamma/2 for
    # both nu, the nu-consistent one has g = nu gamma E**(nu-1) / 2
    if params.density_mode.value == "nu-consistent":
        g = 0.5 * nu * gamma * level.energy ** (nu - 1)
    else:
        g = 0.5 * gamma
    c = -g / lam
    b = 1.0 + c * (n + 0.5)
    return (4.0 * lam * (n + 0.5) - g * (2.0 * n * n + 2.0 * n + 3.0)
            + 4.0 * g * i_n_by_quad(n, c)) / b
