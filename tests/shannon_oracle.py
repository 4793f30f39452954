"""Independent Shannon-entropy oracle shared by the test modules.

scipy's adaptive ``quad`` on the pieces between the zeros of H_n, where
rho ln rho has its x**2 ln x**2 kinks.  Nothing here calls edho: the
Hermite recurrence, the weight and the zeros are recomputed from scratch.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad


def shannon_by_quad(level, params):
    """-integral of rho ln rho for ``level``, to about 1e-15 relative."""
    n, gamma, nu = level.n, params.gamma, params.nu
    a = math.sqrt(level.lam)
    # weight f = 1 - g x**2: the paper's convention keeps g = gamma/2 for
    # both nu, the nu-consistent one has g = nu gamma E**(nu-1) / 2
    if params.density_mode.value == "nu-consistent":
        g = 0.5 * nu * gamma * level.energy ** (nu - 1)
    else:
        g = 0.5 * gamma
    amp = a / (1.0 - g * (2 * n + 1) / (2.0 * level.lam))

    up = [math.sqrt(2.0 / (k + 1)) for k in range(n)]
    down = [math.sqrt(k / (k + 1)) for k in range(n)]

    def integrand(x):
        y = a * x
        h_prev, h = 0.0, math.pi ** -0.25 * math.exp(-0.5 * y * y)
        for u, d in zip(up, down):
            h, h_prev = y * u * h - d * h_prev, h
        r = amp * h * h * (1.0 - g * x * x)
        return -r * math.log(r) if r > 1e-300 else 0.0

    # rho is even: integrate over x >= 0 and double
    off = np.sqrt(np.arange(1, n) / 2.0)
    zeros = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    edge = math.sqrt(2 * n + 1) + 12.0
    cuts = np.concatenate(([0.0], zeros[zeros > 0], [edge])) / a
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning means no answer
        return 2.0 * math.fsum(
            quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
            for lo, hi in zip(cuts, cuts[1:]))
