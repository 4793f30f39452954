"""Every kernel that reads a level's coupling refuses the same levels with
the same full text: past the order limit, a subnormal sqrt(lam)/b, an
overflowing c or b, a vanishing weight (g > 0) and a non-positive brace."""

import numpy as np
import pytest

from edho import (DensityMode, DomainError, ModelParams, cramer_rao, density,
                  eigenvalue, fisher_closed, fisher_numeric, moments, psi,
                  psi_prime, shannon_entropy)
from edho.spectrum import EnergyLevel

_GOOD = ModelParams(gamma=-0.5)


def _case(gamma, nu, n):
    params = ModelParams(gamma=gamma, nu=nu, density_mode=DensityMode.LITERAL,
                         permissive=gamma > 0)
    return params, eigenvalue(params, n)


def _brace_case():
    # no eigenvalue reaches b <= 0: at nu = 1, b = sqrt(t**2 + 4) /
    # (t + sqrt(t**2 + 4)) with t = gamma (n + 1/2), and at nu = 2 a level
    # exists only while gamma (n + 1/2)**2 < 1, which keeps b > 0; so the
    # level is made by hand, with g (2n + 1) / (2 lam) = 2.5
    params = ModelParams(gamma=1.0, permissive=True)
    return params, EnergyLevel(n=0, energy=0.05, lam=0.1)


_CASES = {
    "order": lambda: _case(-0.5, 1, 681),
    "subnormal": lambda: _case(-1e130, 1, 0),
    "overflow": lambda: _case(-1e250, 2, 0),
    "g-positive": lambda: _case(0.5, 1, 0),
    "brace": _brace_case,
}

_KERNELS = {
    "fisher_closed": lambda p, lv: fisher_closed(lv, p),
    "fisher_numeric": lambda p, lv: fisher_numeric(lv, p),
    "moments": lambda p, lv: moments(lv, p),
    "cramer_rao": lambda p, lv: cramer_rao(lv, p),
    "psi": lambda p, lv: psi(lv, p, 0.5),
    "psi_prime": lambda p, lv: psi_prime(lv, p, 0.5),
    "density": lambda p, lv: density(lv, p, 0.5),
    # the level below, where there is one, passes before the refused one
    "density_batch": lambda p, lv: density(
        [eigenvalue(p, m) for m in range(max(lv.n - 1, 0), lv.n)] + [lv],
        p, np.array([0.0, 0.5])),
    "shannon_entropy": lambda p, lv: shannon_entropy(lv, p),
    # a coupling that passes, then the refused one
    "shannon_batch": lambda p, lv: shannon_entropy(
        [eigenvalue(_GOOD, lv.n), lv], [_GOOD, p]),
}

_ORDER = ("n=681 is past n=680, the largest order whose wavefunction "
          "stays accurate")
_SUBNORMAL = ("sqrt(lam)/b = 0 is below the normal float range at n=0, "
              "gamma=-1e+130")
_OVERFLOW = ("c = -g/lam or the normalization brace factor overflows at "
             "n=0, gamma=-1e+250")
_BRACE = "normalization brace factor non-positive at n=0, gamma=1.0"
_CLOSED = "closed-form Fisher non-positive: invalid regime"
_WAVE = ("psi", "psi_prime", "density", "density_batch", "shannon_entropy",
         "shannon_batch")


def _vanishes(root):
    return (f"weight vanishes at |x| = {root}, where the Fisher integrand "
            "diverges")


# (case, kernel) -> the full refusal text, or None for a finite value
_EXPECTED = {
    **{("order", k): _ORDER for k in _WAVE},
    ("order", "fisher_closed"): _CLOSED,
    ("order", "fisher_numeric"): None,
    ("order", "moments"): None,
    ("order", "cramer_rao"): None,
    **{("subnormal", k): _SUBNORMAL for k in _WAVE},
    ("subnormal", "fisher_closed"): _CLOSED,
    ("subnormal", "fisher_numeric"): None,
    ("subnormal", "moments"): None,
    ("subnormal", "cramer_rao"): None,
    **{("overflow", k): _OVERFLOW for k in _KERNELS},
    **{("g-positive", k): None for k in _KERNELS},
    ("g-positive", "fisher_numeric"): _vanishes("2"),
    ("g-positive", "cramer_rao"): _vanishes("2"),
    **{("brace", k): _BRACE for k in _KERNELS},
    # fisher_numeric names the weight's zero before any brace check
    ("brace", "fisher_numeric"): _vanishes("1.41421"),
    ("brace", "cramer_rao"): _vanishes("1.41421"),
}


@pytest.mark.parametrize("case, kernel", sorted(_EXPECTED))
def test_refusal_text(case, kernel):
    params, level = _CASES[case]()
    expected = _EXPECTED[case, kernel]
    if expected is None:
        value = np.asarray(_KERNELS[kernel](params, level))
        assert np.all(np.isfinite(value))
        return
    with pytest.raises(DomainError) as info:
        _KERNELS[kernel](params, level)
    assert str(info.value) == expected


def test_table_covers_every_kernel_and_case():
    assert set(_EXPECTED) == {(c, k) for c in _CASES for k in _KERNELS}
