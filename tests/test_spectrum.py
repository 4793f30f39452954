import math

import numpy as np
import pytest
from scipy.optimize import brentq

import edho.spectrum
from edho import (DomainError, ModelParams, NonPositiveEnergy, NotReached,
                  eigenvalue, residual, saturation_index, saturation_limit)
from edho.spectrum import _energies, _levels


def test_textbook_limit_exact():
    params = ModelParams(gamma=0.0, nu=1)
    assert eigenvalue(params, 7).energy == pytest.approx(7.5, abs=0)
    energies = [eigenvalue(params, n).energy for n in range(4)]
    assert energies == [0.5, 1.5, 2.5, 3.5]


def test_first_case_ground_state():
    level = eigenvalue(ModelParams(gamma=-1.0, nu=1), 0)
    # -1/8 + (1/2) sqrt(17/16)
    assert level.energy == pytest.approx(0.3903882032022075, rel=1e-14)
    assert level.lam == pytest.approx(math.sqrt(1.0 - level.energy), rel=1e-12)


def test_second_case_ground_state():
    level = eigenvalue(ModelParams(gamma=-0.25, nu=2), 0)
    assert level.energy == pytest.approx(1.0 / math.sqrt(4.25), rel=1e-14)


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("gamma", [-0.1, -0.5, -1.0, -2.0])
def test_residual_relative(gamma, nu):
    params = ModelParams(gamma=gamma, nu=nu)
    scalar = []
    for n in range(0, 501, 7):
        level = eigenvalue(params, n)
        scalar.append(residual(params, n, level.energy))
        assert abs(scalar[-1]) / (n + 0.5) ** 2 < 1e-10
    # the array pass of validate gives the same residuals bit for bit
    ns = np.arange(0, 501, 7)
    assert residual(params, ns, _energies(params, ns)).tolist() == scalar


@pytest.mark.parametrize("nu,gamma", [(1, -1.0), (1, -0.3), (2, -0.25), (2, -0.8)])
def test_closed_form_matches_bracketed_root(nu, gamma):
    params = ModelParams(gamma=gamma, nu=nu)
    for n in range(0, 30, 3):
        level = eigenvalue(params, n)
        # independent oracle: bracketed root of the characteristic equation
        hi = n + 1.0 if gamma < 0 else 10.0 * (n + 1)
        root = brentq(lambda e: residual(params, n, e), 1e-12, hi, xtol=1e-14)
        assert level.energy == pytest.approx(root, rel=1e-9)


def test_saturation_limits():
    assert saturation_limit(ModelParams(gamma=-2.0, nu=1)) == 0.5
    assert saturation_limit(ModelParams(gamma=-0.25, nu=2)) == 2.0
    assert saturation_limit(ModelParams(gamma=-1.0, nu=1)) == 1.0
    with pytest.raises(DomainError):
        saturation_limit(ModelParams(gamma=0.0, nu=1))


def test_asymptotic_limits():
    p1 = ModelParams(gamma=-2.0, nu=1)
    assert eigenvalue(p1, 10**6).energy == pytest.approx(0.5, rel=1e-10)
    p2 = ModelParams(gamma=-0.25, nu=2)
    assert eigenvalue(p2, 10**6).energy == pytest.approx(2.0, rel=1e-10)


def test_saturation_index_against_scan_oracle():
    params = ModelParams(gamma=-2.0, nu=1)
    for eps in (1e-3, 1e-2, 0.5):
        limit = saturation_limit(params)
        scan = 0
        while (limit - eigenvalue(params, scan).energy) / limit >= eps:
            scan += 1
        assert saturation_index(params, eps) == scan
    assert saturation_index(params, 1e-3) == 16
    assert saturation_index(params, 0.5) == 0


def test_saturation_index_monotone_in_coupling():
    indices = [saturation_index(ModelParams(gamma=g, nu=1), 1e-3)
               for g in (-0.25, -0.5, -1.0, -2.0)]
    assert indices == sorted(indices, reverse=True)


def test_saturation_index_not_reached():
    # n_sat is about 1e20, past 2**52, where n + 1/2 is no longer exact
    with pytest.raises(NotReached):
        saturation_index(ModelParams(gamma=-1e-14, nu=1), 1e-6)


@pytest.mark.parametrize("nu,gamma,eps", [(1, -0.1, 1e-4), (1, -2.0, 1e-3),
                                          (2, -0.3, 1e-5), (2, -1e-3, 0.2)])
def test_saturation_index_cap_is_exact(nu, gamma, eps, monkeypatch):
    # NotReached exactly when n_sat >= the limit (2**52 unpatched)
    params = ModelParams(gamma=gamma, nu=nu)
    n_sat = saturation_index(params, eps)
    monkeypatch.setattr(edho.spectrum, "_N_SAT_MAX", n_sat + 1)
    assert saturation_index(params, eps) == n_sat
    monkeypatch.setattr(edho.spectrum, "_N_SAT_MAX", n_sat)
    with pytest.raises(NotReached):
        saturation_index(params, eps)


@pytest.mark.parametrize("nu,gamma,eps", [(1, -1e-6, 1e-12),
                                          (1, -1e-9, 1e-12),
                                          (2, -4.015749210286968e-17,
                                           8.7213686928063e-13)])
def test_saturation_index_search_is_bounded(nu, gamma, eps, monkeypatch):
    # n_sat of about 1e12, 1e15 and 1.2e14: one level moves the deviation
    # by less than its rounding, so it is flat over many levels; single
    # steps from the closed-form start took over 2e5 levels on the third
    params = ModelParams(gamma=gamma, nu=nu)
    levels = []
    energies = edho.spectrum._energies

    def counting(params, ns):
        levels.append(ns)
        # fail at once rather than after a search that may not end
        assert len(levels) <= 2 * 53
        return energies(params, ns)

    monkeypatch.setattr(edho.spectrum, "_energies", counting)
    n = saturation_index(params, eps)
    assert 10**11 < n < 2**52
    # the level returned is where the computed deviation crosses eps
    limit = saturation_limit(params)
    deviation = [(limit - eigenvalue(params, k).energy) / limit
                 for k in (n - 1, n)]
    assert deviation[1] < eps <= deviation[0]


@pytest.mark.parametrize("nu,gamma", [(1, -1e-8), (1, -3e-13), (2, -3e-13)])
def test_saturation_index_past_the_old_cap(nu, gamma):
    # up to about 3.3e15, below 2**52: still the first level within eps
    params = ModelParams(gamma=gamma, nu=nu)
    n = saturation_index(params, 1e-6)
    assert 10**6 < n < 2**52
    limit = saturation_limit(params)
    deviation = [(limit - eigenvalue(params, k).energy) / limit
                 for k in (n - 1, n)]
    assert deviation[1] < 1e-6 <= deviation[0]


def test_small_coupling_recovers_textbook():
    params = ModelParams(gamma=-1e-5, nu=1)
    for n in range(11):
        assert eigenvalue(params, n).energy == pytest.approx(n + 0.5, abs=1e-3)


def test_monotone_bounded_spectrum():
    for nu, gamma in ((1, -2.0), (2, -0.25)):
        params = ModelParams(gamma=gamma, nu=nu)
        energies = [eigenvalue(params, n).energy for n in range(201)]
        limit = saturation_limit(params)
        assert all(a < b < limit for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(limit, rel=1e-4)


def test_lambda_in_unit_interval():
    for nu in (1, 2):
        for gamma in (-2.0, -0.5, 0.0):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in (0, 5, 50):
                level = eigenvalue(params, n)
                assert 0.0 < level.lam <= 1.0
                assert level.energy > 0


def test_parameter_validation():
    with pytest.raises(DomainError):
        ModelParams(gamma=0.5, nu=1)
    with pytest.raises(DomainError):
        ModelParams(gamma=-1.0, nu=3)
    ModelParams(gamma=0.5, nu=1, permissive=True)  # allowed explicitly
    with pytest.raises(DomainError):
        eigenvalue(ModelParams(gamma=-1.0), -1)
    with pytest.raises(DomainError):
        # nu=2 square root argument goes non-positive for gamma > 0
        eigenvalue(ModelParams(gamma=0.5, nu=2, permissive=True), 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, nu, gamma, n", [
    (lambda params: eigenvalue(params, 0), 1, -1e300, 0),
    (lambda params: _energies(params, range(4)), 1, -1e300, 0),
    (saturation_index, 1, -1e300, 0),
    # over levels 0..20000, n is the first level where the formula overflows
    (lambda params: _energies(params, range(20001)), 1, -1e150, 13408),
    (lambda params: _energies(params, range(20001)), 1, -1e300, 0),
    (lambda params: _energies(params, range(20001)), 2, -1e300, 6704),
    # nu = 2, gamma = 0.1 has no real root from n = 3 on
    (lambda params: eigenvalue(params, 3), 2, 0.1, 3),
    (lambda params: _energies(params, range(5)), 2, 0.1, 3),
    # before any level is made
    (lambda params: _levels(params, range(5)), 2, 0.1, 3),
], ids=["eigenvalue", "_energies", "saturation_index", "_energies-nu1-1e150",
        "_energies-nu1-1e300", "_energies-nu2-1e300", "eigenvalue-nu2-no-root",
        "_energies-nu2-no-root", "_levels-nu2-no-root"])
def test_unrepresentable_energy_raises(call, nu, gamma, n):
    # the formula overflows, so the retained root reads E = 0, or it takes
    # the square root of a negative number and reads nan; neither leaks a
    # numpy warning
    params = ModelParams(gamma=gamma, nu=nu, permissive=gamma > 0)
    energy = "nan" if gamma > 0 else r"0\.0"
    with pytest.raises(NonPositiveEnergy, match=rf"E={energy} at n={n},"):
        call(params)


@pytest.mark.parametrize("nu, gamma, ns", [
    (1, 0.0, range(0, 50)),
    (1, -0.5, range(7, 70)),
    (1, -1e150, range(13_300, 13_408)),
    (2, -1e-5, range(990, 1010)),
    (2, -1e300, range(6_600, 6_704)),
    (1, -0.5, range(2**52 - 5, 2**52)),
    (2, 0.1, range(3)),
])
def test_levels_are_those_of_eigenvalue(nu, gamma, ns):
    # one array pass over the range, bit for bit the scalar levels
    params = ModelParams(gamma=gamma, nu=nu, permissive=gamma > 0)
    assert list(_levels(params, ns)) == [eigenvalue(params, n) for n in ns]


def test_large_n_no_cancellation():
    # rearranged closed form keeps the residual tiny even at n = 1e4
    params = ModelParams(gamma=-2.0, nu=1)
    n = 10**4
    level = eigenvalue(params, n)
    assert abs(residual(params, n, level.energy)) / (n + 0.5) ** 2 < 1e-12
