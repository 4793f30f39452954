import math

import numpy as np
import pytest

import edho.thermo
from edho import (ModelParams, NonConvergence, eigenvalue, entropy_density,
                  gaussian_window, integrate)
from edho import quadrature
from edho.spectrum import _energies
from edho.thermo import _tail_sum
from edho.wavefunction import hermite_fn_pair
from shannon_oracle import shannon_by_quad


def _gaussian_moment(n: int, k: int) -> float:
    """Normalized moment: integral of exp(-y^2) y^k H_n(y)^2 dy over 2^n n! sqrt(pi).

    Closed forms exist for k = 0, 2, 4 only.
    """
    if k == 0:
        return 1.0
    if k == 2:
        return n + 0.5
    if k == 4:
        return 0.75 * (2.0 * n * n + 2.0 * n + 1.0)
    raise ValueError(f"no closed form for k={k}; supported k: 0, 2, 4")


def test_gaussian_integral():
    value, err = integrate(lambda x: np.exp(-x * x), gaussian_window(1.0, 0),
                           1e-8)
    assert value == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert err < 1e-8


def test_weighted_hermite_integrals():
    # H_1 = 2y: integral of 4 y^4 exp(-y^2) is 3 sqrt(pi)
    value, _ = integrate(lambda y: np.exp(-y * y) * y * y * (2 * y) ** 2,
                         gaussian_window(1.0, 1), 1e-8)
    assert value == pytest.approx(3 * math.sqrt(math.pi), rel=1e-10)
    # orthogonality normalization at n=2: 2^2 2! sqrt(pi)
    value, _ = integrate(lambda y: np.exp(-y * y) * (4 * y * y - 2) ** 2,
                         gaussian_window(1.0, 2), 1e-8)
    assert value == pytest.approx(8 * math.sqrt(math.pi), rel=1e-10)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_moments_match_quadrature(k):
    for n in range(0, 101, 10):
        # normalized Hermite functions keep the integrand O(1) at any n
        value, _ = integrate(lambda y: hermite_fn_pair(n, y)[0] ** 2 * y**k,
                             gaussian_window(1.0, n), 1e-12)
        assert value == pytest.approx(_gaussian_moment(n, k), rel=1e-10)


def test_moment_closed_forms():
    assert _gaussian_moment(0, 2) == 0.5
    assert _gaussian_moment(3, 2) == 3.5
    assert _gaussian_moment(2, 4) == 9.75
    with pytest.raises(ValueError):
        _gaussian_moment(1, 6)


def test_odd_integrand_cancels():
    value, _ = integrate(lambda y: y**3 * np.exp(-y * y), 12.0, 1e-8)
    assert abs(value) < 1e-12


def test_window_doubling_is_sound():
    base = gaussian_window(1.0, 5)
    v1, _ = integrate(lambda y: hermite_fn_pair(5, y)[0] ** 2, base, 1e-13)
    v2, _ = integrate(lambda y: hermite_fn_pair(5, y)[0] ** 2, 2 * base,
                      1e-13)
    assert abs(v2 - v1) < 1e-12 * abs(v1)


def test_deterministic():
    a = integrate(lambda x: np.exp(-x * x) * np.cos(x), 10.0, 1e-8)
    b = integrate(lambda x: np.exp(-x * x) * np.cos(x), 10.0, 1e-8)
    assert a == b


def test_non_convergence_flagged():
    # a step off the grid nodes caps the trapezoid rule at first order: a
    # halving still moves the sum by up to the step size h (6e-8 at the
    # last of the 18), far above the 1e-12 floor
    with pytest.raises(NonConvergence):
        integrate(lambda x: (x > 0.123456).astype(float), 1.0, 1e-16)


def test_kinked_integrand_stops_late_enough():
    # rho ln rho has x**2 ln x**2 kinks at the zeros of H_n.  Here a
    # halving changes the sum by only 2.4e-10 while it is still 1.6e-9
    # (relative) off; the _KINK_RATE floor on the estimate must not let
    # the rule stop there.
    params = ModelParams(gamma=-0.85, nu=1)
    level = eigenvalue(params, 22)
    value, _ = integrate(lambda x: -entropy_density(level, params, x),
                         gaussian_window(level.lam, 22), 1e-10)
    assert value == pytest.approx(shannon_by_quad(level, params), rel=1e-9)


@pytest.mark.parametrize("window", [30.0, gaussian_window(1.0, 0)])
def test_resolved_gaussian_stops_at_257_nodes(window):
    # on [-30, 30] the first grid's step is 1.9, and the three halvings
    # change the sum by about 0.2, 5e-5 and rounding: each of the second
    # and third cuts the change more than 64-fold.  On gaussian_window(1, 0)
    # = 11 the first grid already resolves it, and they change it by
    # rounding only.  Either way the rule stops at the third halving, with
    # the last change as its estimate
    sizes = []
    value, err = integrate(lambda x: sizes.append(len(x)) or np.exp(-x * x),
                           window, 1e-12)
    assert sizes == [257]
    assert err <= 1e-12 * value
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12, abs=0)


def test_thermo_tail_takes_513_nodes(monkeypatch):
    # the tail column of test_tail_sum_against_direct_sum at beta = 0.03 is
    # worth about 1e-22, far under _ABS_TOL from the first grid on.  Its
    # changes fall 30-fold at the second halving and 3500-fold at the
    # third, one fast halving only: stopped at 257 nodes it is 1.3e-13
    # off the direct sum, so the rule must take a fourth halving
    sizes = []

    def counting(integrand, window, rel_tol):
        return integrate(lambda tau: sizes.append(len(tau)) or integrand(tau),
                         window, rel_tol)

    monkeypatch.setattr(edho.thermo, "integrate", counting)
    params = ModelParams(gamma=-1e-4, nu=1)
    e0 = float(_energies(params, 0))
    _tail_sum(params, e0, 10**7, lambda d: np.exp(-0.03 * d))
    assert sizes == [257, 256]


def test_window_is_required():
    with pytest.raises(TypeError):
        integrate(lambda x: np.exp(-x * x))
    for window in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate(lambda x: np.exp(-x * x), window, 1e-8)


def test_error_estimate_reported():
    value, err = integrate(lambda x: np.exp(-x * x), 9.0, 1e-8)
    assert err >= 0
    assert abs(value - math.sqrt(math.pi)) <= max(err, 1e-12)


def test_columns_integrate_at_once():
    value, err = integrate(
        lambda x: np.stack([np.exp(-x * x), np.exp(-x * x) * np.cos(x)],
                           axis=1), 10.0, 1e-12)
    assert value.shape == err.shape == (2,)
    np.testing.assert_allclose(
        value, [math.sqrt(math.pi), math.sqrt(math.pi) * math.exp(-0.25)],
        rtol=1e-13)
    assert np.all(err <= 1e-12 * value)


def test_every_column_must_converge():
    # a kink off the grid slows the rule to h**2: that column alone sets
    # the number of halvings
    def smooth(x):
        return np.exp(-x * x)

    def kinked(x):
        return np.abs(x - 0.123456) * np.exp(-x * x)

    nodes = {}
    for name, f in [("smooth", smooth), ("kinked", kinked),
                    ("both", lambda x: np.stack([smooth(x), kinked(x)],
                                                axis=1))]:
        sizes = []
        integrate(lambda x: sizes.append(len(x)) or f(x), 6.0, 1e-8)
        nodes[name] = sum(sizes)
    assert nodes["smooth"] < nodes["kinked"] == nodes["both"]


def test_tanh_sinh_nodes_rise_inside_the_interval():
    tau = np.linspace(-4.0, 4.0, 801)
    for lo, width in [(0.0, 1.0), (-3.0, 0.5), (2000.0, 2.0**52)]:
        x, w = quadrature.tanh_sinh(tau, lo, width)
        assert np.all(np.diff(x) >= 0) and np.all(w > 0)
        assert lo <= x[0] and x[-1] <= lo + width
    # the offset from lo is positive at tau = -4, and under 1e-20 of a
    # width of 2**52, far under one level of thermo's tail; added to
    # lo = 2000, the node rounds to lo and never below it
    offset, _ = quadrature.tanh_sinh(-4.0, 0.0, 2.0**52)
    assert 0 < offset < 1e-20 * 2.0**52
    x, _ = quadrature.tanh_sinh(-4.0, 2000.0, 2.0**52)
    assert 0 <= x - 2000.0 < 1e-20 * 2.0**52


def _integrate_by_grids(integrand, window, rel_tol):
    """``integrate`` with one integrand call per grid (33, 32, 64, 128, ...
    nodes): the reference whose results ``integrate`` must equal bit for
    bit."""
    a = -window
    n = 32
    h = 2.0 * window / n
    fx = np.asarray(integrand(np.linspace(a, window, n + 1)), dtype=float)
    larger, every = (max, bool) if fx.ndim == 1 else (np.maximum, np.all)
    value = h * (fx.sum(axis=0) - 0.5 * (fx[0] + fx[-1]))
    abs_sum = np.abs(fx).sum(axis=0)
    changes = [math.inf]
    for k in range(1, quadrature._MAX_REFINEMENTS + 1):
        h *= 0.5
        mids = a + h * np.arange(1, 2 * n, 2)
        n *= 2
        fx = np.asarray(integrand(mids), dtype=float)
        refined = 0.5 * value + h * fx.sum(axis=0)
        change = abs(refined - value)
        value = refined
        changes.append(change)
        tol = larger(quadrature._ABS_TOL, rel_tol * abs(value))
        if k <= 3:
            abs_sum = abs_sum + np.abs(fx).sum(axis=0)
        # rounding: a share of the integral of |f| over the 257 nodes
        noise = quadrature._ROUNDING * h * abs_sum
        if k == 3 and all(every((quadrature._FAST_RATE * changes[j]
                                 < changes[j - 1]) | (changes[j] <= noise))
                          for j in (2, 3)) and every(change <= tol):
            return value, change
        err = larger(change, changes[-2] / quadrature._KINK_RATE)
        if k >= 4 and every(err <= tol):
            return value, err
    raise NonConvergence(
        f"no convergence after {quadrature._MAX_REFINEMENTS} refinements "
        f"(last change {np.max(change):g})"
    )


_KINKED = ModelParams(gamma=-0.85, nu=1)
_KINKED_LEVEL = eigenvalue(_KINKED, 22)

# (integrand, window, rel_tol): the Gaussian stops at 257 nodes, the
# kinked rho ln rho of test_kinked_integrand_stops_late_enough and the
# columns (one kinked) well past 513, the step never
_BY_GRIDS_CASES = {
    "gaussian": (lambda x: np.exp(-x * x), gaussian_window(1.0, 0), 1e-8),
    "kinked": (lambda x: -entropy_density(_KINKED_LEVEL, _KINKED, x),
               gaussian_window(_KINKED_LEVEL.lam, 22), 1e-10),
    "columns": (lambda x: np.stack([np.exp(-x * x),
                                    np.abs(x - 0.123456) * np.exp(-x * x)],
                                   axis=1), 6.0, 1e-8),
    "step": (lambda x: (x > 0.123456).astype(float), 1.0, 1e-16),
}


@pytest.mark.parametrize("case", sorted(_BY_GRIDS_CASES))
def test_first_257_nodes_in_one_call_change_nothing(case, monkeypatch):
    # the same value and estimate bit for bit, or the same NonConvergence,
    # from the same nodes: the first call takes the nodes of the first four
    # grids of the grid-by-grid rule as one ascending grid, every later
    # call one grid
    f, window, rel_tol = _BY_GRIDS_CASES[case]
    if case == "step":
        # six halvings (2,049 nodes) reach NonConvergence as well as 18,
        # without holding 2**24 nodes per rule
        monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 6)
    results, calls = [], []
    for rule in (integrate, _integrate_by_grids):
        nodes = []
        try:
            results.append(rule(lambda x: nodes.append(x) or f(x), window,
                                rel_tol))
        except NonConvergence as exc:
            results.append(str(exc))
        calls.append(nodes)
    batched, by_grids = calls
    assert [np.size(x) for x in by_grids[:4]] == [33, 32, 64, 128]
    assert np.array_equal(batched[0], np.sort(np.concatenate(by_grids[:4])))
    assert len(batched) == len(by_grids) - 3
    assert all(np.array_equal(x, y) for x, y in zip(batched[1:], by_grids[4:]))
    if case == "step":
        assert results[0] == results[1]  # NonConvergence, same last change
    else:
        assert [np.asarray(r).tobytes() for r in results[0]] == \
            [np.asarray(r).tobytes() for r in results[1]]
