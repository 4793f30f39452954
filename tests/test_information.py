import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfcx, roots_hermite

import edho.information
import edho.wavefunction
from edho import (DensityMode, DomainError, ModelParams, cramer_rao, density,
                  eigenvalue, entropy_density, fisher_closed, fisher_numeric,
                  gaussian_window, integrate, moments, shannon_entropy)
from edho.information import _hermite_zeros, _i_n, _rho_ln_rho
from edho.wavefunction import weight_coefficient
from fisher_oracle import fisher_by_quad, i_n_by_quad
from shannon_oracle import shannon_by_quad

SWEEP_GAMMAS = (0.0, -0.1, -0.3, -0.5, -1.0)


class TestFisher:
    def test_weight_free_closed_form(self):
        params = ModelParams(gamma=0.0)
        for n in (*range(10), 700):
            level = eigenvalue(params, n)
            assert fisher_closed(level, params) == 2 * (2 * n + 1)
            assert fisher_numeric(level, params) == 2 * (2 * n + 1)

    # the n = 0 and n = 1 rows are where F is most sensitive to I_n
    @pytest.mark.parametrize("gamma,n,nu,mode", [
        *(pytest.param(gamma, n, 1, "paper", id=f"{gamma}-{n}")
          for gamma, n in ((-1e6, 0), (-1e6, 2), (-1e4, 1), (-1e4, 60),
                           (-1e3, 5), (-1e3, 200), (-30, 501))),
        (-1e-2, 9, 2, "paper"), (-5e-3, 12, 2, "nu-consistent")])
    def test_against_quad_at_strong_coupling(self, gamma, n, nu, mode):
        params = ModelParams(gamma=gamma, nu=nu, density_mode=DensityMode(mode))
        level = eigenvalue(params, n)
        assert fisher_numeric(level, params) == pytest.approx(
            fisher_by_quad(level, params), rel=1e-12)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("gamma", [-0.05, -0.1])
    def test_closed_vs_numeric_small_coupling(self, gamma, nu):
        params = ModelParams(gamma=gamma, nu=nu)
        for n in range(6):
            level = eigenvalue(params, n)
            closed = fisher_closed(level, params)
            numeric = fisher_numeric(level, params)
            assert abs(closed - numeric) / numeric < 1e-2

    def test_truncation_gap_grows_with_coupling(self):
        gaps = []
        for gamma in (-0.05, -0.2, -0.4):
            params = ModelParams(gamma=gamma, nu=1)
            level = eigenvalue(params, 3)
            closed = fisher_closed(level, params)
            numeric = fisher_numeric(level, params)
            gaps.append(abs(closed - numeric) / numeric)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_numeric_against_dense_grid_oracle(self):
        # independent route: (rho')^2 / rho by central differences on a
        # trapezoid grid, no reuse of the analytic derivative
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 0)
        x = np.linspace(-12, 12, 200001)
        rho = density(level, params, x)
        drho = np.gradient(rho, x)
        mask = rho > 1e-12 * rho.max()
        oracle = np.trapezoid(np.where(mask, drho**2 / np.where(mask, rho, 1.0), 0.0), x)
        assert fisher_numeric(level, params) == pytest.approx(oracle, rel=1e-5)

    def test_positive_and_finite(self):
        params = ModelParams(gamma=-0.5, nu=2)
        level = eigenvalue(params, 3)
        value = fisher_numeric(level, params)
        assert 0 < value < math.inf

    @pytest.mark.parametrize("nu", [1, 2])
    def test_monotone_in_n_at_weak_coupling(self, nu):
        top = 10 if nu == 1 else 5
        for gamma in (0.0, -0.05, -0.1):
            params = ModelParams(gamma=gamma, nu=nu)
            values = [fisher_numeric(eigenvalue(params, n), params)
                      for n in range(top)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_interior_peak_at_strong_coupling(self):
        # once the spectrum saturates, localization stops improving with n,
        # so the Fisher curve turns over instead of growing forever
        params = ModelParams(gamma=-0.5, nu=1)
        values = [fisher_numeric(eigenvalue(params, n), params)
                  for n in range(12)]
        peak = values.index(max(values))
        assert 0 < peak < len(values) - 1

    def test_weight_zero_inside_window_is_domain_error(self):
        # for g > 0, f = 1 - g x**2 vanishes at x = 1/sqrt(g), where the 1/f
        # term of I_n is not integrable: 4.47 here, inside the Gaussian
        # window of 10.9 ...
        params = ModelParams(gamma=0.1, nu=2, permissive=True)
        with pytest.raises(DomainError):
            fisher_numeric(eigenvalue(params, 0), params)
        # ... and just as much at 141, far past it: the integral runs over
        # the whole line
        params = ModelParams(gamma=1e-4, nu=1, permissive=True)
        with pytest.raises(DomainError):
            fisher_numeric(eigenvalue(params, 0), params)

    def test_no_quadrature_and_no_hermite_pass(self, monkeypatch):
        # I_n comes from a scalar recurrence: no integrand is evaluated
        def refuse(*args):
            raise AssertionError("quadrature or Hermite grid used")

        monkeypatch.setattr(edho.information, "integrate", refuse)
        monkeypatch.setattr(edho.wavefunction, "hermite_fn_pair", refuse)
        for gamma, n in ((-0.5, 10), (-1e6, 0), (-1e-5, 3000)):
            params = ModelParams(gamma=gamma, nu=1)
            assert 0 < fisher_numeric(eigenvalue(params, n), params) < math.inf

    # every coupling band, both nu and both density modes
    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("gamma", [-1e-5, -0.5, -1e3, -1e6])
    def test_against_quad_over_couplings(self, gamma, nu, mode):
        params = ModelParams(gamma=gamma, nu=nu, density_mode=DensityMode(mode))
        for n in (0, 1, 7, 40):
            level = eigenvalue(params, n)
            assert fisher_numeric(level, params) == pytest.approx(
                fisher_by_quad(level, params), rel=1e-12)


class TestFisherIntegral:
    """I_n(c) = integral of h_n(y)**2 / (1 + c y**2) dy, pinned on its own:
    F hides its error, since 4 g I_n is a small share of F at weak
    coupling."""

    # the recurrence runs t_n backward for kappa sqrt(n+1) >= 2, forward
    # below; the pairs at n = 10 and 60 straddle that split, and c = 5e-4
    # with n <= 3 is where a backward start with no floor falls short
    @pytest.mark.parametrize("c, n", [
        (5e-4, 1), (5e-4, 2), (5e-4, 3), (1e-6, 0), (1e-2, 30), (0.3, 1),
        (0.5, 1), (2.5, 10), (3.0, 10), (14.0, 60), (17.0, 60), (0.5, 200),
        (60.0, 200), (1e3, 100), (1e4, 1), (1e6, 0)])
    def test_against_quad(self, c, n):
        assert _i_n(n, c) == pytest.approx(i_n_by_quad(n, c), rel=1e-13)

    # where the quad oracle itself is 1.2e-13 off (c = 3.2e7, n = 1)
    @pytest.mark.parametrize("c", [1.0, 3.0, 1e3, 3.2e7, 1e12])
    def test_closed_forms_at_strong_coupling(self, c):
        kappa = c ** -0.5
        i_0 = kappa * math.sqrt(math.pi) * erfcx(kappa)
        assert _i_n(0, c) == pytest.approx(i_0, rel=1e-15)
        # h_1**2 = 2 y**2 h_0**2 and y**2/(1 + c y**2) = (1 - 1/f)/c
        assert _i_n(1, c) == pytest.approx(2.0 * (1.0 - i_0) / c, rel=1e-15)

    @pytest.mark.parametrize("n", [1000, 2500, 5000])
    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-9])
    def test_series_at_large_n_and_weak_coupling(self, c, n):
        # the third-order term, c**3 <y**6>, is below 1e-15 here
        series = 1.0 - c * (n + 0.5) + 0.75 * c * c * (2 * n * n + 2 * n + 1)
        assert _i_n(n, c) == pytest.approx(series, rel=1e-15, abs=0)

    def test_order_limit(self):
        # the largest order is taken; one past it is refused before any
        # step, in either regime
        assert 0 < _i_n(10**5, 1e-3) < 1
        for c in (1e-3, 1e5):
            with pytest.raises(DomainError, match="past n=100000"):
                _i_n(10**5 + 1, c)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_overflowing_coupling_is_domain_error(self, n, monkeypatch):
        # nu = 2, gamma = -1e250: c = -g/lam and b overflow, where _i_n
        # would divide by kappa = 0; refused before _i_n runs, and <x^2>
        # with it
        def no_i_n(n, c):
            raise AssertionError("_i_n ran")

        monkeypatch.setattr(edho.information, "_i_n", no_i_n)
        params = ModelParams(gamma=-1e250, nu=2)
        level = eigenvalue(params, n)
        for kernel in (fisher_numeric, moments, cramer_rao):
            with pytest.raises(DomainError, match="overflows"):
                kernel(level, params)

    def test_weight_free_needs_no_order_limit(self):
        # at gamma = 0, c = 0 and I_n = 1 without _i_n, at any n
        params = ModelParams(gamma=0.0)
        assert fisher_numeric(eigenvalue(params, 10**8), params) == 4e8 + 2


class TestMoments:
    def test_weight_free_values(self):
        params = ModelParams(gamma=0.0)
        assert moments(eigenvalue(params, 0), params) == 0.5
        assert moments(eigenvalue(params, 3), params) == 3.5

    @pytest.mark.parametrize("nu,gamma,n", [(1, -0.5, 1), (1, -1.0, 4),
                                            (2, -0.25, 0), (2, -0.5, 3)])
    def test_second_moment_matches_quadrature(self, nu, gamma, n):
        params = ModelParams(gamma=gamma, nu=nu)
        level = eigenvalue(params, n)
        quad, _ = integrate(
            lambda x: np.asarray(x) ** 2 * density(level, params, x),
            gaussian_window(level.lam, n), 1e-12)
        assert moments(level, params) == pytest.approx(quad, abs=1e-8)

    @pytest.mark.parametrize("gamma, nu, n", [
        (-1e103, 1, 1), (-1e110, 1, 2), (-1e150, 1, 1000), (-1e155, 2, 0),
        (-1e160, 2, 2), (-1e204, 2, 1)])
    def test_finite_where_g_over_lam_squared_overflows(self, gamma, nu, n):
        # g/lam**2 overflows here, and c (2n**2+2n+1) at gamma = -1e150,
        # n = 1000, where b is still finite; the oracle is the textbook
        # form in exact rational arithmetic
        params = ModelParams(gamma=gamma, nu=nu)
        level = eigenvalue(params, n)
        lam = Fraction(level.lam)
        g = Fraction(weight_coefficient(params, level))
        exact = ((n + Fraction(1, 2)) / lam
                 - Fraction(3, 4) * g * (2 * n * n + 2 * n + 1) / lam**2) / (
                     1 - g * (2 * n + 1) / (2 * lam))
        assert moments(level, params) == pytest.approx(float(exact),
                                                       rel=1e-15)

    def test_mean_vanishes_by_quadrature(self):
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 2)
        mean, _ = integrate(
            lambda x: np.asarray(x) * density(level, params, x),
            gaussian_window(level.lam, 2), 1e-8)
        assert abs(mean) < 1e-12


class TestCramerRao:
    def test_bound_saturated_by_gaussian(self):
        params = ModelParams(gamma=0.0)
        assert cramer_rao(eigenvalue(params, 0), params) == pytest.approx(
            1.0, abs=1e-8)
        assert cramer_rao(eigenvalue(params, 2), params) == pytest.approx(
            25.0, abs=1e-8)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_bound_on_sweep_grid(self, nu):
        for gamma in SWEEP_GAMMAS:
            params = ModelParams(gamma=gamma, nu=nu)
            for n in range(0, 21, 4):
                level = eigenvalue(params, n)
                assert cramer_rao(level, params) >= 1.0 - 1e-10

    def test_non_decreasing_in_quantum_number(self):
        params = ModelParams(gamma=-0.5, nu=1)
        values = [cramer_rao(eigenvalue(params, n), params) for n in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 - 1e-10 for v in values)

    @pytest.mark.parametrize("nu, gamma", [(1, -1e110), (2, -1e160)])
    def test_strong_coupling_limit(self, nu, gamma):
        # as c -> inf, I_n -> 0 and F V -> 3/4 (2n**2+2n+3)(2n**2+2n+1) /
        # (n+1/2)**2: 9, 35/3 and 117/5 at n = 0, 1, 2; c is about 1e219
        # (nu = 1) and 1e239 (nu = 2) here
        params = ModelParams(gamma=gamma, nu=nu)
        for n in range(3):
            limit = (0.75 * (2 * n * n + 2 * n + 3) * (2 * n * n + 2 * n + 1)
                     / (n + 0.5) ** 2)
            assert cramer_rao(eigenvalue(params, n), params) == pytest.approx(
                limit, rel=1e-14)

    def test_closed_source_switch(self):
        params = ModelParams(gamma=-0.1, nu=1)
        level = eigenvalue(params, 1)
        numeric = cramer_rao(level, params)
        closed = fisher_closed(level, params) * moments(level, params)
        assert closed != numeric
        assert closed == pytest.approx(numeric, rel=2e-2)


class TestShannon:
    def test_gaussian_reference(self):
        params = ModelParams(gamma=0.0)
        level = eigenvalue(params, 0)
        # S_0 = ln(pi e) / 2; the tau cut at +-3 leaves the computed value
        # 1.49e-13 relative below it
        assert shannon_entropy(level, params) == pytest.approx(
            0.5 * (1 + math.log(math.pi)), rel=1e-12, abs=0)

    def test_against_dense_trapezoid_oracle(self):
        for nu, gamma, n in ((1, 0.0, 1), (1, -0.5, 0), (2, -0.25, 2)):
            params = ModelParams(gamma=gamma, nu=nu)
            level = eigenvalue(params, n)
            x = np.linspace(-15, 15, 300001)
            rho = density(level, params, x)
            mask = rho > 0
            oracle = -np.trapezoid(
                np.where(mask, rho * np.log(np.where(mask, rho, 1.0)), 0.0), x)
            assert shannon_entropy(level, params) == pytest.approx(
                oracle, abs=1e-6)

    def test_coupling_dependence_visible(self):
        strong = ModelParams(gamma=-0.5, nu=1)
        weak = ModelParams(gamma=-1e-5, nu=1)
        s_strong = shannon_entropy(eigenvalue(strong, 0), strong)
        s_weak = shannon_entropy(eigenvalue(weak, 0), weak)
        assert abs(s_strong - s_weak) > 1e-2

    # the nu = 1 rows keep their short ids
    @pytest.mark.parametrize("gamma,n,nu,mode", [
        *(pytest.param(gamma, n, 1, "paper", id=f"{gamma}-{n}")
          for gamma, n in ((-0.6, 0), (-0.6, 10), (-0.2, 4), (-0.2, 24),
                           (-0.05, 1), (-0.05, 16), (-0.85, 22), (-0.2, 200),
                           (-0.5, 400))),
        (-0.01, 5, 2, "paper"), (-0.002, 30, 2, "nu-consistent")])
    def test_against_quad_split_at_hermite_zeros(self, gamma, n, nu, mode):
        params = ModelParams(gamma=gamma, nu=nu, density_mode=DensityMode(mode))
        level = eigenvalue(params, n)
        assert shannon_entropy(level, params) == pytest.approx(
            shannon_by_quad(level, params), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 101])
    def test_hermite_zeros(self, n):
        zeros = _hermite_zeros(n)
        np.testing.assert_allclose(zeros, roots_hermite(n)[0], rtol=0,
                                   atol=1e-13)
        # the positive half by count: an odd order's middle zero is not 0
        positive = zeros[(n + 1) // 2:]
        assert len(positive) == n // 2
        assert np.all(positive > 0)

    @pytest.mark.parametrize("n,most", [(24, 8193), (200, 131073)])
    def test_points_per_level(self, monkeypatch, n, most):
        # splitting at the zeros keeps the integrand smooth; on the kinked
        # integrand the trapezoid rule needed 131073 and 524289 points here.
        # Counted are the y where h_n is evaluated, every piece at every
        # tau node: 257 (n/2 + 1) of them, 3341 and 25957
        points = []
        hermite = edho.wavefunction.hermite_fn_pair

        def counting(n, y):
            points.append(np.size(y))
            return hermite(n, y)

        monkeypatch.setattr(edho.wavefunction, "hermite_fn_pair", counting)
        params = ModelParams(gamma=-0.5, nu=1)
        shannon_entropy(eigenvalue(params, n), params)
        assert 0 < sum(points) <= most

    def test_one_tau_grid_for_every_piece(self, monkeypatch):
        # the mapped pieces are smooth in tau: every level stops at the
        # first halving that integrate allows, 257 nodes on [-T, T], which
        # integrate hands to the integrand in one call
        calls = []

        def recording(integrand, window, rel_tol):
            nodes = []

            def counted(tau):
                nodes.append(np.size(tau))
                return integrand(tau)
            calls.append((window, nodes))
            return integrate(counted, window, rel_tol)

        monkeypatch.setattr(edho.information, "integrate", recording)
        params = ModelParams(gamma=-0.5, nu=1)
        for n in (0, 7, 400):
            shannon_entropy(eigenvalue(params, n), params)
        assert calls == [(edho.information._TANH_SINH_T, nodes) for nodes
                         in ([257],) * 3]

    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_257_nodes_match_the_513_node_sum(self, monkeypatch, nu, mode):
        # integrate stops these levels at 257 tau nodes; the same integrand
        # summed by the trapezoid rule on the fixed 513-node grid where it
        # used to stop agrees within 6e-14 at n = 680 (nu = 2, gamma = -1e-5,
        # nu-consistent) and 1e-15 at n <= 200.  n = 680 is taken at nu = 2
        # only, where the gap is largest, to keep the test short
        def trapezoid_513(integrand, window, rel_tol):
            f = integrand(np.linspace(-window, window, 513))
            return window / 256 * (f.sum() - 0.5 * (f[0] + f[-1])), 0.0

        orders = (0, 1, 3, 24, 200, 680) if nu == 2 else (0, 1, 3, 24, 200)
        for gamma in (-0.5, -1e-5, -1e3):
            params = ModelParams(gamma=gamma, nu=nu,
                                 density_mode=DensityMode(mode))
            for n in orders:
                level = eigenvalue(params, n)
                value = shannon_entropy(level, params)
                with monkeypatch.context() as patch:
                    patch.setattr(edho.information, "integrate",
                                  trapezoid_513)
                    fixed = shannon_entropy(level, params)
                assert value == pytest.approx(fixed, rel=1e-13, abs=0), \
                    (gamma, n)

    @pytest.mark.parametrize("n", [681, 10**6])
    def test_past_order_limit_is_domain_error(self, n, monkeypatch):
        # refused before the zeros: their dense n x n eigenproblem would
        # take 8 TB at n = 1e6
        def refuse(n):
            raise AssertionError("zeros computed past the order limit")

        monkeypatch.setattr(edho.information, "_hermite_zeros", refuse)
        params = ModelParams(gamma=-0.5, nu=1)
        with pytest.raises(DomainError, match="past n=680"):
            shannon_entropy(eigenvalue(params, n), params)

    @pytest.mark.parametrize("mode", ["paper", "nu-consistent"])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_couplings_together_are_each_alone(self, nu, mode):
        # every coupling is its own integral on the shared grids, so a value
        # is bit for bit the one its level gives alone
        each = [ModelParams(gamma=gamma, nu=nu, density_mode=DensityMode(mode))
                for gamma in (-0.5, 0.0, -1e-5, -1e3)]
        for n in (0, 3, 24):
            levels = [eigenvalue(p, n) for p in each]
            together = shannon_entropy(levels, each)
            alone = [shannon_entropy(lv, p) for lv, p in zip(levels, each)]
            np.testing.assert_array_equal(together, alone)

    def test_one_hermite_pass_for_every_coupling(self, monkeypatch):
        # the zeros once per level, and h_n once per tau grid: three
        # couplings make the calls of one
        calls = {"zeros": 0, "hermite": 0}
        zeros, hermite = _hermite_zeros, edho.wavefunction.hermite_fn_pair

        def counting_zeros(n):
            calls["zeros"] += 1
            return zeros(n)

        def counting_hermite(n, y):
            calls["hermite"] += 1
            return hermite(n, y)

        monkeypatch.setattr(edho.information, "_hermite_zeros", counting_zeros)
        monkeypatch.setattr(edho.wavefunction, "hermite_fn_pair",
                            counting_hermite)
        each = [ModelParams(gamma=gamma) for gamma in (-0.5, -0.2, -0.05)]
        seen = []
        for group in (each[:1], each):
            calls.update(zeros=0, hermite=0)
            shannon_entropy([eigenvalue(p, 24) for p in group], group)
            seen.append(dict(calls))
        assert seen == [{"zeros": 1, "hermite": 1}] * 2

    @pytest.mark.parametrize("gammas,n,match", [
        ((-0.5, -1e130), 0, "sqrt\\(lam\\)/b = 0 is below"),
        ((-0.5, -0.2), 681, "past n=680")])
    def test_one_failing_coupling_fails_all(self, gammas, n, match,
                                            monkeypatch):
        # each coupling is checked before the zeros, as it is alone
        def refuse(n):
            raise AssertionError("zeros computed for a refused coupling")

        monkeypatch.setattr(edho.information, "_hermite_zeros", refuse)
        each = [ModelParams(gamma=gamma) for gamma in gammas]
        with pytest.raises(DomainError, match=match):
            shannon_entropy([eigenvalue(p, n) for p in each], each)

    def test_levels_of_one_order_and_their_params(self):
        each = [ModelParams(gamma=-0.5), ModelParams(gamma=-0.2)]
        with pytest.raises(ValueError, match="one order"):
            shannon_entropy([eigenvalue(each[0], 1), eigenvalue(each[1], 2)],
                            each)
        with pytest.raises(ValueError, match="one order"):
            shannon_entropy([eigenvalue(each[0], 1)], each)

    def test_floor_convention_stable(self, monkeypatch):
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 2)
        a = shannon_entropy(level, params)
        monkeypatch.setattr(edho.information, "_RHO_FLOOR", 5e-301)
        b = shannon_entropy(level, params)
        assert abs(a - b) < 1e-9


class TestEntropyDensity:
    def test_gaussian_peak_value(self):
        params = ModelParams(gamma=0.0)
        level = eigenvalue(params, 0)
        peak = 1 / math.sqrt(math.pi)
        assert entropy_density(level, params, 0.0) == pytest.approx(
            peak * math.log(peak), rel=1e-12)

    def test_vanishes_far_out(self):
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 1)
        assert entropy_density(level, params, 1e3) == 0.0

    def test_even_in_position(self):
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 2)
        x = np.linspace(0, 8, 81)
        np.testing.assert_array_equal(entropy_density(level, params, x),
                                      entropy_density(level, params, -x))

    def test_rho_ln_rho_in_place(self):
        # 0 ln 0 = 0 at and below the floor, for a negative rho (gamma > 0
        # past the weight's zero) and for nan
        rho = np.array([0.5, 1e-300, 2e-300, 0.0, -0.1, np.nan, 1.0])
        out = _rho_ln_rho(rho)
        assert out is rho
        np.testing.assert_array_equal(
            rho, [0.5 * math.log(0.5), 0.0, 2e-300 * math.log(2e-300), 0.0,
                  0.0, 0.0, 0.0])

    def test_integrates_back_to_entropy(self):
        params = ModelParams(gamma=-0.3, nu=1)
        level = eigenvalue(params, 1)
        value, _ = integrate(lambda x: -entropy_density(level, params, x),
                             gaussian_window(level.lam, 1), 1e-11)
        assert value == pytest.approx(shannon_entropy(level, params), abs=1e-9)

