import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_hermite

from edho import (DensityMode, DomainError, ModelParams, density,
                  density_gradient_sq_terms, eigenvalue, entropy_density,
                  gaussian_window, integrate, perey_factor, psi, psi_prime,
                  weight)
from edho.wavefunction import _BLOCK, hermite_fn_pair

DBL_MAX = np.finfo(float).max


def _norm(level, params):
    value, _ = integrate(lambda x: density(level, params, x),
                         gaussian_window(level.lam, level.n), 1e-11)
    return value


def _hermite_by_steps(n, y):
    """The recurrence as one new array per operation: the reference of the
    in-place kernel, whose results must equal it bit for bit."""
    y_arr = np.asarray(y, dtype=float)
    h_prev = np.zeros_like(y_arr)[()]
    h = math.pi ** -0.25 * np.exp(-0.5 * y_arr * y_arr)
    for k in range(n):
        h, h_prev = (y_arr * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1)) * h_prev), h
    return h, h_prev


def _grid():
    return np.random.default_rng(19).uniform(-40.0, 40.0, (513, 101))


# two blocks and a ragged third; one block; Fortran order; a strided view
_SHAPES = {
    "ragged": lambda: np.random.default_rng(7).uniform(-40.0, 40.0, 70_001),
    "grid": _grid,
    "transposed": lambda: _grid().T,
    "strided": lambda: _grid()[::3, 1::2],
    "0-d": lambda: np.array(-2.5),
    "float": lambda: 3.25,
    "empty": lambda: np.empty(0),
}


class TestHermite:
    def test_reference_values(self):
        assert hermite_fn_pair(0, 0.0)[0] == pytest.approx(math.pi ** -0.25,
                                                           rel=1e-14)
        assert hermite_fn_pair(1, 0.0)[0] == 0.0
        y = 1.3
        h5 = (32 * y**5 - 160 * y**3 + 120 * y)
        expected = h5 * math.exp(-y * y / 2) / math.sqrt(
            2**5 * math.factorial(5) * math.sqrt(math.pi))
        assert hermite_fn_pair(5, y)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 7, 23, 60])
    def test_against_scipy(self, n):
        y = np.linspace(-9.0, 9.0, 41)
        norm = math.exp(-0.5 * (n * math.log(2) + math.lgamma(n + 1)
                                + 0.5 * math.log(math.pi)))
        expected = eval_hermite(n, y) * np.exp(-0.5 * y * y) * norm
        np.testing.assert_allclose(hermite_fn_pair(n, y)[0], expected,
                                   rtol=1e-10, atol=1e-12)

    def test_recurrence(self):
        y = np.linspace(-5, 5, 11)
        for n in range(1, 40):
            lhs = hermite_fn_pair(n + 1, y)[0]
            rhs = (y * math.sqrt(2 / (n + 1)) * hermite_fn_pair(n, y)[0]
                   - math.sqrt(n / (n + 1)) * hermite_fn_pair(n - 1, y)[0])
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-13)

    def test_no_overflow_large_order(self):
        values = hermite_fn_pair(1000, np.linspace(-40, 40, 81))[0]
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("n", [0, 1, 2, 60, 200, 680])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_in_place_blocks_equal_the_step_formula(self, n, shape):
        y = _SHAPES[shape]()
        before = np.array(y, copy=True)
        h, h_prev = hermite_fn_pair(n, y)
        expected = _hermite_by_steps(n, y)
        assert np.array_equal(h, expected[0])
        assert np.array_equal(h_prev, expected[1])
        assert np.shape(h) == np.shape(h_prev) == np.shape(y)
        assert np.array_equal(np.asarray(y), before)  # the caller's y
        assert not np.shares_memory(h, h_prev)
        assert not np.shares_memory(h, y)
        assert not np.shares_memory(h_prev, y)

    def test_huge_arguments_give_zeros_without_warning(self):
        # unclipped, y**2 overflows past |y| ~ 1.9e154 and the k = 0 step's
        # sqrt(2) y past 1.27e308; the kernel clips each block of y at
        # +-1e150, and the caller's y is not written
        y = np.array([1e200, 1.7e308, -DBL_MAX, np.inf, -np.inf, 40.0])
        before = y.copy()
        for n in (0, 1, 3, 60):
            h, h_prev = hermite_fn_pair(n, y)
            assert np.array_equal(h, np.zeros(6))
            assert np.array_equal(h_prev, np.zeros(6))
        assert np.array_equal(y, before)

    def test_peak_memory_is_the_two_outputs(self):
        # the outputs and three block buffers; the step-by-step formula
        # held four arrays of y's size at once
        y = np.linspace(-30.0, 30.0, 400_000)
        tracemalloc.start()
        try:
            hermite_fn_pair(20, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * y.nbytes + 4 * _BLOCK * y.itemsize


class TestNormalization:
    def test_textbook_ground_state(self):
        params = ModelParams(gamma=0.0)
        level = eigenvalue(params, 0)
        # f(0) = 1, H_0 = 1, so rho(0) is exactly the squared constant
        assert density(level, params, 0.0) == pytest.approx(
            1 / math.sqrt(math.pi), rel=1e-14)

    def test_first_case_constant(self):
        params = ModelParams(gamma=-1.0, nu=1)
        level = eigenvalue(params, 0)
        lam = level.lam
        expected = math.sqrt(lam) / math.sqrt(math.pi) / (1 + 1 / (4 * lam))
        assert density(level, params, 0.0) == pytest.approx(expected,
                                                            rel=1e-13)
        assert level.lam == pytest.approx(0.7807764064044151, rel=1e-12)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("gamma", [0.0, -0.1, -0.5, -1.0])
    def test_unit_norm(self, gamma, nu):
        params = ModelParams(gamma=gamma, nu=nu)
        for n in (0, 1, 2, 5, 13, 29, 50):
            level = eigenvalue(params, n)
            assert _norm(level, params) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_unit_norm_at_order_limit(self, gamma):
        # n = 680 is the largest order psi takes; the exp(-y**2/2) start of
        # the recurrence underflows inside the support just past it
        params = ModelParams(gamma=gamma, nu=1)
        assert _norm(eigenvalue(params, 680), params) == pytest.approx(
            1.0, rel=0, abs=1e-13)

    @pytest.mark.parametrize("kernel", [psi, psi_prime, density])
    def test_past_order_limit_is_domain_error(self, kernel):
        params = ModelParams(gamma=-0.5, nu=1)
        with pytest.raises(DomainError, match="past n=680"):
            kernel(eigenvalue(params, 681), params, 0.0)

    @pytest.mark.parametrize("gamma, nu", [(-1e110, 1), (-1e160, 2)])
    def test_unit_norm_at_huge_coupling(self, gamma, nu):
        # sqrt(lam)/b is about 1e-275 (nu = 1) and 1e-280 (nu = 2) here,
        # still in the normal float range
        params = ModelParams(gamma=gamma, nu=nu)
        for n in (0, 1, 2):
            assert _norm(eigenvalue(params, n), params) == pytest.approx(
                1.0, rel=0, abs=1e-13)

    @pytest.mark.parametrize("kernel", [psi, psi_prime, density])
    @pytest.mark.parametrize("gamma, nu, n", [(-1e123, 1, 2), (-1e130, 1, 0),
                                              (-1e177, 2, 0), (-1e190, 2, 0)])
    def test_subnormal_scale_is_domain_error(self, kernel, gamma, nu, n):
        # sqrt(lam)/b is subnormal or 0 here, where psi and rho read 0 or
        # lost their precision
        params = ModelParams(gamma=gamma, nu=nu)
        with pytest.raises(DomainError, match="below the normal float range"):
            kernel(eigenvalue(params, n), params, 0.0)

    def test_unit_norm_nu_consistent_mode(self):
        params = ModelParams(gamma=-0.25, nu=2,
                             density_mode=DensityMode.NU_CONSISTENT)
        for n in (0, 1, 4):
            level = eigenvalue(params, n)
            assert _norm(level, params) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_modified_product_first_case(self):
        # with f = 1 - (gamma/2) x**2 the cross terms cancel exactly for
        # nu=1 even though each level carries its own lambda
        for nu, gamma in ((1, 0.0), (1, -0.5), (1, -2.0)):
            params = ModelParams(gamma=gamma, nu=nu)
            levels = [eigenvalue(params, n) for n in range(7)]
            for i, lm in enumerate(levels):
                for ln in levels[i + 1:]:
                    if (ln.n - lm.n) % 2:
                        continue
                    window = gaussian_window(min(lm.lam, ln.lam), ln.n)
                    val, _ = integrate(
                        lambda x: (psi(lm, params, x) * psi(ln, params, x)
                                   * weight(params, x, ln)),
                        window, 1e-10)
                    assert abs(val) < 1e-8

    def test_orthogonality_breaks_for_second_case(self):
        # for nu=2 a single shared weight cannot serve every level pair, so
        # mixed-lambda states pick up a visible overlap (reported, not
        # asserted, by the validate subcommand)
        params = ModelParams(gamma=-0.25, nu=2)
        lm, ln = eigenvalue(params, 0), eigenvalue(params, 2)
        window = gaussian_window(min(lm.lam, ln.lam), ln.n)
        val, _ = integrate(
            lambda x: (psi(lm, params, x) * psi(ln, params, x)
                       * weight(params, x, ln)),
            window, 1e-10)
        assert abs(val) > 1e-3


class TestDensity:
    def test_gaussian_peak(self):
        params = ModelParams(gamma=0.0)
        level = eigenvalue(params, 0)
        assert density(level, params, 0.0) == pytest.approx(
            1 / math.sqrt(math.pi), rel=1e-13)

    def test_peak_equals_norm_constant(self):
        for nu in (1, 2):
            params = ModelParams(gamma=-1.0, nu=nu)
            level = eigenvalue(params, 0)
            lam = level.lam
            # f(0) = 1, H_0 = 1, so rho(0) is exactly the squared constant
            # sqrt(lam) / sqrt(pi) / brace, with brace = 1 + 1/(4 lam) at n = 0
            assert density(level, params, 0.0) == pytest.approx(
                math.sqrt(lam) / math.sqrt(math.pi) / (1 + 1 / (4 * lam)),
                rel=1e-13)

    def test_far_tail_underflows_cleanly(self):
        params = ModelParams(gamma=-0.5, nu=1)
        for n in (0, 3, 20):
            level = eigenvalue(params, n)
            value = density(level, params, 1e3)
            assert value == 0.0 or value < 1e-300
            assert not math.isnan(value)

    def test_zero_where_the_weight_overflows(self):
        # past |x| ~ sqrt(DBL_MAX / |g|), 2.7e154 at gamma = -0.5, g x**2
        # overflows to inf while psi has long underflowed to 0: rho is 0
        # there, not nan, and no warning is raised
        x = np.array([-DBL_MAX, -1e160, -3e154, 0.0, 3e154, 1e160, DBL_MAX])
        for gamma, nu in ((-0.5, 1), (-1e6, 2)):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in (0, 1, 5, 680):
                level = eigenvalue(params, n)
                rho = density(level, params, x)
                assert np.array_equal(rho[x != 0], np.zeros(6))
                assert rho[3] == density(level, params, 0.0)

    @pytest.mark.parametrize("mode", list(DensityMode))
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("levels, x", [
        (range(0, 20), np.linspace(-6.0, 6.0, 241)),
        # a grid longer than the density command's blocks of 4096 values
        (range(37, 45), np.linspace(-9.0, 9.0, 5001)),
        (range(660, 681), np.array([-DBL_MAX, -1e160, -40.0, 0.0, 1.5,
                                    38.0, 3e154, np.inf])),
        (range(3, 4), np.array(0.75)),  # one level at a scalar x
    ], ids=["n0-20", "long-grid", "order-limit", "scalar"])
    def test_levels_batch_equals_each_level(self, levels, x, nu, mode):
        # one Hermite pass over consecutive levels, with n_min > 0 and
        # up to the order limit; each row is the level's own array, bit
        # for bit, and no warning is raised
        params = ModelParams(gamma=-0.5, nu=nu, density_mode=mode)
        each = [eigenvalue(params, n) for n in levels]
        rows = density(each, params, x)
        assert rows.shape == (len(each), *np.shape(x))
        for level, row in zip(each, rows):
            assert np.array_equal(row, density(level, params, x))

    def test_levels_batch_refuses_what_a_level_refuses(self):
        params = ModelParams(gamma=-0.5)
        each = [eigenvalue(params, n) for n in range(678, 682)]
        with pytest.raises(DomainError, match="n=681 is past"):
            density(each, params, np.linspace(-1.0, 1.0, 5))
        for bad in ([], each[:1] + each[2:], each[::-1]):
            with pytest.raises(ValueError, match="consecutive levels"):
                density(bad, params, 0.0)

    def test_parity(self):
        params = ModelParams(gamma=-0.5, nu=1)
        x = np.linspace(0, 6, 61)
        for n in (0, 1, 2, 7):
            level = eigenvalue(params, n)
            np.testing.assert_array_equal(density(level, params, x),
                                          density(level, params, -x))

    def test_nonnegative(self):
        x = np.linspace(-10, 10, 401)
        for nu, gamma in ((1, -1.0), (2, -0.5)):
            params = ModelParams(gamma=gamma, nu=nu)
            for n in (0, 4, 11):
                level = eigenvalue(params, n)
                assert np.all(density(level, params, x) >= 0)


class TestGradientTerms:
    def test_weight_free_case_kills_terms(self):
        params = ModelParams(gamma=0.0)
        level = eigenvalue(params, 0)
        _, t2, t3 = density_gradient_sq_terms(level, params, 0.7)
        assert t2 == 0.0 and t3 == 0.0

    def test_even_state_stationary_at_origin(self):
        params = ModelParams(gamma=-0.5, nu=1)
        level = eigenvalue(params, 0)
        t1, t2, _ = density_gradient_sq_terms(level, params, 0.0)
        assert t1 == pytest.approx(0.0, abs=1e-30)
        assert t2 == 0.0

    def test_sum_matches_finite_difference(self):
        params = ModelParams(gamma=-0.5, nu=1)
        for n, x in ((1, 0.7), (2, 1.3), (0, 0.4)):
            level = eigenvalue(params, n)
            t1, t2, t3 = density_gradient_sq_terms(level, params, x)
            h = 1e-5
            rho = density(level, params, x)
            drho = (density(level, params, x + h)
                    - density(level, params, x - h)) / (2 * h)
            assert t1 + t2 + t3 == pytest.approx(drho * drho / rho, rel=1e-6)

    def test_psi_prime_matches_finite_difference(self):
        params = ModelParams(gamma=-0.3, nu=2)
        level = eigenvalue(params, 4)
        h = 1e-6
        for x in (0.3, 1.1, 2.6):
            fd = (psi(level, params, x + h) - psi(level, params, x - h)) / (2 * h)
            assert psi_prime(level, params, x) == pytest.approx(fd, rel=1e-6)


class TestPereyFactor:
    def test_reference_values(self):
        assert perey_factor(ModelParams(gamma=0.0), 3.7) == 1.0
        assert perey_factor(ModelParams(gamma=-2.0), 1.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)
        assert perey_factor(ModelParams(gamma=-0.5), 0.0) == 1.0

    def test_at_least_unity_for_negative_coupling(self):
        x = np.linspace(-20, 20, 401)
        for gamma in (-1e-5, -0.5, -2.0):
            values = perey_factor(ModelParams(gamma=gamma), x)
            assert np.all(values >= 1.0)
            assert perey_factor(ModelParams(gamma=gamma), 0.0) == 1.0

    def test_finite_where_the_weight_overflows(self):
        # sqrt(1 + |g| x**2) is hypot(1, sqrt(|g|) x) where g x**2
        # overflows (|g| = 1/4 here, so 0.5 |x|), and inf only where
        # sqrt(|g|) |x| does too
        x = np.array([-1e160, -3e154, 1e154, 1e160, 1e300, DBL_MAX])
        values = perey_factor(ModelParams(gamma=-0.5), x)
        np.testing.assert_allclose(values, 0.5 * abs(x), rtol=1e-15)
        assert np.all(np.isfinite(values))
        assert perey_factor(ModelParams(gamma=-1e6), DBL_MAX) == math.inf
        assert perey_factor(ModelParams(gamma=-1e6), 1e300) == \
            pytest.approx(math.sqrt(5e5) * 1e300, rel=1e-15)

    def test_negative_weight_rejected(self):
        params = ModelParams(gamma=0.5, permissive=True)
        with pytest.raises(DomainError):
            perey_factor(params, 10.0)


_PARAMS = ModelParams(gamma=-0.5, nu=2)
_LEVEL = eigenvalue(_PARAMS, 3)
# kernel -> its outputs at x, as a tuple
SCALAR_KERNELS = {
    "hermite_fn_pair": lambda x: hermite_fn_pair(3, x),
    "hermite_fn_pair-n0": lambda x: hermite_fn_pair(0, x),
    "weight": lambda x: (weight(_PARAMS, x, _LEVEL),),
    "perey_factor": lambda x: (perey_factor(_PARAMS, x),),
    "psi": lambda x: (psi(_LEVEL, _PARAMS, x),),
    "density": lambda x: (density(_LEVEL, _PARAMS, x),),
    "entropy_density": lambda x: (entropy_density(_LEVEL, _PARAMS, x),),
}


@pytest.mark.parametrize("kernel", sorted(SCALAR_KERNELS))
def test_scalar_input_gives_the_array_element(kernel):
    # x = 40 underflows the density, so rho ln rho takes its 0 ln 0 = 0 rule
    xs = np.array([-7.5, -1.25, 0.0, 0.5, 3.0, 40.0])
    arrays = SCALAR_KERNELS[kernel](xs)
    for i, x in enumerate(xs):
        for scalar in (float(x), np.array(x)):
            for value, array in zip(SCALAR_KERNELS[kernel](scalar), arrays):
                assert np.ndim(value) == 0 and isinstance(value, float)
                assert value == array[i]
