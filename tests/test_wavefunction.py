import math

import numpy as np
import pytest
from scipy.special import eval_hermite

from edho import (DensityMode, DomainError, ModelParams, density,
                  density_gradient_sq_terms, eigenvalue, entropy_density,
                  gaussian_window, integrate, perey_factor, psi, psi_prime,
                  weight)
from edho.wavefunction import hermite_fn_pair


def _norm(level, params):
    value, _ = integrate(lambda x: density(level, params, x),
                         gaussian_window(level.lam, level.n), 1e-11)
    return value


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
        for value, array in zip(SCALAR_KERNELS[kernel](float(x)), arrays):
            assert np.ndim(value) == 0 and isinstance(value, float)
            assert value == array[i]
