import math

import numpy as np
import pytest

from edho import (DomainError, ModelParams, eigenvalue,
                  reference_partition_function, saturation_limit,
                  specific_heat_curve)


class TestReference:
    def test_closed_form_vs_direct_sum(self):
        point = reference_partition_function(1.0)
        direct = sum(math.exp(-(n + 0.5)) for n in range(10**4))
        assert point.Z == pytest.approx(direct, rel=1e-12)
        assert point.Z == pytest.approx(1 / (2 * math.sinh(0.5)), rel=1e-14)

    def test_ground_state_energy_limit(self):
        assert reference_partition_function(200.0).U == pytest.approx(0.5, abs=1e-12)

    def test_specific_heat_vs_log_derivative(self):
        beta, h = 2.0, 1e-5
        lnz = [math.log(reference_partition_function(b).Z)
               for b in (beta - h, beta, beta + h)]
        cv_fd = beta**2 * (lnz[0] - 2 * lnz[1] + lnz[2]) / h**2
        point = reference_partition_function(beta)
        assert point.Cv == pytest.approx(1 / math.sinh(1.0) ** 2, rel=1e-12)
        assert point.Cv == pytest.approx(cv_fd, rel=1e-5)

    def test_requires_positive_beta(self):
        with pytest.raises(DomainError):
            reference_partition_function(0.0)


class TestPartitionFunction:
    def test_saturation_split_direct_sum(self):
        params = ModelParams(gamma=-2.0, nu=1)
        point = specific_heat_curve(params, [1.0], eps_sat=1e-3)[0]
        assert point.N_used == 16
        oracle = sum(math.exp(-eigenvalue(params, n).energy)
                     for n in range(17)) + math.exp(-0.5)
        assert point.Z == pytest.approx(oracle, rel=1e-13)

    def test_zero_coupling_routes_to_reference(self):
        point = specific_heat_curve(ModelParams(gamma=0.0), [2.0])[0]
        assert point.N_used is None
        assert point.Z == pytest.approx(1 / (2 * math.sinh(1.0)), rel=1e-13)

    def test_strong_coupling_saturates_to_unity(self):
        # all levels saturated: Z collapses toward the single plateau term
        params = ModelParams(gamma=-100.0, nu=1)
        point = specific_heat_curve(params, [1e-4], eps_sat=0.5)[0]
        assert point.N_used == 0
        assert point.Z == pytest.approx(2.0, abs=1e-2)  # n=0 term + plateau

    def test_z_exceeds_saturation_term(self):
        for beta in (0.1, 1.0, 10.0, 100.0):
            params = ModelParams(gamma=-0.5, nu=1)
            point = specific_heat_curve(params, [beta], eps_sat=1e-4)[0]
            assert point.Z > math.exp(-beta * saturation_limit(params))

    def test_moments_match_log_derivatives(self):
        params = ModelParams(gamma=-0.5, nu=1)
        h = 1e-3
        for beta in (0.1, 1.0, 5.0, 10.0, 20.0):
            grid = (beta - h, beta, beta + h)
            pts = dict(zip(grid, specific_heat_curve(params, grid,
                                                     eps_sat=1e-6)))
            lnz = {b: math.log(p.Z) for b, p in pts.items()}
            u_fd = -(lnz[beta + h] - lnz[beta - h]) / (2 * h)
            assert pts[beta].U == pytest.approx(u_fd, rel=1e-6)
            # second differences of lnZ lose precision in the frozen
            # regime, so the Cv oracle check stops at beta = 10
            if beta <= 10.0:
                cv_fd = beta**2 * (lnz[beta - h] - 2 * lnz[beta]
                                   + lnz[beta + h]) / h**2
                assert pts[beta].Cv == pytest.approx(cv_fd, rel=1e-4, abs=1e-8)

    def test_monotone_in_saturation_tolerance(self):
        params = ModelParams(gamma=-0.5, nu=1)
        last_n = -1
        last_z = 0.0
        for eps in (1e-2, 1e-4, 1e-6):
            point = specific_heat_curve(params, [1.0], eps_sat=eps)[0]
            assert point.N_used >= last_n
            assert point.Z >= last_z
            last_n, last_z = point.N_used, point.Z


class TestSpecificHeatCurve:
    def test_small_coupling_matches_textbook(self):
        params = ModelParams(gamma=-1e-5, nu=1)
        betas = np.linspace(0.5, 10, 39)
        curve = specific_heat_curve(params, betas, eps_sat=0.5)
        for point in curve:
            ref = reference_partition_function(point.beta)
            assert point.Cv == pytest.approx(ref.Cv, abs=1e-2)

    @pytest.mark.parametrize("nu,gamma", [(1, -0.5), (2, -0.5)])
    def test_interior_peak_and_frozen_limits(self, nu, gamma):
        params = ModelParams(gamma=gamma, nu=nu)
        betas = np.concatenate(([1e-3, 1e-2], np.linspace(0.1, 40, 120), [1e3]))
        curve = specific_heat_curve(params, betas, eps_sat=1e-6)
        cv = np.array([p.Cv for p in curve])
        assert np.all(cv >= 0)
        peak = int(np.argmax(cv))
        assert 0 < peak < len(cv) - 1
        assert cv[0] < cv[peak] and cv[-1] < 1e-3
        # slope changes sign exactly once around the peak
        slopes = np.sign(np.diff(cv[cv > 1e-12]))
        assert np.sum(np.diff(slopes) != 0) >= 1

    @pytest.mark.parametrize("gamma,beta", [(-3.2e-3, 40.0), (-0.5, 40.0),
                                            (-3.2e-3, 20.0)])
    def test_low_temperature_against_longdouble_sum(self, gamma, beta):
        # beta**2 (<E**2> - U**2) cancels here, to 0.0 at gamma = -3.2e-3,
        # beta = 40, where the sum is 7.7e-15
        params = ModelParams(gamma=gamma, nu=1)
        point = specific_heat_curve(params, [beta])[0]
        g = np.longdouble(gamma)
        s = (np.arange(point.N_used + 1, dtype=np.longdouble) + 0.5) ** 2
        # positive root of E**2 - s g E - s = 0 without cancellation, then
        # the plateau pseudo-level 1/|g|
        energies = np.append(2 * s / (np.sqrt(s * s * g * g + 4 * s) - s * g),
                             -1 / g)
        d = energies - energies[0]
        w = np.exp(-np.longdouble(beta) * d)
        shift = (w * d).sum() / w.sum()
        cv = beta**2 * (w * (d - shift) ** 2).sum() / w.sum()
        assert point.U == pytest.approx(float(energies[0] + shift), rel=1e-12,
                                       abs=0)
        assert point.Cv == pytest.approx(float(cv), rel=1e-12, abs=0)

    def test_grid_validation(self):
        params = ModelParams(gamma=-0.5, nu=1)
        with pytest.raises(DomainError):
            specific_heat_curve(params, [])
        with pytest.raises(DomainError):
            specific_heat_curve(params, [1.0, 0.5])
        with pytest.raises(DomainError):
            specific_heat_curve(params, [-1.0, 1.0])
