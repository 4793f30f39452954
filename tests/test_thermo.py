import math
import tracemalloc

import numpy as np
import pytest

from edho import (DomainError, ModelParams, eigenvalue,
                  reference_partition_function, saturation_limit,
                  specific_heat_curve)
from edho.spectrum import _energies
from edho.thermo import _CUT, _GREGORY, _HEAD, _tail_sum


def longdouble_point(gamma, nu, n_sat, beta):
    """(Z, U, Cv) by direct two-pass sums in longdouble over the levels
    0..n_sat and the plateau pseudo-level."""
    g = np.longdouble(gamma)
    half = np.arange(n_sat + 1, dtype=np.longdouble) + 0.5
    s = half * half
    # the positive roots without cancellation
    if nu == 1:
        energies = 2 * s / (np.sqrt(s * s * g * g + 4 * s) - s * g)
    else:
        energies = 2 * half / np.sqrt(4 - g * (2 * half) ** 2)
    energies = np.append(energies, 1 / np.abs(g) ** (np.longdouble(1) / nu))
    d = energies - energies[0]
    beta = np.longdouble(beta)
    w = np.exp(-beta * d)
    shift = (w * d).sum() / w.sum()
    cv = beta**2 * (w * (d - shift) ** 2).sum() / w.sum()
    return (float(np.exp(-beta * energies[0]) * w.sum()),
            float(energies[0] + shift), float(cv))


def head_boundary(params):
    """The beta at or below which the underflow cut reaches past the head."""
    e = _energies(params, [0, _HEAD])
    return _CUT / (e[1] - e[0])


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

    @pytest.mark.parametrize("beta", [1000.0, 1419.0, 1421.0, 1480.0])
    def test_past_sinh_overflow(self, beta):
        # sinh(beta/2) overflows past beta = 1420; Z = exp(-beta/2) there,
        # a subnormal number, and U, Cv are at their limits
        point = reference_partition_function(beta)
        assert point.Z == pytest.approx(math.exp(-beta / 2), rel=1e-13)
        assert (point.U, point.Cv) == (0.5, 0.0)


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

    def test_underflow_cut_changes_nothing(self):
        # the curve sums only the levels with exp(-beta d) > 0; where that
        # cut stops inside the head, the same two-pass sums over every
        # level give the same numbers bit for bit
        params = ModelParams(gamma=-3.2e-3, nu=1)
        betas = [0.01, 2.4, 20.0, 100.0]
        curve = specific_heat_curve(params, betas)
        n_sat = curve[0].N_used
        energies = np.append(_energies(params, np.arange(n_sat + 1)),
                             saturation_limit(params))
        d = energies - energies[0]
        # beta = 0.01 and 2.4 reach past the head: the tail sums them
        assert betas[1] < head_boundary(params) < betas[2]
        for beta, point in zip(betas[:2], curve):
            want = longdouble_point(-3.2e-3, 1, n_sat, beta)
            for got, ref in zip((point.Z, point.U, point.Cv), want):
                assert got == pytest.approx(ref, rel=1e-13, abs=0)
        for beta, point in zip(betas[2:], curve[2:]):
            w = np.exp(-beta * d)
            z = math.exp(-beta * energies[0]) * w.sum()
            shift = (w * d).sum() / w.sum()
            cv = beta * beta * (w * (d - shift) ** 2).sum() / w.sum()
            assert (point.Z, point.U, point.Cv) == (z, energies[0] + shift, cv)
        # most of the levels are cut at low temperature
        assert np.count_nonzero(np.exp(-100.0 * d)) < 100 < n_sat

    # n_sat from about 3e3 to 3e5, at nu = 1 and 2
    @pytest.mark.parametrize("nu,gamma", [(1, -0.3), (1, -0.2), (1, -0.03),
                                          (1, -3.2e-3), (2, -0.05),
                                          (2, -0.02), (2, -3e-4),
                                          (2, -5e-6)])
    def test_tail_against_longdouble_sum(self, nu, gamma):
        params = ModelParams(gamma=gamma, nu=nu)
        edge = head_boundary(params)
        betas = [1e-3, 0.05 * edge, 0.5 * edge, 0.999 * edge, 1.001 * edge,
                 2 * edge]
        curve = specific_heat_curve(params, betas)
        for beta, point in zip(betas, curve):
            want = longdouble_point(gamma, nu, point.N_used, beta)
            for got, ref in zip((point.Z, point.U, point.Cv), want):
                assert got == pytest.approx(ref, rel=1e-13, abs=0), beta

    # n_sat = _HEAD + len(_GREGORY) is the shortest level set whose tail
    # Gregory sums: its seven points at each end just fit; one level fewer
    # is the longest set summed whole
    @pytest.mark.parametrize("nu,gamma,n_sat", [
        pytest.param(nu, gamma, n_sat, id=f"{nu}-{gamma}")
        for nu, gamma, n_sat in [(1, -0.4985, _HEAD + len(_GREGORY)),
                                 (2, -0.1242, _HEAD + len(_GREGORY)),
                                 (1, -0.49863, _HEAD + len(_GREGORY) - 1),
                                 (2, -0.124316, _HEAD + len(_GREGORY) - 1)]])
    def test_shortest_tail_against_whole_sum(self, nu, gamma, n_sat):
        params = ModelParams(gamma=gamma, nu=nu)
        edge = head_boundary(params)
        betas = [1e-3, 0.05 * edge, 0.5 * edge, 0.999 * edge]
        curve = specific_heat_curve(params, betas)
        assert curve[0].N_used == n_sat
        for beta, point in zip(betas, curve):
            want = longdouble_point(gamma, nu, n_sat, beta)
            for got, ref in zip((point.Z, point.U, point.Cv), want):
                assert got == pytest.approx(ref, rel=1e-13, abs=0), beta

    @pytest.mark.parametrize("beta", [0.01, 0.03])
    def test_tail_sum_against_direct_sum(self, beta):
        # at weak coupling E_n is close to n + 1/2, so the tail terms fall
        # by e over 1/beta levels; at beta = 0.03 the sixth Gregory term
        # is worth 6e-14 of the tail, which the head hides in the curve
        params = ModelParams(gamma=-1e-4, nu=1)
        e0 = float(_energies(params, 0))
        tail, = _tail_sum(params, e0, 10**7, lambda d: np.exp(-beta * d))
        # past 40000 levels the terms are below exp(-400) of the first
        d = _energies(params, np.arange(_HEAD, _HEAD + 40000)) - e0
        direct = float(np.exp(-beta * d.astype(np.longdouble)).sum())
        assert tail == pytest.approx(direct, rel=2e-14, abs=0)

    def test_tail_past_the_old_level_cap(self):
        # n_sat is about 1e7; the oracle sums every level in chunks
        gamma, beta = -1e-4, 0.05
        params = ModelParams(gamma=gamma, nu=1)
        point, = specific_heat_curve(params, [beta])
        n_sat = point.N_used
        assert n_sat > 10**6
        e0 = float(_energies(params, 0))
        chunks = [(start, min(start + 10**6, n_sat + 1))
                  for start in range(0, n_sat + 1, 10**6)]

        def total(f):
            plateau = np.array([saturation_limit(params) - e0])
            return sum(float(f(_energies(params, np.arange(*chunk))
                               - e0).sum())
                       for chunk in chunks) + float(f(plateau).sum())

        w_sum = total(lambda d: np.exp(-beta * d))
        shift = total(lambda d: np.exp(-beta * d) * d) / w_sum
        cv = beta**2 * total(
            lambda d: np.exp(-beta * d) * (d - shift) ** 2) / w_sum
        assert point.Z == pytest.approx(math.exp(-beta * e0) * w_sum,
                                        rel=1e-13)
        assert point.U == pytest.approx(e0 + shift, rel=1e-13)
        assert point.Cv == pytest.approx(cv, rel=1e-13)

    def test_no_level_set_is_built(self):
        # all n_sat + 1 = 3.1e5 levels would take 2.5 MB per array
        params = ModelParams(gamma=-3.2e-3, nu=1)
        betas = np.linspace(0.01, 20, 80)
        tracemalloc.start()
        try:
            specific_heat_curve(params, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_frozen_limits_at_huge_beta(self, nu, gamma):
        # beta**2 overflows and the variance is exactly 0; sinh(beta/2)
        # overflows on the gamma = 0 route
        params = ModelParams(gamma=gamma, nu=nu)
        point, = specific_heat_curve(params, [1e300])
        e0 = eigenvalue(params, 0).energy
        assert (point.Z, point.U, point.Cv) == (0.0, e0, 0.0)

    @pytest.mark.parametrize("gamma", [-1e-3, -0.5])
    def test_accumulation_point_past_the_cut(self, gamma):
        # beta times the accumulation point's offset overflows; that term
        # is exactly 0, and no overflow warning is raised
        params = ModelParams(gamma=gamma, nu=1)
        beta, e0 = 1.7e308, eigenvalue(params, 0).energy
        assert beta * (saturation_limit(params) - e0) == math.inf
        point, = specific_heat_curve(params, [beta])
        assert (point.Z, point.U, point.Cv) == (0.0, e0, 0.0)

    def test_grid_validation(self):
        params = ModelParams(gamma=-0.5, nu=1)
        with pytest.raises(DomainError):
            specific_heat_curve(params, [])
        with pytest.raises(DomainError):
            specific_heat_curve(params, [1.0, 0.5])
        with pytest.raises(DomainError):
            specific_heat_curve(params, [-1.0, 1.0])
