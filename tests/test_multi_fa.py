import math

import numpy as np
import pytest

from trackassoc.geometry import ScanConfig, cross_alpha, diag_coeffs
from trackassoc.mc_oracle import TrialPlan, simulate_multi_fa
from trackassoc.multi_fa import (FalseAssocSet, MomentParams, compound_density,
                                 moment_params, prob_chi2, prob_exponential, prob_normal)
from trackassoc.quadrature import adaptive_integrate, gauss_hermite, normal_upper_tail
from trackassoc.single_fa import conditional_law, exact_probability
from trackassoc.tabulated import exponential_series, v1_variance_appendix, v1_variance_main

CONFIG40 = ScanConfig(n_scans=40)


def fa_last_k(k, lam, n=40):
    return FalseAssocSet(indices=tuple(range(n - k + 1, n + 1)), lambdas=(lam,) * k)


class TestFalseAssocSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            FalseAssocSet(indices=(), lambdas=())
        with pytest.raises(ValueError):
            FalseAssocSet(indices=(3, 3), lambdas=(1.0, 1.0))
        with pytest.raises(ValueError):
            FalseAssocSet(indices=(4, 3), lambdas=(1.0, 1.0))
        with pytest.raises(ValueError):
            FalseAssocSet(indices=(1, 2), lambdas=(1.0,))
        with pytest.raises(ValueError):
            FalseAssocSet(indices=(1,), lambdas=(-1.0,))

    def test_k(self):
        assert fa_last_k(3, 2.0).k == 3


class TestMomentParams:
    def test_single_scan_mean_matches_conditional_law(self):
        # m0 equals minus the Gauss-Hermite average of the conditional mean
        lam = 1.7
        config = ScanConfig(n_scans=40, lam=lam)
        fa = FalseAssocSet(indices=(40,), lambdas=(lam,))
        mp = moment_params(fa, CONFIG40)
        x, w = gauss_hermite(48)
        w2 = np.outer(w, w)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        means = np.empty_like(xx)
        for i in range(x.size):
            for j in range(x.size):
                means[i, j] = conditional_law((xx[i, j], yy[i, j]), 40, config).mean
        assert mp.m0 == pytest.approx(-float((w2 * means).sum()), rel=1e-10)
        a = cross_alpha(40, 40, CONFIG40)
        assert mp.m0 == pytest.approx(2 * a - a * lam**2, rel=1e-12)
        assert mp.m0 == pytest.approx(-diag_coeffs(40, CONFIG40).alpha * (2 - lam**2),
                                      rel=1e-12)

    def test_zero_offsets(self):
        fa = FalseAssocSet(indices=(10, 20, 30), lambdas=(0.0, 0.0, 0.0))
        mp = moment_params(fa, CONFIG40)
        expected = 2 * sum(cross_alpha(l, l, CONFIG40) for l in (10, 20, 30))
        assert mp.m0 == pytest.approx(expected, rel=1e-12)

    def test_moments_match_simulation(self):
        fa = fa_last_k(2, 2.0)
        mp = moment_params(fa, CONFIG40)
        plan = TrialPlan(trials=100_000, seed=31, config=CONFIG40, fa=fa)
        _, sample = simulate_multi_fa(plan)
        assert abs(mp.m0 - sample.m1_mean) <= 3 * sample.m1_mean_se
        assert abs(mp.sigma0_sq - sample.m1_var) <= 3 * sample.m1_var_se
        assert abs(mp.v0 - sample.v1_mean) <= 3 * sample.v1_mean_se
        assert abs(mp.s0_sq - sample.v1_var) <= 3 * sample.v1_var_se

    def test_tabulated_variants_fail_the_oracle(self):
        # both tabulated s0^2 variants are far from the simulated variance of v1
        # (FINDINGS.md); the exact variant is the default for that reason
        fa = fa_last_k(2, 2.0)
        exact = moment_params(fa, CONFIG40).s0_sq
        main = v1_variance_main(fa, CONFIG40)
        appendix = v1_variance_appendix(fa, CONFIG40)
        assert main < 0.25 * exact
        assert appendix < 0.5 * exact

    def test_positivity(self):
        mp = moment_params(fa_last_k(3, 1.0), CONFIG40)
        assert mp.sigma0_sq > 0 and mp.v0 > 0 and mp.s0_sq > 0

    def test_rejects_out_of_range_index(self):
        fa = FalseAssocSet(indices=(41,), lambdas=(1.0,))
        with pytest.raises(Exception):
            moment_params(fa, CONFIG40)


class TestProbChi2:
    def test_limits_in_m0(self):
        assert prob_chi2(2, MomentParams(-60.0, 4.0, 4.0, 8.0)) == pytest.approx(1.0, abs=1e-9)
        assert prob_chi2(2, MomentParams(+60.0, 4.0, 4.0, 8.0)) == pytest.approx(0.0, abs=1e-9)

    def test_sigma0_dominant(self):
        mp = MomentParams(m0=-3.0, sigma0_sq=1.0e6, v0=4.0, s0_sq=8.0)
        target = float(normal_upper_tail(-3.0 / 1000.0))
        assert prob_chi2(2, mp) == pytest.approx(target, abs=1e-6)

    def test_k2_against_oracle_spot(self):
        fa = fa_last_k(2, 2.0)
        mp = moment_params(fa, CONFIG40)
        est, _ = simulate_multi_fa(TrialPlan(trials=100_000, seed=13, config=CONFIG40, fa=fa))
        assert abs(prob_chi2(2, mp) - est.p_hat) <= 0.1

    def test_monotone_in_distance(self):
        vals = [prob_chi2(2, moment_params(fa_last_k(2, lam), CONFIG40))
                for lam in np.arange(1.0, 4.01, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_k_effect(self):
        p4 = prob_chi2(4, moment_params(fa_last_k(4, 3.5), CONFIG40))
        p8 = prob_chi2(8, moment_params(fa_last_k(8, 3.5), CONFIG40))
        assert p8 < p4

    def test_orientation_large_distance(self):
        assert prob_chi2(2, moment_params(fa_last_k(2, 6.0), CONFIG40)) >= 0.999


class TestProbNormal:
    def test_point_mass_limit(self):
        mp = MomentParams(m0=-2.0, sigma0_sq=3.0, v0=5.0, s0_sq=1e-12)
        target = float(normal_upper_tail(-2.0 / math.sqrt(3.0 + 5.0)))
        assert prob_normal(mp).value == pytest.approx(target, abs=1e-7)

    def test_matches_chi2_for_large_k(self):
        fa = fa_last_k(8, 2.0)
        mp = moment_params(fa, CONFIG40)
        assert abs(prob_normal(mp).value - prob_chi2(8, mp)) <= 0.05

    def test_k2_against_oracle_spot(self):
        fa = fa_last_k(2, 3.0)
        mp = moment_params(fa, CONFIG40)
        est, _ = simulate_multi_fa(TrialPlan(trials=100_000, seed=17, config=CONFIG40, fa=fa))
        assert abs(prob_normal(mp).value - est.p_hat) <= 0.1

    def test_negative_mass_flag(self):
        # single scan, zero offset: v0/s0 = 1 sigma -> ~16% mass below zero
        fa = FalseAssocSet(indices=(40,), lambdas=(0.0,))
        res = prob_normal(moment_params(fa, CONFIG40))
        assert res.negative_mass > 0.05
        assert res.unreliable

    def test_reliable_when_mass_negligible(self):
        res = prob_normal(moment_params(fa_last_k(8, 2.0), CONFIG40))
        assert res.negative_mass < 0.05
        assert not res.unreliable


class TestProbExponential:
    def test_rate_half_equals_chi2_two_dof(self):
        fa = FalseAssocSet(indices=(40,), lambdas=(2.0,))
        mp = moment_params(fa, CONFIG40)
        assert prob_exponential(mp, rate=0.5) == pytest.approx(prob_chi2(1, mp), abs=1e-6)

    def test_concentration_limit(self):
        mp = MomentParams(m0=-1.5, sigma0_sq=2.0, v0=4.0, s0_sq=8.0)
        target = float(normal_upper_tail(-1.5 / math.sqrt(2.0)))
        assert prob_exponential(mp, rate=1e7) == pytest.approx(target, abs=1e-5)

    def test_series_reported_with_diagnostic(self):
        mp = moment_params(fa_last_k(2, 2.5), CONFIG40)
        series, diagnostic = exponential_series(mp, rate=0.5, series_terms=8)
        assert diagnostic
        # the tabulated recursion does not reproduce the quadrature value
        assert math.isnan(series) or abs(series - prob_exponential(mp, rate=0.5)) > 1e-3

    def test_rejects_bad_rate(self):
        mp = MomentParams(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            prob_exponential(mp, rate=0.0)


class TestCompoundDensity:
    def test_point_mass_is_exact_normal(self):
        mp = MomentParams(m0=-2.0, sigma0_sq=3.0, v0=5.0, s0_sq=4.0)
        h = compound_density(mp, law="point")
        s = math.sqrt(mp.sigma0_sq + mp.v0)
        grid = np.linspace(-10, 14, 7)
        expected = np.exp(-0.5 * ((grid + mp.m0) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(h(grid), expected, rtol=1e-12)

    def test_normalization(self):
        mp = moment_params(fa_last_k(2, 2.0), CONFIG40)
        h = compound_density(mp, law="chi2", K=2)
        center = -mp.m0
        span = 14.0 * math.sqrt(mp.sigma0_sq + mp.v0)
        val, _ = adaptive_integrate(lambda d: h(d), center - span, center + span,
                                    abs_tol=1e-8)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_tail_matches_prob_chi2(self):
        mp = moment_params(fa_last_k(2, 2.0), CONFIG40)
        h = compound_density(mp, law="chi2", K=2)
        span = 14.0 * math.sqrt(mp.sigma0_sq + mp.v0)
        tail, _ = adaptive_integrate(lambda d: h(d), 0.0, span - min(mp.m0, 0.0),
                                     abs_tol=1e-8)
        assert tail == pytest.approx(prob_chi2(2, mp), abs=1e-6)

    def test_tail_matches_prob_normal(self):
        mp = moment_params(fa_last_k(8, 2.0), CONFIG40)
        h = compound_density(mp, law="normal")
        span = 14.0 * math.sqrt(mp.sigma0_sq + mp.v0)
        tail, _ = adaptive_integrate(lambda d: h(d), 0.0, span - min(mp.m0, 0.0),
                                     abs_tol=1e-8)
        assert tail == pytest.approx(prob_normal(mp).value, abs=1e-4)

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            compound_density(MomentParams(-1, 1, 1, 1), law="cauchy")


class TestSingleScanConsistency:
    # the compound route stacks a normal approximation of the conditional mean
    # on top of the variance law, so a ~0.1 band is expected; measured maxima
    # on lam in [1.5, 4]: 0.1016 (chi2 route, at 1.5) and 0.0997 (normal route)
    @pytest.mark.parametrize("lam,tol", [(1.5, 0.105), (2.0, 0.1), (2.5, 0.1), (4.0, 0.1)])
    def test_chi2_route_close_to_exact(self, lam, tol):
        config = ScanConfig(n_scans=40, lam=lam)
        fa = FalseAssocSet(indices=(40,), lambdas=(lam,))
        mp = moment_params(fa, CONFIG40)
        exact = exact_probability(40, config)
        assert abs(prob_chi2(1, mp) - exact) <= tol
        assert abs(prob_normal(mp).value - exact) <= tol
