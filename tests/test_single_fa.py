import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from trackassoc.geometry import ScanConfig, diag_coeffs, leverage
from trackassoc.mc_oracle import TrialPlan, simulate_single_fa
from trackassoc.quadrature import normal_upper_tail
from trackassoc.single_fa import (RandomLambda, closed_form_coefficients,
                                  closed_form_probability, conditional_law, exact_probability,
                                  first_order_probability, fit_gammas, random_lambda_probability)
from trackassoc.tabulated import (a_integral, b_integral, conditional_box_probability,
                                  eta_coeff, reassembled_probability)

from numeric_helpers import gauss_hermite, simulate_conditional

APPROX = fit_gammas(10)


class TestConditionalLaw:
    def test_noise_on_decoy_degenerates(self):
        config = ScanConfig(n_scans=20, lam=2.0)
        law = conditional_law((0.0, -2.0), 20, config)
        assert law.mean == pytest.approx(0.0, abs=1e-12)
        assert law.variance == pytest.approx(0.0, abs=1e-12)

    def test_zero_noise_mean_positive(self):
        config = ScanConfig(n_scans=20, lam=2.0)
        law = conditional_law((0.0, 0.0), 20, config)
        c = diag_coeffs(20, config)
        assert law.mean == pytest.approx(-c.alpha * 4.0, rel=1e-12)
        assert law.mean > 0

    @pytest.mark.parametrize("e", [(0.7, -0.3), (1.5, 0.2)])
    def test_ks_against_simulation(self, e):
        # cost-difference samples at fixed scan-l noise follow the stated normal law
        config = ScanConfig(n_scans=20, lam=2.0)
        law = conditional_law(e, 20, config)
        delta = simulate_conditional(e, 20, config, trials=100_000, seed=99)
        _, pvalue = kstest(delta, "norm", args=(law.mean, math.sqrt(law.variance)))
        assert pvalue > 0.01


def polar_oracle(l, config):
    """E[upper tail of conditional_law] over e ~ N(0, I2), by scipy in polar
    coordinates about the decoy, where the tail argument is smooth."""
    lam = config.lam

    def f(rho, phi):
        x, y = rho * math.cos(phi), -lam + rho * math.sin(phi)
        law = conditional_law((x, y), l, config)
        tail = float(normal_upper_tail(-law.mean / math.sqrt(law.variance)))
        return tail * math.exp(-0.5 * (x * x + y * y)) * rho / (2.0 * math.pi)

    val, _ = integrate.dblquad(f, 0.0, 2.0 * math.pi, 0.0, math.inf,
                               epsabs=1e-12, epsrel=1e-12)
    return val


def poisson_series(h, lam):
    """Exact one-decoy P from the scan's leverage h alone, as a Poisson series in float64.

    Swapping the scan's measurement for the decoy changes the cost by
    (1 - h)(|Y|^2 - |X|^2): X and Y are the measurement's and the decoy's
    offsets from the leave-one-out prediction, two correlated circular
    Gaussians, with s^2 = h / (1 - h). P(|X|^2 < |Y|^2) is Q1(a, b) - c e^(-(a^2+b^2)/2) I0(ab)
    (Stein 1964; Proakis, Digital Communications, App. B), which with A = a^2/2
    and B = b^2/2 is sum_j Pois(j; A) [P(Pois(B) <= j) - c Pois(j; B)].
    """
    s2 = h / (1.0 - h)
    w = 1.0 / (4.0 * s2)
    r = w * math.sqrt(1.0 + 4.0 * s2)
    v1, v2 = r - w, r + w
    c = v2 / (v1 + v2)
    a1, a2 = 2.0 * lam * lam * (1.0 + s2), -lam * lam
    A = v1 * v1 * v2 * (a1 * v2 - a2) / (v1 + v2) ** 2
    B = v1 * v2 * v2 * (a1 * v1 + a2) / (v1 + v2) ** 2

    def pois(j, x):
        return math.exp(j * math.log(x) - x - math.lgamma(j + 1)) if x > 0 else float(j == 0)

    terms, cdf_b = [], 0.0
    for j in range(int(A + 15.0 * math.sqrt(A)) + 41):   # Pois(A) mass past: < 1e-50, A <= 100
        pb = pois(j, B)
        cdf_b += pb
        terms.append(pois(j, A) * (min(cdf_b, 1.0) - c * pb))
    return math.fsum(terms)


class TestExactProbability:
    def test_poisson_series_at_zero_offset(self):
        # the oracle's own check: at lam = 0 the series is its first term, 1 - c
        for n, l in [(5, 1), (10, 5), (40, 40), (200, 100)]:
            h = leverage(l, ScanConfig(n_scans=n))
            want = 0.5 * (1.0 - math.sqrt((1.0 - h) / (1.0 + 3.0 * h)))
            assert poisson_series(h, 0.0) == pytest.approx(want, abs=1e-15)

    def test_matches_poisson_series_on_a_dense_grid(self):
        # the engine asks its quadrature for 1e-12; from one starting panel it
        # converged falsely at lam >= 7.5, up to 5.4e-10 off (FINDINGS 21).
        # 749 points: N 5..200, scans 1, N/2, N-1 and N, lam 0..10 in steps of
        # 0.625, and (20, 2, 8.75), the worst of the one-panel start
        grid = {(n, l, float(lam)) for n in (5, 7, 8, 10, 13, 20, 26, 40, 70, 120, 200)
                for l in {1, n // 2, n - 1, n} for lam in np.arange(0.0, 10.001, 0.625)}
        misses = []
        for n, l, lam in sorted(grid | {(20, 2, 8.75)}):
            config = ScanConfig(n_scans=n, lam=lam)
            gap = abs(exact_probability(l, config) - poisson_series(leverage(l, config), lam))
            if gap > 1e-12:
                misses.append((n, l, lam, gap))
        assert misses == []

    def test_far_decoy(self):
        assert exact_probability(40, ScanConfig(n_scans=40, lam=8.0)) >= 0.999

    @pytest.mark.parametrize("n,l,lam", [(20, 20, 1.0), (20, 20, 2.0), (20, 20, 3.0),
                                         (40, 40, 1.0), (40, 40, 2.0), (40, 40, 3.0),
                                         (20, 20, 1.5), (100, 50, 2.5), (10, 3, 0.5)])
    def test_matches_polar_oracle(self, n, l, lam):
        config = ScanConfig(n_scans=n, lam=lam)
        assert abs(exact_probability(l, config) - polar_oracle(l, config)) <= 1e-9

    def test_monotone_in_distance(self):
        vals = [exact_probability(20, ScanConfig(n_scans=20, lam=lam))
                for lam in np.arange(1.0, 6.001, 0.1)]
        diffs = np.diff(vals)
        assert (diffs >= -1e-12).all()

    def test_matches_oracle(self):
        config = ScanConfig(n_scans=20, lam=2.5)
        est, = simulate_single_fa(TrialPlan(trials=100_000, seed=7, config=config, scan=20))
        assert abs(exact_probability(20, config) - est.p_hat) <= 3 * est.stderr

    def test_flat_in_scan_index(self):
        # the probability barely depends on which scan is contaminated
        config = ScanConfig(n_scans=40, lam=2.0)
        ref = exact_probability(40, config)
        vals = [exact_probability(l, config) for l in range(1, 41)]
        assert max(abs(v - ref) for v in vals) <= 0.03

    def test_rejects_fractional_scan(self):
        with pytest.raises(ValueError):
            exact_probability(2.5, ScanConfig(n_scans=20, lam=2.0))

    def test_cross_method_cartesian_expectation(self):
        # Gauss-Hermite expectation of the conditional tail in Cartesian noise
        # coordinates; only loosely accurate (bounded discontinuity at the decoy)
        # but a fully independent formulation of the same integral
        config = ScanConfig(n_scans=40, lam=2.0)
        c = diag_coeffs(40, config)
        x, w = gauss_hermite(96)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w)
        num = -c.alpha * (xx**2 + yy**2 - config.lam**2)
        den = 2.0 * math.sqrt(c.beta) * np.hypot(xx, yy + config.lam)
        psi = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
        cartesian = float((ww * normal_upper_tail(psi)).sum())
        assert cartesian == pytest.approx(exact_probability(40, config), abs=5e-3)


class TestIndicatorApprox:
    def test_single_box_weight(self):
        approx = fit_gammas(1)
        mass = 1.0 - 2.0 * float(normal_upper_tail(3.0))
        assert approx.gammas[0] == pytest.approx(mass, abs=1e-12)
        assert approx.gammas[0] == pytest.approx(0.9973002039367398, abs=1e-12)

    @pytest.mark.parametrize("n", (1, 2, 5, 10, 20))
    def test_total_weight_is_widest_box_mass(self, n):
        approx = fit_gammas(n)
        widest = 1.0 - 2.0 * float(normal_upper_tail(3.0))
        assert sum(approx.gammas) == pytest.approx(widest, abs=1e-10)

    @pytest.mark.parametrize("n", (1, 2, 5, 10, 20))
    def test_inverse_weighted_sum_is_narrowest_box_mass(self, n):
        approx = fit_gammas(n)
        narrowest = 1.0 - 2.0 * float(normal_upper_tail(3.0 / n))
        assert approx.sum_g_over_i == pytest.approx(narrowest, abs=1e-10)

    def test_slope_positive(self):
        for n in (1, 3, 10, 25):
            assert fit_gammas(n).slope > 0

    def test_reconstruction_error_decreases(self):
        grid = np.linspace(-4.0, 4.0, 2001)
        target = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
        errors = []
        for n in range(1, 13):
            approx = fit_gammas(n)
            resid = approx.density(grid) - target
            errors.append(math.sqrt(np.trapezoid(resid**2, grid)))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fit_gammas(0)
        with pytest.raises(ValueError):
            fit_gammas(5, support_k=0.0)


class TestBoxProbabilityIdentity:
    @pytest.mark.parametrize("lam", (0.5, 2.0))
    def test_zero_variance_keeps_the_true_measurement(self, lam):
        # noise that puts the true measurement on the decoy leaves the cost
        # difference with zero mean and zero variance, so it is >= 0 for sure
        config = ScanConfig(n_scans=40, lam=lam)
        assert conditional_law((0.0, -lam), 40, config).variance == 0.0
        assert conditional_box_probability((0.0, -lam), 40, config, APPROX) == 1.0

    def test_two_forms_agree(self):
        # direct box evaluation vs the rearranged indicator-sum form (pure algebra)
        config = ScanConfig(n_scans=40, lam=2.0)
        l = 40
        c = diag_coeffs(l, config)
        n = APPROX.n_steps
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.standard_normal(2) * 1.5
            direct = conditional_box_probability((x, y), l, config, APPROX)
            lam = config.lam
            dist = math.sqrt(x * x + (y + lam) ** 2)
            if dist == 0.0:
                continue
            ftilde = (x * x + y * y - lam * lam) / dist
            law = conditional_law((x, y), l, config)
            std = math.sqrt(law.variance)
            total = 0.0
            cross = 0.0
            for i in range(1, n + 1):
                half = 3.0 * i / n * std
                sup = law.mean + half >= 0
                inf = law.mean - half >= 0
                total += APPROX.gammas[i - 1] / 2.0 * (sup + inf)
                cross += APPROX.gammas[i - 1] / i * (sup - inf)
            rearranged = total + (n / 12.0) * (c.alpha / math.sqrt(c.beta)) * ftilde * cross
            assert rearranged == pytest.approx(direct, abs=1e-12)

    def test_box_probability_tracks_normal_tail(self):
        # staircase approximation of the conditional tail is close to the erfc value
        config = ScanConfig(n_scans=40, lam=2.0)
        law_prob = []
        box_prob = []
        for e in [(0.3, -0.4), (1.0, 0.5), (-0.6, 0.1)]:
            law = conditional_law(e, 40, config)
            law_prob.append(float(normal_upper_tail(-law.mean / math.sqrt(law.variance))))
            box_prob.append(conditional_box_probability(e, 40, config, APPROX))
        np.testing.assert_allclose(box_prob, law_prob, atol=0.02)


class TestClosedForm:
    def test_far_decoy_is_one(self):
        config = ScanConfig(n_scans=40, lam=6.0)
        assert closed_form_probability(40, config, APPROX).value == pytest.approx(1.0, abs=1e-6)

    def test_zero_distance_is_finite(self):
        config = ScanConfig(n_scans=40, lam=0.0)
        a, _, _ = closed_form_coefficients(40, config, APPROX)
        result = closed_form_probability(40, config, APPROX)
        assert math.isfinite(result.value)
        assert result.value == pytest.approx(1.0 + a, rel=1e-12)

    def test_large_n_asymptote(self):
        # mid-track scan at N=100: within 0.02 of 1 - e^{-lam^2/2}/(2 pi)
        config = ScanConfig(n_scans=100, lam=2.0)
        target = 1.0 - math.exp(-2.0) / (2.0 * math.pi)
        assert closed_form_probability(50, config, APPROX).value == pytest.approx(
            target, abs=0.02)

    def test_clamp_flag(self):
        # small N drives the quadratic form above 1: 1.0142 before clamping
        config = ScanConfig(n_scans=5, lam=2.6)
        assert closed_form_probability(5, config, APPROX) == (1.0, True)

    @pytest.mark.parametrize("form", ["closed-form", "first-order", "random-lambda"])
    def test_below_zero_is_clamped(self, form):
        # at lam = 0 and small N each form is negative (-0.124, -0.542 and
        # -0.124 before clamping); all three report it the same way
        approx = fit_gammas(1)
        n, l = (10, 10) if form == "first-order" else (5, 5)
        config = ScanConfig(n_scans=n, lam=0.0)
        if form == "closed-form":
            a, _, _ = closed_form_coefficients(l, config, approx)
            assert 1.0 + a < 0.0
            result = closed_form_probability(l, config, approx)
        elif form == "first-order":
            result = first_order_probability(l, config, approx)
        else:
            result = random_lambda_probability(RandomLambda(0.0, 0.0), l, config, approx)
        assert result == (0.0, True)

    def test_reassembly_mismatch_is_the_documented_one(self):
        # the independent reassembly from the box integrals does not reproduce
        # the tabulated coefficients (FINDINGS.md); freeze the gap's scale
        config = ScanConfig(n_scans=40, lam=2.0)
        gap = (reassembled_probability(40, config, APPROX)
               - closed_form_probability(40, config, APPROX).value)
        assert abs(gap) > 0.02


class TestFirstOrder:
    def test_limit_matches_plain_exponential(self):
        config = ScanConfig(n_scans=5000, lam=2.0)
        assert first_order_probability(5000, config, APPROX).value == pytest.approx(
            1.0 - math.exp(-2.0), abs=0.01)

    def test_increases_with_n(self):
        vals = [first_order_probability(n, ScanConfig(n_scans=n, lam=2.0), APPROX).value
                for n in range(10, 41, 2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tracks_exact_shape(self):
        ns = list(range(10, 41, 2))
        exact = [exact_probability(n, ScanConfig(n_scans=n, lam=2.0)) for n in ns]
        fo = [first_order_probability(n, ScanConfig(n_scans=n, lam=2.0), APPROX).value
              for n in ns]
        corr = np.corrcoef(np.diff(exact), np.diff(fo))[0, 1]
        assert corr > 0.9


def brute_force_box_integrals(eta, lam, ngrid=4001, span=10.0):
    """Cartesian-grid oracle for the box acceptance/first-moment integrals."""
    xs = np.linspace(-span, span, ngrid)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    dist = np.hypot(x, y + lam)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(dist > 0, (x * x + y * y - lam * lam) / np.where(dist > 0, dist, 1.0), 0.0)
    w = np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)
    cell = (xs[1] - xs[0]) ** 2
    a_val = float((w * ((f <= eta).astype(float) + (f <= -eta))).sum() * cell)
    b_val = float((w * f * ((f >= -eta) & (f <= eta))).sum() * cell)
    return a_val, b_val


class TestBoxIntegrals:
    def test_a_integral_small_eta_limit(self):
        config = ScanConfig(n_scans=40, lam=2.0)
        wide = fit_gammas(200)     # i=1 of many boxes -> tiny eta
        val = a_integral(1, 40, config, wide)
        assert val == pytest.approx(-2.0 * math.exp(-2.0), rel=1e-2)

    def test_b_integral_sign_flip(self):
        wide = fit_gammas(10)
        lo = b_integral(1, 40, ScanConfig(n_scans=40, lam=0.70), wide)
        hi = b_integral(1, 40, ScanConfig(n_scans=40, lam=0.72), wide)
        assert lo > 0 > hi

    @pytest.mark.parametrize("i", (1, 2))
    def test_b_integral_against_brute_force(self, i):
        # the tabulated closed form carries a known coefficient bias
        # ((1-2*lam^2)/2 instead of (1-lam^2)); measured ~18% at lam=2 (FINDINGS.md)
        config = ScanConfig(n_scans=40, lam=2.0)
        eta = eta_coeff(i, 40, config, APPROX)
        _, b_brute = brute_force_box_integrals(eta, 2.0)
        closed = b_integral(i, 40, config, APPROX)
        assert abs(closed - b_brute) / abs(b_brute) < 0.20
        corrected = (1.0 - 4.0) / 3.0 * math.exp(-2.0) * eta**3
        assert abs(corrected - b_brute) / abs(b_brute) < 0.06

    def test_a_integral_against_brute_force(self):
        # restoring the +2 constant folded into the final closed form
        config = ScanConfig(n_scans=40, lam=2.0)
        eta = eta_coeff(1, 40, config, APPROX)
        a_brute, _ = brute_force_box_integrals(eta, 2.0)
        assert a_integral(1, 40, config, APPROX) + 2.0 == pytest.approx(a_brute, abs=0.02)

    @pytest.mark.parametrize("i", (0, 11))
    def test_eta_rejects_a_box_outside_1_to_n(self, i):
        with pytest.raises(ValueError, match="box index outside 1..n_steps"):
            eta_coeff(i, 40, ScanConfig(n_scans=40, lam=2.0), APPROX)

    def test_eta_positive(self):
        config = ScanConfig(n_scans=40, lam=2.0)
        for i in (1, 5, 10):
            assert eta_coeff(i, 40, config, APPROX) > 0


class TestRandomLambda:
    def test_degenerate_sigma_matches_fixed(self):
        config = ScanConfig(n_scans=40, lam=1.7)
        fixed = closed_form_probability(40, config, APPROX).value
        rl = RandomLambda(lambda0=1.7, sigma0=0.0)
        assert random_lambda_probability(rl, 40, config, APPROX).value == pytest.approx(
            fixed, rel=1e-14)

    @pytest.mark.parametrize("lam0,sig0", [(1.5, 1.0), (2.5, 1.0), (2.0, 3.0)])
    def test_equals_gaussian_average_of_closed_form(self, lam0, sig0):
        config = ScanConfig(n_scans=40)
        a, b, c = closed_form_coefficients(40, config, APPROX)
        x, w = gauss_hermite(96)
        lam = lam0 + sig0 * x
        avg = float(w @ (1.0 + (a + b * lam + c * lam**2) * np.exp(-(lam**2) / 2.0)))
        rl = RandomLambda(lambda0=lam0, sigma0=sig0)
        assert random_lambda_probability(rl, 40, config, APPROX).value == pytest.approx(
            avg, abs=1e-9)

    def test_large_n_limit_consistent_with_formula(self):
        # limit consistent with the formula's own exponent e^{-lam0^2/(2(s^2+1))}
        sig0 = 2.0
        lam0 = 2.0
        rl = RandomLambda(lambda0=lam0, sigma0=sig0)
        config = ScanConfig(n_scans=5000)
        target = 1.0 - (1.0 / math.sqrt(sig0**2 + 1.0)) \
            * math.exp(-lam0**2 / (2.0 * (sig0**2 + 1.0))) / (2.0 * math.pi)
        assert random_lambda_probability(rl, 2500, config, APPROX).value == pytest.approx(
            target, abs=0.005)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            RandomLambda(lambda0=1.0, sigma0=-0.5)

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_parameters(self, x):
        for args in ((x, 1.0), (1.0, x)):
            with pytest.raises(ValueError):
                RandomLambda(*args)
