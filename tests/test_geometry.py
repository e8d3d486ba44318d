import tracemalloc

import numpy as np
import pytest

from trackassoc.geometry import (GeometryError, ScanConfig, build_design, build_projector,
                                 cross_alpha, cross_theta, diag_coeffs, leverage)
from trackassoc.geometry import _excluded_sums
from trackassoc.tabulated import variance_polynomials

GRID_N = (5, 10, 20, 40, 80)


def scaled_projector(n_scans, dt):
    """Residual projector of the design with epochs at times 0, dt, ..., n_scans*dt (via QR)."""
    taus = np.arange(n_scans + 1) * dt
    x = np.column_stack((np.ones_like(taus), taus))
    q, _ = np.linalg.qr(x)
    return np.eye(x.shape[0]) - q @ q.T


def numeric_phi(config, indices, m=None):
    m = build_projector(config) if m is None else m
    sel = np.eye(config.epochs)
    for l in indices:
        sel[l, l] = 0.0
    return m @ sel @ m


def interleaved_projector(config):
    """The projector of both coordinates at once, built as one 2 epochs x 2 epochs array.

    The state is (x1, y1, vx, vy) and epoch j contributes the row pair
    [I2 | j I2], x in row 2j and y in row 2j + 1; the hat matrix H is turned
    into I - H in place, as ``build_projector`` does.
    """
    taus = np.arange(config.epochs, dtype=float)
    x = np.zeros((2 * config.epochs, 4))
    x[0::2, 0] = x[1::2, 1] = 1.0
    x[0::2, 2] = x[1::2, 3] = taus
    m = x @ np.linalg.solve(x.T @ x, x.T)
    np.subtract(0.0, m, out=m)
    m.flat[::m.shape[0] + 1] += 1.0
    return m


class TestScanConfig:
    def test_rejects_small_n(self):
        with pytest.raises(GeometryError):
            ScanConfig(n_scans=4)

    def test_rejects_bad_dt_and_lam(self):
        # the epoch spacing is not a parameter: none changes the projector
        with pytest.raises(TypeError):
            ScanConfig(n_scans=10, dt=2.0)
        with pytest.raises(GeometryError):
            ScanConfig(n_scans=10, lam=-1.0)

    @pytest.mark.parametrize("lam", (float("nan"), float("inf"), -float("inf")))
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(GeometryError):
            ScanConfig(n_scans=10, lam=lam)

    def test_epochs(self):
        assert ScanConfig(n_scans=7).epochs == 8


class TestDesign:
    def test_first_two_epoch_blocks(self):
        x = build_design(ScanConfig(n_scans=5))
        np.testing.assert_array_equal(x[:2], np.array([[1, 0], [1, 1]], dtype=float))

    def test_time_scaling(self):
        # epoch j sits at tau = j
        x = build_design(ScanConfig(n_scans=5))
        np.testing.assert_array_equal(x[:, 1], np.arange(6.0))

    @pytest.mark.parametrize("n", GRID_N)
    def test_full_column_rank(self, n):
        x = build_design(ScanConfig(n_scans=n))
        assert np.linalg.matrix_rank(x) == 2


class TestProjector:
    @pytest.mark.parametrize("dt", (1e-3, 0.5, 2.0, 1e3))
    def test_epoch_spacing_changes_nothing(self, dt):
        # scaling the time column keeps the design's column space
        for n in (5, 40, 200):
            np.testing.assert_allclose(scaled_projector(n, dt),
                                       build_projector(ScanConfig(n_scans=n)),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", GRID_N)
    def test_identities(self, n):
        config = ScanConfig(n_scans=n)
        m = build_projector(config)
        assert np.abs(m - m.T).max() <= 1e-10
        assert np.abs(m @ m - m).max() <= 1e-10
        assert np.abs(m @ build_design(config)).max() <= 1e-10
        assert abs(np.trace(m) - (config.epochs - 2)) <= 1e-10

    def test_trace_value_n10(self):
        # 11 rows minus the 2 fitted parameters
        m = build_projector(ScanConfig(n_scans=10))
        assert np.trace(m) == pytest.approx(9.0, abs=1e-10)

    def test_bit_for_bit_identity_minus_hat(self):
        # compared as integers, so a -0 where I - H has +0 fails
        for n in range(5, 201):
            x = build_design(ScanConfig(n_scans=n))
            expected = np.eye(x.shape[0]) - x @ np.linalg.solve(x.T @ x, x.T)
            m = build_projector(ScanConfig(n_scans=n))
            assert np.array_equal(m.view(np.uint64), expected.view(np.uint64)), n

    @pytest.mark.parametrize("ns", (range(5, 20), range(20, 40), range(40, 200), range(200, 201)),
                             ids=lambda ns: str(ns.start))
    def test_coordinates_decouple_bit_for_bit(self, ns):
        # the projector of both coordinates at once has the per-coordinate
        # projector as its x and y blocks and +0 as every cross entry, bit for
        # bit, at every N from 5 to 200: one coordinate's projector serves both
        for n in ns:
            config = ScanConfig(n_scans=n)
            m, both = build_projector(config), interleaved_projector(config)
            for coord in (0, 1):
                block = both[coord::2, coord::2]
                assert np.array_equal(block.view(np.uint64), m.view(np.uint64)), (n, coord)
                assert not both[coord::2, 1 - coord::2].view(np.uint64).any(), (n, coord)

    def test_normal_matrix_is_well_conditioned(self):
        # build_projector checks no conditioning: cond(X'X) grows as 4 N^2 / 3,
        # far under 1e12 at every N a projector fits in memory
        def cond(n):
            x = build_design(ScanConfig(n_scans=n))
            return np.linalg.cond(x.T @ x)

        for n in range(5, 201):
            assert cond(n) < 1e12, n
        for n in (1_000, 10_000):
            assert cond(n) / n**2 == pytest.approx(4 / 3, rel=0.01), n

    def test_build_holds_one_projector_sized_array(self):
        config = ScanConfig(n_scans=200)
        build_projector(config)          # numpy's and LAPACK's lazy set-up is not counted
        tracemalloc.start()
        try:
            build_projector(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * config.epochs ** 2 * 8


class TestDiagCoeffs:
    @pytest.mark.parametrize("n", (10, 20, 40))
    def test_alpha_matches_projector_block(self, n):
        config = ScanConfig(n_scans=n)
        m = build_projector(config)
        for l in (1, n // 2, n):
            c = diag_coeffs(l, config)
            np.testing.assert_allclose(m[l, l], -c.alpha, rtol=0, atol=1e-8)

    def test_alpha_last_scan_closed_form(self):
        for n in GRID_N:
            c = diag_coeffs(n, ScanConfig(n_scans=n))
            assert c.alpha == pytest.approx(n * (1 - n) / ((n + 1) * (n + 2)), rel=1e-12)

    def test_alpha_tends_to_minus_one(self):
        assert diag_coeffs(5000, ScanConfig(n_scans=5000)).alpha == pytest.approx(-1.0, abs=1e-3)

    def test_alpha_in_open_interval(self):
        for n in GRID_N:
            config = ScanConfig(n_scans=n)
            for l in range(1, n + 1):
                a = diag_coeffs(l, config).alpha
                assert -1.0 < a < 0.0

    @pytest.mark.parametrize("n", (10, 20, 40))
    def test_beta_matches_numeric_phi(self, n):
        config = ScanConfig(n_scans=n)
        for l in (1, n // 2, n):
            phi = numeric_phi(config, [l])
            beta = diag_coeffs(l, config).beta
            np.testing.assert_allclose(phi[l, l], beta, rtol=0, atol=1e-8)

    def test_beta_positive_and_dt_invariant(self):
        # the coefficients are those of the projector at any epoch spacing
        config = ScanConfig(n_scans=40)
        c = diag_coeffs(13, config)
        assert c.beta > 0
        for dt in (0.5, 1.0, 2.0):
            m = scaled_projector(40, dt)
            phi = numeric_phi(config, [13], m)
            assert phi[13, 13] == pytest.approx(c.beta, rel=1e-10)
            assert -m[13, 13] == pytest.approx(c.alpha, rel=1e-12)

    def test_beta_asymptote_last_scan(self):
        # beta(l=N) ~ 4/N for large N; within 10% by N=100
        beta = diag_coeffs(100, ScanConfig(n_scans=100)).beta
        assert abs(4.0 / 100 - beta) / beta < 0.10

    def test_quadratic_form_identity(self):
        # (e-fa)' Phi (e-fa) = beta * |e-fa|^2 for vectors supported on scan l,
        # summed over the x and y coordinates (the columns of q)
        config = ScanConfig(n_scans=20)
        l = 7
        phi = numeric_phi(config, [l])
        beta = diag_coeffs(l, config).beta
        rng = np.random.default_rng(123)
        for _ in range(25):
            q = np.zeros((config.epochs, 2))
            q[l] = rng.standard_normal(2)
            lhs = np.einsum("ic,ij,jc->", q, phi, q)
            assert lhs == pytest.approx(beta * (q * q).sum(), abs=1e-8)

    def test_scan_index_bounds(self):
        config = ScanConfig(n_scans=10)
        with pytest.raises(GeometryError):
            diag_coeffs(0, config)
        with pytest.raises(GeometryError):
            diag_coeffs(11, config)


class TestVariancePolynomials:
    def test_q1_constant_term(self):
        # q1 is quadratic in the scan index; extrapolating the implemented
        # values at l = 1, 2, 3 back to l = 0 must hit 4N^3 - 50N^2 - 18N + 4
        for n in (5, 10, 40):
            config = ScanConfig(n_scans=n)
            q1 = [variance_polynomials(l, config)[0] for l in (1, 2, 3)]
            at_zero = 3 * q1[0] - 3 * q1[1] + q1[2]
            nf = float(n)
            assert at_zero == pytest.approx(4 * nf**3 - 50 * nf**2 - 18 * nf + 4, rel=1e-12)

    def test_combination_dt_invariant(self):
        # the tabulated cubics at spacing dt, with their 1/dt and 1/dt^2
        # factors, combine to the unit-spacing combination at every dt
        n, l = 30.0, 11
        q1, q2, q3 = variance_polynomials(l, ScanConfig(n_scans=30))
        unit = q1 + 2 * l * q2 + l**2 * q3
        for dt in (1e-3, 0.5, 2.0, 1e3):
            t2 = -(6.0 / dt) * (n**2 - 5 * n - 2 + 4 * l * (1 + 1 / n - 3 * l / n))
            t3 = (36.0 / dt**2) * (n / 3 - 1 + (2 / n) * (1.0 / 3 + 2 * l - 2 * l / n**2))
            assert q1 + 2 * l * dt * t2 + l**2 * dt**2 * t3 == pytest.approx(unit, rel=1e-12)

    def test_combination_bias_vs_oracle_is_the_documented_one(self):
        # the tabulated combination does NOT reproduce the projector oracle;
        # freeze the measured ratio so any silent change is caught (FINDINGS.md)
        config = ScanConfig(n_scans=40)
        q1, q2, q3 = variance_polynomials(40, config)
        tabulated = (q1 + 2 * 40 * q2 + 40**2 * q3) / ((41 * 42) ** 2)
        oracle = diag_coeffs(40, config).beta
        assert tabulated / oracle == pytest.approx(2.4442, abs=2e-3)


class TestCrossCoeffs:
    def test_cross_alpha_diagonal_sign_convention(self):
        config = ScanConfig(n_scans=25)
        for l in (1, 12, 25):
            assert cross_alpha(l, l, config) == pytest.approx(
                -diag_coeffs(l, config).alpha, rel=1e-12)

    def test_cross_alpha_symmetry(self):
        config = ScanConfig(n_scans=25)
        for a, b in ((1, 2), (3, 17), (24, 25)):
            assert cross_alpha(a, b, config) == cross_alpha(b, a, config)

    def test_cross_alpha_off_diagonal_matches_projector(self):
        config = ScanConfig(n_scans=12)
        m = build_projector(config)
        for a in range(1, 13):
            for b in range(1, 13):
                assert cross_alpha(a, b, config) == pytest.approx(m[a, b], abs=1e-10)

    def test_cross_theta_matches_numeric_phi(self):
        config = ScanConfig(n_scans=40)
        indices = (5, 20, 39, 40)
        phi = numeric_phi(config, indices)
        for a in indices:
            for b in indices:
                assert cross_theta(a, b, indices, config) == pytest.approx(
                    phi[a, b], abs=1e-10)

    def test_cross_theta_single_index_equals_beta(self):
        config = ScanConfig(n_scans=40)
        for l in (1, 20, 40):
            assert cross_theta(l, l, (l,), config) == pytest.approx(
                diag_coeffs(l, config).beta, rel=1e-12)

    def test_cross_theta_symmetry(self):
        config = ScanConfig(n_scans=30)
        indices = (3, 9, 27)
        for a in indices:
            for b in indices:
                assert cross_theta(a, b, indices, config) == cross_theta(b, a, indices, config)

    def test_excluded_sum_changes_by_squared_term(self):
        config = ScanConfig(n_scans=30)
        n = 30
        j = 11
        s1_without, _, _ = _excluded_sums((5, j), config)
        s1_with, _, _ = _excluded_sums((5,), config)
        assert s1_with - s1_without == pytest.approx((4 * n + 2 - 6 * j) ** 2, rel=1e-12)

    @pytest.mark.parametrize("fa", ((4, 4), (3, 4, 3)))
    def test_cross_theta_rejects_a_repeated_index(self, fa):
        with pytest.raises(GeometryError, match="contaminated indices must be distinct"):
            cross_theta(3, 4, fa, ScanConfig(n_scans=10))

    def test_cross_theta_rejects_outside_index(self):
        config = ScanConfig(n_scans=10)
        with pytest.raises(GeometryError):
            cross_theta(3, 4, (4, 5), config)
