import math

import numpy as np
import pytest

from trackassoc.quadrature import IntegrationError, adaptive_integrate, normal_upper_tail

from numeric_helpers import gauss_hermite


def reference_upper_tail(x):
    """From-scratch standard-normal upper tail (series core, continued-fraction tail).

    Independent of scipy: Taylor series of the central integral for |x| <= 4,
    backward-recurrence continued fraction for the far tail.
    """
    if x < 0:
        return 1.0 - reference_upper_tail(-x)
    if x <= 4.0:
        # integral of pdf over [0, x] as an alternating series
        term = x
        total = x
        k = 0
        while abs(term) > 1e-22 * max(1.0, abs(total)):
            k += 1
            term *= -x * x / (2.0 * k)
            total += term / (2 * k + 1)
        return 0.5 - total / math.sqrt(2.0 * math.pi)
    # Q(x) = pdf(x) / (x + 1/(x + 2/(x + 3/(x + ...))))
    cf = 0.0
    for k in range(200, 0, -1):
        cf = k / (x + cf)
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return pdf / (x + cf)


class TestNormalUpperTail:
    def test_center(self):
        assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_limits(self):
        assert normal_upper_tail(40.0) == 0.0
        assert normal_upper_tail(-40.0) == pytest.approx(1.0, abs=1e-15)

    def test_quantile_1p96(self):
        # frozen from reference_upper_tail(1.96)
        assert reference_upper_tail(1.96) == pytest.approx(0.024997895148220595, abs=1e-16)
        assert normal_upper_tail(1.96) == pytest.approx(0.024997895148220595, abs=1e-14)

    def test_symmetry(self):
        x = np.linspace(-6, 6, 121)
        np.testing.assert_allclose(normal_upper_tail(-x), 1.0 - normal_upper_tail(x),
                                   rtol=0, atol=1e-15)

    def test_against_independent_reference(self):
        for x in np.linspace(-4, 4, 321):
            assert normal_upper_tail(x) == pytest.approx(reference_upper_tail(x), abs=1e-14)
        for x in np.linspace(4, 30, 53):
            assert normal_upper_tail(x) == pytest.approx(reference_upper_tail(x), rel=1e-11)

    @pytest.mark.parametrize("arg", [3, 0.7, np.float64(-1.5), np.array(2.0),
                                     np.linspace(-3.0, 3.0, 7), np.ones((2, 3))],
                             ids=["int", "float", "float64", "0-d", "1-d", "2-d"])
    def test_result_type_and_shape(self, arg):
        # a scalar or 0-d input gives a float64 scalar, an array a float array of its shape
        got = normal_upper_tail(arg)
        if np.ndim(arg):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == np.shape(arg)
        else:
            assert type(got) is np.float64

    def test_special_values(self):
        got = normal_upper_tail(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))
        np.testing.assert_array_equal(got, [0.5, 0.5, 0.0, 1.0, np.nan, np.nan])
        assert normal_upper_tail(-0.0) == 0.5 and math.isnan(normal_upper_tail(math.nan))


class TestGaussHermite:
    def test_weight_normalization(self):
        for order in (1, 2, 16, 48, 128):
            _, w = gauss_hermite(order)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_second_moment(self):
        x, w = gauss_hermite(24)
        assert float(w @ x**2) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment(self):
        x, w = gauss_hermite(24)
        assert float(w @ x**4) == pytest.approx(3.0, abs=1e-12)

    def test_polynomial_exactness(self):
        # E[Z^8] = 105 needs order >= 5
        x, w = gauss_hermite(5)
        assert float(w @ x**8) == pytest.approx(105.0, rel=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(10_000)


class TestGaussLegendreTables:
    @pytest.mark.parametrize("order", (7, 15))
    def test_literal_tables_are_leggauss_bit_for_bit(self, order):
        # the package writes the 7- and 15-point rules out so that it never
        # imports numpy.polynomial; they must be leggauss's doubles
        from trackassoc import quadrature

        x, w = np.polynomial.legendre.leggauss(order)
        np.testing.assert_array_equal(getattr(quadrature, f"_X{order}").view(np.uint64),
                                      x.view(np.uint64))
        np.testing.assert_array_equal(getattr(quadrature, f"_W{order}").view(np.uint64),
                                      w.view(np.uint64))


class TestAdaptiveIntegrate:
    def test_chi2_density_normalization(self):
        def density(v):
            return 0.5 * np.exp(-v / 2.0)   # chi-square with 2 dof

        val, err = adaptive_integrate(density, 0.0, 60.0, abs_tol=1e-9)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-8

    def test_half_angle_sine(self):
        val, _ = adaptive_integrate(lambda t: np.sin(t / 2.0) ** 2, 0.0, 2.0 * np.pi,
                                    abs_tol=1e-12)
        assert val == pytest.approx(np.pi, abs=1e-11)

    def test_matches_gauss_hermite(self):
        def f(x):
            return np.cos(x) * np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)

        val, _ = adaptive_integrate(f, -12.0, 12.0, abs_tol=1e-12)
        x, w = gauss_hermite(64)
        assert val == pytest.approx(float(w @ np.cos(x)), abs=1e-8)

    def test_max_depth_error_carries_estimate(self):
        def nasty(x):
            return np.abs(x - math.pi / 10.0) ** -0.5

        with pytest.raises(IntegrationError) as exc:
            adaptive_integrate(nasty, 0.0, 1.0, abs_tol=1e-13, max_depth=6)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error_bound > 0

    def test_nonfinite_integrand_raises(self):
        # a nan panel never meets the tolerance; at the default depth bisecting it
        # would take 2^48 panels
        with pytest.raises(IntegrationError, match="not finite"):
            adaptive_integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, max_depth=12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(np.exp, 1.0, 1.0)

    @pytest.mark.parametrize("abs_tol", (0.0, -1e-10))
    def test_bad_tolerance(self, abs_tol):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            adaptive_integrate(np.exp, 0.0, 1.0, abs_tol=abs_tol)

    def test_bad_panel_count(self):
        with pytest.raises(ValueError):
            adaptive_integrate(np.exp, 0.0, 1.0, panels=0)


def narrow_bump(x):
    # the nearest nodes of the 7/15-point pair on all of [-50, 50] sit at 0 and
    # 10.06, 6 widths or more from the bump (exp(-36) < 3e-16), so both rules
    # see the constant 1
    return 1.0 + np.exp(-((x - 3.0) / 0.5) ** 2)


class TestSeedPartition:
    BUMP = 100.0 + 0.5 * math.sqrt(math.pi)

    def test_one_panel_converges_falsely_on_a_narrow_feature(self):
        # no error is raised: the two rules agree to 1e-14, so the panel is accepted
        val, err = adaptive_integrate(narrow_bump, -50.0, 50.0, abs_tol=1e-12)
        assert err < 1e-12
        assert abs(val - self.BUMP) > 0.8

    def test_seed_partition_finds_it(self):
        val, _ = adaptive_integrate(narrow_bump, -50.0, 50.0, abs_tol=1e-12, panels=20)
        assert val == pytest.approx(self.BUMP, abs=1e-12)

    @pytest.mark.parametrize("f,a,b,abs_tol,value,error", [
        (narrow_bump, -50.0, 50.0, 1e-12, "0x1.9000000000000p+6", "0x1.0000000000000p-46"),
        (lambda v: 0.5 * np.exp(-v / 2.0), 0.0, 60.0, 1e-9,
         "0x1.ffffffffffcb2p-1", "0x1.0554589ae2000p-35"),
        (lambda x: np.cos(x) * np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi), -12.0, 12.0,
         1e-12, "0x1.368b2fc6f960bp-1", "0x1.04d1b610eb0b0p-43")])
    def test_one_panel_start_keeps_its_values_bit_for_bit(self, f, a, b, abs_tol, value, error):
        # frozen values of the one-panel start, which the compound laws use: a
        # seed partition for the exact engine must not move them
        for kwargs in ({}, {"panels": 1}):
            val, err = adaptive_integrate(f, a, b, abs_tol=abs_tol, **kwargs)
            assert (val.hex(), err.hex()) == (value, error)


# a family of integrands p x^2 + A exp(-((x - c) / w)^2), one member per column
FAMILY = {  # name: (a, b, p, A, c, w)
    "polynomial": (0.0, 1.0, 1.0, 0.0, 0.0, 1.0),      # both rules exact: accepted at once
    "narrow bump": (0.0, 1.0, 0.0, 1.0, 0.3, 0.01),    # bisects deeply
    "wide bump": (-12.0, 12.0, 0.5, 1.0, 0.0, 1.5),
    "far bump": (-50.0, 50.0, 0.0, 1.0, 3.0, 0.5),     # missed from one panel, found from 20
}


def family_member(name):
    _, _, p, A, c, w = FAMILY[name]
    return lambda x: p * x**2 + A * np.exp(-((x - c) / w) ** 2)


def family_batch():
    """(f, a, b, calls): the whole family as one batch integrand that records its member rows."""
    a, b, *params = (np.array(col) for col in zip(*FAMILY.values()))
    p, A, c, w = (col[:, None] for col in params)
    calls = []

    def f(x, members):
        calls.append(members.tolist())
        return (p[members] * x**2
                + A[members] * np.exp(-((x - c[members]) / w[members]) ** 2))

    return f, list(a), list(b), calls


class TestLockstepBatch:
    @pytest.mark.parametrize("panels", [1, 20])
    def test_batch_equals_one_call_per_integrand_bit_for_bit(self, panels):
        f, a, b, calls = family_batch()
        batch = adaptive_integrate(f, a, b, abs_tol=1e-12, panels=panels)
        solo_panels = []
        for name, found in zip(FAMILY, batch):
            counted = []
            g = family_member(name)
            alone = adaptive_integrate(lambda x: counted.append(1) or g(x), *FAMILY[name][:2],
                                       abs_tol=1e-12, panels=panels)
            assert (found[0].hex(), found[1].hex()) == (alone[0].hex(), alone[1].hex()), name
            solo_panels.append(len(counted))
        assert solo_panels[0] == panels                 # the polynomial passes at once
        assert solo_panels[1] > panels + 10             # the narrow bump bisects
        # one call per round, over the members still bisecting
        rounds = max(solo_panels)
        assert calls == [m for r in range(rounds)
                         for m in [[i for i, n in enumerate(solo_panels) if n > r]]]

    @pytest.mark.parametrize("panels", [1, 20])
    def test_one_call_per_round_on_both_rules_nodes(self, panels):
        # each call gets a member's 22 nodes, the 7-point rule's first: one panel
        # centre c and half-width h for both rules, and no panel evaluated twice
        x7, x15 = (np.polynomial.legendre.leggauss(n)[0] for n in (7, 15))

        def panel_of(row):
            c, h = row[3], (row[-1] - row[7]) / (x15[-1] - x15[0])
            np.testing.assert_allclose(row, c + h * np.concatenate([x7, x15]),
                                       rtol=1e-13, atol=1e-13 * h)
            return c, h

        f, a, b, calls = family_batch()
        seen = []
        adaptive_integrate(lambda x, members: seen.append(x) or f(x, members), a, b,
                           abs_tol=1e-12, panels=panels)
        assert len(seen) == len(calls)
        assert [x.shape for x in seen] == [(len(m), 22) for m in calls]
        batch_panels = [(m, *panel_of(row)) for x, ms in zip(seen, calls)
                        for m, row in zip(ms, x)]
        assert len(set(batch_panels)) == len(batch_panels)

        g = family_member("narrow bump")
        seen = []
        adaptive_integrate(lambda x: seen.append(x) or g(x), *FAMILY["narrow bump"][:2],
                           abs_tol=1e-12, panels=panels)
        assert {x.shape for x in seen} == {(22,)}
        solo_panels = [panel_of(x) for x in seen]
        assert len(set(solo_panels)) == len(solo_panels) > panels + 10

    def test_one_member_batch_and_empty_batch(self):
        f, a, b, _ = family_batch()
        g = family_member("wide bump")
        assert adaptive_integrate(lambda x, members: f(x, members + 2), a[2:3], b[2:3]) == [
            adaptive_integrate(g, a[2], b[2])]
        assert adaptive_integrate(f, [], []) == []

    def test_bad_interval_in_a_batch(self):
        with pytest.raises(ValueError):
            adaptive_integrate(lambda x, members: x, [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            adaptive_integrate(lambda x, members: x, [0.0, 1.0], [1.0])


def rows_of(*fs):
    """A batch integrand that evaluates member i with the one-integrand function fs[i]."""
    return lambda x, members: np.array([fs[m](row) for m, row in zip(members, x)])


class TestLockstepFailures:
    def test_nonfinite_member_raises_its_own_estimate(self):
        def spoiled(x):
            # the bump makes the bisection close in on 0.3, where the integrand is nan
            return np.where(np.abs(x - 0.3) < 1e-3, np.nan, np.exp(-((x - 0.3) / 0.01) ** 2))

        good = family_member("wide bump")
        with pytest.raises(IntegrationError, match="not finite") as alone:
            adaptive_integrate(spoiled, 0.0, 1.0)
        with pytest.raises(IntegrationError, match="not finite") as batch:
            adaptive_integrate(rows_of(good, spoiled, good), [-12.0, 0.0, -12.0],
                               [12.0, 1.0, 12.0])
        np.testing.assert_equal((batch.value.estimate, batch.value.error_bound),
                                (alone.value.estimate, alone.value.error_bound))

    def test_member_at_max_depth_raises_its_own_estimate(self):
        def nasty(x):
            return np.abs(x - math.pi / 10.0) ** -0.5

        easy = family_member("polynomial")
        with pytest.raises(IntegrationError, match="maximum bisection depth") as alone:
            adaptive_integrate(nasty, 0.0, 1.0, abs_tol=1e-13, max_depth=6)
        with pytest.raises(IntegrationError, match="maximum bisection depth") as batch:
            adaptive_integrate(rows_of(easy, nasty, np.exp), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                               abs_tol=1e-13, max_depth=6)
        assert math.isfinite(batch.value.estimate)
        assert (batch.value.estimate, batch.value.error_bound) == (
            alone.value.estimate, alone.value.error_bound)
