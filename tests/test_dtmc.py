import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackassoc.dtmc import (AssocDTMC, absorption_time_pmf, chain_power,
                             consecutive_fa_chain, expected_transient_visits, mean_intervisit,
                             reach_probability, stationary)
from trackassoc.tabulated import reach_expansion, reach_probability_alt_form


def pair_chain(p):
    """(P2, P2 with state 4 absorbing) of the pair chain at p_fa = p."""
    return consecutive_fa_chain(2, AssocDTMC(p_fa=p))


def transient_block(p):
    """Q, the pair chain's transient block (states 1-3) with state 4 absorbing."""
    q = 1.0 - p
    return np.array([[q, p, 0.0], [0.0, 0.0, q], [q, p, 0.0]])


class TestPairChain:
    def test_rows_stochastic(self):
        for p in (0.0, 0.05, 0.3, 0.7, 1.0):
            for m in pair_chain(p):
                np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                assert m.min() >= 0.0 and m.max() <= 1.0

    def test_no_false_associations(self):
        p2, _ = pair_chain(0.0)
        np.testing.assert_array_equal(p2[0], [1.0, 0.0, 0.0, 0.0])

    def test_pair_chain_rows_at_p_0_2(self):
        # states [ca,ca], [ca,fa], [fa,ca], [fa,fa]: the next pair keeps the last decision
        np.testing.assert_array_equal(pair_chain(0.2)[0], [
            [0.8, 0.2, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.2],
            [0.8, 0.2, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.2],
        ])

    def test_absorbing_row(self):
        _, absorbing = pair_chain(0.2)
        np.testing.assert_array_equal(absorbing[3], [0.0, 0.0, 0.0, 1.0])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            AssocDTMC(p_fa=1.5)


class TestStationary:
    def test_uniform_at_half(self):
        np.testing.assert_allclose(stationary(AssocDTMC(p_fa=0.5)), 0.25, atol=1e-14)

    def test_product_form_small_p(self):
        pi = stationary(AssocDTMC(p_fa=0.1))
        assert pi[3] == pytest.approx(0.01, abs=1e-14)
        np.testing.assert_allclose(pi, [0.81, 0.09, 0.09, 0.01], atol=1e-14)

    def test_normalization(self):
        for p in (0.05, 0.3, 0.9):
            assert stationary(AssocDTMC(p_fa=p)).sum() == pytest.approx(1.0, abs=1e-14)

    def test_balance_equation(self):
        for p in (0.05, 0.3, 0.9):
            chain = AssocDTMC(p_fa=p)
            pi = stationary(chain)
            np.testing.assert_allclose(pi @ pair_chain(p)[0], pi, atol=1e-14)

    @pytest.mark.parametrize("p", (0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.9, 1.0 - 1e-9, 1.0))
    def test_matches_balance_solve(self, p):
        # least-squares solve of pi (P2 - I) = 0 with sum(pi) = 1; the system has
        # full column rank at every p, the ends included, so the law is unique
        p2, _ = pair_chain(p)
        a = np.vstack([p2.T - np.eye(4), np.ones(4)])
        assert np.linalg.matrix_rank(a) == 4
        solved, *_ = np.linalg.lstsq(a, np.concatenate([np.zeros(4), [1.0]]), rcond=None)
        np.testing.assert_allclose(stationary(AssocDTMC(p_fa=p)), solved, rtol=0, atol=1e-12)

    def test_degenerate(self):
        # at the ends the only recurrent state holds all the mass
        np.testing.assert_array_equal(stationary(AssocDTMC(p_fa=0.0)), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(stationary(AssocDTMC(p_fa=1.0)), [0.0, 0.0, 0.0, 1.0])

    def test_certain_false_association(self):
        # p_fa -> 1: all stationary mass on the fa-fa state
        pi = stationary(AssocDTMC(p_fa=1.0 - 1e-12))
        assert pi[3] == pytest.approx(1.0, abs=1e-11)


class TestChainPower:
    def test_power_collapses_after_two_steps(self):
        chain = AssocDTMC(p_fa=0.3)
        p2, _ = pair_chain(0.3)
        expected = np.linalg.matrix_power(p2, 7)
        np.testing.assert_allclose(chain_power(chain, 7), expected, atol=1e-12)
        np.testing.assert_allclose(chain_power(chain, 2), chain_power(chain, 7), atol=1e-12)

    def test_one_step_differs(self):
        chain = AssocDTMC(p_fa=0.3)
        assert np.abs(chain_power(chain, 1) - chain_power(chain, 2)).max() > 0.01

    def test_any_start_reaches_product_form(self):
        chain = AssocDTMC(p_fa=0.2)
        start = np.array([0.1, 0.2, 0.3, 0.4])
        out = start @ chain_power(chain, 5)
        np.testing.assert_allclose(out, [0.64, 0.16, 0.16, 0.04], atol=1e-12)

    def test_zero_steps_is_the_identity(self):
        assert chain_power(AssocDTMC(p_fa=0.3), 0).tobytes() == np.eye(4).tobytes()

    @pytest.mark.parametrize("n", (-1, -2))
    def test_rejects_a_negative_power(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            chain_power(AssocDTMC(p_fa=0.3), n)

    def test_factorization(self):
        p = 0.3
        q = 1.0 - p
        p2, _ = pair_chain(p)
        v = q * np.ones(4)
        w = np.array([q, p, p, p * p / q])
        np.testing.assert_allclose(p2 @ p2, np.outer(v, w), atol=1e-12)
        np.testing.assert_allclose(w @ p2, w, atol=1e-12)


class TestMeanIntervisit:
    def test_state4_small_p(self):
        assert mean_intervisit(AssocDTMC(p_fa=0.1), 4) == pytest.approx(100.0, rel=1e-12)

    def test_uniform_case(self):
        for s in (1, 2, 3, 4):
            assert mean_intervisit(AssocDTMC(p_fa=0.5), s) == pytest.approx(4.0, rel=1e-12)

    def test_state1_small_p(self):
        assert mean_intervisit(AssocDTMC(p_fa=1e-7), 1) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("state", (0, 5, 2.5, 1.0, "1"))
    def test_rejects_anything_but_the_integers_1_to_4(self, state):
        with pytest.raises(ValueError):
            mean_intervisit(AssocDTMC(p_fa=0.5), state)
        assert mean_intervisit(AssocDTMC(p_fa=0.5), np.int64(4)) == pytest.approx(4.0)

    @pytest.mark.parametrize("p,recurrent", ((0.0, 1), (1.0, 4)))
    def test_ends(self, p, recurrent):
        # the recurrent state recurs every step; the chain leaves every other for good
        for s in (1, 2, 3, 4):
            expected = 1.0 if s == recurrent else math.inf
            assert mean_intervisit(AssocDTMC(p_fa=p), s) == expected


class TestReachProbability:
    def test_zero_p(self):
        for n in (0, 5, 50):
            assert reach_probability(AssocDTMC(p_fa=0.0), n).value == 0.0

    def test_zero_horizon(self):
        assert reach_probability(AssocDTMC(p_fa=0.4), 0).value == 0.0

    @pytest.mark.parametrize("n", (-1, -2))
    def test_rejects_a_negative_horizon(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            reach_probability(AssocDTMC(p_fa=0.4), n)

    def test_two_step_value(self):
        # from [ca,ca] the earliest absorption needs exactly two fa decisions
        r = reach_probability(AssocDTMC(p_fa=0.3), 2)
        assert r.value == pytest.approx(0.09, abs=1e-12)

    @pytest.mark.parametrize("p", (0.0, 0.05, 0.1, 0.3, 0.7, 1.0))
    def test_spectral_matches_powers(self, p):
        chain = AssocDTMC(p_fa=p)
        for n in range(0, 51):
            r = reach_probability(chain, n)
            assert abs(r.spectral - r.value) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @example(p=1e-9, n=20)          # once -2.2e-16, from cancellation in 1 - sum
    @example(p=1e-7, n=20)          # once 2e-3 relative error
    @example(p=0.3, n=0)
    @example(p=0.843, n=50)         # matrix powers once gave 1.0000000000000002
    @given(p=st.floats(min_value=0.0, max_value=1.0),
           n=st.integers(min_value=0, max_value=500))
    def test_spectral_in_range_and_relatively_accurate(self, p, n):
        # matrix powers add only nonnegative terms, so they are accurate to
        # relative rounding; below the normal range (2.2e-308) no relative
        # accuracy is possible
        r = reach_probability(AssocDTMC(p_fa=p), n)
        assert 0.0 <= r.spectral <= 1.0
        assert 0.0 <= r.value <= 1.0
        if n >= 2:
            assert abs(r.spectral - r.value) <= 1e-12 * r.value + sys.float_info.min

    @pytest.mark.parametrize("p", (0.05, 0.1, 0.3))
    def test_transient_block_spectral_reconstruction(self, p):
        # Q^n rebuilt from the two nonzero eigenvalues with left/right
        # eigenvectors normalized against Q^1 reproduces the matrix powers
        q = 1.0 - p
        qmat = transient_block(p)
        disc = math.sqrt(1.0 + 2.0 * p - 3.0 * p * p)
        recon = {}
        for lam in ((q - disc) / 2.0, (q + disc) / 2.0):
            right = np.array([1.0, q / lam, 1.0])
            left = np.array([q / lam, p / lam, p * q / lam**2])
            proj = np.outer(right, left) / (left @ right)
            for n in range(1, 51):
                recon[n] = recon.get(n, 0.0) + lam**n * proj
        for n in range(1, 51):
            assert np.abs(recon[n] - np.linalg.matrix_power(qmat, n)).max() <= 1e-10

    def test_monotone_in_horizon_and_p(self):
        vals_n = [reach_probability(AssocDTMC(p_fa=0.1), n).value for n in range(0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_n, vals_n[1:]))
        vals_p = [reach_probability(AssocDTMC(p_fa=p), 20).value
                  for p in np.arange(0.01, 0.9, 0.05)]
        assert all(b >= a for a, b in zip(vals_p, vals_p[1:]))

    def test_quadratic_expansion_error_is_first_order(self):
        # the tabulated small-p expansion (n+1)p^2 + p/3 misses by O(p), not O(p^3):
        # its error at n=2 is 2p^2 + p/3 (FINDINGS.md); freeze that behaviour
        for p in (0.01, 0.05):
            chain = AssocDTMC(p_fa=p)
            gap = reach_expansion(chain, 2) - reach_probability(chain, 2).value
            assert gap == pytest.approx(2 * p * p + p / 3.0, abs=5 * p**3)

    def test_exact_small_p_leading_term(self):
        # true leading behaviour is (n-1) p^2
        p = 0.001
        for n in (2, 10, 25):
            val = reach_probability(AssocDTMC(p_fa=p), n).value
            assert val == pytest.approx((n - 1) * p * p, rel=0.05)

    def test_alt_form_is_broken(self):
        # the alternative tabulated closed form leaves [0, 1]; kept only to
        # document the mismatch (FINDINGS.md)
        val = reach_probability_alt_form(AssocDTMC(p_fa=0.5), 0)
        assert val == pytest.approx(2.0164, abs=1e-3)
        assert not 0.0 <= val <= 1.0


class TestExpectedTransientVisits:
    def test_from_fresh_start(self):
        chain = AssocDTMC(p_fa=0.1)
        assert expected_transient_visits(chain, (1.0, 0.0, 0.0)) == pytest.approx(110.0,
                                                                                  rel=1e-12)

    def test_small_p_insensitive_to_start(self):
        chain = AssocDTMC(p_fa=0.01)
        base = 1.0 / 0.01**2
        for start in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1 / 3, 1 / 3, 1 / 3)):
            assert expected_transient_visits(chain, start) == pytest.approx(base, rel=0.02)

    def test_classic_coin_value(self):
        # expected fair-coin flips to see two heads in a row
        assert expected_transient_visits(AssocDTMC(p_fa=0.5), (1.0, 0.0, 0.0)) == 6.0

    def test_infinite_for_zero_p(self):
        # no decision is ever false: I - Q is singular, absorption never comes
        assert np.linalg.matrix_rank(np.eye(3) - transient_block(0.0)) < 3
        chain = AssocDTMC(p_fa=0.0)
        for start in np.eye(3):
            assert expected_transient_visits(chain, start) == math.inf
            assert all(absorption_time_pmf(chain, start, n) == 0.0 for n in (1, 2, 7, 50))

    def test_infinite_once_past_the_float_range(self):
        # 1 / p^2 overflows below p of about 7.5e-155 and p^2 underflows below 1.6e-162:
        # the time is past every float, for every start
        for p in (1e-300, 1e-160, 5e-155):
            for start in np.eye(3):
                assert expected_transient_visits(AssocDTMC(p_fa=p), start) == math.inf
        assert math.isfinite(expected_transient_visits(AssocDTMC(p_fa=1e-154), (0.0, 1.0, 0.0)))

    def test_pmf_at_certain_false_association(self):
        # p = 1: absorbed at step 1 from [ca,fa] and at step 2 from the other two
        # states, the fundamental matrix's row sums (2, 1, 2)
        chain = AssocDTMC(p_fa=1.0)
        for start, step in zip(np.eye(3), (2, 1, 2)):
            pmf = [absorption_time_pmf(chain, start, n) for n in range(1, 8)]
            assert pmf == [float(n == step) for n in range(1, 8)]

    @pytest.mark.parametrize("p", (1e-3, 0.01, 0.1, 0.5, 0.9, 1.0))
    def test_matches_fundamental_matrix_solve(self, p):
        # (I - Q) t = 1 is ill conditioned (cond ~ 1/p^2), so compare only where
        # the solve itself is accurate
        solved = np.linalg.solve(np.eye(3) - transient_block(p), np.ones(3))
        chain = AssocDTMC(p_fa=p)
        for i, start in enumerate(np.eye(3)):
            assert expected_transient_visits(chain, start) == pytest.approx(solved[i], rel=1e-8)

    @pytest.mark.parametrize("start", ((math.nan, 0.0, 0.0), (5.0, -4.0, 0.0),
                                       (math.inf, -math.inf, 1.0), (0.5, 0.5), (1.0, 0.0, 0.0, 0.0)))
    def test_rejects_a_start_that_is_no_law_over_the_transient_states(self, start):
        chain = AssocDTMC(p_fa=0.3)
        with pytest.raises(ValueError):
            expected_transient_visits(chain, start)
        with pytest.raises(ValueError):
            absorption_time_pmf(chain, start, 2)

    @pytest.mark.parametrize("p", (1e-300, 1e-9, 0.3))
    def test_pmf_nonnegative_and_exact_first_steps(self, p):
        # the one-step absorbing column is exactly (0, p, 0); from [ca,ca] absorption
        # needs two decisions, both false
        chain = AssocDTMC(p_fa=p)
        for start in np.eye(3):
            assert min(absorption_time_pmf(chain, start, n) for n in range(1, 60)) >= 0.0
        assert absorption_time_pmf(chain, (1.0, 0.0, 0.0), 1) == 0.0
        assert absorption_time_pmf(chain, (1.0, 0.0, 0.0), 2) == p * p

    @pytest.mark.parametrize("n", (0, -1))
    def test_pmf_rejects_a_step_below_one(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            absorption_time_pmf(AssocDTMC(p_fa=0.3), (1.0, 0.0, 0.0), n)

    def test_pmf_sums_to_one(self):
        chain = AssocDTMC(p_fa=0.3)
        start = (1.0, 0.0, 0.0)
        total = sum(absorption_time_pmf(chain, start, n) for n in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_matches_expectation(self):
        chain = AssocDTMC(p_fa=0.3)
        start = (1.0, 0.0, 0.0)
        mean = sum(n * absorption_time_pmf(chain, start, n) for n in range(1, 600))
        assert mean == pytest.approx(expected_transient_visits(chain, start), abs=1e-9)


class TestConsecutiveWindowChain:
    @pytest.mark.parametrize("k", (1, 3, 5))
    def test_matches_tuple_window_reference(self, k):
        # the window as a tuple of its last k decisions (oldest first), indexed by
        # its binary value; the next window drops the oldest and appends the new one
        states = list(product((0, 1), repeat=k))
        index = {s: i for i, s in enumerate(states)}
        for p in (0.0, -0.0, 1e-300, 5e-324, 0.2, 0.843, 1.0 - 1e-16, 1.0):
            ref = np.zeros((2**k, 2**k))
            for s in states:
                for bit, prob in ((0, 1.0 - p), (1, p)):
                    ref[index[s], index[s[1:] + (bit,)]] += prob
            full, absorbing = consecutive_fa_chain(k, AssocDTMC(p_fa=p))
            ref_absorbing = ref.copy()
            ref_absorbing[-1] = np.eye(2**k)[-1]
            assert full.tobytes() == ref.tobytes()
            assert absorbing.tobytes() == ref_absorbing.tobytes()

    @pytest.mark.parametrize("k", (0, -1))
    def test_rejects_a_window_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            consecutive_fa_chain(k, AssocDTMC(p_fa=0.2))

    def test_rows_stochastic_k3(self):
        full, absorbing = consecutive_fa_chain(3, AssocDTMC(p_fa=0.2))
        np.testing.assert_allclose(full.sum(axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(absorbing.sum(axis=1), 1.0, atol=1e-14)
        np.testing.assert_array_equal(absorbing[7], [0, 0, 0, 0, 0, 0, 0, 1.0])

    def test_k3_expected_absorption_vs_simulation(self):
        p = 0.3
        _, absorbing = consecutive_fa_chain(3, AssocDTMC(p_fa=p))
        q = absorbing[:7, :7]
        visits = np.linalg.solve(np.eye(7) - q, np.ones(7))
        expected = visits[0]    # start with an all-ca window
        rng = np.random.default_rng(2024)
        runs = 20_000
        times = np.empty(runs)
        for r in range(runs):
            run = 0
            steps = 0
            while run < 3:
                steps += 1
                run = run + 1 if rng.random() < p else 0
            times[r] = steps
        se = times.std(ddof=1) / math.sqrt(runs)
        assert abs(times.mean() - expected) <= 3 * se
