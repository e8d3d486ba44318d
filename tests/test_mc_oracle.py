import math

import numpy as np
import pytest

from trackassoc.dtmc import AssocDTMC, expected_transient_visits, stationary
from trackassoc.geometry import ScanConfig
from trackassoc.mc_oracle import (TrialPlan, sample_moments, simulate_dtmc, simulate_multi_fa,
                                  simulate_single_fa)
from trackassoc.multi_fa import FalseAssocSet
from trackassoc.single_fa import RandomLambda, exact_probability

from numeric_helpers import (philox_words, simulate_conditional, spy_draws, uniforms,
                             words_to_normals)

CONFIG = ScanConfig(n_scans=20, lam=2.0)


class TestReproducibility:
    def test_identical_runs(self):
        plan = TrialPlan(trials=30_000, seed=123, config=CONFIG, scan=20)
        assert simulate_single_fa(plan) == simulate_single_fa(plan)

    def test_chunk_size_invariance(self, monkeypatch):
        # one trial takes 44 words at N=20: one chunk at the default size,
        # then 1000, 4096 and 29_999 trials per chunk
        import trackassoc.mc_oracle as mc

        plan = TrialPlan(trials=30_000, seed=123, config=CONFIG, scan=20)
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * 30_000)
        ref = simulate_single_fa(plan)
        for chunk in (1000, 4096, 29_999):
            monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * chunk)
            assert simulate_single_fa(plan) == ref

    @pytest.mark.parametrize("seed", (1.5, -1, 2**64, "1"))
    def test_seed_is_an_integer_in_64_bits(self, seed):
        with pytest.raises(ValueError):
            TrialPlan(trials=10, seed=seed, config=CONFIG)
        with pytest.raises(ValueError):
            simulate_dtmc(AssocDTMC(p_fa=0.5), steps=10, runs=10, seed=seed)
        TrialPlan(trials=10, seed=np.uint64(2**64 - 1), config=CONFIG)

    @pytest.mark.parametrize("trials", (0, -5))
    def test_trials_are_at_least_one(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            TrialPlan(trials=trials, seed=1, config=CONFIG)

    def test_seed_changes_stream(self):
        a, = simulate_single_fa(TrialPlan(trials=30_000, seed=1, config=CONFIG, scan=20))
        b, = simulate_single_fa(TrialPlan(trials=30_000, seed=2, config=CONFIG, scan=20))
        assert a.p_hat != b.p_hat

    def test_stderr_formula(self):
        est, = simulate_single_fa(TrialPlan(trials=10_000, seed=3, config=CONFIG, scan=20))
        assert est.stderr == pytest.approx(
            np.sqrt(est.p_hat * (1 - est.p_hat) / est.trials), rel=1e-12)

    def test_stderr_halves_when_trials_quadruple(self):
        small, = simulate_single_fa(TrialPlan(trials=25_000, seed=3, config=CONFIG, scan=20))
        large, = simulate_single_fa(TrialPlan(trials=100_000, seed=3, config=CONFIG, scan=20))
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.02)

    def test_random_lambda_reproducible(self, monkeypatch):
        import trackassoc.mc_oracle as mc

        rl = RandomLambda(lambda0=2.0, sigma0=1.0)
        plan = TrialPlan(trials=20_000, seed=5, config=CONFIG, scan=20, random_lambda=rl)
        ref = simulate_single_fa(plan)
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * 777)  # 44 words a trial at N=20
        assert simulate_single_fa(plan) == ref


class TestBoxMuller:
    """The normals against a long-double reference and the former libm route."""

    @staticmethod
    def words():
        # 2^21 random words, then pairs whose second word is 0, 2^64 - 1, or
        # gives u2 = k/4 +- a few 2^-53 steps, where the quadrant changes
        rand = philox_words(11, 0, 0, 1 << 21)
        top = np.array([k * 2**51 + j for k in range(5) for j in range(-4, 4)
                        if 0 <= k * 2**51 + j < 2**53], dtype=np.uint64)
        edges = np.concatenate([top << np.uint64(11),
                                np.array([0, 2**64 - 1], dtype=np.uint64)])
        pairs = np.empty(2 * edges.shape[0], dtype=np.uint64)
        pairs[0::2] = rand[:edges.shape[0]]
        pairs[1::2] = edges
        return np.concatenate([rand, pairs, np.array([0, 0, 2**64 - 1, 2**64 - 1],
                                                     dtype=np.uint64)])

    @staticmethod
    def libm_normals(words):
        # the former route: np.cos and np.sin of the rounded product 2 pi u2
        u = uniforms(words)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        z = np.empty(words.shape[0])
        z[0::2] = r * np.cos(2.0 * np.pi * u[1::2])
        z[1::2] = r * np.sin(2.0 * np.pi * u[1::2])
        return z

    def test_within_four_eps_of_long_double(self):
        words = self.words()
        z = words_to_normals(words)
        u = uniforms(words).astype(np.longdouble)
        two_pi = 8 * np.arctan(np.longdouble(1))
        r = np.sqrt(-2 * np.log(u[0::2]))
        ref = np.empty(words.shape[0], dtype=np.longdouble)
        ref[0::2] = r * np.cos(two_pi * u[1::2])
        ref[1::2] = r * np.sin(two_pi * u[1::2])
        err = np.abs(z.astype(np.longdouble) - ref)
        assert np.all(err <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(z)))

    def test_within_1e_14_of_libm(self):
        words = self.words()
        assert np.abs(words_to_normals(words) - self.libm_normals(words)).max() <= 1e-14

    def test_uniforms_lie_in_zero_one_closed(self):
        # (m + 1/2) 2^-53 rounds to double: the least u is 2^-54, the top 2^11
        # words give exactly 1, and on [0.5, 1) the last bit rounds to even
        top = np.array([0, 2**53 - 1, 2**52 + 1, 2**52 + 2], dtype=np.uint64) << np.uint64(11)
        u = uniforms(np.concatenate([top, np.array([2**64 - 1], dtype=np.uint64)]))
        assert u[0] == 2.0**-54
        assert u[1] == u[4] == 1.0
        assert u[2] == u[3]
        # u1 = 1 gives r = 0: both normals of the pair are 0, whatever u2 is
        pairs = np.array([2**64 - 1, 0, 2**64 - 2**11, 2**64 - 1, 2**64 - 1, 2**63],
                         dtype=np.uint64)
        z = words_to_normals(pairs)
        assert np.all(np.isfinite(z)) and np.all(z == 0.0)

    @pytest.mark.parametrize("seed,tag,offset,n", [(7, 0, 0, 1 << 16), (7, 3, 1024, 4099),
                                                   (2**64 - 1, 1000, 4, 1)])
    def test_draws_are_the_uniforms_of_their_words(self, seed, tag, offset, n):
        # Generator.random writes m 2^-53 and the draw adds 2^-54: one rounding
        # of (m + 1/2) 2^-53, the double the former m + 1/2, times 2^-53, gave
        import trackassoc.mc_oracle as mc

        words = philox_words(seed, tag, offset, n)
        former = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        total = offset + n      # a draw reads its stream from word 0
        drawn = mc._draw_uniforms(seed, tag)(np.empty(total))[offset:]
        np.testing.assert_array_equal(drawn.view(np.uint64), former.view(np.uint64))
        # a stream drawn in pieces of any length reads the same words in order
        draw = mc._draw_uniforms(seed, tag)
        pieces = [draw(np.empty(m))
                  for m in (total // 3, 0, total - total // 3 - total // 7, total // 7)]
        np.testing.assert_array_equal(np.concatenate(pieces)[offset:].view(np.uint64),
                                      former.view(np.uint64))
        edges = np.array([0, 2**11 - 1, 2**63, 2**63 + 2**11, 2**63 + 2**12, 2**64 - 2**11,
                          2**64 - 1], dtype=np.uint64)
        both = np.concatenate([words, edges])
        former = ((both >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        np.testing.assert_array_equal(uniforms(both).view(np.uint64), former.view(np.uint64))

    @staticmethod
    def strided_normals(words):
        # the former formulation, in one block: u1 and u2 shifted from strided
        # reads of the words, the quadrant read mod 4 from 4-entry tables
        import trackassoc.mc_oracle as mc

        def horner(y, coefs):
            out = np.full_like(y, coefs[0])
            for c in coefs[1:]:
                out *= y
                out += c
            return out

        r = np.right_shift(words[0::2], np.uint64(11)).astype(np.float64)
        r += 0.5
        r *= 2.0**-53
        r = np.sqrt(-2.0 * np.log(r))
        x = np.right_shift(words[1::2], np.uint64(11)).astype(np.float64)
        x += 0.5
        x *= 2.0**-51
        q = np.rint(x)
        x -= q
        x *= np.pi / 2
        y = x * x
        sin = x + horner(y, mc._SIN_COEFS) * y * x
        cos = 1.0 + y * -0.5
        cos += horner(y, mc._COS_COEFS) * y * y
        quadrant = q.astype(np.intp)
        a = np.take(np.array([1.0, 0.0, -1.0, 0.0]), quadrant, mode="wrap") * r
        b = np.take(np.array([0.0, -1.0, 0.0, 1.0]), quadrant, mode="wrap") * r
        z = np.empty(words.shape[0])
        z[0::2] = a * cos + b * sin
        z[1::2] = a * sin - b * cos
        return z

    @pytest.mark.parametrize("pairs", (8192, 1000, 4099))
    def test_matches_the_strided_formulation_bit_for_bit(self, monkeypatch, pairs):
        # 2^17 random words, then every ordered pair of the edge words 0,
        # 2^64 - 1 (u = 1) and 2^64 - 2^11 (the least word giving u = 1); no
        # block size divides the word count
        import trackassoc.mc_oracle as mc

        edges = np.array([0, 2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
        words = np.concatenate([philox_words(17, 0, 0, 1 << 17),
                                np.stack(np.meshgrid(edges, edges)).reshape(2, -1).T.ravel()])
        assert (words.shape[0] // 2) % pairs
        monkeypatch.setattr(mc, "_PAIRS_PER_BLOCK", pairs)
        np.testing.assert_array_equal(words_to_normals(words), self.strided_normals(words))

    def test_blocks_change_nothing(self, monkeypatch):
        import trackassoc.mc_oracle as mc

        block = 2 * mc._PAIRS_PER_BLOCK  # words
        words = philox_words(5, 0, 0, 3 * block + 12)
        ref = words_to_normals(words)
        for split in (2, block // 2, block, block + 2, 3 * block):
            np.testing.assert_array_equal(
                np.concatenate([words_to_normals(words[:split]),
                                words_to_normals(words[split:])]), ref)
        for pairs in (1, 3, 7):
            monkeypatch.setattr(mc, "_PAIRS_PER_BLOCK", pairs)
            np.testing.assert_array_equal(words_to_normals(words[:1000]), ref[:1000])


class TestSingleFa:
    def test_zero_offset_matches_quadrature(self):
        # decoy on the true position: only the removed noise separates the fits
        config = ScanConfig(n_scans=20, lam=0.0)
        est, = simulate_single_fa(TrialPlan(trials=100_000, seed=6, config=config, scan=20))
        assert abs(exact_probability(20, config) - est.p_hat) <= 3 * est.stderr

    def test_far_decoy(self):
        config = ScanConfig(n_scans=20, lam=10.0)
        est, = simulate_single_fa(TrialPlan(trials=100_000, seed=8, config=config, scan=20))
        assert est.p_hat >= 0.999

    def test_scan_bounds(self):
        with pytest.raises(ValueError):
            simulate_single_fa(TrialPlan(trials=10, seed=1, config=CONFIG, scan=21))


class TestMultiFa:
    def test_single_scan_reduction_is_bitwise(self):
        config = ScanConfig(n_scans=15, lam=1.8)
        single, = simulate_single_fa(TrialPlan(trials=50_000, seed=9, config=config, scan=7))
        fa = FalseAssocSet(indices=(7,), lambdas=(1.8,))
        multi, = simulate_multi_fa(TrialPlan(trials=50_000, seed=9, config=config, fa=fa))
        assert multi == single

    def test_all_scans_zero_offset(self):
        # zero-offset decoys are exact positions, so the contaminated fit is
        # almost surely better and correct association essentially never wins
        # (measured 0.0 at 1e5 trials)
        config = ScanConfig(n_scans=10)
        fa = FalseAssocSet(indices=tuple(range(1, 11)), lambdas=(0.0,) * 10)
        est, = simulate_multi_fa(TrialPlan(trials=100_000, seed=5, config=config, fa=fa))
        assert est.p_hat < 0.01

    def test_moment_sample_fields_finite(self):
        fa = FalseAssocSet(indices=(18, 20), lambdas=(2.0, 2.0))
        sample = sample_moments(TrialPlan(trials=20_000, seed=4, config=CONFIG, fa=fa))
        for v in (sample.m1_mean, sample.m1_var, sample.v1_mean, sample.v1_var):
            assert np.isfinite(v)
        assert sample.v1_mean > 0

    def test_two_vs_one_decoy_tradeoff_reported(self):
        # a pair of decoys at 2.5 sits near a single decoy at 1.8 (reported only)
        config = ScanConfig(n_scans=40)
        pair = FalseAssocSet(indices=(39, 40), lambdas=(2.5, 2.5))
        est2, = simulate_multi_fa(TrialPlan(trials=50_000, seed=21, config=config, fa=pair))
        single, = simulate_single_fa(TrialPlan(
            trials=50_000, seed=21, config=ScanConfig(n_scans=40, lam=1.8), scan=40))
        print(f"two-decoy(2.5) vs one-decoy(1.8): {est2.p_hat:.4f} vs {single.p_hat:.4f} "
              f"(gap {est2.p_hat - single.p_hat:+.4f})")
        assert 0.0 <= est2.p_hat <= 1.0

    def test_mixed_offsets_match_analytics(self):
        # non-adjacent scans with distinct offsets exercise the cross terms
        config = ScanConfig(n_scans=40)
        fa = FalseAssocSet(indices=(10, 25, 40), lambdas=(1.5, 2.5, 3.5))
        from trackassoc.multi_fa import moment_params, prob_chi2
        mp = moment_params(fa, config)
        plan = TrialPlan(trials=200_000, seed=19, config=config, fa=fa)
        est, = simulate_multi_fa(plan)
        sample = sample_moments(plan)
        assert abs(mp.m0 - sample.m1_mean) <= 3 * sample.m1_mean_se
        assert abs(mp.sigma0_sq - sample.m1_var) <= 3 * sample.m1_var_se
        assert abs(mp.v0 - sample.v1_mean) <= 3 * sample.v1_mean_se
        assert abs(mp.s0_sq - sample.v1_var) <= 3 * sample.v1_var_se
        assert abs(prob_chi2(3, mp)[0] - est.p_hat) <= 0.05

    def test_requires_fa(self):
        with pytest.raises(ValueError):
            simulate_multi_fa(TrialPlan(trials=10, seed=1, config=CONFIG, scan=20))
        with pytest.raises(ValueError):
            sample_moments(TrialPlan(trials=10, seed=1, config=CONFIG, scan=20))

    @pytest.mark.parametrize("scan", (-1, 0, 21))
    def test_moments_reject_a_scan_outside_1_to_n(self, monkeypatch, scan):
        import trackassoc.mc_oracle as mc

        calls = []
        monkeypatch.setattr(mc, "_draw_uniforms", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="outside 1..20"):
            sample_moments(TrialPlan(trials=10, seed=1, config=CONFIG,
                                     fa=FalseAssocSet((scan,), (1.0,))))
        assert calls == []


class TestDecoyRule:
    """The plan alone places its decoys, whichever simulator reads it."""

    @pytest.mark.parametrize("extra", [{"scan": 20},
                                       {"random_lambda": RandomLambda(lambda0=2.0, sigma0=1.0)}],
                             ids=["scan", "random-lambda"])
    def test_fa_excludes_scan_and_random_lambda(self, extra):
        with pytest.raises(ValueError, match="neither scan nor random_lambda"):
            TrialPlan(trials=10, seed=1, config=CONFIG, fa=FalseAssocSet((20,), (1.0,)), **extra)

    @pytest.mark.parametrize("rl", [None, RandomLambda(lambda0=2.0, sigma0=1.0)],
                             ids=["fixed", "random-lambda"])
    def test_no_scan_means_the_last(self, rl):
        assert TrialPlan(trials=10, seed=1, config=CONFIG, scan=None, random_lambda=rl).scan == 20

    @pytest.mark.parametrize("decoys", [{"scan": 0}, {"scan": -1}, {"scan": 21},
                                        {"fa": FalseAssocSet((0,), (1.0,))},
                                        {"fa": FalseAssocSet((19, 21), (1.0, 1.0))}],
                             ids=["scan-0", "scan-negative", "scan-beyond-n", "index-0",
                                  "index-beyond-n"])
    def test_a_scan_outside_1_to_n_fails_when_the_plan_is_built(self, decoys):
        with pytest.raises(ValueError, match="outside 1..20"):
            TrialPlan(trials=10, seed=1, config=CONFIG, **decoys)

    def test_single_fa_estimates_the_plans_decoy_set(self):
        # a single-decoy estimate at the last scan and lam 0 would read 0.0801
        plan = TrialPlan(trials=20_000, seed=1, config=ScanConfig(n_scans=40),
                         fa=FalseAssocSet((39, 40), (3.0, 3.0)))
        est, = simulate_single_fa(plan)
        assert [est] == simulate_multi_fa(plan)
        assert est.p_hat == 0.9889


class TestSharedPass:
    """One call over many plans equals one call per plan and draws each seed's words once."""

    @staticmethod
    def one_by_one(simulate, plans, **kwargs):
        return [est for plan in plans for est in simulate(plan, **kwargs)]

    def test_lambda_grid(self):
        plans = [TrialPlan(trials=20_000, seed=11, config=ScanConfig(n_scans=20, lam=lam),
                           scan=17) for lam in (0.0, 1.0, 1.5, 2.5, 4.0)]
        assert simulate_single_fa(*plans) == self.one_by_one(simulate_single_fa, plans)

    def test_random_lambda_grid(self):
        plans = [TrialPlan(trials=20_000, seed=5, config=CONFIG, scan=20,
                           random_lambda=RandomLambda(lambda0=lam0, sigma0=sig0))
                 for lam0 in (1.5, 2.5) for sig0 in (0.0, 1.0, 3.0)]
        ests = simulate_single_fa(*plans)
        assert ests == self.one_by_one(simulate_single_fa, plans)
        assert len({est.p_hat for est in ests}) == len(plans)

    def test_multi_fa_grid(self):
        sets = [FalseAssocSet((19, 20), (1.0, 1.0)), FalseAssocSet((5, 12, 20), (0.5, 2.0, 3.0)),
                FalseAssocSet((20,), (2.0,)), FalseAssocSet((19, 20), (3.0, 3.0))]
        plans = [TrialPlan(trials=20_000, seed=4, config=CONFIG, fa=fa) for fa in sets]
        assert simulate_multi_fa(*plans) == self.one_by_one(simulate_multi_fa, plans)

    def test_mixed_streams_keep_their_order(self):
        plans = [TrialPlan(trials=8_000, seed=1, config=ScanConfig(n_scans=20, lam=2.0)),
                 TrialPlan(trials=8_000, seed=2, config=ScanConfig(n_scans=30, lam=2.0)),
                 TrialPlan(trials=8_000, seed=1, config=ScanConfig(n_scans=20, lam=1.0), scan=3),
                 TrialPlan(trials=8_000, seed=1, config=ScanConfig(n_scans=20, lam=2.0), scan=11),
                 TrialPlan(trials=9_000, seed=1, config=ScanConfig(n_scans=20, lam=2.0)),
                 TrialPlan(trials=8_000, seed=2, config=ScanConfig(n_scans=20, lam=2.0))]
        ests = simulate_single_fa(*plans)
        assert ests == self.one_by_one(simulate_single_fa, plans)
        assert [est.trials for est in ests] == [plan.trials for plan in plans]

    def test_chunks_smaller_than_the_stream(self, monkeypatch):
        import trackassoc.mc_oracle as mc

        plans = [TrialPlan(trials=5_000, seed=3, config=ScanConfig(n_scans=20, lam=lam), scan=20)
                 for lam in (1.0, 2.0, 3.0)]
        plans.append(TrialPlan(trials=5_000, seed=3, config=CONFIG, scan=20,
                               random_lambda=RandomLambda(lambda0=2.0, sigma0=1.0)))
        fas = [FalseAssocSet((18, 20), (lam, lam)) for lam in (1.0, 2.0)]
        multi = [TrialPlan(trials=5_000, seed=3, config=CONFIG, fa=fa) for fa in fas]
        ref = (self.one_by_one(simulate_single_fa, plans),
               self.one_by_one(simulate_multi_fa, multi))
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * 777)  # 777 trials a chunk at N=20
        assert (simulate_single_fa(*plans), simulate_multi_fa(*multi)) == ref

    def test_each_stream_drawn_once(self, monkeypatch):
        import trackassoc.mc_oracle as mc

        calls = spy_draws(monkeypatch)
        plans = [TrialPlan(trials=3_000, seed=seed, config=ScanConfig(n_scans=20, lam=lam))
                 for seed in (1, 2) for lam in (1.0, 2.0, 3.0)]
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * 1_000)  # 44 words a trial at N=20
        simulate_single_fa(*plans)
        # per seed, one run of draws in rising offsets over the stream's words
        # (3 windows of 3 blocks), however many plans read them
        for seed in (1, 2):
            drawn = [(offset, n) for s, _, offset, n in calls if s == seed]
            ends = np.cumsum([n for _, n in drawn])
            assert [offset for offset, _ in drawn] == [0, *ends[:-1]]
            assert ends[-1] == 3_000 * 44
        assert len(calls) == 2 * 3 * 3

    def test_window_memory_allocated_once_per_pass(self, monkeypatch):
        # 3,000 trials of 44 words in windows of 1,000 trials: each block's
        # uniforms are drawn into spent rows of the pass's one set of work
        # arrays, and its normals written to the two planes of the pass's one
        # buffer
        import trackassoc.mc_oracle as mc

        outs, calls = [], []
        draw_uniforms, box_muller = mc._draw_uniforms, mc._box_muller

        def spy(*args):
            draw = draw_uniforms(*args)
            return lambda out: outs.append(out) or draw(out)

        monkeypatch.setattr(mc, "_draw_uniforms", spy)
        monkeypatch.setattr(mc, "_box_muller", lambda u, x, y, work: (
            calls.append((u, x, y, work)) or box_muller(u, x, y, work)))
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 44 * 1_000)
        plans = [TrialPlan(trials=3_000, seed=1, config=ScanConfig(n_scans=20, lam=lam))
                 for lam in (1.0, 2.0)]
        simulate_single_fa(*plans)
        assert len(outs) == len(calls) == 3 * 3  # 22,000 pairs a window, 8,192 a block
        buffer, work = calls[0][1].base, calls[0][3].base
        assert buffer is not None and work is not None
        for u, x, y, w in calls:
            assert x.base is buffer and y.base is buffer and not np.shares_memory(x, y)
            assert w.base is work and u.base is work
        for u in outs:
            assert np.shares_memory(u, work) and u.base is work

    @staticmethod
    def n_grid(seed, trials=5_000):
        # N = 20, 21, 40, 60: trials 44, 44, 84 and 124 words wide (2N + 2,
        # rounded up to whole 4-word blocks); a random offset adds 2 words
        # before the rounding (44, 48 and 84 words at N = 20, 21, 40)
        plans = [TrialPlan(trials=trials, seed=seed, config=ScanConfig(n_scans=n, lam=2.0))
                 for n in (20, 21, 40, 60)]
        plans += [TrialPlan(trials=7_000, seed=seed, config=ScanConfig(n_scans=n, lam=1.5),
                            scan=n // 2) for n in (21, 60)]
        plans += [TrialPlan(trials=t, seed=seed, config=ScanConfig(n_scans=n), scan=n,
                            random_lambda=RandomLambda(lambda0=2.0, sigma0=1.0))
                  for n, t in ((20, 7_000), (40, 5_000), (21, 5_000))]
        return plans

    def test_plans_of_one_seed(self):
        plans = self.n_grid(seed=13)
        assert simulate_single_fa(*plans) == self.one_by_one(simulate_single_fa, plans)
        multi = [TrialPlan(trials=t, seed=13, config=ScanConfig(n_scans=n),
                           fa=FalseAssocSet((n - 1, n), (1.0, 2.5)))
                 for n, t in ((20, 5_000), (21, 7_000), (40, 5_000), (60, 7_000))]
        assert simulate_multi_fa(*multi) == self.one_by_one(simulate_multi_fa, multi)

    def test_each_word_of_a_seed_drawn_once(self, monkeypatch):
        # one pass over the longest stream's words, in rising offsets, however
        # many streams of the seed read them
        calls = spy_draws(monkeypatch)
        plans = [TrialPlan(trials=3_000, seed=8, config=ScanConfig(n_scans=n, lam=2.0))
                 for n in range(20, 101, 20)]
        simulate_single_fa(*plans)
        assert {(seed, tag) for seed, tag, _, _ in calls} == {(8, 0)}
        ends = np.cumsum([n for *_, n in calls])
        assert [offset for _, _, offset, _ in calls] == [0, *ends[:-1]]
        assert ends[-1] == 3_000 * 204      # N=100: 2 * 101 normals in 204 words a trial

    def test_window_no_multiple_of_any_width(self, monkeypatch):
        # 3968-word windows (4004 rounded down to 32 trials of 124 words):
        # trials of every narrower width (44, 48, 84) are cut at window edges
        import trackassoc.mc_oracle as mc

        plans = self.n_grid(seed=13)
        ref = simulate_single_fa(*plans)
        monkeypatch.setattr(mc, "_CHUNK_WORDS", 4 * 1001)
        assert simulate_single_fa(*plans) == ref

    @pytest.mark.parametrize("simulate,bad", [
        (simulate_single_fa, lambda: TrialPlan(trials=10, seed=1, config=CONFIG, scan=21)),
        (simulate_multi_fa, lambda: TrialPlan(trials=10, seed=1, config=CONFIG, scan=20)),
        (simulate_multi_fa, lambda: TrialPlan(trials=10, seed=1, config=CONFIG,
                                              fa=FalseAssocSet((20, 21), (1.0, 1.0)))),
        # index 0 once read the noise of epoch 0, and -1 that of scan N
        (simulate_multi_fa, lambda: TrialPlan(trials=10, seed=1, config=CONFIG,
                                              fa=FalseAssocSet((0,), (1.0,)))),
        (simulate_multi_fa, lambda: TrialPlan(trials=10, seed=1, config=CONFIG,
                                              fa=FalseAssocSet((-1,), (1.0,))))],
        ids=["scan", "no-fa", "index", "index-0", "index-negative"])
    def test_invalid_plan_raises_before_any_draw(self, monkeypatch, simulate, bad):
        # bad builds the plan: a scan outside 1..N fails when it is built, no-fa when it is run
        import trackassoc.mc_oracle as mc

        calls = []
        monkeypatch.setattr(mc, "_draw_uniforms", lambda *a: calls.append(a))
        good = (TrialPlan(trials=10, seed=1, config=CONFIG, scan=20)
                if simulate is simulate_single_fa else
                TrialPlan(trials=10, seed=1, config=CONFIG, fa=FalseAssocSet((20,), (1.0,))))
        with pytest.raises(ValueError):
            simulate(good, good, bad())
        assert calls == []

    def test_no_chunk_outlives_its_stream(self):
        # one call over the sweep-n grid must cost no more memory than its
        # largest plan alone: its streams share one buffer of normals, sized by
        # the widest, and a copy kept beyond its stream's turn shows here, as
        # does a dense projector kept beyond its N's kernels
        import tracemalloc

        plans = [TrialPlan(trials=20_000, seed=3, config=ScanConfig(n_scans=n, lam=2.0))
                 for n in range(20, 201, 20)]

        def peak(*plans):
            tracemalloc.start()
            try:
                simulate_single_fa(*plans)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a warm-up call first, so that neither peak counts the one-time
        # allocations of the process's first simulation
        simulate_single_fa(plans[-1])
        assert peak(*plans) <= 1.05 * peak(plans[-1])

    @pytest.mark.parametrize("grid,builds", [
        ([TrialPlan(trials=200, seed=1, config=ScanConfig(n_scans=40, lam=1.0 + 0.1 * i))
          for i in range(31)], 1),
        ([TrialPlan(trials=200, seed=1, config=ScanConfig(n_scans=n, lam=2.0))
          for n in range(20, 201, 20)], 10),
        ([TrialPlan(trials=200, seed=seed, config=CONFIG) for seed in (1, 2)], 1)],
        ids=["sweep-lambda", "sweep-n", "two-seeds"])
    def test_one_projector_per_distinct_n(self, monkeypatch, grid, builds):
        import trackassoc.mc_oracle as mc

        calls = []
        build = mc.build_projector
        monkeypatch.setattr(mc, "build_projector", lambda c: calls.append(c) or build(c))
        simulate_single_fa(*grid)
        assert len(calls) == builds

    def test_writing_into_a_projector_changes_no_estimate(self):
        # build_projector hands every caller its own array: zeroing one must
        # not reach a later estimate at the same N
        from trackassoc.geometry import build_projector

        plan = TrialPlan(trials=5_000, seed=1, config=CONFIG)
        ref, = simulate_single_fa(plan)
        build_projector(CONFIG)[:] = 0.0
        assert simulate_single_fa(plan) == [ref]
        assert ref.p_hat == 0.7932        # a zeroed projector reads 1.0

    def test_kernel_rows_are_the_projector_rows(self):
        # a kernel reads the per-coordinate projector's decoy rows as they are
        import trackassoc.mc_oracle as mc
        from trackassoc.geometry import build_projector

        scan_sets = [[20], [3, 9, 14, 20], [20, 1, 12, 11, 17, 5, 19, 8]]
        m = build_projector(CONFIG)
        for scans, (idx, b, a) in zip(scan_sets, mc._kernels(CONFIG, scan_sets)):
            np.testing.assert_array_equal(idx, scans)
            for row, l in zip(b, scans):
                assert np.array_equal(row.view(np.uint64), m[l].view(np.uint64)), l
            assert np.array_equal(a.view(np.uint64), m[np.ix_(scans, scans)].view(np.uint64))


class TestCostAlgebra:
    @pytest.mark.parametrize("state", [(3.0, -2.0, 0.0, 0.0), (5.0, -3.0, 100.0, 37.0)],
                             ids=["still", "fast"])
    def test_projector_route_equals_direct_regression(self, state):
        # the sparse quadratic-form shortcut must reproduce, draw for draw, the
        # cost difference of two full least-squares fits, whatever the target's
        # origin (x1, y1) and velocity (vx, vy); the columns of truth, eps and
        # q are the x and y coordinates, each fitted and projected on its own
        from trackassoc.geometry import ScanConfig, build_design
        n, l, lam = 8, 5, 1.7
        config = ScanConfig(n_scans=n, lam=lam)
        x = build_design(config)
        truth = x @ np.array(state).reshape(2, 2)
        offset = np.array([0.0, lam])
        rng = np.random.default_rng(77)
        from trackassoc.geometry import build_projector
        m = build_projector(config)
        for _ in range(200):
            eps = rng.standard_normal(2 * config.epochs).reshape(config.epochs, 2)
            z_ca = truth + eps
            z_fa = z_ca.copy()
            z_fa[l] = truth[l] - offset
            r_ca = z_ca - x @ np.linalg.lstsq(x, z_ca, rcond=None)[0]
            r_fa = z_fa - x @ np.linalg.lstsq(x, z_fa, rcond=None)[0]
            direct = (r_fa * r_fa).sum() - (r_ca * r_ca).sum()
            q = np.zeros_like(eps)
            q[l] = -offset - eps[l]
            shortcut = (np.einsum("ic,ij,jc->", q, m, q)
                        + 2.0 * np.einsum("ic,ij,jc->", q, m, eps))
            assert shortcut == pytest.approx(direct, abs=1e-9)


def planes(normals, width):
    """The x and y planes of trials ``width`` normals wide, laid out as the pass lays them.

    normals holds whole trials, word j's normal at normals[j]; pair i of a trial
    goes to column i of each plane, and each plane is a contiguous trials x
    width/2 array.
    """
    pairs = normals.reshape(-1, width // 2, 2)
    return np.ascontiguousarray(pairs.transpose(2, 0, 1))


class TestChunkRows:
    @pytest.mark.parametrize("scans", [(20,), (1,), (17, 18, 19, 20)])
    def test_cost_difference_does_not_depend_on_rows_per_chunk(self, scans):
        # 42 normals a trial at N=20; every split of the trials gives the same
        # cost differences, bit for bit
        import trackassoc.mc_oracle as mc

        kernel, = mc._kernels(CONFIG, [list(scans)])
        x, y = planes(words_to_normals(philox_words(3, 0, 0, 3000 * 42)), 42)
        lam = np.linspace(0.5, 2.0, len(scans))[None, :]
        ref = mc._delta_for_chunk(x, y, kernel, lam)
        for rows in (1, 3, 64, 1000):
            np.testing.assert_array_equal(np.concatenate(
                [mc._delta_for_chunk(x[i:i + rows], y[i:i + rows], kernel, lam)
                 for i in range(0, 3000, rows)]), ref)

    @pytest.mark.parametrize("n", (20, 21), ids=["padded", "unpadded"])
    @pytest.mark.parametrize("k", (1, 4))
    def test_padded_view_equals_its_contiguous_copy(self, n, k):
        # a trial is 2(N + 1) normals in a row of whole 4-word blocks: 42 of
        # 44 at N=20, 44 of 44 at N=21; the pass hands out the first N + 1
        # columns of each plane as a view whose row stride is half the row width
        import trackassoc.mc_oracle as mc

        config = ScanConfig(n_scans=n)
        width = mc._trial_words(config.epochs, False)
        scans = list(range(n - k + 1, n + 1))
        kernel, = mc._kernels(config, [scans])
        x, y = planes(words_to_normals(philox_words(3, 0, 0, 2000 * width)), width)
        x, y = x[:, :config.epochs], y[:, :config.epochs]
        assert x.strides[0] == y.strides[0] == 8 * width // 2
        lam = np.linspace(0.5, 2.0, k)[None, :]
        np.testing.assert_array_equal(mc._delta_for_chunk(x, y, kernel, lam),
                                      mc._delta_for_chunk(x.copy(), y.copy(), kernel, lam))

    @pytest.mark.parametrize("scans", [(40,), (3, 17, 29, 40), (1, 5, 11, 12, 20, 33, 39, 40)],
                             ids=["K=1", "K=4", "K=8"])
    @pytest.mark.parametrize("drawn", (False, True), ids=["fixed", "drawn"])
    def test_planes_equal_the_dense_form(self, scans, drawn):
        # the planar contraction against q'Mq + 2 q'M eps summed over the x and
        # y coordinates, with the dense projector, at unequal offsets (fixed,
        # or a column drawn per trial)
        import trackassoc.mc_oracle as mc
        from trackassoc.geometry import build_projector

        config = ScanConfig(n_scans=40)
        k, trials = len(scans), 4000
        x, y = planes(words_to_normals(philox_words(8, 0, 0, trials * 82)), 82)
        lam = (np.linspace(0.5, 3.0, k)[None, :] if not drawn else
               np.random.default_rng(1).uniform(0.0, 4.0, (trials, 1)))
        qx, qy = np.zeros_like(x), np.zeros_like(y)
        idx = np.array(scans)
        qx[:, idx] = -x[:, idx]
        qy[:, idx] = -(lam + y[:, idx])
        m = build_projector(config)
        dense = sum(np.einsum("td,de,te->t", q, m, q) + 2.0 * np.einsum("td,de,te->t", q, m, e)
                    for q, e in ((qx, x), (qy, y)))
        kernel, = mc._kernels(config, [list(scans)])
        planar = mc._delta_for_chunk(x, y, kernel, lam)
        np.testing.assert_allclose(planar, dense, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.sign(planar), np.sign(dense))


class TestSeedPassPlanes:
    def test_planes_are_the_normals_of_their_words(self, monkeypatch):
        # a 40-scan stream of fixed offsets (84 words a trial) and a 20-scan
        # stream of drawn offsets (44 words: 42 normals and the offset's) in
        # windows of 10 wide trials, 840 words: no window edge is a multiple of
        # 44, so a narrow trial is cut at every edge and carried over
        import trackassoc.mc_oracle as mc

        monkeypatch.setattr(mc, "_CHUNK_WORDS", 84 * 10)
        streams = {(30, 41, False): 84, (100, 21, True): 44}
        assert all(mc._trial_words(e, drawn) == w for (_, e, drawn), w in streams.items())
        assert 840 % 44
        seed, done = 6, dict.fromkeys(streams, 0)
        for stream, x, y, z in mc._seed_pass(seed, streams):
            trials, epochs, drawn = stream
            width, t0, t = streams[stream], done[stream], x.shape[0]
            ref = words_to_normals(philox_words(seed, 0, t0 * width, t * width)).reshape(t, width)
            np.testing.assert_array_equal(x, ref[:, 0:2 * epochs:2])
            np.testing.assert_array_equal(y, ref[:, 1:2 * epochs:2])
            if drawn:
                np.testing.assert_array_equal(z, ref[:, 2 * epochs])
            else:
                assert z is None
            done[stream] += t
        assert done == {stream: stream[0] for stream in streams}


class TestConditionalSampler:
    def test_pinned_noise_changes_nothing_else(self):
        delta_a = simulate_conditional((0.5, -0.5), 20, CONFIG, trials=5000, seed=2)
        delta_b = simulate_conditional((0.5, -0.5), 20, CONFIG, trials=5000, seed=2)
        np.testing.assert_array_equal(delta_a, delta_b)
        assert delta_a.shape == (5000,)

    @pytest.mark.parametrize("scan", (-1, 0, 21))
    def test_rejects_a_scan_outside_1_to_n(self, monkeypatch, scan):
        import trackassoc.mc_oracle as mc

        calls = []
        monkeypatch.setattr(mc, "_draw_uniforms", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="outside 1..20"):
            simulate_conditional((0.5, -0.5), scan, CONFIG, trials=10, seed=2)
        assert calls == []

    @pytest.mark.parametrize("seed", (2, 99))
    def test_samples_do_not_depend_on_chunk_size(self, monkeypatch, seed):
        # a trial at N=20 takes `width` words (44): the default window holds 1489
        # trials, `width` * 70_000 words hold the whole stream in one window, and a
        # size that is no multiple of the width rounds down to 997 trials a window
        import trackassoc.mc_oracle as mc

        plan = TrialPlan(trials=70_000, seed=seed, config=CONFIG, scan=20)
        width = mc._trial_words(plan.config.epochs, False)
        seen = []                           # one _normals call a window
        normals = mc._normals
        monkeypatch.setattr(mc, "_normals", lambda *a: seen.append(a) or normals(*a))
        ref = simulate_conditional((0.3, -0.4), 20, CONFIG, trials=70_000, seed=seed)
        for words, windows in ((width * 70_000, 1), (width * 997 + width // 2, 71)):
            seen.clear()
            monkeypatch.setattr(mc, "_CHUNK_WORDS", words)
            np.testing.assert_array_equal(
                simulate_conditional((0.3, -0.4), 20, CONFIG, trials=70_000, seed=seed), ref)
            assert len(seen) == windows


class TestDtmcSimulation:
    def test_uniform_occupancy(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=0.5), steps=400_000, runs=1, seed=7)
        np.testing.assert_allclose(stats.occupancy, 0.25, atol=0.005)

    def test_occupancy_matches_stationary(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=0.2), steps=400_000, runs=1, seed=8)
        np.testing.assert_allclose(stats.occupancy, stationary(AssocDTMC(p_fa=0.2)),
                                   atol=0.005)

    def test_return_time_small_p(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=0.1), steps=2_000_000, runs=1, seed=9)
        assert stats.mean_return_state4 == pytest.approx(100.0, rel=0.05)

    def test_state4_never_visited_without_false_associations(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=0.0), steps=100_000, runs=10, seed=10)
        assert stats.occupancy[3] == 0.0
        assert stats.return_count == 0
        assert stats.mean_absorption_steps == np.inf
        assert expected_transient_visits(AssocDTMC(p_fa=0.0), (1.0, 0.0, 0.0)) == np.inf

    def test_absorption_time(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=0.1), steps=1000, runs=50_000, seed=11)
        expected = expected_transient_visits(AssocDTMC(p_fa=0.1), (1.0, 0.0, 0.0))
        assert abs(stats.mean_absorption_steps - expected) <= 3 * stats.absorption_se

    def test_certain_false_association_absorbs_at_step_two(self):
        stats = simulate_dtmc(AssocDTMC(p_fa=1.0), steps=1000, runs=5000, seed=13)
        np.testing.assert_array_equal(stats.occupancy, [0.0, 0.0, 0.0, 1.0])
        assert stats.mean_return_state4 == 1.0
        assert (stats.mean_absorption_steps, stats.absorption_se) == (2.0, 0.0)
        assert expected_transient_visits(AssocDTMC(p_fa=1.0), (1.0, 0.0, 0.0)) == 2.0

    @pytest.mark.parametrize("p", (0.3, 0.7, 1.0))
    def test_absorption_walk_matches_a_run_by_run_loop(self, monkeypatch, p):
        # the runs read the tag-2 decision stream one after another, each from a
        # fresh [ca, ca]; the walk gives their times at any block size
        import trackassoc.mc_oracle as mc

        runs = 300
        fa = mc._draw_uniforms(12, 2)(np.empty(1 << 16)) < p
        times, run, last = [], 0, False
        for bit in fa:
            run += 1
            if bit and last:
                times.append(run)
                run, last = 0, False
            else:
                last = bit
        times = np.array(times[:runs])
        expected = (float(times.mean()), float(times.std(ddof=1) / math.sqrt(runs)))
        for block in (4, 64, 1 << 16):
            monkeypatch.setattr(mc, "_WALK_BLOCK", block)
            stats = simulate_dtmc(AssocDTMC(p_fa=p), steps=10, runs=runs, seed=12)
            assert (stats.mean_absorption_steps, stats.absorption_se) == expected

    def test_refuses_runs_past_the_decision_bound(self, monkeypatch):
        # 3,000 runs at p_fa = 1e-9 need about 3e21 decisions: refused before any
        # is drawn, as is a p_fa whose square underflows
        import trackassoc.mc_oracle as mc

        calls = []
        monkeypatch.setattr(mc, "_draw_uniforms", lambda *a: calls.append(a))
        for p in (1e-9, 1e-300):
            with pytest.raises(ValueError):
                simulate_dtmc(AssocDTMC(p_fa=p), steps=1000, runs=3000, seed=1)
        assert calls == []

    @pytest.mark.parametrize("steps,runs", ((1, 10), (0, 10), (10, 0)))
    def test_rejects_fewer_than_two_steps_or_one_run(self, steps, runs):
        with pytest.raises(ValueError, match="need steps >= 2 and runs >= 1"):
            simulate_dtmc(AssocDTMC(p_fa=0.5), steps=steps, runs=runs, seed=1)

    def test_absorption_reproducible(self):
        a = simulate_dtmc(AssocDTMC(p_fa=0.3), steps=1000, runs=5000, seed=12)
        b = simulate_dtmc(AssocDTMC(p_fa=0.3), steps=1000, runs=5000, seed=12)
        assert a.mean_absorption_steps == b.mean_absorption_steps
