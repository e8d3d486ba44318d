"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Each test prints `ACCEPTANCE <nn> PASS|FAIL <name> -- <detail>` and the module
writes the collected lines to acceptance_summary.txt at teardown. Criteria 04,
05 and 06 gate the tabulated closed form against the oracle-verified exact
probability; the closed form cannot meet them (its own large-N limit differs
from the true one by the 1/(2 pi) factor, FINDINGS.md items 3 and 7). They are
asserted at their stated tolerances anyway and are expected to fail honestly.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from trackassoc.dtmc import (AssocDTMC, consecutive_fa_chain, expected_transient_visits,
                             reach_probability, stationary)
from trackassoc.geometry import ScanConfig, build_design, build_projector, diag_coeffs, leverage
from trackassoc.mc_oracle import (TrialPlan, sample_moments, simulate_dtmc, simulate_multi_fa,
                                  simulate_single_fa)
from trackassoc.multi_fa import FalseAssocSet, moment_params, prob_chi2
from trackassoc.single_fa import (RandomLambda, closed_form_probability, exact_probability,
                                  fit_gammas, random_lambda_probability)
from trackassoc.tabulated import variance_polynomials

REPO = Path(__file__).resolve().parent.parent
RESULTS = []
APPROX = fit_gammas(10)


def _check(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name} -- {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _write_summary():
    yield
    (REPO / "acceptance_summary.txt").write_text("\n".join(RESULTS) + "\n")


def test_criterion_01_projection_identities():
    worst = 0.0
    for n in (5, 10, 20, 40, 80):
        config = ScanConfig(n_scans=n)
        m = np.kron(build_projector(config), np.eye(2))     # both coordinates, (x, y) per epoch
        worst = max(worst,
                    float(np.abs(m @ m - m).max()),
                    float(np.abs(m @ np.kron(build_design(config), np.eye(2))).max()),
                    abs(float(np.trace(m)) - (2 * config.epochs - 4)))
    _check(1, "projection identities", worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_02_closed_form_vs_numeric_geometry():
    worst_block = 0.0
    worst_beta = 0.0
    offsets = []
    for n in (10, 20, 40):
        config = ScanConfig(n_scans=n)
        m = np.kron(build_projector(config), np.eye(2))     # both coordinates, (x, y) per epoch
        for l in (1, (n + 1) // 2, n):
            block = m[2 * l:2 * l + 2, 2 * l:2 * l + 2]
            coeffs = diag_coeffs(l, config)
            worst_block = max(worst_block, float(np.abs(
                block - (1.0 - leverage(l, config)) * np.eye(2)).max()))
            sel = np.eye(2 * config.epochs)
            sel[2 * l, 2 * l] = sel[2 * l + 1, 2 * l + 1] = 0.0
            phi_block = (m @ sel @ m)[2 * l:2 * l + 2, 2 * l:2 * l + 2]
            worst_beta = max(worst_beta, float(np.abs(
                phi_block - coeffs.beta * np.eye(2)).max()))
            q1, q2, q3 = variance_polynomials(l, config)
            tabulated = (q1 + 2 * l * q2 + l * l * q3) / ((n + 1) ** 2 * (n + 2) ** 2)
            offsets.append(f"(l={l},N={n}) tab/num={tabulated / coeffs.beta:+.3f}")
    documented = (REPO / "FINDINGS.md").exists() and \
        "variance_polynomials" in (REPO / "FINDINGS.md").read_text()
    ok = worst_block <= 1e-8 and worst_beta <= 1e-8 and documented
    _check(2, "closed-form vs numeric geometry",
           ok, f"block {worst_block:.1e}, beta {worst_beta:.1e}; tabulated-polynomial "
               f"offsets documented in FINDINGS.md: {'; '.join(offsets)}")


def test_criterion_03_quadrature_vs_monte_carlo():
    details = []
    ok = True
    grid = [(n, lam) for n in (20, 40) for lam in (1.5, 2.0, 2.5, 3.0)]
    configs = [ScanConfig(n_scans=n, lam=lam) for n, lam in grid]
    ests = simulate_single_fa(*(TrialPlan(trials=1_000_000, seed=42, config=config,
                                          scan=config.n_scans) for config in configs))
    for (n, lam), config, est in zip(grid, configs, ests):
        exact = exact_probability(n, config)
        z = abs(exact - est.p_hat) / est.stderr
        ok = ok and z <= 3.0
        details.append(f"(N={n},lam={lam}) z={z:.2f}")
    _check(3, "exact quadrature vs Monte Carlo (3 stderr at 1e6)", ok, ", ".join(details))


def test_criterion_04_closed_form_tracks_exact():
    details = []
    ok = True
    for n in (30, 40, 60, 100):
        for lam in (1.5, 2.0, 2.5):
            config = ScanConfig(n_scans=n, lam=lam)
            mid = (n + 1) // 2
            gap_mid = closed_form_probability(mid, config, APPROX).value \
                - exact_probability(mid, config)
            gap_last = closed_form_probability(n, config, APPROX).value \
                - exact_probability(n, config)
            gap = min(abs(gap_mid), abs(gap_last))
            ok = ok and gap <= 0.05
            details.append(f"(N={n},lam={lam}) gap={gap:+.3f}")
    _check(4, "closed form within 0.05 of exact (N>=30, lam in {1.5,2,2.5})",
           ok, ", ".join(details))


def test_criterion_05_closed_form_asymptote():
    details = []
    ok = True
    config_base = 100
    for lam in (1.5, 2.0, 2.5):
        config = ScanConfig(n_scans=config_base, lam=lam)
        target = 1.0 - math.exp(-lam * lam / 2.0) / (2.0 * math.pi)
        gap_mid = closed_form_probability(50, config, APPROX).value - target
        gap_last = closed_form_probability(100, config, APPROX).value - target
        gap = min(abs(gap_mid), abs(gap_last))
        ok = ok and gap <= 0.02
        details.append(f"(lam={lam}) gap={gap:+.4f} (last-scan {gap_last:+.4f})")
    _check(5, "closed form within 0.02 of its large-N value at N=100", ok, ", ".join(details))


def test_criterion_06_random_lambda_vs_monte_carlo():
    details = []
    ok = True
    config = ScanConfig(n_scans=40)
    rls = [RandomLambda(lambda0=lam0, sigma0=sig0) for lam0 in (1.5, 2.5) for sig0 in (1.0, 3.0)]
    ests = simulate_single_fa(*(TrialPlan(trials=1_000_000, seed=42, config=config, scan=40,
                                          random_lambda=rl) for rl in rls))
    for rl, est in zip(rls, ests):
        gap = random_lambda_probability(rl, 40, config, APPROX).value - est.p_hat
        ok = ok and abs(gap) <= 0.02
        details.append(f"(lam0={rl.lambda0},sig0={rl.sigma0}) gap={gap:+.3f}")
    _check(6, "random-distance closed form within 0.02 of Monte Carlo", ok, ", ".join(details))


def test_criterion_07_decision_chain_exactness():
    worst_power = 0.0
    worst_pi = 0.0
    worst_spec = 0.0
    for p in (0.05, 0.1, 0.3):
        chain = AssocDTMC(p_fa=p)
        p2, _ = consecutive_fa_chain(2, chain)
        p2sq = p2 @ p2
        for n in (2, 3, 7, 20):
            worst_power = max(worst_power, float(np.abs(
                np.linalg.matrix_power(p2, n) - p2sq).max()))
        q = 1.0 - p
        worst_pi = max(worst_pi, float(np.abs(
            stationary(chain) - np.array([q * q, p * q, p * q, p * p])).max()))
        for n in range(0, 51):
            r = reach_probability(chain, n)
            worst_spec = max(worst_spec, abs(r.spectral - r.value))
    closed = expected_transient_visits(AssocDTMC(p_fa=0.1), (1.0, 0.0, 0.0))
    sim = simulate_dtmc(AssocDTMC(p_fa=0.1), steps=1000, runs=100_000, seed=42)
    rel = abs(sim.mean_absorption_steps - closed) / closed
    ok = worst_power <= 1e-12 and worst_pi <= 1e-12 and worst_spec <= 1e-10 and rel <= 0.05
    _check(7, "decision-chain closed forms",
           ok, f"power {worst_power:.1e}, stationary {worst_pi:.1e}, "
               f"spectral {worst_spec:.1e}, absorption sim rel {rel:.3f}")


def test_criterion_08_multi_decoy_compound():
    config = ScanConfig(n_scans=40)
    indices = (39, 40)
    worst = 0.0
    fas = [FalseAssocSet(indices=indices, lambdas=(float(lam),) * 2)
           for lam in np.arange(1.0, 4.001, 0.25)]
    ests = simulate_multi_fa(*(TrialPlan(trials=100_000, seed=42, config=config, fa=fa)
                               for fa in fas))
    for fa, est in zip(fas, ests):
        worst = max(worst, abs(prob_chi2(2, moment_params(fa, config))[0] - est.p_hat))
    moment_ok = True
    moment_detail = []
    for lam in (1.0, 2.5):
        fa = FalseAssocSet(indices=indices, lambdas=(lam,) * 2)
        mp = moment_params(fa, config)
        sample = sample_moments(TrialPlan(trials=100_000, seed=43, config=config, fa=fa))
        checks = (abs(mp.m0 - sample.m1_mean) <= 3 * sample.m1_mean_se,
                  abs(mp.sigma0_sq - sample.m1_var) <= 3 * sample.m1_var_se,
                  abs(mp.v0 - sample.v1_mean) <= 3 * sample.v1_mean_se,
                  abs(mp.s0_sq - sample.v1_var) <= 3 * sample.v1_var_se)
        moment_ok = moment_ok and all(checks)
        moment_detail.append(f"lam={lam}: {sum(checks)}/4 moments in 3se")
    ok = worst <= 0.1 and moment_ok
    _check(8, "multi-decoy compound law (K=2, N=40)",
           ok, f"max |chi2 - mc| = {worst:.3f} on lam in [1,4]; "
               f"{'; '.join(moment_detail)} (s0 variant: exact, see FINDINGS.md)")


def test_criterion_09_kinematic_invariance():
    # cost difference of two full least-squares fits (decoy at scan l vs the
    # true measurement), for a target at rest and one moving at speed 100; the
    # track (x, y per epoch) is built from the epoch times, not from the design
    config = ScanConfig(n_scans=20, lam=2.0)
    l = 20
    x = np.kron(build_design(config), np.eye(2))        # both coordinates, (x, y) per epoch
    taus = np.arange(config.epochs, dtype=float)
    noise = np.random.default_rng(42).standard_normal((2 * config.epochs, 10_000))

    def cost_difference(velocity):
        truth = np.outer(taus, velocity).ravel()
        z_ca = truth[:, None] + noise
        z_fa = z_ca.copy()
        z_fa[2 * l] = truth[2 * l]
        z_fa[2 * l + 1] = truth[2 * l + 1] - config.lam
        r_ca = z_ca - x @ np.linalg.lstsq(x, z_ca, rcond=None)[0]
        r_fa = z_fa - x @ np.linalg.lstsq(x, z_fa, rcond=None)[0]
        return (r_fa * r_fa).sum(axis=0) - (r_ca * r_ca).sum(axis=0)

    worst = float(np.abs(cost_difference((0.0, 0.0)) - cost_difference((100.0, 0.0))).max())
    ok = worst <= 1e-9
    _check(9, "kinematic invariance (speeds 0 and 100, same seed)",
           ok, f"max |cost difference change| over 10000 noise draws {worst:.1e}")


def test_criterion_10_decoy_count_effect():
    config = ScanConfig(n_scans=40)
    probs = {}
    for k in (4, 8):
        indices = tuple(range(41 - k, 41))
        mp = moment_params(FalseAssocSet(indices=indices, lambdas=(3.5,) * k), config)
        probs[k] = prob_chi2(k, mp)[0]
    ok = probs[8] < probs[4]
    _check(10, "more decoys lower the probability (K=8 < K=4 at lam=3.5)",
           ok, f"P(K=4)={probs[4]:.6f}, P(K=8)={probs[8]:.6f}")
