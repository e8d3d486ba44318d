"""Tabulated expressions, kept exactly as tabulated to be compared with their oracles.

Each one disagrees with an independent oracle; FINDINGS.md records the gap
under the function's name. No production module imports this one; the CLI
reads only ``reach_expansion``, for the ``dtmc`` CSV column of that name.
"""

from __future__ import annotations

import math

import numpy as np

from .dtmc import AssocDTMC
from .geometry import ScanConfig, _check_scan, diag_coeffs
from .multi_fa import FalseAssocSet, MomentParams, coefficient_matrices
from .quadrature import adaptive_integrate
from .single_fa import IndicatorApprox, conditional_law


def variance_polynomials(l, config: ScanConfig):
    """Cubic terms (q1, q2, q3) of the variance coefficient; oracle: ``diag_coeffs().beta``.

    At the geometry's unit epoch spacing they combine as q1 + 2*l*q2 + l^2*q3;
    the tabulated spacing factors (1/dt on q2, 1/dt^2 on q3) cancel in that
    combination, as no spacing changes the projector.
    """
    _check_scan(l, config)
    N = float(config.n_scans)
    q1 = 4 * N**3 - 50 * N**2 + N * (48 * l - 18) + l * (24 - 36 * l) + 4
    q2 = -6.0 * (N**2 - 5 * N - 2 + 4 * l * (1 + 1 / N - 3 * l / N))
    q3 = 36.0 * (N / 3 - 1 + (2 / N) * (1.0 / 3 + 2 * l - 2 * l / N**2))
    return q1, q2, q3


def conditional_box_probability(e_l, l, config: ScanConfig, approx: IndicatorApprox) -> float:
    """Staircase P(cost difference >= 0 | e_l) from box bounds mean -/+ (k i / n) * std."""
    law = conditional_law(e_l, l, config)
    std = math.sqrt(law.variance)
    if std == 0.0:
        return 1.0 if law.mean >= 0 else 0.0
    n = approx.n_steps
    k = approx.support_k
    total = 0.0
    for i in range(1, n + 1):
        half = k * i / n * std
        b_sup = law.mean + half
        b_inf = law.mean - half
        kept = (b_sup if b_sup >= 0 else 0.0) - (b_inf if b_inf >= 0 else 0.0)
        total += approx.gammas[i - 1] / (2.0 * half) * kept
    return total


def eta_coeff(i, l, config: ScanConfig, approx: IndicatorApprox) -> float:
    """Half-width parameter of box i's acceptance region, -6 i sqrt(beta) / (n alpha) > 0."""
    if not 1 <= i <= approx.n_steps:
        raise ValueError("box index outside 1..n_steps")
    c = diag_coeffs(l, config)
    return -6.0 * i * math.sqrt(c.beta) / (approx.n_steps * c.alpha)


def a_integral(i, l, config: ScanConfig, approx: IndicatorApprox) -> float:
    """Box-i acceptance integral with its +2 constant folded out.

    The eta -> 0 limit is -2 e^{-lam^2/2}; ``reassembled_probability`` restores the 2.
    """
    eta = eta_coeff(i, l, config, approx)
    lam = config.lam
    return ((-2 * np.pi + (2 * lam - 2 * np.pi) * eta + (np.pi / 4) * (lam * lam - 1) * eta**2)
            / np.pi * math.exp(-lam * lam / 2.0))


def b_integral(i, l, config: ScanConfig, approx: IndicatorApprox) -> float:
    """Box-i first-moment integral.

    (1-2 lam^2)/(2 pi) e^{-lam^2/2} eta^3/3 times the angular integral of
    sin^2(theta/2) over [0, 2 pi], which is pi.
    """
    eta = eta_coeff(i, l, config, approx)
    lam = config.lam
    return (1 - 2 * lam * lam) / (2 * np.pi) * math.exp(-lam * lam / 2.0) * eta**3 / 3.0 * np.pi


def reassembled_probability(l, config: ScanConfig, approx: IndicatorApprox) -> float:
    """Closed form reassembled from the box integrals.

    sum(g_i/2 * (A_i + 2)) plus the second-moment box term
    3 (1 - 2 lam^2) e^{-lam^2/2} (beta/alpha^2) sum(i^2 g_i) / (32 n^2).
    """
    c = diag_coeffs(l, config)
    lam = config.lam
    n = approx.n_steps
    total = 0.0
    for i in range(1, n + 1):
        total += approx.gammas[i - 1] / 2.0 * (a_integral(i, l, config, approx) + 2.0)
    total += (3.0 * (1 - 2 * lam * lam) * math.exp(-lam * lam / 2.0)
              * (c.beta / c.alpha**2) * approx.sum_i2g / (32.0 * n * n))
    return total


def v1_variance_main(fa: FalseAssocSet, config: ScanConfig) -> float:
    """Main-text tabulated Var[v1]: 2 (1+lam)' Th (1+lam) * sum(Th)."""
    _, Th = coefficient_matrices(fa, config)
    one = 1.0 + np.asarray(fa.lambdas, dtype=float)
    return 2.0 * float(one @ Th @ one) * float(Th.sum())


def v1_variance_appendix(fa: FalseAssocSet, config: ScanConfig) -> float:
    """Appendix tabulated Var[v1]: the diagonal-only 64 sum(Th_kk^2 (1 + lam_k^2))."""
    _, Th = coefficient_matrices(fa, config)
    lam = np.asarray(fa.lambdas, dtype=float)
    return 64.0 * float((np.diag(Th) ** 2 * (1.0 + lam**2)).sum())


def exponential_series(mp: MomentParams):
    """(value, diagnostic) of 8 terms of the odd-moment series for the tail with v1 ~ Exp(1/v0).

    Seeded with a quadrature base term (none is tabulated); NaN, with the
    diagnostic saying so, once the terms diverge. Oracle: ``multi_fa.prob_exponential``.
    """
    if not mp.v0 > 0:
        raise ValueError("v0 must be positive")
    rate = 1.0 / mp.v0
    hi = 40.0 / rate

    def g(v):
        return (mp.m0 / np.sqrt(mp.sigma0_sq + v)) * rate * np.exp(-rate * v)

    i_term, _ = adaptive_integrate(g, 0.0, hi, abs_tol=1e-10)
    sigma0 = math.sqrt(mp.sigma0_sq)
    series = 1.0
    diagnostic = "converged"
    prev_mag = abs(i_term)
    growth = 0
    for n in range(8):
        coeff = (2.0 / math.sqrt(np.pi)) * (-1.0) ** n / (math.factorial(n) * (2 * n + 1))
        series -= coeff * i_term
        nxt = rate * mp.m0 ** (2 * n + 3) - rate * mp.m0**2 * sigma0 ** (2 * n + 1) * i_term
        mag = abs(nxt)
        growth = growth + 1 if mag > prev_mag else 0
        if not math.isfinite(mag) or (growth >= 3 and mag > 1e6):
            series = float("nan")
            diagnostic = f"series diverged at term {n + 1} (|I| = {mag:.3g})"
            break
        prev_mag = mag
        i_term = nxt
    return series, diagnostic


def reach_probability_alt_form(dtmc: AssocDTMC, n: int) -> float:
    """Alternative closed form for the reach probability; leaves [0, 1]."""
    p = dtmc.p_fa
    disc = math.sqrt(1.0 + 2.0 * p - 3.0 * p * p)
    l2 = (1.0 - p - disc) / 2.0
    l3 = (1.0 - p + disc) / 2.0
    q = 1.0 - p
    return (1.0
            - l2 ** (n + 1) * (2 * l2 + q) / (2 * l2 * l2 + q * q)
            + l3 ** (n + 1) * (2 * l3 + q) / (2 * l3 * l3 + q * q))


def reach_expansion(dtmc: AssocDTMC, n: int) -> float:
    """Small-p quadratic (n+1) p^2 + p/3 of the reach probability.

    Its error is O(p), and it exceeds 1 for p >= 0.22 at n = 20.
    """
    p = dtmc.p_fa
    return (n + 1) * p * p + p / 3.0
