"""Probability of correct association under several false measurements.

With K contaminated scans the conditional cost difference is still Gaussian,
but its mean and variance are themselves random through the noise at the
contaminated scans:

    m1 = sum_kk' A_kk' (<e_k, e_k'> - lam_k lam_k')      (sign: m1 = -E[diff|e])
    v1 = 4 sum_kk' Th_kk' <e_k - fa_k, e_k' - fa_k'>

with A the projector-block scalars (geometry.cross_alpha) and Th the
Phi-block scalars (geometry.cross_theta, computed here as A - A^2).
Compounding the conditional tail over m1 ~ N(m0, sigma0^2) and a chosen law
for v1 gives

    P = integral of upper_tail(m0 / sqrt(sigma0^2 + v1)) g2(v1) dv1,

evaluated here for a chi-square, a normal, and an exponential v1 law. The
moment parameters are the exact first two moments of m1 and v1 under
e_k ~ N(0, I2); the tabulated variants that disagree with the Monte Carlo
moment oracle live in :mod:`trackassoc.tabulated` and FINDINGS.md. The exact
value for any decoy set, their reference, is ``exact_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ScanConfig, cross_alpha
from .quadrature import adaptive_integrate, normal_upper_tail


@dataclass(frozen=True)
class FalseAssocSet:
    """Strictly increasing contaminated scan indices with per-scan offsets."""

    indices: tuple
    lambdas: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        lams = tuple(float(x) for x in self.lambdas)
        if idx != tuple(self.indices):
            raise ValueError("indices must be integers")
        if len(idx) < 1:
            raise ValueError("need at least one contaminated scan")
        if len(idx) != len(lams):
            raise ValueError("indices and lambdas must have equal length")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if not all(math.isfinite(x) and x >= 0 for x in lams):
            raise ValueError("offsets must be finite and nonnegative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "lambdas", lams)

    @property
    def k(self) -> int:
        return len(self.indices)


class ClampedProbability(NamedTuple):
    value: float
    clamped: bool


def _clamp(raw: float) -> ClampedProbability:
    """raw clamped to [0, 1]; the flag reports whether clamping occurred."""
    return ClampedProbability(value=min(max(raw, 0.0), 1.0), clamped=not 0.0 <= raw <= 1.0)


@dataclass(frozen=True)
class MomentParams:
    m0: float
    sigma0_sq: float
    v0: float
    s0_sq: float


def _alpha_matrix(fa: FalseAssocSet, config: ScanConfig) -> np.ndarray:
    """K x K matrix of projector-block scalars (geometry.cross_alpha)."""
    return np.array([[cross_alpha(a, b, config) for b in fa.indices] for a in fa.indices])


def coefficient_matrices(fa: FalseAssocSet, config: ScanConfig):
    """K x K matrices of projector-block (A) and Phi-block (Th) scalars.

    Th = A - A @ A because M is idempotent: Phi = M S M = M - M P M with P the
    contaminated blocks, so its blocks at the decoys are A - A^2. The tests hold
    Th to geometry.cross_theta and to the dense Phi.
    """
    A = _alpha_matrix(fa, config)
    return A, A - A @ A


def exact_probability(fa: FalseAssocSet, config: ScanConfig) -> float:
    """P(cost difference >= 0) for any decoy set; config supplies only the geometry.

    Per coordinate Q = -e'Ae + d'Ad + 2(e + d)'B^(1/2) z, e, z ~ N(0, I), with A as in
    ``coefficient_matrices``, B = Th = A - A^2 (M is idempotent) and d the offsets
    (0 in x, fa.lambdas in y). With (a_j, U) = eigh(A) and d_j = (U' lambdas)_j the
    x and y halves multiply to phi(t) = prod_j exp(d_j^2 a_j t (i - 2t) / D_j) / D_j,
    D_j = 1 + 2i a_j t + 4 a_j (1 - a_j) t^2, and Gil-Pelaez (Imhof 1961) gives
    P(Q >= 0) = 1/2 + (1/pi) * integral_0^inf Im phi(t) / t dt, taken in s = log t.

    The seed partition: the bisection starts from 20 equal panels of s in
    [-50, 50], 5 wide each, not from one. Past s = 0 the integrand collapses, as
    exp(-2 a d^2 t^2) at large offsets and as t^-K with many decoys, so its mass
    on s > 0 can lie within half a unit of 0. A panel as wide as [0, 50] has no
    node there (the nearest 15-point node is at s = 0.30): both rules read
    about 0 and agree, the panel passes, and the mass is lost, up to 5e-10 of P
    at lam >= 7.5 (FINDINGS 21). On 5-wide panels the nodes reach it.
    """
    a, U = np.linalg.eigh(_alpha_matrix(fa, config))
    # A is a principal block of a projector, so a_j lies in [0, 1]; a rounded
    # a_j above 1 would make a_j (1 - a_j) < 0 and |phi| grow without bound
    a = np.clip(a, 0.0, 1.0)
    d2 = (U.T @ np.asarray(fa.lambdas)) ** 2
    # the t-free factors of D and of the exponent, computed once per value
    ia2, b4, d2a = 2j * a, 4.0 * a * (1.0 - a), d2 * a

    def im_phi(s):
        t = np.exp(s)[:, None]
        D = 1.0 + ia2 * t + b4 * t * t
        return np.exp((d2a * t * (1j - 2.0 * t) / D - np.log(D)).sum(axis=1)).imag

    # Im phi(e^s) is ~E[Q] e^s as s -> -inf and O(e^(-2s)) as s -> inf: |s| <= 50 suffices
    val, _ = adaptive_integrate(im_phi, -50.0, 50.0, abs_tol=1e-12, panels=20)
    return _clamp(0.5 + val / math.pi).value


def moment_params(fa: FalseAssocSet, config: ScanConfig) -> MomentParams:
    """First two moments of (m1, v1) over the contaminated-scan noise.

    m0 and v0 are the tabulated sums (they coincide with the exact means).
    sigma0_sq uses the exact second-moment algebra 4*sum(A_kk'^2); the
    tabulated 4*(sum A_kk')^2 fails the Monte Carlo moment oracle for K >= 2
    (FINDINGS.md). s0_sq is the exact v1 variance 64*[tr(Th^2) + |Th lam|^2],
    which matches the oracle where both tabulated variants fail it.
    """
    A, Th = coefficient_matrices(fa, config)
    lam = np.asarray(fa.lambdas, dtype=float)
    m0 = 2.0 * float(np.trace(A)) - float(lam @ A @ lam)
    sigma0_sq = 4.0 * float((A * A).sum())
    v0 = 4.0 * float(2.0 * np.trace(Th) + lam @ Th @ lam)
    tl = Th @ lam
    s0_sq = 64.0 * float((Th * Th).sum() + tl @ tl)
    return MomentParams(m0=m0, sigma0_sq=sigma0_sq, v0=v0, s0_sq=s0_sq)


def _chi2_pdf(v, df):
    k = df / 2.0
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = np.exp((k - 1) * np.log(v[pos]) - v[pos] / 2.0
                      - k * math.log(2.0) - math.lgamma(k))
    return out


_CHI2_TAIL = 1e-10                       # chi-square mass the chi2 law leaves out


def _chi2_upper_cutoff(df):
    """The first of 2 df + 10 times 1.5^i past which chi-square(df) keeps mass <= _CHI2_TAIL.

    df = 2K is even, so the upper tail at v is the Poisson sum
    e^-x sum_{j<K} x^j / j! at x = v / 2, summed here in log space.
    """
    K = df // 2
    hi = 2.0 * df + 10.0
    while _poisson_head(K, hi / 2.0) > _CHI2_TAIL:
        hi *= 1.5
    return hi


def _poisson_head(K, x):
    """P(Poisson(x) < K), which is the chi-square(2K) upper tail at 2x."""
    log_x = math.log(x)
    return math.fsum(math.exp(j * log_x - x - math.lgamma(j + 1)) for j in range(K))


_SQRT_2PI = math.sqrt(2 * np.pi)


def _variance_law(law: str, mps, K: int | None = None):
    """(weight, lo, hi): the density of v1 under ``law`` for each moment set, and the intervals.

    ``weight(v, rows)`` evaluates the densities of the sets ``rows`` on the rows
    of ``v``; ``lo`` and ``hi`` list each set's interval. "chi2" is
    chi-square(2K) as tabulated (no rescaling), cut where its upper tail falls
    below 1e-10; "normal" is N(v0, s0_sq) over v0 +- 12 s0, cut below at
    -sigma0_sq, where sigma0_sq + v1 stops being a variance (its interval is
    empty when s0_sq = 0, and the set then takes the point mass at v0);
    "exponential" is Exp(1/v0), the law of mean v0, on [0, 40 v0].
    """
    if law == "chi2":
        if K is None or K < 1:
            raise ValueError("chi2 law needs K >= 1")
        df, cutoff = 2 * K, _chi2_upper_cutoff(2 * K)
        return (lambda v, rows: _chi2_pdf(v, df)), [0.0] * len(mps), [cutoff] * len(mps)
    if law == "normal":
        s0 = [math.sqrt(mp.s0_sq) for mp in mps]
        lo = [max(-mp.sigma0_sq + 1e-12 * (1.0 + mp.sigma0_sq), mp.v0 - 12.0 * s)
              for mp, s in zip(mps, s0)]
        hi = [mp.v0 + 12.0 * s for mp, s in zip(mps, s0)]
        v0, s0 = np.array([mp.v0 for mp in mps])[:, None], np.array(s0)[:, None]
        return ((lambda v, rows: np.exp(-0.5 * ((v - v0[rows]) / s0[rows]) ** 2)
                 / (s0[rows] * _SQRT_2PI)), lo, hi)
    if law == "exponential":
        if not all(mp.v0 > 0 for mp in mps):
            raise ValueError("exponential law needs v0 > 0 in each moment set")
        rates = [1.0 / mp.v0 for mp in mps]
        rate = np.array(rates)[:, None]
        return ((lambda v, rows: rate[rows] * np.exp(-rate[rows] * v)),
                [0.0] * len(mps), [40.0 / r for r in rates])
    raise ValueError(f"unknown variance law {law!r}")


def _compound_tails(mps, weight, lo, hi) -> list:
    """Integral of upper_tail(m0 / sqrt(sigma0_sq + v1)) against the v1 law of each set, in [0, 1].

    One lockstep ``adaptive_integrate`` call integrates every set whose interval
    is not empty, each value bit for bit that of a call of its own; any other set
    takes the point mass at v0.
    """
    sets = np.array([i for i in range(len(mps)) if hi[i] > lo[i]], dtype=int)
    m0 = np.array([mp.m0 for mp in mps])[:, None]
    s2 = np.array([mp.sigma0_sq for mp in mps])[:, None]

    def f(v, members):
        rows = sets[members]
        return normal_upper_tail(m0[rows] / np.sqrt(s2[rows] + v)) * weight(v, rows)

    found = iter(adaptive_integrate(f, [lo[i] for i in sets], [hi[i] for i in sets], abs_tol=1e-8))
    return [_clamp(next(found)[0] if hi[i] > lo[i]
                   else float(normal_upper_tail(mp.m0 / math.sqrt(mp.sigma0_sq + mp.v0)))).value
            for i, mp in enumerate(mps)]


def prob_chi2(K: int, *mps: MomentParams) -> list[float]:
    """Compound tail with v1 ~ chi-square(2K), as tabulated (no rescaling), one value per set."""
    return _compound_tails(mps, *_variance_law("chi2", mps, K=K))


class NormalCompound(NamedTuple):
    value: float
    negative_mass: float
    unreliable: bool


def prob_normal(*mps: MomentParams) -> list[NormalCompound]:
    """Compound tail with v1 ~ N(v0, s0_sq), restricted to v1 > -sigma0_sq, one result per set.

    The normal law puts mass on negative variances; if the mass at v1 <= 0
    exceeds 0.05 the result is flagged unreliable (the weight below -sigma0_sq,
    where the integrand is undefined, is dropped entirely). A set whose interval
    is empty, as with s0_sq = 0, takes the point mass at v0.
    """
    out = []
    for val, mp in zip(_compound_tails(mps, *_variance_law("normal", mps)), mps):
        s0 = math.sqrt(mp.s0_sq)
        neg_mass = float(normal_upper_tail((mp.v0 - 0.0) / s0)) if s0 > 0 else float(mp.v0 <= 0)
        out.append(NormalCompound(value=val, negative_mass=neg_mass, unreliable=neg_mass > 0.05))
    return out


def prob_exponential(*mps: MomentParams) -> list[float]:
    """Compound tail with v1 ~ Exp(1/v0), the law of mean v0, one value per set.

    The tabulated series for the same law is tabulated.exponential_series.
    """
    return _compound_tails(mps, *_variance_law("exponential", mps))


def compound_density(mp: MomentParams, law: str, K: int | None = None):
    """Density of the cost difference after compounding mean and variance.

    Returns a callable h(delta). The conditional mean of the cost difference is
    -m1 (m1 as defined above), so the compound normal has mean -m0 and variance
    sigma0_sq + v1, mixed over the v1 law of ``_variance_law``: "chi2" (needs
    K), "normal" or "exponential". A normal law whose interval is empty, as
    with s0_sq = 0, is the point mass at v0, which gives the exact normal
    density. Otherwise one lockstep ``adaptive_integrate`` call mixes every
    delta, each value bit for bit that of a call of its own.

    The mixture is integrated in u = sqrt(sigma0_sq + v1), the compound
    normal's standard deviation, over the same interval. In v1 the integrand
    grows as (sigma0_sq + v1)^(-1/2) at delta = -m0 where the interval
    reaches a zero variance (the normal law's cut at -sigma0_sq); in u,
    dv1 = 2 u du cancels the normal density's 1 / u and it stays bounded.
    """
    weight, (lo,), (hi,) = _variance_law(law, [mp], K=K)
    if hi <= lo:
        s = math.sqrt(mp.sigma0_sq + mp.v0)
        return lambda delta: (np.exp(-0.5 * ((np.asarray(delta, dtype=float) + mp.m0) / s) ** 2)
                              / (s * _SQRT_2PI))
    u_lo, u_hi = math.sqrt(mp.sigma0_sq + lo), math.sqrt(mp.sigma0_sq + hi)

    def h(delta):
        d = np.asarray(delta, dtype=float)
        # squared by Python's float power (C pow), which can differ from x * x in the last bit
        sq = np.array([(x + mp.m0) ** 2 for x in d.ravel().tolist()])[:, None]

        def f(u, members):
            u2 = u * u
            return (weight(u2 - mp.sigma0_sq, np.zeros_like(members))
                    * np.exp(-0.5 * sq[members] / u2) * (2.0 / _SQRT_2PI))

        found = adaptive_integrate(f, [u_lo] * d.size, [u_hi] * d.size, abs_tol=1e-10)
        return np.array([val for val, _ in found]).reshape(d.shape)[()]

    return h
