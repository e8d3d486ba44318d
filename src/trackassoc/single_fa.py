"""Probability of correct association for a single false measurement.

The cost difference between associating the false point and the true
measurement at scan l, conditioned on the scan-l noise e = (x, y), is Gaussian:

    mean     = alpha * (|e|^2 - lam^2)
    variance = 4 * beta * |e - fa|^2,        fa = (0, -lam),

with alpha, beta from :mod:`trackassoc.geometry`. The exact probability of
correct association averages that normal tail over e ~ N(0, I2) (computed by
:mod:`trackassoc.multi_fa`). The closed-form shortcuts approximate it by
replacing the conditional normal density with a least-squares staircase of
nested boxes (``fit_gammas``) and expanding the resulting acceptance-region
integrals (:mod:`trackassoc.tabulated`); they are reproduced here exactly as
tabulated, and their accuracy against the exact integral is in FINDINGS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multi_fa
from .geometry import ScanConfig, diag_coeffs
from .multi_fa import ClampedProbability, _clamp
from .quadrature import normal_upper_tail


@dataclass(frozen=True)
class CostDiffLaw:
    """Conditional law of the cost difference given the scan-l noise."""

    mean: float
    variance: float


@dataclass(frozen=True)
class RandomLambda:
    """Contamination distance drawn per trial from N(lambda0, sigma0^2)."""

    lambda0: float
    sigma0: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and math.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise ValueError("lambda0 must be finite, and sigma0 finite and nonnegative")


def conditional_law(e_l, l, config: ScanConfig) -> CostDiffLaw:
    """Normal law of the cost difference for fixed scan-l noise e_l.

    The variance carries the factor 4 from the doubled cross term between the
    contaminated block and the shared noise; see FINDINGS.md for the tabulated
    display that drops it.
    """
    x, y = float(e_l[0]), float(e_l[1])
    c = diag_coeffs(l, config)
    lam = config.lam
    mean = c.alpha * (x * x + y * y - lam * lam)
    variance = 4.0 * c.beta * (x * x + (y + lam) ** 2)
    return CostDiffLaw(mean=mean, variance=variance)


def exact_probability(l, config: ScanConfig) -> float:
    """Exact P(cost difference >= 0) for one decoy at scan l; see multi_fa.exact_probability."""
    return multi_fa.exact_probability(multi_fa.FalseAssocSet((l,), (config.lam,)), config)


# ---------------------------------------------------------------------------
# staircase (nested indicator-box) approximation machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndicatorApprox:
    """Least-squares weights for the nested-box staircase of the normal density.

    Box i (1-based) is the unit-mass indicator on [-k*i/n, k*i/n] in units of
    the conditional standard deviation. The weights depend only on (n, k),
    never on the conditioning point.
    """

    n_steps: int
    gammas: tuple
    support_k: float

    @property
    def _i(self):
        return np.arange(1, self.n_steps + 1, dtype=float)

    @property
    def sum_ig(self):
        return float(np.dot(self._i, self.gammas))

    @property
    def sum_g_over_i(self):
        return float(np.dot(1.0 / self._i, self.gammas))

    @property
    def sum_i2g(self):
        return float(np.dot(self._i**2, self.gammas))

    @property
    def slope(self):
        """N-slope of the approximate probability; positive for every n."""
        return (1.0 / (2 * np.pi)) * (6.0 / self.n_steps * self.sum_ig - self.sum_g_over_i)

    def density(self, u):
        """Staircase approximation of the standard normal density at u."""
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        for i in range(1, self.n_steps + 1):
            hw = self.support_k * i / self.n_steps
            out += self.gammas[i - 1] / (2.0 * hw) * (u <= hw)
        return out


def fit_gammas(n_steps: int = 10, support_k: float = 3.0) -> IndicatorApprox:
    """Solve the least-squares system for the nested-box weights.

    The Gram matrix of unit-mass nested boxes couples i and j through the
    smaller box, giving G_ij proportional to 1/max(i, j); the right-hand side
    is the Gaussian mass of box i divided by i. Consequences used downstream:
    sum(gammas) equals the Gaussian mass of the widest box and
    sum(gammas/i) the mass of the narrowest one.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not support_k > 0:
        raise ValueError("support_k must be positive")
    i = np.arange(1, n_steps + 1, dtype=float)
    gram = 1.0 / np.maximum.outer(i, i)
    mass = 1.0 - 2.0 * normal_upper_tail(support_k * i / n_steps)
    gammas = np.linalg.solve(gram, mass / i)
    return IndicatorApprox(n_steps=n_steps, gammas=tuple(float(g) for g in gammas),
                           support_k=support_k)


def closed_form_coefficients(l, config: ScanConfig, approx: IndicatorApprox):
    """(a, b, c) of the tabulated closed form 1 + (a + b*lam + c*lam^2) e^{-lam^2/2}."""
    c = diag_coeffs(l, config)
    n = approx.n_steps
    sq_ratio = math.sqrt(c.beta) / c.alpha
    ratio2 = c.beta / c.alpha**2
    a = -(1.0 / (2 * np.pi)) * (1.0 + sq_ratio * approx.sum_g_over_i
                                + (66.0 * np.pi / (32.0 * n * n)) * ratio2 * approx.sum_i2g)
    b = (1.0 / (2 * np.pi)) * (6.0 / n) * sq_ratio * approx.sum_ig
    cc = (15.0 / (16.0 * n * n)) * ratio2 * approx.sum_i2g
    return a, b, cc


def closed_form_probability(l, config: ScanConfig, approx: IndicatorApprox) -> ClampedProbability:
    """Tabulated closed-form approximation of the correct-association probability.

    Reproduced exactly as tabulated; its measured bias against
    ``exact_probability`` is documented in FINDINGS.md. The value is clamped to
    [0, 1] and the flag reports whether clamping occurred.
    """
    a, b, c = closed_form_coefficients(l, config, approx)
    lam = config.lam
    return _clamp(1.0 + (a + b * lam + c * lam * lam) * math.exp(-lam * lam / 2.0))


def first_order_probability(l, config: ScanConfig,
                            approx: IndicatorApprox) -> ClampedProbability:
    """First-order (slope) form 1 - (1 - slo*sqrt(beta)/alpha) e^{-lam^2/2}, clamped to [0, 1].

    Near lam = 0 the form falls below 0 (at lam = 0 it is slo*sqrt(beta)/alpha < 0).
    """
    c = diag_coeffs(l, config)
    lam = config.lam
    return _clamp(1.0 - (1.0 - approx.slope * math.sqrt(c.beta) / c.alpha)
                  * math.exp(-lam * lam / 2.0))


def random_lambda_probability(rl: RandomLambda, l, config: ScanConfig,
                              approx: IndicatorApprox) -> ClampedProbability:
    """Closed form for a contamination distance drawn from N(lambda0, sigma0^2).

    Algebraically the exact Gaussian average of the closed form over the
    distance (verified in the tests), so it inherits the closed form's bias.
    sigma0 = 0 degenerates to closed_form_probability at lambda0, and the value
    is clamped to [0, 1] the same way.
    """
    a, b, c = closed_form_coefficients(l, config, approx)
    h = math.hypot(1.0, rl.sigma0)  # sqrt(sigma0^2 + 1) without overflow
    lam_bar = rl.lambda0 / h / h
    s0_sq = (rl.sigma0 / h) ** 2
    return _clamp(1.0 + (a + b * lam_bar + c * (lam_bar**2 + s0_sq)) / h
                  * math.exp(-((rl.lambda0 / h) ** 2) / 2.0))
