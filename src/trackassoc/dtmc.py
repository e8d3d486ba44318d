"""Markov-chain analysis of consecutive false associations.

Each time period the association decision is false with probability p_fa,
independently of the past; the pair of the last two decisions is then a
4-state chain over (1)=[ca,ca], (2)=[ca,fa], (3)=[fa,ca], (4)=[fa,fa]. The
chain forgets its start after two steps (P^n = P^2 for n >= 2), the stationary
law is the product form ((1-p)^2, p(1-p), p(1-p), p^2), and making state 4
absorbing turns "two consecutive false associations within n steps" into an
absorbing-chain reach probability with a two-eigenvalue closed form.

Every function here holds on all of 0 <= p_fa <= 1, the range ``AssocDTMC``
checks, and returns the chain's limits at its ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AssocDTMC:
    p_fa: float

    def __post_init__(self):
        if not 0.0 <= self.p_fa <= 1.0:
            raise ValueError("p_fa must lie in [0, 1]")


def consecutive_fa_chain(k: int, dtmc: AssocDTMC):
    """Transition matrices for the window of the last k decisions.

    A state is the integer whose bits are the last k decisions (1 = false
    association), the newest in bit 0, so state s moves to
    (s << 1 | bit) & (2^k - 1); state 2^k - 1 means k consecutive false
    associations. Returns (full, absorbing) where the absorbing variant traps
    that state. k = 2 is the pair chain every other function here reads; for
    k >= 3 no closed form is matched, and validation is by simulation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = dtmc.p_fa
    m = 1 << k
    full = np.zeros((m, m))
    for s in range(m):
        for bit, prob in ((0, 1.0 - p), (1, p)):
            full[s, (s << 1 | bit) & (m - 1)] += prob
    absorbing = full.copy()
    absorbing[m - 1] = 0.0
    absorbing[m - 1, m - 1] = 1.0
    return full, absorbing


def stationary(dtmc: AssocDTMC) -> np.ndarray:
    """Product-form stationary law ((1-p)^2, p(1-p), p(1-p), p^2).

    The chain has one recurrent class for every p, so this is its only
    stationary law, (1, 0, 0, 0) at p = 0 and (0, 0, 0, 1) at p = 1 included.
    """
    p = dtmc.p_fa
    q = 1.0 - p
    return np.array([q * q, p * q, p * q, p * p])


def chain_power(dtmc: AssocDTMC, n: int) -> np.ndarray:
    """P2^n; collapses to P2^2 for every n >= 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.eye(4)
    p2, _ = consecutive_fa_chain(2, dtmc)
    return p2 if n == 1 else p2 @ p2


def mean_intervisit(dtmc: AssocDTMC, state: int) -> float:
    """Mean recurrence time of a state (1-based), 1 / pi_state; infinite at zero mass."""
    if not isinstance(state, numbers.Integral) or not 1 <= state <= 4:
        raise ValueError("state must be one of the integers 1..4")
    pi = stationary(dtmc)[state - 1]
    return 1.0 / pi if pi > 0.0 else math.inf


@dataclass(frozen=True)
class ReachProbability:
    """P(state 4 reached within [0, n]) from [ca,ca], two ways.

    ``value`` is the matrix-power oracle, ``spectral`` the two-eigenvalue
    closed form; the tests hold them to 1e-12 relative agreement.
    """

    value: float
    spectral: float


def _spectral_reach(p: float, n: int) -> float:
    """1 - sum_j lam_j^{n+1} (lam_j + p) / ((1-p)(lam_j + 2p)), free of cancellation.

    The dominant eigenvalue 1 - d, its weight 1 + (c - 1) and the subdominant
    term are rearranged so that none is a difference of nearly equal numbers.
    Two consecutive false associations need two decisions, so n < 2 gives 0;
    at p = 1, where both eigenvalues are 0, they come at steps 1 and 2.
    """
    if n < 2 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    q = 1.0 - p
    disc = math.sqrt(q * (1.0 + 3.0 * p))
    s = q + disc
    big = 0.5 * s
    d = 2.0 * p * p / (1.0 + p + disc)
    log_big = math.log1p(-d) if d < 0.5 else math.log(big)
    c_minus_1 = p * (2.0 * p - d) / (q * (big + 2.0 * p))
    small = -2.0 * p * q / s
    reach = (-math.expm1((n + 1) * log_big + math.log1p(c_minus_1))
             - small ** (n + 1) * 2.0 * p / (disc * s))
    # once p^2 is subnormal (p < 1.5e-154), rounding can land just below zero
    return max(reach, 0.0)


def reach_probability(dtmc: AssocDTMC, n: int) -> ReachProbability:
    if n < 0:
        raise ValueError("n must be nonnegative")
    _, absorbing = consecutive_fa_chain(2, dtmc)
    power = float(np.linalg.matrix_power(absorbing, n)[0, 3])
    # the powers sum nonnegative terms, but repeated squaring can round past 1
    return ReachProbability(value=min(power, 1.0), spectral=_spectral_reach(dtmc.p_fa, n))


def _transient_start(start) -> np.ndarray:
    """start as an array, if it is a probability vector over the transient states (1, 2, 3)."""
    start = np.asarray(start, dtype=float)
    if start.shape != (3,) or not (start.min() >= 0.0 and abs(start.sum() - 1.0) <= 1e-12):
        raise ValueError("start must be a probability vector over the 3 transient states")
    return start


def expected_transient_visits(dtmc: AssocDTMC, start) -> float:
    """Expected steps before absorption, start a law over transient states (1,2,3).

    Closed form start . ((1+p)/p^2, 1/p^2, (1+p)/p^2), the row sums of the
    fundamental matrix (I - Q)^-1. Infinite for p_fa = 0, and reported as
    infinite below p_fa of about 7.5e-155 too, where 1/p^2 passes every float.
    """
    p = dtmc.p_fa
    start = _transient_start(start)
    sq = p**2
    if sq == 0.0 or 1.0 / sq == math.inf:
        return math.inf
    closed = np.array([(1.0 + p) / sq, 1.0 / sq, (1.0 + p) / sq])
    return float(start @ closed)


def absorption_time_pmf(dtmc: AssocDTMC, start, n: int) -> float:
    """P(absorbed exactly at step n) = start . Q^{n-1} a, n >= 1.

    a = (0, p, 0) is the pair chain's absorbing column, so no term is negative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    start = _transient_start(start)
    _, absorbing = consecutive_fa_chain(2, dtmc)
    return float(start @ np.linalg.matrix_power(absorbing[:3, :3], n - 1) @ absorbing[:3, 3])
