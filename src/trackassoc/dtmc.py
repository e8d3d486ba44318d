"""Markov-chain analysis of consecutive false associations.

Each time period the association decision is false with probability p_fa,
independently of the past; the pair of the last two decisions is then a
4-state chain over (1)=[ca,ca], (2)=[ca,fa], (3)=[fa,ca], (4)=[fa,fa]. The
chain forgets its start after two steps (P^n = P^2 for n >= 2), the stationary
law is the product form ((1-p)^2, p(1-p), p(1-p), p^2), and making state 4
absorbing turns "two consecutive false associations within n steps" into an
absorbing-chain reach probability with a two-eigenvalue closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np


class DegenerateChainError(ValueError):
    pass


@dataclass(frozen=True)
class AssocDTMC:
    p_fa: float

    def __post_init__(self):
        if not 0.0 <= self.p_fa <= 1.0:
            raise ValueError("p_fa must lie in [0, 1]")


@dataclass(frozen=True)
class ChainMatrices:
    p2: np.ndarray
    p2_absorbing: np.ndarray


def build_chains(dtmc: AssocDTMC) -> ChainMatrices:
    """P2 and its variant with state 4 absorbing: the chain of the last 2 decisions."""
    return ChainMatrices(*consecutive_fa_chain(2, dtmc.p_fa))


def stationary(dtmc: AssocDTMC) -> np.ndarray:
    """Product-form stationary law ((1-p)^2, p(1-p), p(1-p), p^2)."""
    p = dtmc.p_fa
    if not 0.0 < p < 1.0:
        raise DegenerateChainError("stationary law needs 0 < p_fa < 1")
    q = 1.0 - p
    return np.array([q * q, p * q, p * q, p * p])


def chain_power(dtmc: AssocDTMC, n: int) -> np.ndarray:
    """P2^n; collapses to P2^2 for every n >= 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p2 = build_chains(dtmc).p2
    if n == 0:
        return np.eye(4)
    if n == 1:
        return p2
    return p2 @ p2


def mean_intervisit(dtmc: AssocDTMC, state: int) -> float:
    """Mean recurrence time of a state (1-based), 1 / pi_state."""
    if not 1 <= state <= 4:
        raise ValueError("state must be 1..4")
    return 1.0 / stationary(dtmc)[state - 1]


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
    Two consecutive false associations need two decisions, so n < 2 gives 0.
    """
    if n < 2 or p == 0.0:
        return 0.0
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
    p = dtmc.p_fa
    if not 0.0 <= p < 1.0:
        raise DegenerateChainError("reach probability needs 0 <= p_fa < 1")
    power = float(np.linalg.matrix_power(build_chains(dtmc).p2_absorbing, n)[0, 3])
    # the powers sum nonnegative terms, but repeated squaring can round past 1
    return ReachProbability(value=min(power, 1.0), spectral=_spectral_reach(p, n))


def expected_transient_visits(dtmc: AssocDTMC, start) -> float:
    """Expected steps before absorption, start a law over transient states (1,2,3).

    Closed form start . ((1+p)/p^2, 1/p^2, (1+p)/p^2), the row sums of the
    fundamental matrix (I - Q)^-1. Infinite for p_fa = 0.
    """
    p = dtmc.p_fa
    start = np.asarray(start, dtype=float)
    if start.shape != (3,) or start.min() < 0 or abs(start.sum() - 1.0) > 1e-12:
        raise ValueError("start must be a probability vector over the 3 transient states")
    if p == 0.0:
        raise DegenerateChainError("expected absorption time is infinite for p_fa = 0")
    closed = np.array([(1.0 + p) / p**2, 1.0 / p**2, (1.0 + p) / p**2])
    return float(start @ closed)


def absorption_time_pmf(dtmc: AssocDTMC, start, n: int) -> float:
    """P(absorbed exactly at step n) = start . Q^{n-1} (I - Q) 1, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    start = np.asarray(start, dtype=float)
    q = build_chains(dtmc).p2_absorbing[:3, :3]
    vec = (np.eye(3) - q) @ np.ones(3)
    return float(start @ np.linalg.matrix_power(q, n - 1) @ vec)


def consecutive_fa_chain(k: int, p_fa: float):
    """Transition matrices for the window of the last k decisions.

    States are the 2^k bit tuples (1 = false association), indexed by their
    binary value; the all-ones state means k consecutive false associations.
    Returns (full, absorbing) where the absorbing variant traps the all-ones
    state. No closed form is matched here; validation is by simulation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= p_fa <= 1.0:
        raise ValueError("p_fa must lie in [0, 1]")
    states = list(product((0, 1), repeat=k))
    index = {s: i for i, s in enumerate(states)}
    m = len(states)
    full = np.zeros((m, m))
    for s in states:
        i = index[s]
        for bit, prob in ((0, 1.0 - p_fa), (1, p_fa)):
            full[i, index[s[1:] + (bit,)]] += prob
    absorbing = full.copy()
    trap = index[(1,) * k]
    absorbing[trap] = 0.0
    absorbing[trap, trap] = 1.0
    return full, absorbing
