"""Linear track-regression geometry.

A constant-velocity target observed at epochs tau = 0, 1, ..., n_scans gives,
in each coordinate, the batch regression z = X b + noise with design X = [1, tau]
and state b = (position at tau = 0, velocity). The x and y coordinates
decouple: they share this design and have independent unit-variance noise, so
everything here is of one coordinate. The epochs are at unit spacing because
no other spacing changes a number: a spacing dt scales the time column of X by
dt, which leaves its column space, and so M below, unchanged. All association
statistics in this package reduce to quadratic forms in the residual projector
M = I - X (X'X)^-1 X' and in Phi = M S M', where S is the identity with the
contaminated epochs zeroed. Their entries have closed forms in the per-epoch
leverage

    h_l = 2 (2N + 1 - 6l + 6 l^2 / N) / ((N + 1)(N + 2)),   N = n_scans,

namely M_ll = 1 - h_l and, with a single contaminated epoch,
Phi_ll = h_l (1 - h_l). Both are cross-checked against the dense matrices in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class ScanConfig:
    """Scenario geometry.

    n_scans is the N of the closed forms; the batch holds n_scans + 1
    measurement epochs at times 0, 1, ..., n_scans. ``lam`` is the
    contamination offset expressed as a ratio to the measurement noise
    standard deviation, so the noise is always unit-variance here.
    """

    n_scans: int
    lam: float = 0.0

    def __post_init__(self):
        if int(self.n_scans) != self.n_scans or self.n_scans < 5:
            raise GeometryError("n_scans must be an integer >= 5")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise GeometryError("lam must be finite and nonnegative")

    @property
    def epochs(self) -> int:
        return self.n_scans + 1


@dataclass(frozen=True)
class DiagBlockCoeffs:
    """Coefficients of the single-contamination quadratic forms at scan l.

    alpha scales the cost-difference mean (alpha = h_l - 1, in (-1, 0));
    beta scales its variance (beta = h_l (1 - h_l)).
    """

    alpha: float
    beta: float


def _check_scan(l, config):
    if int(l) != l or not 1 <= l <= config.n_scans:
        raise GeometryError(f"scan index {l} outside 1..{config.n_scans}")


def build_design(config: ScanConfig) -> np.ndarray:
    """epochs x 2 design matrix of one coordinate; epoch j contributes the row [1, j]."""
    taus = np.arange(config.epochs, dtype=float)
    return np.column_stack((np.ones_like(taus), taus))


def build_projector(config: ScanConfig) -> np.ndarray:
    """Dense residual projector M = I - X (X'X)^-1 X' for the config's epoch grid.

    Each call builds a fresh array, so a caller may write into it. The hat
    matrix H is turned into M = I - H in place, so the build holds one
    epochs x epochs array: 0 - H (not -H, which would give -0 where H has
    an exact zero) and then + 1 on the diagonal, bit for bit I - H.

    No conditioning check runs: X has full column rank for every ScanConfig
    (N + 1 >= 6 distinct epochs), and cond(X'X) grows as about 4 N^2 / 3
    (5.3e4 at N = 200). It would pass 1e12 only near N = 8.7e5, where M alone
    would take about 6 TB. The test suite checks the growth.
    """
    X = build_design(config)
    projector = X @ np.linalg.solve(X.T @ X, X.T)
    np.subtract(0.0, projector, out=projector)
    projector.flat[::projector.shape[0] + 1] += 1.0
    return projector


def _hat(l, m, N):
    """Entry (l, m) of the hat matrix X (X'X)^-1 X', closed form."""
    return 2.0 * (2 * N + 1 - 3 * m - 3 * l + 6 * l * m / N) / ((N + 1) * (N + 2))


def leverage(l, config: ScanConfig) -> float:
    """Leverage of epoch l, the hat matrix's diagonal entry, closed form."""
    _check_scan(l, config)
    return _hat(l, l, config.n_scans)


def diag_coeffs(l, config: ScanConfig) -> DiagBlockCoeffs:
    """Mean and variance coefficients for a single contaminated scan."""
    h = leverage(l, config)
    return DiagBlockCoeffs(alpha=h - 1.0, beta=h * (1.0 - h))


def cross_alpha(lk, lk2, config: ScanConfig) -> float:
    """Projector entry M_{lk,lk2}; symmetric in its indices."""
    _check_scan(lk, config)
    _check_scan(lk2, config)
    return (1.0 if lk == lk2 else 0.0) - _hat(lk, lk2, config.n_scans)


def _excluded_sums(fa_indices, config):
    """Sums of (4N+2-6m)^2, cross term, (1-2m/N)^2 over epochs m not contaminated.

    The triple combines as s1 + (lk + lk2) s2 + lk lk2 s3, like the (q1, q2, q3)
    of ``tabulated.variance_polynomials``; no epoch spacing appears in either
    because none changes the projector (see the module docstring).
    """
    N = config.n_scans
    excluded = set(int(i) for i in fa_indices)
    m = np.array([j for j in range(N + 1) if j not in excluded], dtype=float)
    a = 4 * N + 2 - 6 * m
    b = 1 - 2 * m / N
    return float((a * a).sum()), float(-6.0 * (a * b).sum()), float(36.0 * (b * b).sum())


def cross_theta(lk, lk2, fa_indices, config: ScanConfig) -> float:
    """Entry (lk, lk2) of Phi for the contaminated-index set.

    Phi = M S M' with S the identity noise covariance zeroed at every epoch in
    fa_indices. Equals the excluded-epoch sum form; for a single index it
    reduces exactly to diag_coeffs(l).beta.
    """
    fa = tuple(int(i) for i in fa_indices)
    if len(set(fa)) != len(fa):
        raise GeometryError("contaminated indices must be distinct")
    for i in fa:
        _check_scan(i, config)
    if lk not in fa or lk2 not in fa:
        raise GeometryError("cross_theta indices must belong to the contaminated set")
    N = config.n_scans
    s1, s2, s3 = _excluded_sums(fa, config)
    d = float((N + 1) * (N + 2))
    return (s1 + (lk + lk2) * s2 + lk * lk2 * s3) / (d * d)

