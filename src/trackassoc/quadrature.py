"""Shared numerical kernel: Gaussian tail, Gauss-Hermite nodes, adaptive 1-D quadrature.

Every tail probability in this package goes through ``normal_upper_tail`` so there
is exactly one place where the convention lives: it is the upper-tail mass of the
standard normal (NOT the classical complementary error function; the two differ by
scaling, normal_upper_tail(x) = 0.5 * erfc(x / sqrt(2))). Mixing the two
conventions is the easiest way to introduce silent factor-of-two errors here, so
no other module is allowed to call scipy's erfc directly.
"""

from __future__ import annotations

import numpy as np
from scipy import special

MAX_GAUSS_HERMITE_ORDER = 200


class IntegrationError(RuntimeError):
    """Raised when quadrature cannot reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    degrade gracefully instead of losing the partial result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def normal_upper_tail(x):
    """Upper-tail mass of the standard normal: integral of N(0,1) over [x, inf).

    Accepts scalars or arrays. normal_upper_tail(0) == 0.5 and
    normal_upper_tail(-x) == 1 - normal_upper_tail(x).
    """
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def gauss_hermite(order):
    """Nodes and weights for expectations against the standard normal.

    Probabilists' normalization: sum(w) == 1 and sum(w * f(x)) approximates
    E[f(Z)], Z ~ N(0,1), exactly for polynomials of degree < 2*order.
    """
    if not 1 <= order <= MAX_GAUSS_HERMITE_ORDER:
        raise ValueError(f"unsupported Gauss-Hermite order {order}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    return nodes, weights / np.sqrt(2.0 * np.pi)


# Embedded Gauss-Legendre pair reused by every bisection: the 15-point value is
# the estimate, the 7-point value only feeds the error estimate.
_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x7, w7 = _GL_LO
    x15, w15 = _GL_HI
    lo = half * float(np.dot(w7, f(mid + half * x7)))
    hi = half * float(np.dot(w15, f(mid + half * x15)))
    return hi, abs(hi - lo)


def adaptive_integrate(f, a, b, abs_tol=1e-10, max_depth=48):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``f`` must accept ndarray input. Refinement is by interval bisection with an
    embedded 7/15-point Gauss pair as the local error estimate. Returns
    (value, error_estimate). Raises IntegrationError (carrying the best estimate)
    if the tolerance is not met at the maximum bisection depth or f is not finite.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy b > a")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")

    stack = [(a, b, 0)]
    total = 0.0
    err_total = 0.0
    failed = False
    while stack:
        lo, hi, depth = stack.pop()
        val, err = _panel(f, lo, hi)
        if not np.isfinite(val + err):  # bisecting would go on to max_depth everywhere
            raise IntegrationError("integrand is not finite", val, err)
        if err <= abs_tol * (hi - lo) / (b - a) or err <= 1e-16 * abs(val):
            total += val
            err_total += err
        elif depth >= max_depth:
            total += val
            err_total += err
            failed = True
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    if failed or err_total > max(abs_tol, 1e-14 * abs(total)):
        raise IntegrationError("maximum bisection depth exceeded", total, err_total)
    return total, err_total
