"""Shared numerical kernel: Gaussian tail and adaptive 1-D quadrature.

Every tail probability in this package goes through ``normal_upper_tail`` so there
is exactly one place where the convention lives: it is the upper-tail mass of the
standard normal (NOT the classical complementary error function; the two differ by
scaling, normal_upper_tail(x) = 0.5 * erfc(x / sqrt(2))). Mixing the two
conventions is the easiest way to introduce silent factor-of-two errors here, so
no other module evaluates an error function.

The erfc inside is the C library's (``math.erfc``). It may differ from
``scipy.special.erfc`` (a Cephes port) in the last bit, so a value here can
differ from the same formula evaluated with scipy by about 2e-16.
"""

from __future__ import annotations

import math

import numpy as np

class IntegrationError(RuntimeError):
    """Raised when quadrature cannot reach the requested tolerance.

    Carries the best available estimate and its error estimate (``error_bound``,
    a sum of 7/15-point gaps like ``adaptive_integrate``'s, not a bound) so
    callers can degrade gracefully instead of losing the partial result.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


_SQRT2 = math.sqrt(2.0)


def normal_upper_tail(x):
    """Upper-tail mass of the standard normal: integral of N(0,1) over [x, inf).

    Accepts scalars or arrays. normal_upper_tail(0) == 0.5 and
    normal_upper_tail(-x) == 1 - normal_upper_tail(x).
    """
    z = np.asarray(x, dtype=float)
    tails = (0.5 * math.erfc(v / _SQRT2) for v in z.ravel().tolist())
    return np.fromiter(tails, float, z.size).reshape(z.shape)[()]


# Embedded Gauss-Legendre pair reused by every bisection: the 15-point value is
# the estimate, the 7-point value only feeds the error estimate. A panel's nodes
# for both rules come from one product and one sum over their 22 abscissae and
# go to one integrand call, whose values are then split between the rules.
# The tables are np.polynomial.legendre.leggauss(7) and (15) written out, bit for
# bit (the tests compare them), so the package never imports numpy.polynomial.
_X7 = np.array([-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
                0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_W7 = np.array([0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
                0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
                0.12948496616886973])
_X15 = np.array([-0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
                 -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
                 -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
                 0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
                 0.9372733924007058, 0.9879925180204854])
_W15 = np.array([0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
                 0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
                 0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
                 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
                 0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
_X = np.concatenate([_X7, _X15])


def adaptive_integrate(f, a, b, abs_tol=1e-10, max_depth=48, panels=1):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``f`` must accept ndarray input. Refinement is by interval bisection with an
    embedded 7/15-point Gauss pair, starting from ``panels`` equal panels of
    [a, b]. A wide panel whose nodes all miss a narrow feature passes, because
    its 7- and 15-point values agree while both omit the feature; starting from
    panels whose nodes reach every such feature prevents that. Returns (value,
    error_estimate). The error estimate is the sum of the accepted panels'
    7/15-point gaps, not a bound: a panel whose nodes miss a feature adds almost
    nothing to it (2.9e-13 for a panel that lost 1.7e-9, FINDINGS 21). Raises
    IntegrationError (carrying the best estimate) if the tolerance is not met at
    the maximum bisection depth or f is not finite.

    Batch form: with ``a`` and ``b`` sequences of P interval ends, ``f(x,
    members)`` evaluates the integrands ``members`` (an index array into the P)
    on the rows of ``x``, one row of nodes per member, and the call returns a
    list of P (value, error_estimate) pairs, each member's error its own. Each
    member keeps its own panel stack, acceptance test and totals. Each round
    takes the next panel of every member still bisecting and calls ``f`` once,
    on the 22 nodes of both rules (the 7-point nodes first), so a member whose
    integrand is elementwise in its nodes gets the same panels, sums and
    value, bit for bit, as a call of its own. A failing member raises the
    IntegrationError of its own call: a non-finite value in the round it
    appears, a missed tolerance once every member is done, the first such
    member's. One loop serves both forms: the one-integrand form runs as a
    batch of one, one call of ``f`` per panel.
    """
    if np.ndim(a) > 0:
        return _bisect(f, a, b, abs_tol, max_depth, panels)
    return _bisect(lambda x, members: f(x[0])[None], [a], [b], abs_tol, max_depth, panels)[0]


def _bisect(f, a, b, abs_tol, max_depth, panels):
    """``adaptive_integrate``'s batch form: its round loop, one call of ``f`` per round."""
    ends = list(zip(a, b, strict=True))
    if not all(hi > lo for lo, hi in ends):
        raise ValueError("integration interval must satisfy b > a")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    if panels < 1:
        raise ValueError("panels must be at least 1")

    stacks = []
    for lo, hi in ends:
        edges = [lo, *(lo + (hi - lo) * i / panels for i in range(1, panels)), hi]
        stacks.append([(x0, x1, 0) for x0, x1 in zip(edges, edges[1:])])
    widths = [hi - lo for lo, hi in ends]
    totals = [0.0] * len(ends)
    err_totals = [0.0] * len(ends)
    failed = [False] * len(ends)
    members = list(range(len(ends)))
    active = stacks[:]                   # the stacks of ``members``
    while active:
        popped = list(map(list.pop, active))
        lo, hi = np.array([panel[:2] for panel in popped]).T
        nodes = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _X
        for i, (lo, hi, depth), row in zip(members, popped, f(nodes, np.array(members))):
            half = 0.5 * (hi - lo)
            # ndarray.dot is np.dot's own product, without its dispatch cost
            val = half * float(_W15.dot(row[7:]))
            err = abs(val - half * float(_W7.dot(row[:7])))
            if not math.isfinite(val + err):  # bisecting would go on to max_depth everywhere
                raise IntegrationError("integrand is not finite", val, err)
            if err <= abs_tol * (hi - lo) / widths[i] or err <= 1e-16 * abs(val):
                totals[i] += val
                err_totals[i] += err
            elif depth >= max_depth:
                totals[i] += val
                err_totals[i] += err
                failed[i] = True
            else:
                mid = 0.5 * (lo + hi)
                stacks[i] += (lo, mid, depth + 1), (mid, hi, depth + 1)
        if not all(active):
            members = [i for i in members if stacks[i]]
            active = [stacks[i] for i in members]
    for total, err_total, fail in zip(totals, err_totals, failed):
        if fail or err_total > max(abs_tol, 1e-14 * abs(total)):
            raise IntegrationError("maximum bisection depth exceeded", total, err_total)
    return list(zip(totals, err_totals))
