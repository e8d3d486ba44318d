"""Shared numerical kernel: Gaussian tail and adaptive 1-D quadrature.

Every tail probability in this package goes through ``normal_upper_tail`` so there
is exactly one place where the convention lives: it is the upper-tail mass of the
standard normal (NOT the classical complementary error function; the two differ by
scaling, normal_upper_tail(x) = 0.5 * erfc(x / sqrt(2))). Mixing the two
conventions is the easiest way to introduce silent factor-of-two errors here, so
no other module evaluates an error function.

The erfc inside is a pure-Python port of Cephes ``ndtr.c`` (Moshier 1989), the
algorithm ``scipy.special.erfc`` runs, and it returns scipy's values bit for
bit, so no probability moves for want of scipy. The C library's ``math.erfc``
is faster and closer to the true value, but it differs from Cephes in the last
bit at many points (normal_upper_tail(-0.5) among them), which would move the
package's numbers there.
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


def normal_upper_tail(x):
    """Upper-tail mass of the standard normal: integral of N(0,1) over [x, inf).

    Accepts scalars or arrays. normal_upper_tail(0) == 0.5 and
    normal_upper_tail(-x) == 1 - normal_upper_tail(x).
    """
    z = np.asarray(x, dtype=float)
    return np.fromiter(map(_upper_tail, z.ravel().tolist()), float, z.size).reshape(z.shape)[()]


_SQRT2 = math.sqrt(2.0)
_MAXLOG = 7.09782712893383996843e2      # Cephes MAXLOG, log(DBL_MAX): erfc is 0 or 2 past it


def _upper_tail(x):
    """0.5 * erfc(x / sqrt(2)) for one float, with Cephes erfc (ndtr.c) step for step.

    erfc(a) is 1 - erf(a) by the T/U rational for |a| < 1, exp(-a^2) P/Q for
    |a| < 8 and exp(-a^2) R/S above that, reflected as 2 - erfc(|a|) for a < 0,
    and 0 or 2 once a^2 > MAXLOG. The Horner chains are Cephes' polevl/p1evl
    unrolled, so every product and sum rounds as it does in C.
    """
    a = x / _SQRT2
    if -1.0 < a < 1.0:
        z = a * a
        return 0.5 * (1.0 - a * ((((9.60497373987051638749e0 * z
                                    + 9.00260197203842689217e1) * z
                                   + 2.23200534594684319226e3) * z
                                  + 7.00332514112805075473e3) * z
                                 + 5.55923013010394962768e4)
                      / (((((z + 3.35617141647503099647e1) * z
                            + 5.21357949780152679795e2) * z
                           + 4.59432382970980127987e3) * z
                          + 2.26290000613890934246e4) * z
                         + 4.92673942608635921086e4))
    z = a * a
    if z > _MAXLOG:
        return 1.0 if a < 0.0 else 0.0
    s = -a if a < 0.0 else a
    if s < 8.0:
        y = math.exp(-z) * ((((((((2.46196981473530512524e-10 * s
                                   + 5.64189564831068821977e-1) * s
                                  + 7.46321056442269912687e0) * s
                                 + 4.86371970985681366614e1) * s
                                + 1.96520832956077098242e2) * s
                               + 5.26445194995477358631e2) * s
                              + 9.34528527171957607540e2) * s
                             + 1.02755188689515710272e3) * s
                            + 5.57535335369399327526e2) \
            / ((((((((s + 1.32281951154744992508e1) * s
                     + 8.67072140885989742329e1) * s
                    + 3.54937778887819891062e2) * s
                   + 9.75708501743205489753e2) * s
                  + 1.82390916687909736289e3) * s
                 + 2.24633760818710981792e3) * s
                + 1.65666309194161350182e3) * s
               + 5.57535340817727675546e2)
    elif s == s:
        y = math.exp(-z) * (((((5.64189583547755073984e-1 * s
                                + 1.27536670759978104416e0) * s
                               + 5.01905042251180477414e0) * s
                              + 6.16021097993053585195e0) * s
                             + 7.40974269950448939160e0) * s
                            + 2.97886665372100240670e0) \
            / ((((((s + 2.26052863220117276590e0) * s
                   + 9.39603524938001434673e0) * s
                  + 1.20489539808096656605e1) * s
                 + 1.70814450747565897222e1) * s
                + 9.60896809063285878198e0) * s
               + 3.36907645100081516050e0)
    else:
        return math.nan                  # Cephes returns its own NAN, whatever the sign of x
    return 0.5 * (2.0 - y) if a < 0.0 else 0.5 * y


# Embedded Gauss-Legendre pair reused by every bisection: the 15-point value is
# the estimate, the 7-point value only feeds the error estimate. A panel's nodes
# for both rules come from one product and one sum over their 22 abscissae, two
# array operations fewer per panel than a pair per rule, and are then split.
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
    takes the next panel of every member still bisecting and evaluates them
    with one call per rule, so a member gets the same panels, sums and value,
    bit for bit, as a call of its own. A failing member raises the
    IntegrationError of its own call: a non-finite value in the round it
    appears, a missed tolerance once every member is done, the first such
    member's.
    """
    batch = np.ndim(a) > 0
    ends = list(zip(a, b, strict=True)) if batch else [(a, b)]
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
        if batch:
            lo, hi = np.array([panel[:2] for panel in popped]).T
            nodes = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _X
            rows = np.array(members)
            y7, y15 = f(nodes[:, :7], rows), f(nodes[:, 7:], rows)
        else:
            (lo, hi, _), = popped
            nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _X
            y7, y15 = (f(nodes[:7]),), (f(nodes[7:]),)
        for i, (lo, hi, depth), row7, row15 in zip(members, popped, y7, y15):
            half = 0.5 * (hi - lo)
            # ndarray.dot is np.dot's own product, without its dispatch cost
            val = half * float(_W15.dot(row15))
            err = abs(val - half * float(_W7.dot(row7)))
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
    found = list(zip(totals, err_totals))
    return found if batch else found[0]
