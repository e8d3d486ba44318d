"""Monte Carlo ground truth for the analytic machinery.

Randomness discipline: every estimate is driven by Philox counter streams.
A trial owns a fixed, precomputed window of 64-bit words (uniforms are turned
into normals by Box-Muller, which consumes exactly one word per normal): trial
t of a stream whose trials are w words wide reads words [t w, (t+1) w) of its
seed's sequence, so it always sees the same draws no matter the chunk size
or execution order. Costs are read through the decoy rows of
the dense residual projector -- never through the closed-form coefficients
under test -- and the brute-force least-squares route is cross-checked in the
test suite. A plan places and checks its decoys when it is built
(``TrialPlan``); their projector rows are read once, before any noise is
drawn, and the dense projector is let go (one is built per distinct N). The
noise is kept in two planes, the x and the y coordinate of every epoch, and
the coordinates decouple (see ``geometry``), so both planes are read through
the same K x epochs block of the projector's decoy rows. Each trial's
projections are summed on their own (einsum, not BLAS), so no sample, and no
count, depends on how many trials share a chunk.

Normals: words 2i and 2i+1 give uniforms u1, u2 in (0, 1] (the top 53 bits m,
as (m + 1/2) 2^-53 rounded to double: on [0.5, 1) that rounds to an even
multiple of 2^-53, and m = 2^53 - 1 gives exactly 1, so r = 0 there), and
pair i's normals x[i], y[i] = r cos(2 pi u2), r sin(2 pi u2) with
r = sqrt(-2 ln u1): x is the plane of word 2i's normal, y that of word
2i + 1's. The uniforms are drawn by Generator.random, which gives m 2^-53
exactly, and 2^-54 is added (one rounding, that of (m + 1/2) 2^-53). The
cosine and sine come straight from u2, never from the rounded product
2 pi u2: v = 4 u2 is exact, q = rint(v), t = (v - q) pi/2 with |t| <= pi/4,
two fixed polynomials in t^2 (Cephes sin.c) give sin t and cos t, and the
quadrant q mod 4 rotates them. The work runs in blocks of a few thousand
pairs, which changes no value: a block's uniforms are drawn, from the one
Philox stream the pass reads in order, into spent rows of work arrays
allocated once per pass, and its normals written to the pass's two planes,
the halves of one buffer, so a pass allocates its window memory once. Each normal lies within 4 eps max(1, |z|) of a long-double
evaluation of the same formula from the same u1, u2 (about 2.1 eps
measured); np.cos and np.sin of 2 pi u2 erred by up to 13.5 eps
(FINDINGS.md item 20).

Every stream of a seed is a prefix of the same word sequence, and a normal
depends only on its own even-aligned word pair. So the simulators take every
plan of a grid at once and, per seed, draw the words up to the longest
stream's end once and turn each into a normal once; every grid point of the
seed is evaluated on the whole trials each window of that pass holds (common
random numbers). The counts are those of one call per plan, bit for bit.

The kinematic state cancels from the cost difference (the projector annihilates
the design matrix), so it is computed from the noise alone; the tests check this
against full least-squares fits of a moving target.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dtmc import AssocDTMC
from .geometry import ScanConfig, _check_scan, build_projector
from .multi_fa import FalseAssocSet
from .single_fa import RandomLambda

# Philox words drawn per window of a seed's pass (512 KiB), rounded down to
# whole trials of the seed's widest stream: the trials per window shrink as the
# epoch count grows, so a window's memory does not grow with N.
_CHUNK_WORDS = 1 << 16

# Box-Muller pairs per block: the block's work arrays (nine of 8192 doubles,
# 576 KiB, allocated once per pass) stay in a typical L2 cache, and numpy's
# per-call cost is spread over enough pairs. The quadrant indices still take a
# 64 KiB intp array per block (ROADMAP.md item 6).
_PAIRS_PER_BLOCK = 8192

# sin x = x + x^3 S(x^2) and cos x = 1 - x^2/2 + x^4 C(x^2) on |x| <= pi/4:
# the coefficients of S and C, highest degree first (Cephes sin.c, Moshier 1989).
_SIN_COEFS = (1.58962301576546568060e-10, -2.50507477628578072866e-8,
              2.75573136213857245213e-6, -1.98412698295895385996e-4,
              8.33333333332211858878e-3, -1.66666666666666307295e-1)
_COS_COEFS = (-1.13585365213876817300e-11, 2.08757008419747316778e-9,
              -2.75573141792967388112e-7, 2.48015872888517045348e-5,
              -1.38888888888730564116e-3, 4.16666666666665929218e-2)

# cos(q pi/2 + x) = a cos x + b sin x and sin(q pi/2 + x) = a sin x - b cos x,
# with a = cos(q pi/2) and b = -sin(q pi/2) read from these tables at q in 0..4.
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_QUARTER_NEG_SIN = np.array([0.0, -1.0, 0.0, 1.0, 0.0])

# Decisions per block of the decision chain's absorption walk, and the most
# decisions a call's absorption runs may be expected to need: at about 25 ns a
# decision (2-core x86 host), 2^30 of them take about half a minute.
_WALK_BLOCK = 1 << 16
_MAX_WALK_DECISIONS = 1 << 30


def _check_seed(seed):
    """A seed is an integer in [0, 2^64): the first word of every Philox key."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class TrialPlan:
    """Reproducible simulation request; estimates depend only on (plan, seed).

    The decoys sit at fa's scans and offsets, else one at scan (None: the last,
    config.n_scans) with offset config.lam, or one drawn per trial with
    random_lambda. Each decoy scan is checked to lie in 1..N when the plan is built.
    """

    trials: int
    seed: int
    config: ScanConfig
    scan: int | None = None
    fa: FalseAssocSet | None = None
    random_lambda: RandomLambda | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_seed(self.seed)
        if self.fa is not None and (self.scan is not None or self.random_lambda is not None):
            raise ValueError("a plan with fa takes neither scan nor random_lambda")
        if self.fa is None and self.scan is None:
            object.__setattr__(self, "scan", self.config.n_scans)
        for l in (self.scan,) if self.fa is None else self.fa.indices:
            _check_scan(l, self.config)


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class MomentSample:
    """Empirical first/second moments of the conditional mean and variance."""

    m1_mean: float
    m1_mean_se: float
    m1_var: float
    m1_var_se: float
    v1_mean: float
    v1_mean_se: float
    v1_var: float
    v1_var_se: float


def _draw_uniforms(seed, tag):
    """A function draw(out) that fills out with uniforms in (0, 1] of (seed, tag)'s words.

    Successive calls read the words in order from word 0 on, one per entry of
    out, and return out. Word w gives (m + 1/2) 2^-53, m = w >> 11
    its top 53 bits: Generator.random writes m 2^-53 (exact) and adding 2^-54
    rounds the sum once. On [0.5, 1) that is an even multiple of 2^-53 (so
    m = 2^52 + 1 and 2^52 + 2 give the same u), and m = 2^53 - 1 (words from
    2^64 - 2^11 up) gives exactly 1. The least is 2^-54, at m = 0.
    """
    generator = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(tag)]))

    def draw(out):
        generator.random(out=out)
        out += 2.0**-54
        return out

    return draw


def _whole_blocks(n_words):
    """n_words rounded up to whole 4-word Philox counter blocks."""
    return ((n_words + 3) // 4) * 4


def _box_muller_work(pairs):
    """Work arrays for ``_normals`` on up to ``pairs`` pairs at a time."""
    return np.empty((9, min(pairs, _PAIRS_PER_BLOCK)))


def _normals(draw, x, y, work):
    """Box-Muller normals of the next pairs into the planes x and y, a block at a time.

    See the module docstring. draw(out) returns the uniforms u1, u2 of the
    block's pairs, interleaved, as many as out holds; it may draw them into
    out, which is a spent row pair of work. work comes from
    ``_box_muller_work`` and serves every block.
    """
    spent = work[-2:].reshape(-1)
    for lo in range(0, x.shape[0], _PAIRS_PER_BLOCK):
        hi = min(x.shape[0], lo + _PAIRS_PER_BLOCK)
        _box_muller(draw(spent[:2 * (hi - lo)]), x[lo:hi], y[lo:hi], work[:, :hi - lo])


def _horner(y, coefs, out):
    """The polynomial with coefs (highest degree first) at y, into out."""
    out.fill(coefs[0])
    for c in coefs[1:]:
        out *= y
        out += c


def _box_muller(u, x, y, work):
    """x[i], y[i] = r cos(2 pi u2), r sin(2 pi u2) of the uniforms u1 = u[2i], u2 = u[2i+1].

    Both uniforms are read into work's first two rows before any other row is
    written, so u may lie in its last two.
    """
    r, v, q, v2, p, cos, sin, a, b = work
    np.copyto(r, u[0::2])             # u1; the log runs on a contiguous array
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(u[1::2], 4.0, out=v)  # 4 u2, exact
    np.rint(v, out=q)
    v -= q                            # exact, |4 u2 - q| <= 1/2
    v *= np.pi / 2                    # 2 pi u2 = q pi/2 + v, |v| <= pi/4
    np.multiply(v, v, out=v2)
    _horner(v2, _SIN_COEFS, out=p)
    p *= v2
    p *= v
    np.add(v, p, out=sin)             # sin v = v + v^3 S(v^2)
    _horner(v2, _COS_COEFS, out=p)
    p *= v2
    p *= v2
    np.multiply(v2, -0.5, out=cos)
    cos += 1.0
    cos += p                          # cos v = 1 - v^2/2 + v^4 C(v^2)
    quadrant = q.astype(np.intp)      # 0..4, so "clip" never clips
    np.take(_QUARTER_COS, quadrant, out=a, mode="clip")
    np.take(_QUARTER_NEG_SIN, quadrant, out=b, mode="clip")
    a *= r
    b *= r
    np.multiply(a, cos, out=v2)
    np.multiply(b, sin, out=p)
    np.add(v2, p, out=x)              # r cos(q pi/2 + v) = r (a cos v + b sin v)
    np.multiply(a, sin, out=v2)
    np.multiply(b, cos, out=p)
    np.subtract(v2, p, out=y)         # r sin(q pi/2 + v) = r (a sin v - b cos v)


def _trial_words(epochs, with_lambda):
    return _whole_blocks(2 * epochs + (2 if with_lambda else 0))


def _seed_pass(seed, streams):
    """Yield (stream, x, y, z) for the streams of one seed, a window at a time.

    The words up to the longest stream's end are drawn and turned into normals
    once, window by window, into two planes (see ``_normals``): the halves of
    one buffer, with Box-Muller work arrays that also live for the whole pass.
    Each stream then gets the whole trials of it that the planes hold: x and y
    (trials x epochs, views of the planes whose row stride is half the trial
    width: read them, do not write them) and, for a random offset, z = the
    x-plane normal after the noise (word 2 epochs of the trial), else None. A
    window holds whole trials of the widest stream; the trial of a narrower
    stream that a window edge cuts moves to the front of both planes.
    """
    widths = {(trials, epochs, with_lambda): _trial_words(epochs, with_lambda)
              for trials, epochs, with_lambda in streams}
    ends = {stream: stream[0] * width for stream, width in widths.items()}
    end = max(ends.values())
    widest = max(widths.values())
    window = max(1, _CHUNK_WORDS // widest) * widest
    planes = np.empty((2, (window + widest) // 2))
    work = _box_muller_work(min(window, end) // 2)
    draw = _draw_uniforms(seed, 0)
    start = dict.fromkeys(widths, 0)       # first word of each stream's next trial
    kept = 0                               # pairs carried over at the planes' front
    for lo in range(0, end, window):
        hi = min(end, lo + window)
        _normals(draw, *planes[:, kept:kept + (hi - lo) // 2], work)
        base = lo - 2 * kept               # the word whose pair is planes[:, 0]
        for stream, width in widths.items():
            _, epochs, with_lambda = stream
            stop = min(hi, ends[stream]) // width * width
            if stop > start[stream]:
                x, y = planes[:, (start[stream] - base) // 2:(stop - base) // 2].reshape(
                    2, -1, width // 2)
                yield stream, x[:, :epochs], y[:, :epochs], x[:, epochs] if with_lambda else None
                start[stream] = stop
        cut = min((w for stream, w in start.items() if w < ends[stream]), default=hi)
        kept = (hi - cut) // 2
        planes[:, :kept] = planes[:, (cut - base) // 2:(hi - base) // 2]


def _estimate(successes, trials):
    p = successes / trials
    return McEstimate(p_hat=p, stderr=math.sqrt(p * (1.0 - p) / trials), trials=trials)


def _kernels(config, scan_sets):
    """What the cost difference reads of the projector M: a kernel per scan set.

    A kernel is (scans, b, a) for decoys at the set's scans: the scans as an
    index array, b = M's rows at them (K x epochs) and a = b at the decoys' own
    columns (K x K). One dense M at config's N serves every set and is let go
    on return.
    """
    projector = build_projector(config)
    kernels = []
    for scans in scan_sets:
        scans = np.array(scans, dtype=np.intp)
        b = projector[scans]
        kernels.append((scans, b, b[:, scans]))
    return kernels


def _delta_for_chunk(x, y, kernel, lam_per_scan):
    """Cost difference per trial: q'Mq + 2 q'M eps with q = decoy - noise, sparse.

    Per plane, with eps the noise of its coordinate and q its decoy shifts
    (q_x = -eps_x and q_y = -(offset + eps_y) at the decoy scans), the plane
    adds q'a q + 2 q'b eps. One einsum per plane gives every trial's
    projections b eps; it sums each trial's row on its own, where a BLAS
    product's summation order depends on the chunk's row count.
    """
    scans, b, a = kernel
    qx = -x[:, scans]
    qy = -(lam_per_scan + y[:, scans])
    mx = np.einsum("te,ke->tk", x, b)
    my = np.einsum("te,ke->tk", y, b)
    qmq = (np.einsum("ti,ij,tj->t", qx, a, qx)
           + np.einsum("ti,ij,tj->t", qy, a, qy))
    qme = np.zeros(x.shape[0])
    for i in range(a.shape[0]):
        qme += qx[:, i] * mx[:, i] + qy[:, i] * my[:, i]
    return qmq + 2.0 * qme


def _decoys(plan):
    """The decoys a plan places (``TrialPlan`` set and checked them): (stream, scans, offsets).

    offsets is a 1 x K row of the decoys' offsets, or None when
    plan.random_lambda draws the offset per trial. stream is the one the plan
    reads from its seed's words: (trials, epochs, random offset or not).
    """
    if plan.fa is not None:
        scans, offsets = list(plan.fa.indices), np.array([plan.fa.lambdas])
    else:
        scans = [plan.scan]
        offsets = None if plan.random_lambda is not None else np.array([[plan.config.lam]])
    return (plan.trials, plan.config.epochs, offsets is None), scans, offsets


def _chunks(plans):
    """Yield (i, x, y, offsets, kernel) of plans[i] a chunk at a time, one pass per seed.

    Every plan's decoys are resolved (``_decoys``) to a kernel (``_kernels``,
    one dense projector per distinct N, one at a time) before any noise is
    drawn. x and y are the chunk's trials' noise planes, views of the pass's
    buffer (see ``_seed_pass``); offsets is the plan's 1 x K row, or the
    chunk's trials' column lambda0 + sigma0 z for a drawn offset.
    """
    resolved = [_decoys(plan) for plan in plans]
    by_n = {}
    for i, plan in enumerate(plans):
        by_n.setdefault(plan.config.n_scans, []).append(i)
    kernels = {}
    for members in by_n.values():
        kernels.update(zip(members, _kernels(plans[members[0]].config,
                                             [resolved[i][1] for i in members])))
    seeds = {}
    for i, (plan, (stream, _, offsets)) in enumerate(zip(plans, resolved)):
        seeds.setdefault(plan.seed, {}).setdefault(stream, []).append(
            (i, kernels[i], offsets, plan.random_lambda))
    for seed, streams in seeds.items():
        for stream, x, y, z in _seed_pass(seed, streams):
            for i, kernel, offsets, rl in streams[stream]:
                lam = offsets if offsets is not None else (rl.lambda0 + rl.sigma0 * z)[:, None]
                yield i, x, y, lam, kernel


def _simulate(plans):
    """One McEstimate per plan: the share of its trials whose cost difference is >= 0."""
    hits = [0] * len(plans)
    for i, x, y, lam, kernel in _chunks(plans):
        hits[i] += int((_delta_for_chunk(x, y, kernel, lam) >= 0.0).sum())
    return [_estimate(h, plan.trials) for h, plan in zip(hits, plans)]


def _require_fa(plans):
    if any(plan.fa is None for plan in plans):
        raise ValueError("multi-contamination plan needs plan.fa")


def simulate_single_fa(*plans: TrialPlan) -> list[McEstimate]:
    """Estimate P(cost difference >= 0) with each plan's decoys (``TrialPlan``).

    Returns one McEstimate per plan, in order; every plan is validated before
    any noise is drawn. The plans of a seed share one pass of its word
    sequence: each word up to the end of the longest stream (trials x words a
    trial) is drawn and turned into a normal once, however many plans, trial
    counts and epoch counts read it.
    """
    return _simulate(plans)


def simulate_multi_fa(*plans: TrialPlan) -> list[McEstimate]:
    """Estimate the multi-contamination probability, one McEstimate per plan.

    Every plan must set fa. Same sharing and validation as
    ``simulate_single_fa``: one pass of each seed's word sequence serves every
    plan of that seed. A single contaminated scan reduces exactly to
    simulate_single_fa (same stream, same counts).
    """
    _require_fa(plans)
    return _simulate(plans)


def sample_moments(plan: TrialPlan) -> MomentSample:
    """Empirical moments of (m1, v1) over the plan's noise stream.

    m1 and v1 are evaluated from the decoy rows of the dense projector M,
    keeping the oracle independent of the closed-form sums it validates: with
    B = M's rows at the decoys, A = B at the decoys' columns and
    Phi_S = M S M = (B keep) B', where keep zeroes the decoy epochs (M is
    symmetric). The stream is the one ``simulate_multi_fa`` reads for the same
    plan.
    """
    _require_fa([plan])
    m1_parts, v1_parts = [], []
    for _, x, y, lam, (scans, b, a_blocks) in _chunks([plan]):
        if not m1_parts:                   # Phi_S, once: every chunk has the same kernel
            keep = np.ones(b.shape[1])
            keep[scans] = 0.0
            th_blocks = (b * keep) @ b.T
        ex, ey = x[:, scans], y[:, scans]
        m1 = (np.einsum("ti,ij,tj->t", ex, a_blocks, ex)
              + np.einsum("ti,ij,tj->t", ey, a_blocks, ey) - lam[0] @ a_blocks @ lam[0])
        u = ey + lam
        v1 = 4.0 * (np.einsum("ti,ij,tj->t", ex, th_blocks, ex)
                    + np.einsum("ti,ij,tj->t", u, th_blocks, u))
        m1_parts.append(m1)
        v1_parts.append(v1)
    m1 = np.concatenate(m1_parts)
    v1 = np.concatenate(v1_parts)

    def stats(x):
        n = x.shape[0]
        mean = float(x.mean())
        centered = x - mean
        var = float((centered**2).mean())
        m4 = float((centered**4).mean())
        return mean, math.sqrt(var / n), var, math.sqrt(max(m4 - var * var, 0.0) / n)

    m1_mean, m1_mean_se, m1_var, m1_var_se = stats(m1)
    v1_mean, v1_mean_se, v1_var, v1_var_se = stats(v1)
    return MomentSample(
        m1_mean=m1_mean, m1_mean_se=m1_mean_se, m1_var=m1_var, m1_var_se=m1_var_se,
        v1_mean=v1_mean, v1_mean_se=v1_mean_se, v1_var=v1_var, v1_var_se=v1_var_se)


# ---------------------------------------------------------------------------
# decision-chain simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DtmcSimStats:
    occupancy: np.ndarray        # empirical law of the 4 pair states
    mean_return_state4: float    # mean gap between state-4 visits
    return_count: int
    mean_absorption_steps: float  # mean decisions until two consecutive fa
    absorption_se: float


def simulate_dtmc(dtmc: AssocDTMC, steps: int, runs: int, seed: int) -> DtmcSimStats:
    """Empirical pair-state occupancy, state-4 return gaps, and absorption times.

    One long decision sequence (tag 1) provides occupancy and return
    statistics. The ``runs`` absorption runs from [ca, ca] lie end to end on a
    second one (tag 2), drawn a block at a time: a run ends at the second of
    two consecutive false associations and the next starts fresh, so within a
    stretch of false associations every second one ends a run (a renewal
    walk); the stretch's length mod 2 is carried from block to block. Every
    statistic is a pure function of (dtmc, steps, runs, seed). A call whose
    runs would need more than 2^30 decisions, about runs (1 + p_fa) / p_fa^2,
    is refused before any is drawn; at p_fa = 0 the absorption time is infinite.
    """
    p_fa = dtmc.p_fa
    if steps < 2 or runs < 1:
        raise ValueError("need steps >= 2 and runs >= 1")
    _check_seed(seed)
    if p_fa > 0.0 and runs * (1.0 + p_fa) > _MAX_WALK_DECISIONS * p_fa * p_fa:
        raise ValueError(f"{runs} absorption runs at p_fa = {p_fa} need about "
                         "runs (1 + p_fa) / p_fa^2 decisions, over 2**30")

    bits = (_draw_uniforms(seed, 1)(np.empty(steps)) < p_fa).astype(np.int8)
    states = 2 * bits[:-1] + bits[1:]
    occupancy = np.bincount(states, minlength=4).astype(float) / states.shape[0]
    visits = np.flatnonzero(states == 3)
    if visits.shape[0] >= 2:
        mean_return = float(np.diff(visits).mean())
        return_count = visits.shape[0] - 1
    else:
        mean_return = math.inf
        return_count = 0

    if p_fa == 0.0:
        return DtmcSimStats(occupancy=occupancy, mean_return_state4=mean_return,
                            return_count=return_count, mean_absorption_steps=math.inf,
                            absorption_se=math.inf)

    index = np.arange(_WALK_BLOCK)
    draw = _draw_uniforms(seed, 2)
    ends, found, carry, offset = [], 0, 0, 0
    while found < runs:
        fa = draw(np.empty(_WALK_BLOCK)) < p_fa
        stretch = index - np.maximum.accumulate(np.where(fa, -1 - carry, index))
        ends.append(offset + np.flatnonzero(fa & (stretch % 2 == 0)))
        found += ends[-1].size
        carry = int(stretch[-1]) % 2
        offset += _WALK_BLOCK
    times = np.diff(np.concatenate(ends)[:runs], prepend=-1)
    se = float(times.std(ddof=1) / math.sqrt(runs)) if runs > 1 else math.inf
    return DtmcSimStats(occupancy=occupancy, mean_return_state4=mean_return,
                        return_count=return_count, mean_absorption_steps=float(times.mean()),
                        absorption_se=se)
