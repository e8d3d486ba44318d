"""Numerical helpers that only the tests use: Gauss-Hermite rules, raw Philox words
and pinned-noise cost differences.

The package's Monte Carlo pass draws uniforms straight from a Philox stream
(``mc_oracle._draw_uniforms``). The tests reach the words behind them here, to
feed the Box-Muller transform edge words that no seed draws on demand.
"""

import numpy as np

import trackassoc.mc_oracle as mc

MAX_GAUSS_HERMITE_ORDER = 200


def gauss_hermite(order):
    """Nodes and weights for expectations against the standard normal.

    Probabilists' normalization: sum(w) == 1 and sum(w * f(x)) approximates
    E[f(Z)], Z ~ N(0,1), exactly for polynomials of degree < 2*order.
    """
    if not 1 <= order <= MAX_GAUSS_HERMITE_ORDER:
        raise ValueError(f"unsupported Gauss-Hermite order {order}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def philox_words(seed, tag, word_offset, n_words):
    """Words [word_offset, word_offset + n_words) of the Philox stream (seed, tag)."""
    gen = np.random.Philox(key=[np.uint64(seed), np.uint64(tag)],
                           counter=[word_offset // 4, 0, 0, 0])
    return gen.random_raw(n_words)


def uniforms(words):
    """The uniform each word gives, by the arithmetic of ``mc._draw_uniforms``.

    Generator.random turns a word w into m 2^-53 with m = w >> 11, exactly, and
    the draw adds 2^-54: one rounding of (m + 1/2) 2^-53.
    """
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u += 2.0**-54
    return u


def words_to_normals(words):
    """Box-Muller normals of raw words, one per word, by the pass's transform.

    The pass writes pair i's normals to two planes; here they are interleaved
    back, the normal of word j at z[j].
    """
    u = uniforms(words)
    taken = 0

    def draw(out):
        nonlocal taken
        taken += out.shape[0]
        return u[taken - out.shape[0]:taken]

    z = np.empty((u.shape[0] // 2, 2))
    x, y = np.empty((2, z.shape[0]))
    mc._normals(draw, x, y, mc._box_muller_work(z.shape[0]))
    z[:, 0], z[:, 1] = x, y
    return z.reshape(-1)


def simulate_conditional(e_l, l, config, trials, seed):
    """Samples of the cost difference with the scan-l noise pinned to e_l.

    The trials are those ``mc.simulate_single_fa`` reads for a decoy at scan l
    with offset config.lam, on the same pass, with the noise of scan l
    replaced by e_l.
    """
    plan = mc.TrialPlan(trials=trials, seed=seed, config=config, scan=l)
    out = []
    for _, x, y, lam, kernel in mc._chunks([plan]):
        x, y = x.copy(), y.copy()      # its own: the pass hands out views of its buffer
        x[:, l], y[:, l] = e_l
        out.append(mc._delta_for_chunk(x, y, kernel, lam))
    return np.concatenate(out)


def spy_draws(monkeypatch):
    """Record (seed, tag, word offset, words drawn) for every draw of the oracle."""
    calls = []
    draw_uniforms = mc._draw_uniforms

    def spy(seed, tag):
        draw, offset = draw_uniforms(seed, tag), 0

        def spied(out):
            nonlocal offset
            calls.append((seed, tag, offset, out.shape[0]))
            offset += out.shape[0]
            return draw(out)

        return spied

    monkeypatch.setattr(mc, "_draw_uniforms", spy)
    return calls
