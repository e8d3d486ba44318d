"""The benchmark's workloads.

Each workload is a closed loop of CLI experiments run back to back from one
process. An experiment is a set of ``trackassoc.cli`` config keys; the
benchmark adds ``seed`` (the benchmark's own ``--seed``) and ``jobs=1`` and
writes them to a generated config file. Trial counts are sized so that one
pass of every workload takes a few seconds on a 2-core machine, which lets a
run time several passes and report their median.
"""

from __future__ import annotations

# Seed of the stored reference CSVs under reference/<workload>/. At any other
# seed the Monte Carlo columns are only range-checked (and must repeat from
# pass to pass); the analytic columns do not depend on the seed.
REFERENCE_SEED = 42

WORKLOADS = {
    # sweep-lambda at its CLI defaults (N=40, lambda 1..4 step 0.1). The Monte
    # Carlo oracle does most of the work and all 31 grid points draw the
    # identical noise stream, so noise sharing, RNG and Box-Muller gains show.
    "lambda-sweep": (
        {"experiment": "sweep-lambda", "trials": 20000},
    ),
    # N from 20 to 200 at lambda=2: the same Monte Carlo layer with nothing
    # shared between points (the noise width changes with N), a new projector
    # every point, and per-trial cost and memory growing with N.
    "n-sweep": (
        {"experiment": "sweep-n", "n_min": 20, "n_max": 200, "n_step": 20,
         "lambda_fixed": 2.0, "trials": 20000},
    ),
    # The only path through simulate_multi_fa (K-decoy contraction, m1/v1
    # samples kept for every trial) and the three compound laws.
    "multi-decoy": (
        {"experiment": "multi-fa", "k": 4, "n_scans": 40,
         "methods": "chi2,normal,exponential,mc", "trials": 20000},
    ),
    # No Monte Carlo: exact_probability and quadrature dominate. The
    # no-change control for every Monte Carlo optimisation.
    "analytic": (
        {"experiment": "first-order"},
        {"experiment": "sweep-lambda", "methods": "exact,closed-form",
         "lambda_step": 0.05},
        {"experiment": "multi-fa", "k": 8, "methods": "chi2,normal,exponential"},
        {"experiment": "dtmc"},
    ),
}

# Shrinks any experiment to a single grid point with few trials: enough to
# make the first call into every layer the experiment uses.
ONE_POINT = {
    "lambda_min": 2.0, "lambda_max": 2.0,
    "n_min": 40, "n_max": 40,
    "p_fa_min": 0.1, "p_fa_max": 0.1,
    "trials": 256,
}


def render_config(experiment: dict, seed: int, one_point: bool = False) -> str:
    """Config-file text for one experiment of a workload."""
    keys = dict(experiment)
    if one_point:
        keys.update(ONE_POINT)
    keys.update(seed=seed, jobs=1)
    return "".join(f"{key}={value}\n" for key, value in keys.items())
