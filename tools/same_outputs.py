"""Check that two source trees of trackassoc write byte-identical CSVs of bit-identical values.

Usage: python tools/same_outputs.py SRC_A SRC_B

Each SRC is a checkout (holding src/trackassoc) or a directory that holds the
trackassoc package itself. Every CLI experiment of either tree is run at its
defaults, and ``multi-fa`` also with every column at k=4 and at k=8 (the
defaults run it at k=2 without ``exponential``), ``sweep-n`` also from
N=20 to N=200 in steps of 20 (the defaults stop at N=80), and the column
rules the defaults never reach (``EXTRA_RUNS``). Each run is one
subprocess of the CLI (``trackassoc.cli.main`` with ``--config run.cfg``) with
that tree first on PYTHONPATH and an empty working directory. The CSVs are
compared byte for byte, and every value of the table behind them in full
precision, since the CSV's 10 digits hide a change in the last bits. Then
the library calls that no CLI run reaches (``LIBRARY_RUNS``) are run in a
subprocess of each tree, and the float hex of every value they return is
compared. Prints one line per run, with how many values moved and the largest
move when only the last bits differ, and exits 0 when everything matches, 1 on
any difference, a failed run, or an experiment that only one tree has.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs beyond the defaults, each with few trials: every compound law, at the
# decoy counts of the benchmark's multi-decoy (k=4) and analytic (k=8)
# workloads; the scan counts of its n-sweep up to the CLI's cap N=200 (the
# defaults stop at N=80); and the column rules the defaults never reach:
# every single-decoy method at once, the analytic workload's dense exact and
# closed-form sweep, a random offset of zero and of a wide spread, and a fixed
# scan in sweep-n, below n_scans, equal to it (written out, which keeps the
# decoy at scan 40 where N passes 40) and above it (scan 50 on N = 60 and 80,
# which a tree that checks the scan against n_scans rejects).
EXTRA_RUNS = (
    *({"experiment": "multi-fa", "k": k, "methods": "exact,chi2,normal,exponential,mc",
       "trials": 2000} for k in (4, 8)),
    {"experiment": "sweep-n", "n_min": 20, "n_max": 200, "n_step": 20, "trials": 2000},
    *({"experiment": name, "methods": "exact,closed-form,first-order,mc", "trials": 2000}
      for name in ("sweep-lambda", "oracle-compare")),
    {"experiment": "sweep-lambda", "lambda_step": 0.05, "methods": "exact,closed-form"},
    *({"experiment": "random-lambda", "sigma0": sigma0, "trials": 2000} for sigma0 in (0, 3)),
    {"experiment": "sweep-n", "n_scans": 80, "scan": 30, "trials": 2000},
    {"experiment": "sweep-n", "scan": 40, "n_min": 20, "n_max": 80, "n_step": 20,
     "trials": 2000},
    {"experiment": "sweep-n", "scan": 50, "n_min": 60, "n_max": 80, "n_step": 20,
     "trials": 2000},
)

# Library calls that no CLI run reaches, each a script that prints every value
# it computes as a float hex string: sample_moments on two decoy sets at two
# scan counts; one simulate_single_fa call over plans that mix fixed and drawn
# offsets, scan counts, seeds and trial counts; one simulate_multi_fa call
# over decoy sets of one and of three scans; one over decoy sets of 4 and 8
# scans with unequal offsets at N = 40 and 200; and the three compound laws over
# the moment sets of 1, 2 and 8 decoys, one of them with s0_sq = 0, with the
# compound density of each law and set on a delta grid; the tabulated
# exponential series over the same moment sets; the exact value of one decoy on
# FINDINGS 21's grid (N from 5 to 200, the decoy at scan 1, N/2, N - 1 and N,
# lambda from 0 to 10 in steps of 0.625); every decision-chain
# function, and the k = 1, 3 and 5 windows, at values of p_fa from 1e-300 (where
# p_fa^2 underflows) to 1 - 1e-12; every statistic of simulate_dtmc at four
# values of p_fa from 0 to 1; and, past the CLI's cap N = 200 (where the
# projector's last bits may depend on how it is built), simulate_single_fa at
# N = 250 and 400 and sample_moments at N = 300; and the three single-decoy
# closed forms, value and clamp flag, where they leave [0, 1]: below at
# lambda = 0, above at N = 5, scan 5, lambda = 2.6.
_LIBRARY_IMPORTS = """
from dataclasses import replace

import numpy as np

from trackassoc import (closed_form_probability, first_order_probability, fit_gammas,
                        random_lambda_probability)

from trackassoc.dtmc import (AssocDTMC, absorption_time_pmf, chain_power, consecutive_fa_chain,
                             expected_transient_visits, mean_intervisit, reach_probability,
                             stationary)
from trackassoc.geometry import ScanConfig
from trackassoc.mc_oracle import (TrialPlan, sample_moments, simulate_dtmc, simulate_multi_fa,
                                  simulate_single_fa)
from trackassoc.multi_fa import (FalseAssocSet, compound_density, exact_probability,
                                 moment_params, prob_chi2, prob_exponential, prob_normal)
from trackassoc.single_fa import RandomLambda
from trackassoc.tabulated import exponential_series


def show(estimates):
    for est in estimates:
        print(est.p_hat.hex(), est.stderr.hex(), est.trials)


def moment_sets():
    for n, k in ((20, 1), (40, 2), (40, 8)):
        config = ScanConfig(n_scans=n)
        mps = [moment_params(FalseAssocSet(tuple(range(n - k + 1, n + 1)), (lam,) * k), config)
               for lam in (0.0, 1.5, 3.0)]
        yield k, [*mps, replace(mps[-1], s0_sq=0.0)]
"""
LIBRARY_RUNS = {
    "sample_moments": """
for n in (20, 60):
    for fa in (FalseAssocSet((n - 1, n), (1.0, 2.5)),
               FalseAssocSet((n // 4, n // 2, n), (0.5, 2.0, 3.0))):
        sample = sample_moments(TrialPlan(trials=20_000, seed=7, config=ScanConfig(n_scans=n),
                                          fa=fa))
        print(*(float(v).hex() for v in vars(sample).values()))
""",
    "simulate_single_fa over mixed plans": """
show(simulate_single_fa(*(
    TrialPlan(trials=3_000 + 1_000 * i, seed=seed, config=ScanConfig(n_scans=n, lam=1.5),
              scan=n - i, random_lambda=RandomLambda(2.0, 1.0) if i % 2 else None)
    for seed in (1, 5) for i, n in enumerate((20, 21, 40, 60, 33)))))
""",
    "simulate_multi_fa at K=1 and K=3": """
show(simulate_multi_fa(*(
    TrialPlan(trials=5_000 + 500 * k, seed=4, config=ScanConfig(n_scans=n),
              fa=FalseAssocSet(tuple(range(n - k + 1, n + 1)), (lam,) * k))
    for k in (1, 3) for n in (21, 40) for lam in (1.0, 2.5))))
""",
    "simulate_multi_fa at K=4 and K=8, unequal offsets": """
show(simulate_multi_fa(*(
    TrialPlan(trials=4_000, seed=6, config=ScanConfig(n_scans=n),
              fa=FalseAssocSet(tuple(n - (n // k) * j for j in reversed(range(k))),
                               tuple(np.linspace(0.5, 3.5, k) * shift)))
    for k in (4, 8) for n in (40, 200) for shift in (1.0, 0.6))))
""",
    "compound laws and densities": """
deltas = np.linspace(-12.0, 12.0, 49)
for k, mps in moment_sets():
    print(*(v.hex() for v in prob_chi2(k, *mps)))
    print(*(f"{r.value.hex()} {r.negative_mass.hex()} {r.unreliable}" for r in prob_normal(*mps)))
    print(*(v.hex() for v in prob_exponential(*mps)))
    for mp in mps:
        for law in ("chi2", "normal", "exponential"):
            print(*(float(v).hex() for v in compound_density(mp, law, K=k)(deltas)))
""",
    "tabulated exponential series": """
import trackassoc.tabulated as tabulated

integrate = tabulated.adaptive_integrate


def integrate_and_show(*args, **kwargs):
    # most of these series diverge to NaN, so print each base term's quadrature too
    found = integrate(*args, **kwargs)
    print(*(v.hex() for v in found))
    return found


tabulated.adaptive_integrate = integrate_and_show
for _, mps in moment_sets():
    print(*(f"{value.hex()} {diagnostic}" for value, diagnostic in map(exponential_series, mps)))
""",
    "exact value of one decoy": """
for n in (5, 10, 20, 40, 100, 200):
    config = ScanConfig(n_scans=n)
    for scan in sorted({1, n // 2, n - 1, n}):
        print(*(exact_probability(FalseAssocSet((scan,), (lam,)), config).hex()
                for lam in 0.625 * np.arange(17)))
""",
    "past the CLI's scan cap": """
show(simulate_single_fa(*(TrialPlan(trials=3_000, seed=9, config=ScanConfig(n_scans=n, lam=1.5))
                          for n in (250, 400))))
sample = sample_moments(TrialPlan(trials=3_000, seed=9, config=ScanConfig(n_scans=300),
                                  fa=FalseAssocSet((150, 299, 300), (0.5, 2.0, 3.0))))
print(*(float(v).hex() for v in vars(sample).values()))
""",
    "closed forms at their clamps": """
for approx in (fit_gammas(1), fit_gammas(10)):
    for n, lam in ((5, 0.0), (10, 0.0), (5, 2.6)):
        config = ScanConfig(n_scans=n, lam=lam)
        for result in (closed_form_probability(n, config, approx),
                       first_order_probability(n, config, approx),
                       random_lambda_probability(RandomLambda(lam, 0.0), n, config, approx)):
            print(result.value.hex(), result.clamped)
""",
    "decision chain": """
starts = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
for p in (1e-300, 1e-9, 0.01, 0.3, 0.843, 1.0 - 1e-12):
    chain = AssocDTMC(p)
    print(*(float(v).hex() for v in stationary(chain)))
    print(*(float(mean_intervisit(chain, s)).hex() for s in (1, 2, 3, 4)))
    for n in range(4):
        print(*(float(v).hex() for v in chain_power(chain, n).ravel()))
    for k in (1, 3, 5):
        for matrix in consecutive_fa_chain(k, chain):
            print(*(float(v).hex() for v in matrix.ravel()))
    for n in (0, 1, 2, 50, 10**6):
        reach = reach_probability(chain, n)
        print(reach.value.hex(), reach.spectral.hex())
    print(*(expected_transient_visits(chain, start).hex() for start in starts))
    print(*(absorption_time_pmf(chain, start, n).hex() for start in starts for n in (1, 2, 7)))
""",
    "decision-chain oracle": """
for p in (0.0, 0.1, 0.3, 1.0):
    stats = simulate_dtmc(AssocDTMC(p), steps=10_000, runs=5_000, seed=3)
    print(*(float(v).hex() for v in stats.occupancy), stats.mean_return_state4.hex(),
          stats.return_count, stats.mean_absorption_steps.hex(), stats.absorption_se.hex())
""",
}

# Runs the CLI and also writes every value of the CSV's table as a float hex
# string, one row per line, to values.hex.
_RUNNER = """
import sys
import trackassoc.cli as cli

write_csv = cli.write_csv


def write_csv_and_values(path, header, table):
    write_csv(path, header, table)
    with open("values.hex", "w") as fh:
        fh.writelines(",".join(float(v).hex() for v in row) + "\\n" for row in table)


cli.write_csv = write_csv_and_values
sys.exit(cli.main(sys.argv[1:]))
"""


def package_root(src):
    """The directory to put on PYTHONPATH so that ``import trackassoc`` finds src's copy."""
    src = Path(src).resolve()
    for root in (src / "src", src):
        if (root / "trackassoc" / "__init__.py").is_file():
            return root
    raise SystemExit(f"no trackassoc package under {src}")


def _run(root, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def experiments(root, cwd):
    """The experiment names the tree's CLI accepts; exits if its package loads from elsewhere."""
    proc = _run(root, ["-c", "import trackassoc, trackassoc.cli as c; "
                             "print(trackassoc.__file__); print(*c.EXPERIMENTS)"], cwd)
    if proc.returncode:
        raise SystemExit(f"{root}: cannot import trackassoc\n{proc.stderr}")
    loaded, names = proc.stdout.splitlines()
    if not Path(loaded).resolve().is_relative_to(root):
        raise SystemExit(f"{root}: trackassoc loads from {loaded}, outside the tree")
    return names.split()


def outputs(root, keys, out):
    """(CSV bytes, table values in hex) the tree's CLI writes for the config ``keys``.

    None if the run fails.
    """
    (out / "run.cfg").write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
    proc = _run(root, ["-c", _RUNNER, "--config", "run.cfg", "--out", str(out)], out)
    path = out / f"{keys['experiment']}.csv"
    if proc.returncode or not path.is_file():
        sys.stderr.write(f"{root}: {label(keys)} exited {proc.returncode}\n{proc.stderr}")
        return None
    return path.read_bytes(), (out / "values.hex").read_text()


def library_values(root, script, cwd):
    """What the tree prints for a ``LIBRARY_RUNS`` script; None if the run fails."""
    proc = _run(root, ["-c", _LIBRARY_IMPORTS + script], cwd)
    if proc.returncode:
        sys.stderr.write(f"{root}: library run exited {proc.returncode}\n{proc.stderr}")
        return None
    return proc.stdout


def moved_values(hex_a, hex_b):
    """(count, largest absolute difference) of the values that differ between two values.hex."""
    pairs = [(float.fromhex(a), float.fromhex(b))
             for row_a, row_b in zip(hex_a.splitlines(), hex_b.splitlines())
             for a, b in zip(row_a.split(","), row_b.split(",")) if a != b]
    return len(pairs), max((abs(a - b) for a, b in pairs), default=0.0)


def label(keys):
    """The experiment name, followed by any other config keys of the run."""
    return " ".join([keys["experiment"]] + [f"{key}={value}" for key, value in keys.items()
                                            if key != "experiment"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    args = parser.parse_args(argv)
    roots = [package_root(args.src_a), package_root(args.src_b)]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = [experiments(root, tmp) for root in roots]
        every = list(dict.fromkeys(names[0] + names[1]))
        runs = [{"experiment": name} for name in every] + [
            keys for keys in EXTRA_RUNS if keys["experiment"] in every]
        for index, keys in enumerate(runs):
            if not all(keys["experiment"] in n for n in names):
                print(f"{label(keys)}: only in one tree")
                differ += 1
                continue
            found = []
            for side, root in zip("ab", roots):
                out = tmp / side / str(index)
                out.mkdir(parents=True)
                found.append(outputs(root, keys, out))
            csvs = [f[0] if f else b"" for f in found]
            same = None not in found and found[0] == found[1]
            if same:
                verdict = "identical"
            elif None not in found and csvs[0] == csvs[1]:
                count, largest = moved_values(found[0][1], found[1][1])
                verdict = (f"DIFFERENT in the last bits only (CSV bytes identical; values "
                           f"moved: {count}, largest move {largest:.2g})")
            else:
                verdict = "DIFFERENT"
            print(f"{label(keys)}: {verdict} ({len(csvs[0])} / {len(csvs[1])} bytes)")
            differ += not same
        for name, script in LIBRARY_RUNS.items():
            found = [library_values(root, script, tmp) for root in roots]
            same = None not in found and found[0] == found[1]
            print(f"library {name}: {'identical' if same else 'DIFFERENT'} "
                  f"({len((found[0] or '').splitlines())} lines of values)")
            differ += not same
    print(f"{differ} of {len(runs) + len(LIBRARY_RUNS)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
