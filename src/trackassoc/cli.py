"""Experiment runner: sweeps the analytic curves against the Monte Carlo oracle.

Each experiment writes one CSV (columns: x, one column per analytic method,
then mc_p, mc_stderr when the oracle is requested). Output is byte-identical
for identical config + seed. The optional --plot flag renders the same columns
to a standalone SVG with no plotting dependency.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dtmc as dtmc_mod
from . import mc_oracle, multi_fa, single_fa, tabulated
from .geometry import ScanConfig, _check_scan
from .quadrature import IntegrationError


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's settings: each field is a config-file key, with its type and default."""

    experiment: str = "sweep-lambda"
    n_scans: int = 40
    scan: int = 0                  # 0 means "last"
    lambda_min: float = 1.0
    lambda_max: float = 4.0
    lambda_step: float = 0.1
    lambda_fixed: float = 2.0
    n_min: int = 10
    n_max: int = 80
    n_step: int = 5
    k: int = 2
    sigma0: float = 1.0
    p_fa_min: float = 0.01
    p_fa_max: float = 0.30
    p_fa_step: float = 0.01
    steps: int = 20
    methods: tuple = ()            # empty -> per-experiment default
    n_steps: int = 10
    support_k: float = 3.0
    trials: int = 100_000
    seed: int = 42
    jobs: int = 1


def _validate(spec: ExperimentSpec) -> ExperimentSpec:
    """Check the bounds the CLI sets; the library's own checks cover the rest."""
    if spec.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {spec.experiment!r}")
    scan = spec.scan or spec.n_scans
    try:
        config = ScanConfig(n_scans=spec.n_scans)
        _check_scan(scan, config)
        mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, config=config)
        single_fa.RandomLambda(lambda0=0.0, sigma0=spec.sigma0)
        single_fa.fit_gammas(spec.n_steps, spec.support_k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.n_scans > 200:
        raise ConfigError("n_scans must lie in [5, 200]")
    if not (5 <= spec.n_min <= spec.n_max <= 200):
        raise ConfigError("n grid must lie in [5, 200]")
    for v in (spec.lambda_min, spec.lambda_max, spec.lambda_fixed):
        if not 0.0 <= v <= 10.0:
            raise ConfigError("lambda values must lie in [0, 10]")
    if spec.lambda_max < spec.lambda_min or not spec.lambda_step > 0:
        raise ConfigError("bad lambda grid")
    if spec.n_step <= 0:
        raise ConfigError("bad n grid step")
    if not 1 <= spec.k < spec.n_scans:
        raise ConfigError("k must satisfy 1 <= k < n_scans")
    if not (0.0 <= spec.p_fa_min <= spec.p_fa_max < 1.0) or not spec.p_fa_step > 0:
        raise ConfigError("bad p_fa grid")
    if spec.steps < 0:
        raise ConfigError("steps must be >= 0")
    if spec.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    experiment = EXPERIMENTS[spec.experiment]
    methods = spec.methods or experiment.default_methods
    bad = [m for m in methods if m not in experiment.methods]
    if bad:
        raise ConfigError(f"experiment {spec.experiment!r} does not compute methods {bad}")
    methods = tuple(m for m in experiment.methods if m in methods)
    return replace(spec, methods=methods, scan=scan)


def _finite(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError(f"{val!r} is not finite")
    return x


def _methods(val: str) -> tuple:
    return tuple(m for m in (v.strip().replace("_", "-") for v in val.split(",")) if m)


# the parser of each key, by the type ExperimentSpec declares for it
_PARSERS = {"int": int, "float": _finite, "str": str, "tuple": _methods}
_KEYS = {f.name: _PARSERS[f.type] for f in fields(ExperimentSpec)}


def parse_config(path) -> ExperimentSpec:
    """Parse a key=value config file (# comments) into a validated spec."""
    values = {}
    text = Path(path).read_text()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        names = ("p_fa_min", "p_fa_max") if key == "p_fa" else (key,)  # p_fa: one-point grid
        if names[0] not in _KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        try:
            values.update(dict.fromkeys(names, _KEYS[names[0]](val)))
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    return _validate(ExperimentSpec(**values))


def default_spec() -> ExperimentSpec:
    return _validate(ExperimentSpec())


def _grid(lo, hi, step):
    # rounding to 10 decimals may pass hi (p_fa_max = 0.999999999 would round to 1)
    count = int(round((hi - lo) / step)) + 1
    return [min(round(lo + i * step, 10), hi) for i in range(count) if lo + i * step <= hi + 1e-9]


def _lambda_grid(spec):
    return _grid(spec.lambda_min, spec.lambda_max, spec.lambda_step)


def _n_grid(spec):
    return list(range(spec.n_min, spec.n_max + 1, spec.n_step))


def _p_fa_grid(spec):
    return _grid(spec.p_fa_min, spec.p_fa_max, spec.p_fa_step)


def _single_row(spec, approx, lam, n_scans, scan):
    config = ScanConfig(n_scans=n_scans, lam=lam)
    row = {}
    if "exact" in spec.methods:
        row["exact"] = single_fa.exact_probability(scan, config)
    if "closed-form" in spec.methods:
        row["closed_form"] = single_fa.closed_form_probability(scan, config, approx).value
    if "first-order" in spec.methods:
        row["first_order"] = single_fa.first_order_probability(scan, config, approx).value
    return row, mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, config=config, scan=scan)


def _lambda_row(spec, approx, lam):
    return _single_row(spec, approx, lam, spec.n_scans, spec.scan)


def _n_row(spec, approx, n):
    # an explicit scan below n_scans stays fixed; the default tracks the last scan
    scan = min(spec.scan, n) if spec.scan < spec.n_scans else n
    return _single_row(spec, approx, spec.lambda_fixed, n, scan)


def _random_lambda_row(spec, approx, lam0):
    config = ScanConfig(n_scans=spec.n_scans, lam=lam0)
    rl = single_fa.RandomLambda(lambda0=lam0, sigma0=spec.sigma0)
    row = {}
    if "closed-form" in spec.methods:
        row["closed_form"] = single_fa.random_lambda_probability(
            rl, spec.scan, config, approx).value
    return row, mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, config=config,
                                    scan=spec.scan, random_lambda=rl)


def _multi_fa_row(spec, approx, lam):
    config = ScanConfig(n_scans=spec.n_scans)
    indices = tuple(range(spec.n_scans - spec.k + 1, spec.n_scans + 1))
    fa = multi_fa.FalseAssocSet(indices=indices, lambdas=(lam,) * spec.k)
    row = {}
    if "exact" in spec.methods:
        row["exact"] = multi_fa.exact_probability(fa, config)
    return row, mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, config=config, fa=fa)


def _compound_columns(spec, plans):
    """The compound-law columns ``spec`` asks for, as {column: one value per plan}.

    Each law is one call over the decoy sets of the whole grid, which runs all
    of its integrals in one lockstep quadrature.
    """
    if not {"chi2", "normal", "exponential"} & set(spec.methods):
        return {}
    mps = [multi_fa.moment_params(plan.fa, plan.config) for plan in plans]
    columns = {}
    if "chi2" in spec.methods:
        columns["chi2"] = multi_fa.prob_chi2(spec.k, *mps)
    if "normal" in spec.methods:
        columns["normal"] = [res.value for res in multi_fa.prob_normal(*mps)]
    if "exponential" in spec.methods:
        columns["exponential"] = multi_fa.prob_exponential(
            *mps, rates=[1.0 / mp.v0 for mp in mps])
    return columns


def _dtmc_row(spec, approx, p):
    chain = dtmc_mod.AssocDTMC(p_fa=p)
    reach = dtmc_mod.reach_probability(chain, spec.steps)
    return {
        "reach_spectral": reach.spectral,
        "reach_power": reach.value,
        "reach_expansion": tabulated.reach_expansion(chain, spec.steps),
        "pi4": float(dtmc_mod.stationary(chain)[3]) if 0 < p < 1 else p * p,
        "expected_visits": dtmc_mod.expected_transient_visits(
            chain, (1.0, 0.0, 0.0)) if p > 0 else float("inf"),
    }, None


class Experiment(NamedTuple):
    x_header: str
    grid: Callable        # spec -> x values
    row: Callable         # (spec, approx, x) -> ({column: value} in CSV order, TrialPlan)
    methods: tuple        # every method the row function computes, in column order
    default_methods: tuple


_SINGLE = ("exact", "closed-form", "first-order", "mc")

EXPERIMENTS = {
    "sweep-lambda": Experiment("lambda", _lambda_grid, _lambda_row, _SINGLE,
                               ("exact", "closed-form", "mc")),
    "sweep-n": Experiment("n_scans", _n_grid, _n_row, _SINGLE, ("exact", "closed-form", "mc")),
    "first-order": Experiment("n_scans", _n_grid, _n_row, _SINGLE, ("exact", "first-order")),
    "random-lambda": Experiment("lambda0", _lambda_grid, _random_lambda_row,
                                ("closed-form", "mc"), ("closed-form", "mc")),
    "multi-fa": Experiment("lambda", _lambda_grid, _multi_fa_row,
                           ("exact", "chi2", "normal", "exponential", "mc"),
                           ("chi2", "normal", "mc")),
    "dtmc": Experiment("p_fa", _p_fa_grid, _dtmc_row, (), ()),
    "oracle-compare": Experiment("lambda", _lambda_grid, _lambda_row, _SINGLE, ("exact", "mc")),
}


def _experiment_rows(spec: ExperimentSpec):
    """(header, rows) for the experiment; rows are lists of floats led by x.

    The row functions compute each point's own columns; the compound
    laws follow, one call per law over the decoy sets of the whole grid, and
    the Monte Carlo columns come last, from one simulator call over the plans.
    """
    experiment = EXPERIMENTS[spec.experiment]
    approx = single_fa.fit_gammas(spec.n_steps, spec.support_k)
    xs = experiment.grid(spec)
    row_fn = partial(experiment.row, spec, approx)
    if spec.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so jobs=1 never loads it

        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            rows, plans = zip(*pool.map(row_fn, xs))
    else:
        rows, plans = zip(*[row_fn(x) for x in xs])
    for column, values in _compound_columns(spec, plans).items():
        for row, value in zip(rows, values):
            row[column] = value
    if "mc" in spec.methods:
        simulate = (mc_oracle.simulate_multi_fa if plans[0].fa is not None
                    else mc_oracle.simulate_single_fa)
        for row, est in zip(rows, simulate(*plans)):
            row["mc_p"], row["mc_stderr"] = est.p_hat, est.stderr
    columns = list(rows[0])
    table = [[x] + [row[c] for c in columns] for x, row in zip(xs, rows)]
    return [experiment.x_header] + columns, table


def write_csv(path, header, table):
    # x gets 15 digits, so grid points closer than 1e-10 (or to 1) print apart
    lines = [",".join(header)] + [",".join([f"{x:.15g}"] + [f"{v:.10g}" for v in values])
                                  for x, *values in table]
    Path(path).write_text("\n".join(lines) + "\n")


def write_svg(path, header, table):
    """Render the CSV columns as polylines in a standalone SVG (no deps)."""
    width, height, margin = 720, 480, 60
    xs = [row[0] for row in table]
    series = [(header[j], [row[j] for row in table]) for j in range(1, len(header))
              if header[j] != "mc_stderr"]
    ys_all = [v for _, ys in series for v in ys if np.isfinite(v)]
    if not xs or not ys_all:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys_all), max(ys_all)
    x1 = x1 if x1 > x0 else x0 + 1
    y1 = y1 if y1 > y0 else y0 + 1

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 16}" font-size="13" '
             f'text-anchor="middle">{header[0]}</text>']
    for k, (name, ys) in enumerate(series):
        color = palette[k % len(palette)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if np.isfinite(y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * k}" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def run(spec: ExperimentSpec, out_dir, plot: bool = False) -> int:
    """Execute one experiment; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{spec.experiment}.csv"
    try:
        header, table = _experiment_rows(spec)
    except (IntegrationError, FloatingPointError) as exc:
        csv_path.write_text(f"# ERROR: {exc}\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    write_csv(csv_path, header, table)
    print(f"wrote {csv_path} ({len(table)} rows)")
    if plot:
        svg_path = out / f"{spec.experiment}.svg"
        write_svg(svg_path, header, table)
        print(f"wrote {svg_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trackassoc",
        description="Correct-association probability experiments (analytic vs Monte Carlo).")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    parser.add_argument("--experiment", help="override the experiment name")
    parser.add_argument("--plot", action="store_true", help="also write an SVG plot")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config) if args.config else default_spec()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.experiment is not None:
            overrides["experiment"] = args.experiment
            overrides["methods"] = ()
        if overrides:
            spec = _validate(replace(spec, **overrides))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(spec, args.out, plot=args.plot)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
