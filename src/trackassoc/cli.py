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
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dtmc as dtmc_mod
from . import mc_oracle, multi_fa, single_fa, tabulated
from .geometry import ScanConfig
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


MAX_GRID_POINTS = 100_000
MAX_N_STEPS = 1_000    # fit_gammas solves an n_steps x n_steps system, 8 MB at the cap
MAX_STEPS = 10**6      # the dtmc horizon; far larger ones overflow a float


def _validate(spec: ExperimentSpec) -> ExperimentSpec:
    """Check the CLI's bounds and build every grid point: the library checks the rest."""
    if spec.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {spec.experiment!r}")
    if spec.n_steps > MAX_N_STEPS:
        raise ConfigError(f"n_steps must be <= {MAX_N_STEPS}")
    if not 0 <= spec.steps <= MAX_STEPS:
        raise ConfigError(f"steps must lie in [0, {MAX_STEPS}]")
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
    for lo, hi, step in ((spec.lambda_min, spec.lambda_max, spec.lambda_step),
                         (spec.p_fa_min, spec.p_fa_max, spec.p_fa_step)):
        if (hi - lo) / step >= MAX_GRID_POINTS:  # checked before _grid builds the list
            raise ConfigError(f"a grid may hold at most {MAX_GRID_POINTS} points")
    experiment = EXPERIMENTS[spec.experiment]
    try:
        mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed,
                            config=ScanConfig(n_scans=spec.n_scans))
        single_fa.RandomLambda(lambda0=0.0, sigma0=spec.sigma0)
        single_fa.fit_gammas(spec.n_steps, spec.support_k)
        for x in experiment.grid(spec):  # each point's plan checks the decoy scan it places
            experiment.point(spec, x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.jobs != 1:
        raise ConfigError("jobs must be 1 (the key stays so that configs setting it parse)")
    methods = spec.methods or experiment.default_methods
    bad = [m for m in methods if m not in experiment.methods]
    if bad:
        raise ConfigError(f"experiment {spec.experiment!r} does not compute methods {bad}")
    methods = tuple(m for m in experiment.methods if m in methods)
    return replace(spec, methods=methods)


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


def _lambda_point(spec, lam):
    return mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, scan=spec.scan or None,
                               config=ScanConfig(n_scans=spec.n_scans, lam=lam))


def _n_point(spec, n):
    # an explicit scan stays fixed, clipped to N; 0 tracks the last scan
    return mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed, scan=min(spec.scan, n) or None,
                               config=ScanConfig(n_scans=n, lam=spec.lambda_fixed))


def _random_lambda_point(spec, lam0):
    rl = single_fa.RandomLambda(lambda0=lam0, sigma0=spec.sigma0)
    return replace(_lambda_point(spec, lam0), random_lambda=rl)


def _multi_fa_point(spec, lam):
    indices = tuple(range(spec.n_scans - spec.k + 1, spec.n_scans + 1))
    fa = multi_fa.FalseAssocSet(indices=indices, lambdas=(lam,) * spec.k)
    return mc_oracle.TrialPlan(trials=spec.trials, seed=spec.seed,
                               config=ScanConfig(n_scans=spec.n_scans), fa=fa)


def _method_columns(spec, plans):
    """{column: one value per plan} for the methods ``spec`` asks for, in CSV order.

    A plan holds either one decoy scan (with a fixed or a random offset) or a
    decoy set. Each method is one rule over every plan of the grid: the
    compound laws are one call per law and the Monte Carlo columns one
    simulator call, each over the whole grid.
    """
    methods = set(spec.methods)
    if methods & {"closed-form", "first-order"}:
        approx = single_fa.fit_gammas(spec.n_steps, spec.support_k)
    columns = {}
    if "exact" in methods:
        columns["exact"] = [single_fa.exact_probability(p.scan, p.config) if p.fa is None
                            else multi_fa.exact_probability(p.fa, p.config) for p in plans]
    if "closed-form" in methods:
        columns["closed_form"] = [
            single_fa.closed_form_probability(p.scan, p.config, approx).value
            if p.random_lambda is None else
            single_fa.random_lambda_probability(p.random_lambda, p.scan, p.config, approx).value
            for p in plans]
    if "first-order" in methods:
        columns["first_order"] = [single_fa.first_order_probability(p.scan, p.config, approx).value
                                  for p in plans]
    if methods & {"chi2", "normal", "exponential"}:
        mps = [multi_fa.moment_params(p.fa, p.config) for p in plans]
    if "chi2" in methods:
        columns["chi2"] = multi_fa.prob_chi2(spec.k, *mps)
    if "normal" in methods:
        columns["normal"] = [res.value for res in multi_fa.prob_normal(*mps)]
    if "exponential" in methods:
        columns["exponential"] = multi_fa.prob_exponential(*mps)
    if "mc" in methods:
        simulate = (mc_oracle.simulate_single_fa if plans[0].fa is None
                    else mc_oracle.simulate_multi_fa)
        estimates = simulate(*plans)
        columns["mc_p"] = [est.p_hat for est in estimates]
        columns["mc_stderr"] = [est.stderr for est in estimates]
    return columns


def _dtmc_columns(spec, chains):
    reaches = [dtmc_mod.reach_probability(c, spec.steps) for c in chains]
    return {
        "reach_spectral": [reach.spectral for reach in reaches],
        "reach_power": [reach.value for reach in reaches],
        "reach_expansion": [tabulated.reach_expansion(c, spec.steps) for c in chains],
        "pi4": [float(dtmc_mod.stationary(c)[3]) for c in chains],
        "expected_visits": [dtmc_mod.expected_transient_visits(c, (1.0, 0.0, 0.0))
                            for c in chains],
    }


class Experiment(NamedTuple):
    x_header: str
    grid: Callable        # spec -> x values
    point: Callable       # (spec, x) -> the point's TrialPlan (an AssocDTMC for dtmc)
    columns: Callable     # (spec, points) -> {column: one value per point} in CSV order
    methods: tuple        # every method the experiment computes, in column order
    default_methods: tuple


_SINGLE = ("exact", "closed-form", "first-order", "mc")

EXPERIMENTS = {
    "sweep-lambda": Experiment("lambda", _lambda_grid, _lambda_point, _method_columns, _SINGLE,
                               ("exact", "closed-form", "mc")),
    "sweep-n": Experiment("n_scans", _n_grid, _n_point, _method_columns, _SINGLE,
                          ("exact", "closed-form", "mc")),
    "first-order": Experiment("n_scans", _n_grid, _n_point, _method_columns, _SINGLE,
                              ("exact", "first-order")),
    "random-lambda": Experiment("lambda0", _lambda_grid, _random_lambda_point, _method_columns,
                                ("closed-form", "mc"), ("closed-form", "mc")),
    "multi-fa": Experiment("lambda", _lambda_grid, _multi_fa_point, _method_columns,
                           ("exact", "chi2", "normal", "exponential", "mc"),
                           ("chi2", "normal", "mc")),
    "dtmc": Experiment("p_fa", _p_fa_grid, lambda spec, p: dtmc_mod.AssocDTMC(p_fa=p),
                       _dtmc_columns, (), ()),
    "oracle-compare": Experiment("lambda", _lambda_grid, _lambda_point, _method_columns,
                                 _SINGLE, ("exact", "mc")),
}


def _experiment_rows(spec: ExperimentSpec):
    """(header, rows) for the experiment; rows are tuples of floats led by x."""
    experiment = EXPERIMENTS[spec.experiment]
    xs = experiment.grid(spec)
    columns = experiment.columns(spec, [experiment.point(spec, x) for x in xs])
    return [experiment.x_header, *columns], list(zip(xs, *columns.values()))


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
