"""Child process of the benchmark: runs one workload through ``trackassoc.cli.run``.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the BLAS
thread caps set. It writes its results to <out>/worker.json and the CSVs of
pass i to <out>/pass-NNN/. Modes:

  probe   import trackassoc and run every experiment of the workload on one
          grid point, then record the monotonic clock (set-up time ends here);
  timed   warm up, then run timed passes until the deadline, tracing off,
          each with the machine's speed sampled through it (Calibration);
  traced  warm up, then alternate untraced and traced passes until the deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import trackassoc
from trackassoc import cli, geometry

from calibration import Calibration
from tracing import Tracer, pass_metrics, write_spans
from workloads import WORKLOADS, render_config

MIN_PASSES = 3          # timed passes, or untraced/traced pairs, per run
HARD_STOP_S = 120.0     # no new pass starts this long after the worker began


def load_specs(workload, seed, config_dir, one_point=False):
    """Validated specs of the workload's experiments, from generated config files."""
    config_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for i, experiment in enumerate(WORKLOADS[workload]):
        path = config_dir / f"{i}-{experiment['experiment']}.cfg"
        path.write_text(render_config(experiment, seed, one_point))
        specs.append(cli.parse_config(path))
    return specs


def run_pass(specs, out_dir, tracer=None):
    """Run every spec through cli.run into out_dir; returns (wall seconds, exit codes).

    An experiment that raises gets exit code None; its CSV is then missing and
    the correctness gate counts all its grid points as failed.
    """
    # Each pass does the work of a fresh CLI run: no projector is cached yet.
    cache = getattr(geometry, "_cached_geometry", None)
    if cache is not None:
        cache.cache_clear()
    codes = []
    start = time.perf_counter()
    for spec in specs:
        try:
            if tracer is None:
                codes.append(cli.run(spec, out_dir))
            else:
                cpu = time.process_time()
                with tracer.span("cli.run") as span:
                    codes.append(cli.run(spec, out_dir))
                span.attrs["cpu_s"] = time.process_time() - cpu
        except Exception:  # the gate reports the experiment's points as failed
            traceback.print_exc()
            codes.append(None)
    wall = time.perf_counter() - start
    return wall, codes


def traced_pass(specs, out_dir, run):
    """One pass with every layer traced; returns (wall, codes, spans, per-layer metrics)."""
    tracer = Tracer(run)
    patches = tracer.install()
    try:
        wall, codes = run_pass(specs, out_dir, tracer)
    finally:
        Tracer.uninstall(patches)
    cache = getattr(geometry, "_cached_geometry", None)
    info = cache.cache_info() if cache is not None else None
    metrics = pass_metrics(tracer.spans, info.hits if info else 0, info.misses if info else 0)
    return wall, codes, tracer.spans, metrics


def _more(count, minimum, last_s, deadline, began):
    """Start another pass if the minimum is not met or it should end by the deadline."""
    now = time.monotonic()
    if count < minimum:
        return True
    return now + last_s <= deadline and now - began < HARD_STOP_S


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "trackassoc_file": os.path.relpath(trackassoc.__file__),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("probe", "timed", "traced"))
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.monotonic() reading after which no pass starts")
    args = parser.parse_args(argv)
    began = time.monotonic()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "probe":
        specs = load_specs(args.workload, args.seed, out / "configs", one_point=True)
        _, codes = run_pass(specs, out / "csv")
        (out / "worker.json").write_text(json.dumps({"ready": time.monotonic(),
                                                     "codes": codes}))
        return 0

    warm = load_specs(args.workload, args.seed, out / "configs-warmup", one_point=True)
    run_pass(warm, out / "warmup")
    specs = load_specs(args.workload, args.seed, out / "configs")
    passes = []
    traced = []
    spans = []
    last = 0.0
    while _more(len(traced) if args.mode == "traced" else len(passes),
                MIN_PASSES, last, args.deadline, began):
        t0 = time.monotonic()
        pass_dir = out / f"pass-{len(passes) + len(traced):03d}"
        if args.mode == "timed":
            with Calibration() as calibration:
                wall, codes = run_pass(specs, pass_dir)
            passes.append({"wall_s": wall, "codes": codes,
                           "scaled_wall_s": calibration.scaled(wall),
                           "calibration_s": calibration.samples})
        else:
            wall, codes = run_pass(specs, pass_dir)
            passes.append({"wall_s": wall, "codes": codes})
        if args.mode == "traced":
            run = len(passes) + len(traced)
            wall, codes, run_spans, metrics = traced_pass(specs, out / f"pass-{run:03d}", run)
            traced.append({"wall_s": wall, "codes": codes, "metrics": metrics})
            spans.extend(run_spans)
        last = time.monotonic() - t0

    result = {
        "environment": environment(),
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        write_spans(out / "spans.jsonl", spans)
        result["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in passes))
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
