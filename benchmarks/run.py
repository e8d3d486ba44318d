"""trackassoc benchmark: one workload, end-to-end metrics or traced per-layer metrics.

    python3 benchmarks/run.py --workload lambda-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it uses the checkout's src/. Every child
process runs ``trackassoc.cli.run`` with jobs=1 and one BLAS thread. Results
and CSVs go to benchmarks/out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; attempted and
failed count grid points.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import Calibration
from gate import check_csv
from tracing import COUNT_METRICS, PER_LAYER
from workloads import REFERENCE_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference"
SETUP_PROBES = 5
SETUP_CALIBRATION_JOBS = 5      # speed samples just before and just after each probe
# A second BLAS thread halves no pass's wall time here (the matrices are small)
# but spins a second core, which makes every pass wait on the busier core of a
# shared host. One thread gives the same wall time with half the noise.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0    # the whole run, children included


class BenchError(RuntimeError):
    pass


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    cap = str(BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args, out, env, started, mode, deadline=0.0):
    """Run worker.py to completion (killed at the time limit); returns its worker.json."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out), "--mode", mode, "--deadline", repr(deadline)]
    budget = TIME_LIMIT_S - (time.monotonic() - started)
    with open(out / "worker.log", "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker passed the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        tail = (out / "worker.log").read_text()[-2000:]
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    return json.loads((out / "worker.json").read_text())


def commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "trackassoc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_passes(args, out):
    """Check every pass's CSVs; returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    experiments = [e["experiment"] for e in WORKLOADS[args.workload]]
    first = {}
    for pass_dir in sorted(out.glob("pass-*")):
        for name in experiments:
            reference = (REFERENCE / args.workload / f"{name}.csv").read_text()
            csv = pass_dir / f"{name}.csv"
            text = csv.read_text() if csv.is_file() else None
            # Monte Carlo bytes must match the stored reference at its seed, and
            # the run's first pass at any other seed.
            mc_reference = reference if args.seed == REFERENCE_SEED else first.get(name)
            a, f, p = check_csv(text, reference, mc_reference)
            first.setdefault(name, text)
            attempted += a
            failed += f
            problems += [f"{pass_dir.name}/{name}.csv {line}" for line in p]
    return attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="trackassoc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trackassoc" / "__init__.py").is_file():
        print(f"no trackassoc sources at {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + args.seconds
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    env = child_env()
    try:
        setups = []
        raw_setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                calibration = Calibration()
                calibration.sample(SETUP_CALIBRATION_JOBS)
                t0 = time.monotonic()
                probe = run_worker(args, out / f"probe-{i}", env, started, "probe")
                raw_setups.append(probe["ready"] - t0)
                calibration.sample(SETUP_CALIBRATION_JOBS)
                setups.append(calibration.scaled(raw_setups[-1], jobs_inside=False))
        worker = run_worker(args, out, env, started, "traced" if args.trace else "timed",
                            deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check_passes(args, out)

    environment = dict(worker["environment"], nproc=usable_cpus(), commit=commit(),
                       source_sha256=source_digest(), seed=args.seed,
                       workload=args.workload, platform=platform.platform())
    walls = [p["wall_s"] for p in worker["passes"]]
    scaled = [p["scaled_wall_s"] for p in worker["passes"] if "scaled_wall_s" in p]
    if args.trace:
        metrics = traced_metrics(worker)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MiB"},
            "passed_point_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        dict(result, environment=environment, wall_s_passes=walls, scaled_wall_s_passes=scaled,
             setup_s_probes=setups, raw_setup_s_probes=raw_setups, problems=problems), indent=1))

    print(json.dumps({"environment": environment}))
    print(f"passes: {len(walls)}, raw wall min/median/max "
          f"{min(walls):.4f}/{statistics.median(walls):.4f}/{max(walls):.4f} s")
    if scaled:
        print(f"wall_s at the reference speed min/median/max "
              f"{min(scaled):.4f}/{statistics.median(scaled):.4f}/{max(scaled):.4f} s")
    if setups:
        print("setup_s probes at the reference speed: " + ", ".join(f"{s:.4f}" for s in setups))
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


def traced_metrics(worker):
    traced = worker["traced"]
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    first = traced[0]["metrics"]
    for other in traced[1:]:
        changed = [n for n in COUNT_METRICS if other["metrics"].get(n) != first.get(n)]
        if changed:
            print(f"counts differ between traced passes: {changed}", file=sys.stderr)
    values = {}
    for name in units:
        if name == "trace.overhead_s":
            values[name] = worker["trace_overhead_s"]
        elif name in COUNT_METRICS:
            values[name] = first[name]
        else:
            values[name] = statistics.median(p["metrics"][name] for p in traced)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
