"""How far each benchmark workload's timed pass sits above the 0.1 s calibration floor.

Usage: python tools/floor_margin.py [RUN_DIR ...]

A RUN_DIR is one ``benchmarks/out/<workload>-seed<n>-trace0`` directory, as
``benchmarks/run.py --trace 0`` leaves it; with none given, every such
directory under ``benchmarks/out`` is read. Each run's ``worker.json`` is read,
and its worker logs when it has none; nothing is written.

The benchmark samples the host's speed with a fixed job every 0.1 s while a
pass runs, and a pass that ends before the first sample gives no result. On a
faster host the same pass takes less time. For each workload this prints the
shortest raw pass (a pass's wall time less the speed jobs run inside it) and
the median raw pass over every timed pass of its runs (the program's own time,
without the benchmark's scaling to a reference speed), the median speed job,
and the raw pass projected to the fastest job seen in any of the given runs. The projection is taken per run, whose passes ran at about one
host speed: the run's shortest raw pass x fastest job / the run's median job,
and the workload's figure is the smallest over its runs. A run with no
worker.json died if one of its worker logs (``worker.log``, or a probe's) holds
a traceback, as at the floor, where it ends in "no speed sample"; any other
such run is unfinished (still running, or killed), and is counted but left out
of the figures and the exit code. It exits 1 if a workload's figure is under
MARGIN_S or one of its runs died.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

MARGIN_S = 0.11         # the 0.1 s floor plus 10% for a host faster than any run saw
RUN_DIR = re.compile(r"(?P<workload>.+)-seed\d+-trace0")
OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"


def raw_passes_and_jobs(run_dir):
    """The run's raw passes (s) and every speed job (s) its timed passes ran."""
    passes = json.loads((run_dir / "worker.json").read_text())["passes"]
    return ([p["wall_s"] - sum(p["calibration_s"]) for p in passes],
            [job for p in passes for job in p["calibration_s"]])


def died(run_dir):
    """Whether the run's worker, or one of its probes, ended in a traceback."""
    logs = [run_dir / "worker.log", *run_dir.glob("probe-*/worker.log")]
    return any(log.is_file() and "Traceback" in log.read_text() for log in logs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    runs = args.runs or sorted(p for p in OUT.glob("*-seed*-trace0") if p.is_dir())
    timed, dead, unfinished = {}, {}, {}
    for run in runs:
        match = RUN_DIR.fullmatch(run.name)
        if not match or not run.is_dir():
            print(f"{run}: not a <workload>-seed<n>-trace0 run directory", file=sys.stderr)
            return 2
        workload = match["workload"]
        timed.setdefault(workload, [])
        dead.setdefault(workload, 0)
        unfinished.setdefault(workload, 0)
        if (run / "worker.json").is_file():
            timed[workload].append(raw_passes_and_jobs(run))
        elif died(run):
            dead[workload] += 1
        else:
            unfinished[workload] += 1
    jobs = [job for done in timed.values() for _, run_jobs in done for job in run_jobs]
    if not jobs:
        print("no timed pass found", file=sys.stderr)
        return 2
    fastest = min(jobs)
    print(f"{len(runs)} runs; fastest calibration job {fastest * 1e3:.2f} ms; "
          f"margin {MARGIN_S} s")
    print(f"{'workload':<14}{'runs':>6}{'died':>6}{'unfinished':>12}{'min raw s':>11}"
          f"{'median raw s':>14}{'median job ms':>15}{'projected s':>13}")
    bad = 0
    for workload, done in sorted(timed.items()):
        if done:
            median_job = statistics.median(job for _, run_jobs in done for job in run_jobs)
            projected = min(min(raws) * fastest / statistics.median(run_jobs)
                            for raws, run_jobs in done)
            raws = [raw for run_raws, _ in done for raw in run_raws]
            figures = (f"{min(raws):>11.4f}{statistics.median(raws):>14.4f}"
                       f"{median_job * 1e3:>15.3f}{projected:>13.4f}")
        else:
            projected, figures = None, f"{'-':>11}{'-':>14}{'-':>15}{'-':>13}"
        low = dead[workload] > 0 or (projected is not None and projected < MARGIN_S)
        bad += low
        count = len(done) + dead[workload] + unfinished[workload]
        print(f"{workload:<14}{count:>6}{dead[workload]:>6}{unfinished[workload]:>12}{figures}"
              f"{'  UNDER MARGIN' if low else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
