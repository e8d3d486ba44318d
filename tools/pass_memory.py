"""Page faults, CPU time and wall time of each pass of benchmark workloads, and peak RSS.

Usage: python tools/pass_memory.py SRC [WORKLOAD ...]

SRC is a checkout holding src/trackassoc and benchmarks/. For each workload
(default: every one SRC's benchmark defines) one fresh process is started
with the environment SRC's ``benchmarks/run.py`` gives its workers (SRC/src on
PYTHONPATH, one BLAS thread). At the benchmark's reference seed it loads the
workload's specs with ``benchmarks/worker.load_specs``, runs the
one-point warm-up and then PASSES passes with ``worker.run_pass``, as a timed
benchmark run does but with no speed sampling. Per pass it prints the minor
page faults, user and system CPU seconds and wall seconds (from
``resource.getrusage`` and the pass's own timer), then the process's peak RSS,
next to its RSS right after ``import trackassoc.cli`` (read from
/proc/self/statm, before the benchmark's worker module is imported), so that
a larger import shows apart from the memory a pass takes. That is the
resident size at that moment, not the peak so far: the peak includes the
compiling of the package's sources, which the child does afresh each time.
It also prints the peak RSS right after the warm-up pass, so that one-time
page-ins (library code and data that first calls touch) show apart from what
the timed passes add.
Only SRC is read; configs and CSVs go to a temporary directory. Exits 1 if a
process fails or an experiment of a pass does not exit 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PASSES = 5

# Runs in the child: argv is (benchmarks dir, workload, seed, output dir, passes);
# prints one JSON line with the passes' resource use, the RSS after importing
# trackassoc, the peak RSS after the warm-up pass and the peak RSS at the end.
_CHILD = """
import json, resource, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import trackassoc, trackassoc.cli
with open("/proc/self/statm") as statm:
    import_rss_mb = int(statm.read().split()[1]) * resource.getpagesize() / 2**20
from worker import load_specs, run_pass

workload, seed, out = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
run_pass(load_specs(workload, seed, out / "configs-warmup", one_point=True), out / "warmup")
warmup_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
specs = load_specs(workload, seed, out / "configs")
passes = []
for i in range(int(sys.argv[5])):
    before = resource.getrusage(resource.RUSAGE_SELF)
    wall, codes = run_pass(specs, out / f"pass-{i:03d}")
    after = resource.getrusage(resource.RUSAGE_SELF)
    passes.append({"minflt": after.ru_minflt - before.ru_minflt,
                   "user_s": after.ru_utime - before.ru_utime,
                   "sys_s": after.ru_stime - before.ru_stime,
                   "wall_s": wall, "codes": codes})
print(json.dumps({"trackassoc": trackassoc.__file__, "passes": passes,
                  "import_rss_mb": import_rss_mb, "warmup_peak_rss_mb": warmup_peak_rss_mb,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def benchmark(src):
    """SRC's ``benchmarks/run.py`` as a module: its child_env, WORKLOADS and REFERENCE_SEED."""
    sys.dont_write_bytecode = True     # SRC is only read
    sys.path.insert(0, str(src / "benchmarks"))
    try:
        import run
    finally:
        sys.path.pop(0)
    return run


def measure(src, env, workload, seed, out):
    """The child's report for one workload, or None (with its stderr shown) if it failed."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(src / "benchmarks"), workload,
                           str(seed), str(out), str(PASSES)],
                          cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(f"{workload}: exited {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    bench = benchmark(src)
    unknown = [w for w in args.workloads if w not in bench.WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; {src} has {list(bench.WORKLOADS)}")
    env, seed = dict(bench.child_env(), PYTHONDONTWRITEBYTECODE="1"), bench.REFERENCE_SEED
    failed = 0
    for workload in args.workloads or list(bench.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            report = measure(src, env, workload, seed, Path(tmp))
        if report is None:
            failed += 1
            continue
        print(f"{workload} (seed {seed}, {report['trackassoc']}): "
              f"peak RSS {report['peak_rss_mb']:.2f} MiB "
              f"(RSS after import trackassoc {report['import_rss_mb']:.2f} MiB, "
              f"peak RSS after the warm-up pass {report['warmup_peak_rss_mb']:.2f} MiB)")
        print("  pass  minor_faults  user_s  sys_s  wall_s")
        for i, p in enumerate(report["passes"]):
            bad = sum(code != 0 for code in p["codes"])
            failed += bad > 0
            print(f"  {i:4d}  {p['minflt']:12d}  {p['user_s']:6.3f}  {p['sys_s']:5.3f}  "
                  f"{p['wall_s']:6.3f}" + (f"  ({bad} experiments failed)" if bad else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
