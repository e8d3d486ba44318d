"""Regenerate the stored reference CSVs, reference/<workload>/<experiment>.csv.

    python3 benchmarks/make_reference.py [workload ...]

Runs each workload once at REFERENCE_SEED with the checkout's src/. Only do
this for a change that is meant to alter the CLI's output, and say so in it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from worker import load_specs, run_pass  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main(names):
    for name in names or sorted(WORKLOADS):
        out = BENCH / "reference" / name
        with tempfile.TemporaryDirectory(dir=BENCH) as configs:
            specs = load_specs(name, REFERENCE_SEED, Path(configs))
            _, codes = run_pass(specs, out)
        if any(code != 0 for code in codes):
            print(f"{name}: experiment exit codes {codes}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
