"""Workload-property counts repeat exactly, and the benchmark refuses to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import COUNT_METRICS
from worker import load_specs, traced_pass
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]


# Workload properties that later changes cite as counts.
EXPECTED = {
    "lambda-sweep": {"mc_oracle.shared_noise_share": 30 / 31,
                     "geometry.projector_cache_hit_ratio": 30 / 31,
                     "single_fa.polar_passes_per_exact": 2.0,
                     "quadrature.normal_upper_tail.elements": 31 * (192**2 + 384**2) + 10,
                     "mc_oracle.normals": 31 * 20000 * 2 * 41},
    "n-sweep": {"mc_oracle.shared_noise_share": 0.0,
                "geometry.projector_cache_hit_ratio": 0.0,
                "geometry.build_projector.calls": 10},
    "multi-decoy": {"mc_oracle.shared_noise_share": 30 / 31,
                    "mc_oracle.simulate_multi_fa.calls": 31},
    "analytic": {"mc_oracle.trials": 0, "dtmc.calls": 90,
                 "quadrature.adaptive_integrate.failures": 0},
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload, tmp_path):
    specs = load_specs(workload, 3, tmp_path / "configs")
    counts = []
    for run in (0, 1):
        _, codes, _, metrics = traced_pass(specs, tmp_path / f"pass-{run}", run)
        assert codes == [0] * len(specs)
        counts.append({name: metrics[name] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    for name, value in EXPECTED[workload].items():
        assert counts[0][name] == pytest.approx(value), name
    for experiment in WORKLOADS[workload]:
        name = f"{experiment['experiment']}.csv"
        assert (tmp_path / "pass-0" / name).read_bytes() == (tmp_path / "pass-1" / name).read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd]
                          + ["--workload", "analytic", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
