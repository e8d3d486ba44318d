"""What the package needs at run time: numpy only; scipy serves the tests as an oracle."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import trackassoc
from trackassoc.cli import EXPERIMENTS, main

SRC = Path(trackassoc.__file__).resolve().parent
ROOT = SRC.parent.parent

# modules the package once loaded: numpy.polynomial only to build constants,
# concurrent.futures for a thread pool (jobs > 1) that no config can ask for now
UNUSED = ("numpy.polynomial", "concurrent.futures")

# one grid point of every experiment, every method it computes (mc included
# wherever the experiment offers it)
ONE_POINT = {"n_scans": 8, "n_min": 8, "n_max": 8, "lambda_min": 2.0, "lambda_max": 2.0,
             "lambda_fixed": 2.0, "p_fa": 0.1, "k": 3, "trials": 64, "steps": 5}


RUN_EVERY_EXPERIMENT = """
import json, sys, tempfile
from pathlib import Path

UNUSED = %r


def loaded():
    return sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in UNUSED))


import trackassoc
from trackassoc.cli import EXPERIMENTS, main
at_import = loaded()

keys = %r
codes = {}
with tempfile.TemporaryDirectory() as out:
    for name, experiment in EXPERIMENTS.items():
        cfg = Path(out) / f"{name}.cfg"
        lines = {**keys, "experiment": name, "methods": ",".join(experiment.methods)}
        cfg.write_text("".join(f"{k}={v}\\n" for k, v in lines.items()))
        codes[name] = (main(["--config", str(cfg), "--out", out]),
                       (Path(out) / f"{name}.csv").exists())
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "unused": {"import": at_import, "run": loaded()}}))
""" % (UNUSED, ONE_POINT)


def _requirement_name(spec):
    return re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()


def _imported_top_levels(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.fixture(scope="module")
def report():
    """What a fresh process that runs every experiment once loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", RUN_EVERY_EXPERIMENT], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_experiment_runs_without_loading_scipy(report):
    assert report["codes"] == {name: [0, True] for name in EXPERIMENTS}
    assert report["scipy"] == []


def test_neither_import_nor_a_run_loads_numpy_polynomial_or_a_thread_pool(report):
    assert report["codes"] == {name: [0, True] for name in EXPERIMENTS}
    assert report["unused"] == {"import": [], "run": []}


def test_no_run_calls_a_lapack_svd(monkeypatch, tmp_path):
    # np.linalg.cond and svd serve the tests (test_geometry checks the
    # projector's conditioning); a run of any experiment must call neither
    def refuse(*args, **kwargs):
        raise AssertionError("a run called a LAPACK SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg._linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    for name, experiment in EXPERIMENTS.items():
        cfg = tmp_path / f"{name}.cfg"
        lines = {**ONE_POINT, "experiment": name, "methods": ",".join(experiment.methods)}
        cfg.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0, name
        assert (tmp_path / f"{name}.csv").exists(), name


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {_requirement_name(r) for r in project["dependencies"]}
    extras = {extra: {_requirement_name(r) for r in reqs}
              for extra, reqs in project["optional-dependencies"].items()}
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        third_party = _imported_top_levels(path) - set(sys.stdlib_module_names) - {"trackassoc"}
        assert third_party <= runtime, (path.name, third_party - runtime)
    assert "scipy" not in runtime
    assert [extra for extra, names in extras.items() if "scipy" in names] == ["test"]
