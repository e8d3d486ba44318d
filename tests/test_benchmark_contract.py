"""What the benchmark under benchmarks/ reads of the package, checked without changing it.

The benchmark writes a config file for each experiment of each workload
(``workloads.render_config``) and parses it with ``cli.parse_config``; its
set-up probe runs one grid point of each through ``cli.run``; and its traced
runs wrap the package's functions by name (``tracing.Tracer.install``). A
change that breaks any of these makes every benchmark run of that workload
fail, so each is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from trackassoc import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    """benchmarks/<name>.py as a module of its own, not entered in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")


def configs():
    for workload, experiments in workloads.WORKLOADS.items():
        for i, experiment in enumerate(experiments):
            yield pytest.param(experiment, id=f"{workload}-{i}-{experiment['experiment']}")


@pytest.mark.parametrize("experiment", configs())
def test_every_workload_config_parses_and_its_one_point_form_runs(tmp_path, experiment):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(workloads.render_config(experiment, 42))
    cli.parse_config(cfg)
    cfg = tmp_path / "one-point.cfg"
    cfg.write_text(workloads.render_config(experiment, 42, one_point=True))
    assert cli.run(cli.parse_config(cfg), tmp_path / "out") == 0
    assert (tmp_path / "out" / f"{experiment['experiment']}.csv").is_file()


def test_tracer_installs_on_the_package_and_uninstall_restores_every_name():
    modules = [m for key, m in sys.modules.items()
               if key == "trackassoc" or key.startswith("trackassoc.")]
    before = [(m, dict(vars(m))) for m in modules]
    tracing = load("tracing")
    patches = tracing.Tracer().install()
    try:
        for layer, names in tracing.LAYERS.items():
            home = sys.modules[f"trackassoc.{layer}"]
            for name in names:
                assert any(m is home and attr == name for m, attr, _ in patches), (layer, name)
    finally:
        tracing.Tracer.uninstall(patches)
    for module, names in before:
        now = vars(module)
        assert all(now[attr] is value for attr, value in names.items()), module.__name__
