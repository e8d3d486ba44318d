"""The maintenance scripts under tools/, on synthetic inputs."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFloorMargin:
    @staticmethod
    def runs(tmp_path):
        """Three run directories of one workload: done, dead and still running."""
        done, dead, running = (tmp_path / f"n-sweep-seed{i}-trace0" for i in (1, 2, 3))
        for run in (done, dead, running):
            (run / "probe-0").mkdir(parents=True)
            (run / "probe-0" / "worker.log").write_text("")
        (done / "worker.log").write_text("")
        (done / "worker.json").write_text(json.dumps(
            {"passes": [{"wall_s": 0.52, "calibration_s": [0.01, 0.01]}] * 3}))
        (dead / "worker.log").write_text(
            "Traceback (most recent call last):\n  File \"benchmarks/worker.py\"\n"
            "RuntimeError: block shorter than 0.1 s: no speed sample\n")
        (running / "worker.log").write_text("")        # the timed worker has not finished
        return done, dead, running

    @staticmethod
    def row(out, workload):
        line, = (line for line in out.splitlines() if line.startswith(workload))
        return line.split()

    def test_a_running_run_is_unfinished_not_dead(self, tmp_path, capsys):
        floor_margin = load_tool("floor_margin")
        done, dead, running = self.runs(tmp_path)
        assert floor_margin.main([str(done), str(running)]) == 0
        assert self.row(capsys.readouterr().out, "n-sweep") == [
            "n-sweep", "2", "0", "1", "0.5000", "0.5000", "10.000", "0.5000"]

    def test_a_traceback_marks_the_run_dead(self, tmp_path, capsys):
        floor_margin = load_tool("floor_margin")
        done, dead, running = self.runs(tmp_path)
        assert floor_margin.main([str(done), str(dead), str(running)]) == 1
        assert self.row(capsys.readouterr().out, "n-sweep") == [
            "n-sweep", "3", "1", "1", "0.5000", "0.5000", "10.000", "0.5000", "UNDER", "MARGIN"]

    def test_a_workload_with_only_unfinished_runs_passes(self, tmp_path, capsys):
        floor_margin = load_tool("floor_margin")
        done, _, _ = self.runs(tmp_path)
        other = tmp_path / "analytic-seed4-trace0"
        other.mkdir()
        assert floor_margin.main([str(done), str(other)]) == 0
        assert self.row(capsys.readouterr().out, "analytic") == [
            "analytic", "1", "0", "1", "-", "-", "-", "-"]
