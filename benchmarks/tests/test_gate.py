"""The correctness gate can pass and can fail."""

import math
from pathlib import Path

import pytest

from gate import check_csv
from workloads import WORKLOADS

REFERENCE = Path(__file__).resolve().parents[1] / "reference"
ALL_REFERENCES = [(w, e["experiment"]) for w, exps in WORKLOADS.items() for e in exps]


def reference(workload, experiment):
    return (REFERENCE / workload / f"{experiment}.csv").read_text()


def replace_field(text, row, column, new):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row].split(",")
    fields[col] = new(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload,experiment", ALL_REFERENCES)
def test_reference_passes_its_own_gate(workload, experiment):
    text = reference(workload, experiment)
    rows = len(text.strip().splitlines()) - 1
    assert check_csv(text, text, text) == (rows, 0, [])


def test_perturbed_analytic_value_fails():
    text = reference("lambda-sweep", "sweep-lambda")
    bad = replace_field(text, 5, "exact", lambda v: f"{float(v) * (1 + 1e-9):.10g}")
    attempted, failed, problems = check_csv(bad, text)
    assert (attempted, failed) == (31, 1)
    assert problems[0].startswith("row 5: exact=")


def test_last_digit_rounding_is_tolerated():
    text = reference("analytic", "sweep-lambda")
    # one unit in the 10th significant digit is within the CSV's rounding
    def next_up(v):
        return f"{float(v) + 10 ** (math.floor(math.log10(float(v))) - 9):.10g}"

    for row in range(1, 62):
        ok = replace_field(text, row, "exact", next_up)
        assert ok != text
        assert check_csv(ok, text)[1] == 0


def test_perturbed_monte_carlo_bytes_fail_only_against_a_reference():
    text = reference("multi-decoy", "multi-fa")
    bad = replace_field(text, 7, "mc_p", lambda v: f"{float(v) + 5e-5:.10g}")
    assert check_csv(bad, text, text)[1] == 1
    assert check_csv(bad, text, None)[1] == 0


@pytest.mark.parametrize("value", ["1.5", "-0.25", "nan", "inf", "abc"])
def test_bad_probability_fails(value):
    text = reference("n-sweep", "sweep-n")
    for column in ("exact", "mc_p"):
        bad = replace_field(text, 2, column, lambda v: value)
        assert check_csv(bad, text)[1] == 1


def test_non_finite_non_probability_column_fails():
    text = reference("analytic", "dtmc")
    bad = replace_field(text, 4, "expected_visits", lambda v: "inf")
    assert check_csv(bad, text)[1] == 1


def test_missing_or_failed_experiment_fails_every_point():
    text = reference("analytic", "dtmc")
    assert check_csv(None, text)[:2] == (30, 30)
    assert check_csv("# ERROR: quadrature did not converge\n", text)[:2] == (30, 30)


def test_missing_row_and_shifted_grid_fail():
    text = reference("analytic", "first-order")
    lines = text.splitlines()
    short = "\n".join(lines[:-1]) + "\n"
    assert check_csv(short, text)[:2] == (15, 1)
    shifted = replace_field(text, 1, "n_scans", lambda v: "11")
    assert check_csv(shifted, text)[1] == 1
