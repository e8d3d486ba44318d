"""Correctness gate: checks one experiment's CSV against its stored reference.

A grid point (CSV row) fails if its experiment raised or wrote no row for it,
if a value is non-finite or a probability lies outside [0, 1], if an analytic
column differs from the reference by more than 1e-12 beyond the CSV's
10-significant-digit rounding, or if its mc_p / mc_stderr text differs from
the run whose bytes it must reproduce.
"""

from __future__ import annotations

import math

MC_COLUMNS = ("mc_p", "mc_stderr")
# reach_expansion is left out: it is the tabulated small-p quadratic, kept as a
# diagnostic, and exceeds 1 at large p_fa by design (FINDINGS.md item 14).
PROBABILITY_COLUMNS = {"exact", "closed_form", "first_order", "chi2", "normal", "exponential",
                       "reach_spectral", "reach_power", "pi4", "mc_p"}
ANALYTIC_TOL = 1e-12


def _table(text):
    lines = text.strip().splitlines() if text else []
    if not lines or lines[0].startswith("#"):
        return None, []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a, r):
    """Within the rounding of two 10-significant-digit values, plus ANALYTIC_TOL."""
    big = max(abs(a), abs(r))
    quantum = 10.0 ** (math.floor(math.log10(big)) - 9) if big > 0 else 0.0
    return abs(a - r) <= quantum + ANALYTIC_TOL


def _row_problem(header, row, ref_row, mc_row):
    if len(row) != len(header):
        return "wrong number of fields"
    if row[0] != ref_row[0]:
        return f"grid value {row[0]} where the reference has {ref_row[0]}"
    for j, (name, text) in enumerate(zip(header, row)):
        try:
            value = float(text)
        except ValueError:
            return f"{name}={text!r} is not a number"
        if not math.isfinite(value):
            return f"{name}={text} is not finite"
        if name in PROBABILITY_COLUMNS and not 0.0 <= value <= 1.0:
            return f"{name}={text} is not a probability"
        if name == "mc_stderr" and value < 0.0:
            return f"{name}={text} is negative"
        if name in MC_COLUMNS:
            if mc_row is not None and text != mc_row[j]:
                return f"{name}={text} differs from {mc_row[j]}"
        elif j > 0 and not _close(value, float(ref_row[j])):
            return f"{name}={text} differs from the reference {ref_row[j]}"
    return None


def check_csv(text, reference, mc_reference=None):
    """Return (attempted, failed, problems) for one experiment's CSV text.

    ``text`` is None when the experiment wrote no CSV. ``reference`` is the
    stored reference CSV text, which fixes the grid, the header and the
    analytic values. ``mc_reference``, when given, is CSV text whose
    mc_p / mc_stderr fields the run must reproduce byte for byte.
    """
    ref_header, ref_rows = _table(reference)
    header, rows = _table(text)
    _, mc_rows = _table(mc_reference)
    attempted = max(len(ref_rows), len(rows))
    if header != ref_header:
        what = "no CSV" if header is None else f"header {header}"
        return attempted, attempted, [f"{what}; expected {ref_header}"]
    problems = []
    for i in range(attempted):
        if i >= len(rows) or i >= len(ref_rows):
            problems.append(f"row {i + 1}: missing or extra row")
            continue
        mc_row = mc_rows[i] if i < len(mc_rows) else None
        if mc_reference is not None and mc_row is None:
            problem = "no row to compare the Monte Carlo fields with"
        else:
            problem = _row_problem(header, rows[i], ref_rows[i], mc_row)
        if problem:
            problems.append(f"row {i + 1}: {problem}")
    return attempted, len(problems), problems
