"""Output correctness gate.

Every check returns a list of problems; an empty list means the operation
passed.  A problem is counted as a failed operation in ``failed`` and in
``ok_frac``; nothing is filtered out or retried.
"""

from __future__ import annotations

import json
import math
import re

ENERGY_DRIFT_LIMIT = 1e-8
CONSTRAINT_LIMIT = 1e-8

_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def csv_problems(path, expected_rows=None):
    """Non-finite numbers, ragged rows or a wrong row count in a trajectory CSV."""
    problems = []
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = 0
            for lineno, line in enumerate(fh, start=2):
                cells = line.rstrip("\n").split(",")
                rows += 1
                if len(cells) != len(header):
                    problems.append(f"{path.name}:{lineno}: {len(cells)} cells, header has {len(header)}")
                    break
                try:
                    values = [float(c) for c in cells]
                except ValueError:
                    problems.append(f"{path.name}:{lineno}: not a number")
                    break
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{path.name}:{lineno}: non-finite value")
                    break
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if expected_rows is not None and rows != expected_rows and not problems:
        problems.append(f"{path.name}: {rows} rows, expected {expected_rows}")
    return problems


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)


def report_problems(path):
    """Non-finite numbers in report.json (Python's json writes NaN as NaN)."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    if not all(math.isfinite(v) for v in _numbers(report)):
        return [f"{path.name}: non-finite value"]
    return []


def run_problems(returncode, outdir, expected_rows):
    """Gate for one ``lrsim run``: exit code, CSV and report."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    return (csv_problems(outdir / "trajectory.csv", expected_rows)
            + report_problems(outdir / "report.json"))


def verify_problems(returncode, stdout):
    """Gate for one ``lrsim verify``: exit code, every check line PASS."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    lines = stdout.splitlines()
    checks = [line for line in lines if _CHECK_LINE.match(line)]
    failed = [line for line in checks if line.startswith("FAIL")]
    problems += [f"check failed: {line}" for line in failed]
    if not checks:
        problems.append("no check lines printed")
    summary = [m for m in map(_SUMMARY.match, lines) if m]
    if not summary or int(summary[-1].group(1)) != int(summary[-1].group(2)) \
            or int(summary[-1].group(2)) != len(checks):
        problems.append("summary line missing or not all checks passed")
    return problems


def member_problems(energy_drift, constraints):
    """Gate for one ensemble member (acceptance criteria 1 and 2).

    Written as ``not (x < limit)`` so that a NaN counts as a failure.
    """
    problems = []
    if not energy_drift < ENERGY_DRIFT_LIMIT:
        problems.append(f"relative energy drift {energy_drift:.3e}")
    for name, value in constraints.items():
        if not value < CONSTRAINT_LIMIT:
            problems.append(f"constraint {name} residual {value:.3e}")
    return problems
