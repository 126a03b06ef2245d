"""Output gate: decides whether a job's output is correct.

A job fails if it exits nonzero, if its CSV differs from the stored
reference by more than TOLERANCE in any parsed number, if any number is not
finite, if a dispersion D lies outside [0, 1], or if a phase distribution
does not integrate to 1.  A validate job fails unless it prints a full pass
count.
"""

from __future__ import annotations

import gzip
import math
import re
from dataclasses import dataclass
from pathlib import Path

TOLERANCE = 1e-12  # absolute; the bound the figure CSVs must keep across versions
NORM_TOL = 1e-6  # the normalization tolerance phase_stats.dispersion enforces
_PASS_COUNT = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    deviation: float | None = None  # largest |output - reference|, if compared
    reason: str = ""


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows of a phasediff CSV; '#' lines are metadata."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no header row")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged rows")
    return header, rows


def read_reference(directory: Path, name: str) -> str:
    with gzip.open(directory / f"{name}.csv.gz", "rt") as fh:
        return fh.read()


def max_deviation(parsed, reference) -> float:
    """Largest absolute difference between the numbers of two parsed CSVs;
    inf if their headers or shapes differ."""
    (header, rows), (ref_header, ref_rows) = parsed, reference
    if header != ref_header or len(rows) != len(ref_rows):
        return math.inf
    return max((abs(a - b) for row, ref in zip(rows, ref_rows) for a, b in zip(row, ref)),
               default=0.0)


def check_values(kind: str, header: list[str], rows: list[list[float]]) -> str:
    """Empty if the numbers are plausible for their kind, else the reason."""
    if not rows:
        return "no data rows"
    if not all(math.isfinite(v) for row in rows for v in row):
        return "non-finite value"
    columns = list(zip(*rows))[1:]
    if kind == "dispersion":
        if any(not 0.0 <= d <= 1.0 for col in columns for d in col):
            return "dispersion outside [0, 1]"
    elif kind == "distribution":
        step = 2.0 * math.pi / len(rows)
        for name, col in zip(header[1:], columns):
            if abs(math.fsum(col) * step - 1.0) > NORM_TOL:
                return f"column {name!r} does not integrate to 1"
    return ""


def judge(kind: str, rc: int, stdout: str, csv_text: str | None,
          reference: str | None) -> Verdict:
    if rc != 0:
        return Verdict(False, reason=f"exit code {rc}")
    if kind == "validate":
        m = _PASS_COUNT.search(stdout)
        if m is None or m.group(1) != m.group(2) or int(m.group(2)) == 0:
            return Verdict(False, reason="no full pass count")
        return Verdict(True)
    if csv_text is None:
        return Verdict(False, reason="no CSV written")
    try:
        header, rows = parse_csv(csv_text)
    except ValueError as exc:
        return Verdict(False, reason=f"unparsable CSV: {exc}")
    reason = check_values(kind, header, rows)
    if reason:
        return Verdict(False, reason=reason)
    if reference is None:
        return Verdict(True)
    dev = max_deviation((header, rows), parse_csv(reference))
    if not dev <= TOLERANCE:
        return Verdict(False, dev, f"deviation {dev:.3e} from reference exceeds {TOLERANCE:.0e}")
    return Verdict(True, dev)
