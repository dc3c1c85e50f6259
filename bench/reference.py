"""Check a CLI output table against a stored reference.

Only the numeric columns are compared; the ``#`` metadata header is not.
Each value column must agree with the reference to within its tolerance
times the largest |value| of that reference column.  Grid columns are
generated by ``linspace`` and printed with 17 digits, so they must agree to
round-off.
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

TOLERANCES = {
    "intensity": 1e-6,      # spectra: 1e-6 x the peak
    "rate_per_s": 1e-7,     # cooling map: 1e-7 x the map's max |value|
    "rho_ee": 1e-7,
    "m_ss": 1e-6,           # Lindblad maps: 1e-6 x max |value|
    "cooling_C": 1e-6,
}
GRID_TOLERANCE = 1e-12      # freq_offset_GHz, delta_GHz, rabiL_GHz


def ref_path(workload: str, variant: int) -> Path:
    return REFS / f"{workload}.{variant}.csv.gz"


def read_ref(workload: str, variant: int) -> str:
    with gzip.open(ref_path(workload, variant), "rt", encoding="utf-8") as fh:
        return fh.read()


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """(column names, columns of floats) of a CLI CSV output."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        raise ValueError("no header line")
    names = lines[0].split(",")
    columns = [[] for _ in names]
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"row has {len(fields)} fields: {line!r}")
        for column, field in zip(columns, fields):
            column.append(float(field))
    return names, columns


def compare(output: str, reference: str) -> list[str]:
    """Problems found in ``output``; an empty list means it matches."""
    try:
        names, columns = parse_table(output)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    ref_names, ref_columns = parse_table(reference)
    if names != ref_names:
        return [f"columns {names} differ from reference {ref_names}"]
    if len(columns[0]) != len(ref_columns[0]):
        return [f"{len(columns[0])} rows, reference has {len(ref_columns[0])}"]
    problems = []
    for name, got, want in zip(names, columns, ref_columns):
        scale = max(abs(v) for v in want)
        limit = TOLERANCES.get(name, GRID_TOLERANCE) * scale
        worst, row = max((abs(a - b) if math.isfinite(a) else math.inf, i)
                         for i, (a, b) in enumerate(zip(got, want)))
        if not worst <= limit:
            problems.append(f"{name}: row {row} differs by {worst:.3e} "
                            f"> {limit:.3e}")
    return problems
