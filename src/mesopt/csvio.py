"""Deterministic CSV emission for the experiment artifacts.

Every file starts with one timestamped comment line followed by a header
and data rows.  Re-runs with the same config and seed produce byte-identical
bodies; only the leading comment differs, so comparisons strip lines
starting with '#'.  Floats are written with repr (shortest round-trip).
"""

from __future__ import annotations

import datetime
import io
from pathlib import Path

__all__ = ["format_cell", "write_csv", "csv_body"]


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip, numpy scalars included
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: list[str], rows, comment: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        fh.write(f"# {comment} generated={stamp}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def csv_body(path: Path) -> str:
    """File contents without comment lines, for byte-identity comparisons."""
    with io.open(path, "r", newline="") as fh:
        return "".join(line for line in fh if not line.startswith("#"))
