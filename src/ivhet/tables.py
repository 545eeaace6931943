"""Small helpers for report records, aligned text tables, JSON-safe values
and CSV output."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

_CSV_ROWS = 1 << 15     # rows formatted per write; bounds the strings held


def record(obj, spread: str | None = None) -> dict:
    """A dataclass's fields in declaration order, tuples as lists; given
    spread, that dict field is left out and its items follow the rest."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != spread}
    out = {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}
    return {**out, **getattr(obj, spread)} if spread else out


def rows(**columns) -> list[dict]:
    """One dict per position of equal-length columns, keyed in argument
    order, each value the Python scalar that .tolist() gives."""
    values = (np.asarray(col).tolist() for col in columns.values())
    return [dict(zip(columns, row)) for row in zip(*values)]


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def json_safe(obj):
    """Recursively replace NaN and infinities with None for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


def fmt3(x: float) -> str:
    """Three decimals, or a dot for undefined values."""
    return f"{x:.3f}" if isinstance(x, (int, float)) and math.isfinite(x) else "."


def fmtg(v: float) -> str:
    """v in the :g format when that reads back as v, else its repr, so
    that no two floats share a label."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def fmtp(p) -> str:
    """Three significant figures for p-values."""
    if p is None or (isinstance(p, float) and not math.isfinite(p)):
        return "."
    return f"{p:.3g}"


def write_columns(path: str, header: tuple[str, ...], columns) -> None:
    """Write equal-length numpy columns under a header line, each value as
    str() of its Python scalar: a float as its repr, which reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            parts = [map(str, col[start:start + _CSV_ROWS].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")
