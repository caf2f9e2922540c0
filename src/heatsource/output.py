"""CSV and key=value emission shared by the harness and the CLI.

Schema: comma separators, '.' decimal point, scientific notation with ten
significant digits, mandatory header row.  Files are written atomically
(temp file plus rename) so partial outputs never appear under final names.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import HeatSourceError


class OutputError(HeatSourceError, OSError):
    """Writing an artifact failed; carries the target path in the message."""


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9e}"
    return str(value)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> Path:
    """Write a CSV table; every row must match the header length.

    A 2-d float64 array is formatted in one pass; other rows (which may mix
    strings, integers and floats) value by value, to the same text.
    """
    path = Path(path)
    lines = [",".join(header)]
    width = len(header)
    if (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype == np.float64):
        if rows.shape[0]:
            if rows.shape[1] != width:
                raise ValueError(f"row width {rows.shape[1]} != header "
                                 f"width {width} for {path}")
            row_format = ",".join(["%.9e"] * width)
            lines.append("\n".join([row_format] * rows.shape[0])
                         % tuple(rows.ravel().tolist()))
        rows = ()
    for row in rows:
        row = list(row)
        if len(row) != width:
            raise ValueError(
                f"row width {len(row)} != header width {width} for {path}"
            )
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_key_values(path, pairs) -> Path:
    """Write a flat key=value summary file."""
    path = Path(path)
    lines = [f"{key}={format_value(value)}" for key, value in pairs]
    _atomic_write(path, "\n".join(lines) + "\n")
    return path
