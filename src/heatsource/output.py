"""CSV and key=value emission shared by the harness and the CLI.

Schema: comma separators, '.' decimal point, scientific notation with ten
significant digits, mandatory header row; a text field that holds a comma,
a double quote or a line break is quoted, its quotes doubled (RFC 4180).
Files are written atomically (temp file plus rename) so partial outputs
never appear under final names.
"""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path

import numpy as np

from .errors import HeatSourceError

# Values per formatting block of a float table: about 70 bytes of scratch
# a value, so a block needs about half a megabyte whatever the table's size.
_CSV_BLOCK = 1 << 13


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


def _csv_field(value) -> str:
    """``format_value``'s text, quoted as the module docstring says."""
    text = format_value(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file and rename it to ``path``; if either
    step fails, the temp file is removed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as file:
            file.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise OutputError(f"cannot write {path}: {exc}") from exc


@functools.cache
def _format_tables():
    """Lookup tables of ``_format_floats``, built on first use: correctly
    rounded 10^k for k in [-300, 300], and its text in 4-byte groups as
    native uint32 words: "-D.d" for each two leading digits, "dddd" for
    each four digits, and "e", sign, hundreds, tens and units, ",", two pad
    bytes for each exponent in [-300, 300]."""
    def words(texts):
        return np.frombuffer("".join(texts).encode(), np.uint32)

    exps = range(-300, 301)
    digits = np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10
    quad = np.ascontiguousarray(digits.T + ord("0"), np.uint8)
    return (np.array([float(f"1e{k}") for k in exps]),
            words(f"-{k // 10}.{k % 10}" for k in range(100)),
            quad.view(np.uint32)[:, 0],
            words(f"e{k:+04d}"[:4] for k in exps),
            words(f"{abs(k) % 10},\0\0" for k in exps))


def _format_floats(values: np.ndarray, width: int) -> np.ndarray:
    """The bytes of ``"%.9e" % v`` for each value of a flat float64 block of
    whole rows, each followed by ',' or, after every ``width``-th, '\\n'.

    With ``e = floor(log10|v|)``, the digits are ``d = rint(|v| 10^(9-e))``:
    the two roundings of that product leave it within 2.3e-6 of its exact
    value below 1e10, so ``d`` is the correctly rounded mantissa unless the
    product lies within 1e-4 of a half.  Such near-ties, products outside
    [1e9, 1e10) (a misjudged decade), non-finite values and ``|v|`` outside
    [1e-290, 1e290) (zeros and subnormals included) take ``"%.9e" % v``
    itself.  A ``d`` of 1e10 is a round-up into the next decade."""
    powers, lead, quad, head, tail = _format_tables()
    q = np.abs(values)
    fast = q >= 1e-290
    fast &= q < 1e290
    # The other values take 1.0's digits here and are replaced at the end.
    np.copyto(q, 1.0, where=~fast)
    exp = np.floor(np.log10(q)).astype(np.intp)
    np.multiply(q, powers[309 - exp], out=q)
    fast &= q >= 1e9
    fast &= q < 1e10
    d = np.rint(q)
    np.subtract(q, d, out=q)
    fast &= np.abs(q, out=q) < 0.4999
    up = d == 1e10
    exp += up
    # A round-up, and each value formatted at the end, takes 1e9's digits.
    np.copyto(d, 1e9, where=up | ~fast)
    # d = lead 10^8 + mid 10^4 + low, by exact float steps.
    np.floor(np.divide(d, 1e8, out=q), out=q)
    text = np.empty((values.size, 5), np.uint32)
    text[:, 0] = lead[q.astype(np.intp)]
    d -= np.multiply(q, 1e8, out=q)
    np.floor(np.divide(d, 1e4, out=q), out=q)
    text[:, 1] = quad[q.astype(np.intp)]
    d -= np.multiply(q, 1e4, out=q)
    text[:, 2] = quad[d.astype(np.intp)]
    del q, d
    text[:, 3] = head[exp + 300]
    text[:, 4] = tail[exp + 300]
    chars = text.view(np.uint8)
    chars[width - 1::width, 17] = ord("\n")
    # Keep the sign of negative values, the hundreds digit of three-digit
    # exponents, and neither pad byte.
    keep = np.ones(chars.shape, bool)
    keep[:, 0] = np.signbit(values)
    keep[:, 14] = np.abs(exp) >= 100
    keep[:, 18] = keep[:, 19] = False
    slow = np.flatnonzero(~fast)
    if slow.size:
        ends = np.where(slow % width == width - 1, "\n", ",").tolist()
        patch = np.array(["%.9e%s" % pair
                          for pair in zip(values[slow].tolist(), ends)],
                         dtype="S20").view(np.uint8).reshape(-1, 20)
        chars[slow] = patch
        keep[slow] = patch != 0
    return chars[keep]


def write_csv(path, header, rows) -> Path:
    """Write a CSV table; every row must match the header length.

    A 2-d float64 array is formatted in blocks of whole rows of about
    ``_CSV_BLOCK`` values, so the formatting scratch does not grow with the
    table; other rows (which may mix strings, integers and floats) value by
    value.  Both give the text of ``format_value``.
    """
    path = Path(path)
    width = len(header)
    head = (",".join(header) + "\n").encode()
    if (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype == np.float64):
        if rows.shape[0] and rows.shape[1] != width:
            raise ValueError(f"row width {rows.shape[1]} != header "
                             f"width {width} for {path}")
        # One buffer with room for 17 characters and a separator a value,
        # written in one piece: streaming the blocks to the file raised the
        # peak RSS of the table builds that follow by about 4 MB (glibc
        # heap placement).
        text = np.empty(len(head) + 18 * rows.size, np.uint8)
        text[:len(head)] = np.frombuffer(head, np.uint8)
        end = len(head)
        step = max(1, _CSV_BLOCK // width)
        for start in range(0, rows.shape[0], step):
            block = np.ascontiguousarray(rows[start:start + step])
            chars = _format_floats(block.ravel(), width)
            text[end:end + chars.size] = chars
            end += chars.size
        data = text[:end]
    else:
        lines = []
        for row in rows:
            row = list(row)
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != header width "
                                 f"{width} for {path}")
            lines.append(",".join(map(_csv_field, row)) + "\n")
        data = head + "".join(lines).encode()
    _atomic_write(path, data)
    return path


def write_tables(outdir, run_id, tables) -> list:
    """Write each ``(name, header, rows)`` of ``tables``, in order, as
    ``<outdir>/<run_id>_<name>.csv`` with :func:`write_csv`; returns the
    paths.  The tables are read one at a time, so a generator can build
    each just before it is written."""
    outdir = Path(outdir)
    return [write_csv(outdir / f"{run_id}_{name}.csv", header, rows)
            for name, header, rows in tables]


def write_key_values(path, pairs) -> Path:
    """Write a flat key=value summary file."""
    path = Path(path)
    lines = [f"{key}={format_value(value)}" for key, value in pairs]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
    return path
