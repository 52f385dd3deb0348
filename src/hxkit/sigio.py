"""Signal file I/O: csv and raw little-endian float64.

csv inputs are ASCII, one value per line (assumed grid dx=1, x0=0) or
`x,value` pairs whose abscissae must be uniform to 1e-9 relative; a
non-ASCII byte is a DataError naming its offset.  A field is what Python's
``float`` parses (``1_000`` too), ``#`` starts no comment, and blank or
whitespace-only lines are skipped.  Outputs are one real column, or `re,im`
columns for complex results.  Floats are written as ``repr`` writes them,
the shortest digit string that parses back to the same double, so a
write/read/write cycle is byte-identical.  The text comes from a
vectorized shortest-round-trip kernel (:mod:`hxkit._csvrepr`), loaded by
the first csv write, in chunks of whole rows that go to the file as they
are made.

f64le files are headerless raw little-endian IEEE-754 doubles.  Complex
values are stored as interleaved re,im pairs, matching the csv column
order, so a complex file holds 2n doubles.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .hilbert import Signal

__all__ = ["FORMATS", "infer_format", "read_signal", "write_values"]

FORMATS = ("csv", "f64le")

_GRID_RTOL = 1e-9


def infer_format(path, override=None) -> str:
    fmt = override if override is not None else (
        "f64le" if str(path).endswith(".f64le") else "csv"
    )
    if fmt not in FORMATS:
        raise DataError(f"unknown signal format {fmt!r}")
    return fmt


def _parse_csv_lines(path, text: str) -> np.ndarray:
    """The csv grammar: rows are ``splitlines`` lines, fields parse by ``float``."""
    rows = []
    width = None
    for num, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}:{num}: field does not parse as a double") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataError(f"{path}:{num}: expected {width} columns, got {len(values)}")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _loadtxt_rows(text: str) -> np.ndarray | None:
    """:func:`_parse_csv_lines`'s rows parsed in C, or None where numpy's reader
    rejects the text or would not break lines at \\v, \\f or \\x1c-\\x1e."""
    if any(sep in text for sep in "\v\f\x1c\x1d\x1e"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no data rows
            return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2,
                              comments=None, dtype=np.float64)
    except (ValueError, UserWarning):
        return None


def _parse_csv_rows(path) -> np.ndarray:
    try:
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    out = _loadtxt_rows(text)
    if out is None:
        out = _parse_csv_lines(path, text)
    if not np.all(np.isfinite(out)):
        raise DataError(f"{path}: non-finite value")
    return out


def _signal_from_pairs(path, xs: np.ndarray, values: np.ndarray) -> Signal:
    dx = float(xs[1] - xs[0])
    if not dx > 0:
        raise DataError(f"{path}: abscissae must be strictly increasing")
    ideal = xs[0] + dx * np.arange(xs.shape[0])
    tol = _GRID_RTOL * max(abs(dx), float(np.abs(xs).max()))
    if float(np.abs(xs - ideal).max()) > tol:
        raise DataError(f"{path}: abscissae are not uniform to {_GRID_RTOL} relative")
    return Signal(values, x0=float(xs[0]), dx=dx)


def read_signal(path, fmt: str = "csv") -> Signal:
    """Read a real input signal; complex files are not valid transform input."""
    if fmt not in FORMATS:
        raise DataError(f"unknown signal format {fmt!r}")
    if fmt == "f64le":
        raw = Path(path).read_bytes()
        if not raw:
            raise DataError(f"{path}: empty file")
        if len(raw) % 8:
            raise DataError(f"{path}: length {len(raw)} is not a multiple of 8 bytes")
        x = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(x)):
            raise DataError(f"{path}: non-finite value")
        if x.shape[0] < 2:
            raise DataError(f"{path}: need at least 2 samples")
        return Signal(x)
    table = _parse_csv_rows(path)
    if table.shape[0] < 2:
        raise DataError(f"{path}: need at least 2 samples")
    if table.shape[1] == 1:
        return Signal(table[:, 0])
    if table.shape[1] == 2:
        return _signal_from_pairs(path, table[:, 0], table[:, 1])
    raise DataError(f"{path}: expected 1 or 2 csv columns, got {table.shape[1]}")


def write_values(path, fmt: str, values) -> None:
    """Write a result vector: real -> one column, complex -> re,im columns."""
    if fmt not in FORMATS:
        raise DataError(f"unknown signal format {fmt!r}")
    v = np.asarray(values)
    if v.ndim != 1 or v.shape[0] == 0:
        raise DataError("output must be a nonempty vector")
    is_complex = np.iscomplexobj(v)
    # interleaved re,im is complex128's own layout: contiguous input is not copied
    flat = np.ascontiguousarray(v, np.complex128 if is_complex else np.float64).view(np.float64)
    if not np.all(np.isfinite(flat)):
        raise DataError("non-finite output value")
    if fmt == "f64le":
        Path(path).write_bytes(flat.astype("<f8", copy=False).tobytes())
        return
    from . import _csvrepr  # loaded by the first csv write: f64le runs never compile it

    with Path(path).open("wb") as out:
        for chunk in _csvrepr.csv_chunks(flat, 2 if is_complex else 1):
            out.write(chunk)
