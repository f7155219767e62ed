"""Series-file ingestion/emission and flat key-value documents.

Series files are long-format CSV with header ``series,t,y1,...,y{d_y}``:
one row per (series, time) pair, times running 1..t_1 without gaps and the
same length for every series.

Config and generator-spec documents are flat ``key = value`` text; vectors
are comma- or space-separated numbers and matrices separate rows with ``;``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError
from .series import TimeSeriesSet


def ingest(path: str | Path) -> TimeSeriesSet:
    """Read a series file into memory.

    Series are ordered by ascending series id, times by t.

    Raises:
        FormatError: On a malformed header, a gap or duplicate in ``t``
            (named by series and time), ragged dimensions, or non-numeric
            values.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        return _ingest_rows(fh, str(path))


def ingest_text(text: str, origin: str = "<string>") -> TimeSeriesSet:
    """Parse series-file content from a string (testing convenience)."""
    return _ingest_rows(io.StringIO(text), origin)


def _ingest_rows(lines, origin: str) -> TimeSeriesSet:
    reader = csv.reader(lines)
    try:
        return _parse_rows(reader, origin)
    except csv.Error as exc:
        raise FormatError(f"{origin}:{reader.line_num}: {exc}") from exc


def _parse_rows(reader, origin: str) -> TimeSeriesSet:
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{origin}: empty file, header row required") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "series" or header[1] != "t":
        raise FormatError(
            f"{origin}: header must be 'series,t,y1,...', got {','.join(header)}"
        )
    d_y = len(header) - 2
    expected = [f"y{i + 1}" for i in range(d_y)]
    if header[2:] != expected:
        raise FormatError(
            f"{origin}: output columns must be {','.join(expected)}, got "
            f"{','.join(header[2:])}"
        )

    data: dict[int, dict[int, list[float]]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2 + d_y:
            raise FormatError(
                f"{origin}:{line_no}: expected {2 + d_y} fields, got {len(row)}"
            )
        try:
            sid = int(row[0])
            t = int(row[1])
            values = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise FormatError(f"{origin}:{line_no}: {exc}") from exc
        if t < 1:
            raise FormatError(f"{origin}:{line_no}: times must start at 1, got t={t}")
        per_series = data.setdefault(sid, {})
        if t in per_series:
            raise FormatError(f"{origin}: duplicate time t={t} in series {sid}")
        per_series[t] = values

    if not data:
        raise FormatError(f"{origin}: no data rows")
    t_1 = max(max(times) for times in data.values())
    for sid in sorted(data):
        times = data[sid]
        for t in range(1, t_1 + 1):
            if t not in times:
                raise FormatError(f"{origin}: missing time t={t} in series {sid}")

    sids = sorted(data)
    Y = np.empty((t_1, d_y, len(sids)))
    for k, sid in enumerate(sids):
        for t in range(1, t_1 + 1):
            Y[t - 1, :, k] = data[sid][t]
    return TimeSeriesSet(Y)


def emit(ts: TimeSeriesSet, path: str | Path) -> None:
    """Write a series set as a series file (canonical float formatting)."""
    Path(path).write_text(emit_text(ts))


def emit_text(ts: TimeSeriesSet) -> str:
    header = "series,t," + ",".join(f"y{i + 1}" for i in range(ts.d_y))
    lines = [header]
    for k in range(ts.s):
        for t in range(1, ts.t_1 + 1):
            vals = ",".join(repr(float(v)) for v in ts.Y[t - 1, :, k])
            lines.append(f"{k + 1},{t},{vals}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Flat key-value documents
# ---------------------------------------------------------------------------


def parse_kv(text: str, origin: str = "<string>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"{origin}:{line_no}: empty key")
        if key in out:
            raise ParseError(f"{origin}:{line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def kv_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def kv_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def kv_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"key {key!r}: expected a boolean, got {raw!r}")


def _split_fields(raw: str) -> list[str]:
    return [f for f in raw.replace(",", " ").split() if f]


def kv_int_vector(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in _split_fields(raw))
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def kv_float_vector(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in _split_fields(raw))
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def kv_matrix(raw: str, key: str, dtype=float) -> np.ndarray:
    """Rows separated by ';', entries by spaces or commas."""
    rows = [r for r in raw.split(";")]
    try:
        parsed = [[dtype(f) for f in _split_fields(r)] for r in rows]
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise ParseError(f"key {key!r}: ragged matrix rows")
    try:
        return np.asarray(parsed, dtype=dtype)
    except OverflowError as exc:  # an integer beyond int64
        raise ParseError(f"key {key!r}: {exc}") from exc


def format_matrix(M: np.ndarray) -> str:
    if np.issubdtype(np.asarray(M).dtype, np.integer):
        return " ; ".join(" ".join(str(int(v)) for v in row) for row in np.atleast_2d(M))
    return " ; ".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(M))
