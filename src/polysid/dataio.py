"""Series-file ingestion/emission and flat key-value documents.

Series files are long-format CSV with header ``series,t,y1,...,y{d_y}``:
one row per (series, time) pair, times running 1..t_1 without gaps and the
same length for every series.  Both directions stream in chunks of about
``CHUNK_ROWS`` rows, so the memory they use beyond the arrays of the set is
bounded by the chunk.

Reading takes the header record with ``csv.reader``.  Numpy's C parser
(``np.loadtxt``) reads the data lines of plain files: ASCII numbers, such as
those :func:`emit` writes, and empty lines.  Every other file is read again
from the top by the ``csv.reader`` record parser, which checks and converts
one row at a time.  It reads quoted fields and every spelling ``int`` and
``float`` accept, and it alone names a file's fault and its line.

Config and generator-spec documents are flat ``key = value`` text.  A config
value is one boolean, integer or number.  Spec documents also hold vectors,
comma- or space-separated numbers, and matrices, whose rows are separated
by ``;``.
Every input file is read as UTF-8.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import FormatError, ParseError
from .series import TimeSeriesSet

CHUNK_ROWS = 8192
"""Lines or records read, or rows written, per chunk of a series file."""

_SEPARATORS = "\x1c\x1d\x1e\x1f"
"""Characters numpy's parser strips as whitespace but ``int`` and ``float`` do not.

Outside ASCII its integer parser also reads some characters, such as
U+10112, as digits.
"""


def read_document(path: str | Path) -> str:
    """The text of a key-value or model document.

    Raises:
        ParseError: If the file is not UTF-8 text.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def ingest(path: str | Path) -> TimeSeriesSet:
    """Read a series file into memory.

    Series are ordered by ascending series id, times by t.  Numpy's C
    parser reads a plain file in chunks of ``CHUNK_ROWS`` lines, and
    nothing of size ``t_1 x s`` is allocated before the row count is known
    to equal ``s * t_1``.  Every other file, one with a chunk that the C
    parser rejects or that fails a check, is read again from its start by
    ``csv.reader`` in chunks of ``CHUNK_ROWS`` records, checked and
    converted row by row.  That parser gives the same set or names the
    fault below; line numbers in messages count records.

    Raises:
        FormatError: On text that is not UTF-8 or not CSV, a malformed
            header, a row of the wrong field count or with a non-numeric or
            non-finite value, a time below 1, a duplicate or a gap in ``t``
            (named by series and time), or no data rows.  A file with several
            faults names one: chunk by chunk in file order, a CSV error in a
            chunk comes first, then the chunk's first row with the wrong
            field count, a non-numeric or non-finite value or ``t < 1``;
            after the last chunk, the first duplicate in file order, then
            the first gap in order of series id and time.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            return _ingest_rows(fh, str(path))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def ingest_text(text: str, origin: str = "<string>") -> TimeSeriesSet:
    """Parse series-file content from a string, with any line endings, like ``ingest``."""
    return _ingest_rows(io.StringIO(text, newline=""), origin)


def _ingest_rows(lines: TextIO, origin: str) -> TimeSeriesSet:
    """The series set in ``lines``, a seekable text stream at its start."""
    reader = csv.reader(lines)
    try:
        d_y = _read_header(reader, origin)
        chunks = _loadtxt_chunks(lines, d_y)
        if not chunks:  # rejected, or no data lines: the record parser decides
            lines.seek(0)
            reader = csv.reader(lines)
            next(reader)
            chunks = _record_chunks(reader, d_y, origin)
    except csv.Error as exc:
        raise FormatError(f"{origin}:{reader.line_num}: {exc}") from exc
    if not chunks:
        raise FormatError(f"{origin}: no data rows")
    sid, t, values = (np.concatenate(parts, axis=-1) for parts in zip(*chunks))
    return TimeSeriesSet(_series_array(sid, t, values, origin))


def _read_header(reader, origin: str) -> int:
    """Check the header record and return the output dimension ``d_y``."""
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
    return d_y


def _loadtxt_chunks(lines: TextIO, d_y: int) -> list | None:
    """``(sid, t, values)`` chunks of the data lines from numpy's C parser.

    Skips a chunk of empty lines.  Returns None as soon as a chunk holds a
    character outside ASCII or one of ``_SEPARATORS``, the parser rejects it
    or warns (numpy 1.23 only warns on a float in an integer column), or it
    has ``t < 1`` or a non-finite value.  The parser takes no quoted fields, no
    whitespace-only lines and no ids beyond int64.  On ASCII without
    ``_SEPARATORS`` it accepts no field that ``int`` or ``float`` rejects,
    and the values it reads equal theirs.
    """
    dtype = np.dtype([("sid", np.int64), ("t", np.int64), ("y", np.float64, (d_y,))])
    chunks = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            while chunk := list(islice(lines, CHUNK_ROWS)):
                text = "".join(chunk)
                if not text.strip("\r\n"):  # empty lines only: csv.reader skips them too
                    continue
                if not text.isascii() or any(c in text for c in _SEPARATORS):
                    return None
                rows = np.loadtxt(chunk, dtype, delimiter=",", comments=None, ndmin=1)
                if rows["t"].min() < 1 or not np.isfinite(rows["y"]).all():
                    return None
                chunks.append((rows["sid"], rows["t"], rows["y"].T))
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    return chunks


def _record_chunks(reader, d_y: int, origin: str) -> list:
    """``(sid, t, values)`` chunks of the data records from ``csv.reader``.

    A chunk of ``CHUNK_ROWS`` records is read whole before its rows are
    checked, so a CSV error in it comes before its faulty rows.  Each row is
    checked and converted once; blank rows are skipped.
    """
    width = 2 + d_y
    chunks = []
    line_no = 2
    while chunk := list(islice(reader, CHUNK_ROWS)):
        sid, t, values = [], [], []
        for row_no, row in enumerate(chunk, start=line_no):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise FormatError(f"{origin}:{row_no}: expected {width} fields, got {len(row)}")
            try:
                k, step, y = int(row[0]), int(row[1]), [float(v) for v in row[2:]]
            except ValueError as exc:
                raise FormatError(f"{origin}:{row_no}: {exc}") from None
            bad = [cell for cell, v in zip(row[2:], y) if not math.isfinite(v)]
            if bad:
                raise FormatError(f"{origin}:{row_no}: non-finite value {bad[0]!r}")
            if step < 1:
                raise FormatError(f"{origin}:{row_no}: times must start at 1, got t={step}")
            sid.append(k)
            t.append(step)
            values += y
        line_no += len(chunk)
        if sid:
            chunks.append((_int_column(sid), _int_column(t), np.reshape(values, (-1, d_y)).T))
    return chunks


def _int_column(ints: list[int]) -> np.ndarray:
    try:
        return np.fromiter(ints, np.int64, len(ints))
    except OverflowError:  # beyond int64: keep Python ints
        return np.array(ints, dtype=object)


def _series_array(sid: np.ndarray, t: np.ndarray, values: np.ndarray, origin: str) -> np.ndarray:
    """``Y[t - 1, dim, series]`` from rows in any order, after the set-wide checks."""
    order = np.lexsort((t, sid))
    sid_s, t_s = sid[order], t[order]
    same_sid = sid_s[1:] == sid_s[:-1]
    dup = same_sid & (t_s[1:] == t_s[:-1])
    if dup.any():
        i = order[1:][dup].min()
        raise FormatError(f"{origin}: duplicate time t={t[i]} in series {sid[i]}")
    starts = np.flatnonzero(np.concatenate(([True], ~same_sid)))
    s, t_1 = starts.size, int(t_s.max())
    if sid.size != s * t_1:
        counts = np.diff(np.append(starts, sid.size))
        g = np.flatnonzero(counts != t_1)[0]
        times = t_s[starts[g]:starts[g] + counts[g]]
        gaps = np.flatnonzero(times != np.arange(1, counts[g] + 1))
        missing = gaps[0] + 1 if gaps.size else counts[g] + 1
        raise FormatError(f"{origin}: missing time t={missing} in series {sid_s[starts[g]]}")
    return values[:, order].reshape(-1, s, t_1).transpose(2, 0, 1)


def emit(ts: TimeSeriesSet, path: str | Path) -> None:
    """Write a series set as a series file (canonical float formatting)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        write_long_csv(fh, [f"y{i + 1}" for i in range(ts.d_y)], ts.Y)


def emit_text(ts: TimeSeriesSet) -> str:
    return long_csv_text([f"y{i + 1}" for i in range(ts.d_y)], ts.Y)


def long_csv_text(columns: list[str], values: np.ndarray, t_start: int = 1) -> str:
    """The text :func:`write_long_csv` writes."""
    out = io.StringIO()
    write_long_csv(out, columns, values, t_start)
    return out.getvalue()


def write_long_csv(
    fh: TextIO, columns: list[str], values: np.ndarray, t_start: int = 1
) -> None:
    """Long-format CSV: header ``series,t,<columns>``, one row per (series, time).

    ``values`` has shape ``(steps, len(columns), s)``; step ``i`` of series
    ``k`` is written as series ``k + 1`` at time ``t_start + i``.  Floats use
    their shortest exact ``repr``.  Rows go out in blocks of whole series,
    about ``CHUNK_ROWS`` rows each, one ``write`` per block.
    """
    fh.write("series,t," + ",".join(columns) + "\n")
    steps, width, s = values.shape
    if steps == 0:
        return
    series_per_block = max(1, CHUNK_ROWS // steps)
    t_cells = [f"{t_start + i}," for i in range(steps)]
    # Per row: "k,", "t,", then the cells separated by "," and ended by "\n".
    stride = max(2 * width + 2, 3)
    for k0 in range(0, s, series_per_block):
        block = values[:, :, k0:k0 + series_per_block]
        n_series = block.shape[2]
        rows = steps * n_series
        cells = list(map(repr, block.transpose(2, 0, 1).ravel().tolist()))
        tokens = [","] * (rows * stride)
        tokens[0::stride] = list(chain.from_iterable(
            repeat(f"{k + 1},", steps) for k in range(k0, k0 + n_series)
        ))
        tokens[1::stride] = t_cells * n_series
        for j in range(width):
            tokens[2 + 2 * j::stride] = cells[j::width]
        tokens[stride - 1::stride] = ["\n"] * rows
        fh.write("".join(tokens))


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
