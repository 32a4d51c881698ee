"""Long-format CSV series files: header `series_id,t_index,value`.

t_index is a 0-based contiguous integer per series; values round-trip through
17-significant-digit decimal text. Ragged collections (unequal lengths) are
legal for online use only.

Files are read in bulk when they are plain text with each series one
contiguous run of rows, as `write_series` writes them: the text is split at
commas and newlines, and a series whose t_index text is "0", "1", ... needs no
index parse. Files with quotes, CR or NUL characters, blank lines, interleaved
series or any schema error are read row by row. Both reads give the same
paths and the same errors.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import groupby
from pathlib import Path

import numpy as np

from .processes import SamplePath

HEADER = ["series_id", "t_index", "value"]
_HEADER_LINE = ",".join(HEADER) + "\n"
_CHUNK_CHARS = 1 << 16  # text split into fields at a time, below csv's default field limit
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


class SchemaError(ValueError):
    """The series file violates the documented schema."""


def _quoted(field: str) -> str:
    """`field` as csv.writer quotes it when it is not the only field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, ""])
    return buf.getvalue()[:-2]


def write_series(paths, destination) -> None:
    """Write paths in long format, one `id,i,value` line per value.

    Each path becomes one `%` operation: the id, quoted once as the csv
    module quotes it, joined over `,i,%.17g` tails, formats the whole tuple
    of values in 17-significant-digit text.
    """
    destination = Path(destination)
    tails = [""]  # tails[i + 1] is the format of value i, after the id
    with destination.open("w", newline="") as fh:
        fh.write(_HEADER_LINE)
        for p in paths:
            values = tuple(p.values.tolist())
            tails.extend(f",{i},%.17g\n" for i in range(len(tails) - 1, len(values)))
            sid = _quoted(p.id).replace("%", "%%")
            fh.write(sid.join(tails[: len(values) + 1]) % values)


def read_series(source, ragged_ok: bool = False) -> list:
    """Parse a series file into SamplePaths, ordered by first appearance.

    A plain file as `write_series` writes it (no quotes, CR, NUL or blank
    lines, each series one contiguous run of rows) is split with `str.split`
    a chunk of lines at a time and converted a run at a time. Any other file,
    and any file that fails a check, is read again by `_read_checked`, whose
    row-by-row checks define every SchemaError and raise the first one.
    """
    source = Path(source)
    paths = _read_columns(source, ragged_ok)
    return _read_checked(source, ragged_ok) if paths is None else paths


def _read_columns(source: Path, ragged_ok: bool):
    """The paths of a plain, valid file, or None if it is not plain or any check would fail."""
    try:
        with source.open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    start = text.find("\n") + 1
    if text[:start] != _HEADER_LINE:
        return None
    end = len(text) - text.endswith("\n")
    limit = csv.field_size_limit()
    canonical: list[str] = []  # canonical[i] == str(i)
    runs: dict[str, list] = {}  # id -> [(offset, t_index or None if canonical, values)]
    sid = None
    while start < end:
        stop = text.find("\n", start + _CHUNK_CHARS, end)
        chunk = text[start : end if stop < 0 else stop]
        start += len(chunk) + 1
        # Reduced to commas, newlines, quotes, CRs and NULs, a plain chunk reads
        # ",,\n" per row: with none of the last three, each csv row is one line
        # split at its commas (UTF-8 puts no ASCII byte inside another character).
        marks = chunk.encode("utf-8", "surrogatepass").translate(None, _NOT_MARKS)
        rows = len(marks) // 3 + 1
        if marks != b",,\n" * (rows - 1) + b",,":
            return None
        if len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit:
            return None  # csv refuses a field this long
        fields = chunk.replace("\n", ",").split(",")
        t_text, v_text = fields[1::3], fields[2::3]
        row = 0
        for run_id, run in groupby(fields[0::3]):
            count = len(list(run))
            if run_id != sid:
                if run_id in runs:
                    return None  # not one contiguous run
                sid, offset, pieces = run_id, 0, runs.setdefault(run_id, [])
            t_run, v_run = t_text[row : row + count], v_text[row : row + count]
            row += count
            canonical.extend(map(str, range(len(canonical), offset + count)))
            try:
                values = np.fromiter(map(float, v_run), float, count)
                t_index = (None if t_run == canonical[offset : offset + count]
                           else np.fromiter(map(int, t_run), np.int64, count))
            except (ValueError, OverflowError):
                return None
            pieces.append((offset, t_index, values))
            offset += count
    paths = []
    for sid, pieces in runs.items():
        values = np.concatenate([v for _, _, v in pieces])
        n = len(values)
        if any(t is not None for _, t, _ in pieces):
            t_index = np.concatenate([np.arange(o, o + len(v)) if t is None else t
                                      for o, t, v in pieces])
            order = np.argsort(t_index)
            # sorted indexes equal to 0..n-1: none negative, duplicated or missing
            if not np.array_equal(t_index[order], np.arange(n)):
                return None
            values = values[order]
        if n < 2 or not np.isfinite(values).all():
            return None
        paths.append(SamplePath(id=sid, values=values))
    if not paths or (len({len(p) for p in paths}) > 1 and not ragged_ok):
        return None
    return paths


def _read_checked(source: Path, ragged_ok: bool) -> list:
    """Row-by-row parse: the paths of a valid file, else the first error in file order.

    The one definition of every SchemaError message.
    """
    rows: dict[str, dict[int, float]] = {}
    with source.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{source}: empty file") from None
        if header != HEADER:
            raise SchemaError(f"{source}: line 1: expected header {','.join(HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SchemaError(f"{source}: line {lineno}: expected 3 columns, got {len(row)}")
            sid = row[0]
            try:
                t_index = int(row[1])
            except ValueError:
                raise SchemaError(f"{source}: line {lineno}: non-integer t_index {row[1]!r}") from None
            try:
                value = float(row[2])
            except ValueError:
                raise SchemaError(f"{source}: line {lineno}: non-numeric value {row[2]!r}") from None
            if not math.isfinite(value):
                raise SchemaError(f"{source}: line {lineno}: non-finite value {row[2]!r}")
            if t_index < 0:
                raise SchemaError(f"{source}: line {lineno}: negative t_index {t_index}")
            series = rows.setdefault(sid, {})
            if t_index in series:
                raise SchemaError(
                    f"{source}: line {lineno}: duplicate (series_id, t_index) = ({sid!r}, {t_index})"
                )
            series[t_index] = value
    if not rows:
        raise SchemaError(f"{source}: no data rows")
    paths = []
    for sid, series in rows.items():
        n = len(series)
        missing = set(range(n)) - series.keys()
        if missing:
            raise SchemaError(
                f"{source}: series {sid!r}: t_index gap, missing {sorted(missing)[:5]}"
            )
        if n < 2:
            raise SchemaError(f"{source}: series {sid!r}: needs at least 2 points")
        paths.append(SamplePath(id=sid, values=np.array([series[i] for i in range(n)])))
    lengths = {len(p) for p in paths}
    if len(lengths) > 1 and not ragged_ok:
        raise SchemaError(
            f"{source}: ragged series lengths {sorted(lengths)} are only allowed in online mode"
        )
    return paths
