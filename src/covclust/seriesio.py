"""Long-format CSV series files: header `series_id,t_index,value`.

t_index is a 0-based contiguous integer per series; values round-trip through
17-significant-digit decimal text. Ragged collections (unequal lengths) are
legal for online use only.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .processes import SamplePath

HEADER = ["series_id", "t_index", "value"]


class SchemaError(ValueError):
    """The series file violates the documented schema."""


def _quoted(field: str) -> str:
    """`field` as csv.writer quotes it when it is not the only field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, ""])
    return buf.getvalue()[:-2]


def write_series(paths, destination) -> None:
    """Write paths in long format, one `id,i,value` line per value.

    Each path becomes one joined string, with its id quoted once as the
    csv module quotes it and each value in 17-significant-digit text.
    """
    destination = Path(destination)
    with destination.open("w", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        for p in paths:
            sid = _quoted(p.id)
            fh.write("".join([f"{sid},{i},{v:.17g}\n" for i, v in enumerate(p.values.tolist())]))


def read_series(source, ragged_ok: bool = False) -> list:
    """Parse a series file into SamplePaths, ordered by first appearance.

    One csv pass splits the rows into per-series text columns; each column is
    converted as a whole, checked with numpy and ordered by t_index. A file
    that fails any check is read again by `_read_checked`, whose row-by-row
    checks define every SchemaError and raise the first one.
    """
    source = Path(source)
    paths = _read_columns(source, ragged_ok)
    return _read_checked(source, ragged_ok) if paths is None else paths


def _read_columns(source: Path, ragged_ok: bool):
    """The paths of a valid file, or None if any schema check would fail."""
    columns: dict[str, tuple[list, list]] = {}
    with source.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != HEADER:
                return None
            for row in reader:
                if len(row) == 3:
                    sid, t_text, v_text = row
                    try:
                        column = columns[sid]
                    except KeyError:
                        column = columns[sid] = ([], [])
                    column[0].append(t_text)
                    column[1].append(v_text)
                elif row:
                    return None
        except (csv.Error, UnicodeDecodeError):
            # a schema error on an earlier row must win, as in _read_checked
            return None
    paths = []
    for sid, (t_text, v_text) in columns.items():
        n = len(t_text)
        try:
            t_index = np.fromiter(map(int, t_text), np.int64, n)
            values = np.fromiter(map(float, v_text), float, n)
        except (ValueError, OverflowError):
            return None
        order = np.argsort(t_index)
        # sorted indexes equal to 0..n-1: none negative, duplicated or missing
        contiguous = np.array_equal(t_index[order], np.arange(n))
        if n < 2 or not contiguous or not np.isfinite(values).all():
            return None
        paths.append(SamplePath(id=sid, values=values[order]))
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
