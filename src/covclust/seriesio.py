"""Long-format CSV series files: header `series_id,t_index,value`.

Series files are UTF-8 text. t_index is a 0-based contiguous integer per
series; values round-trip through 17-significant-digit decimal text, as
`'%.17g' % x` writes them. Ragged collections (unequal lengths) are legal for
online use only.

One exact kernel renders values. For finite |x| in [1e-4, 1e16),
`_digits17` returns n = rint(|x| * 10**s) as an int64 of 17 digits, where
s = 16 - k and k is the decimal exponent of |x|. In that band s <= 20, so
10**s is an exact double, and Dekker's two-product splits |x| * 10**s into
hi + lo with no rounding at all: hi is an integer (it is at least
1e16 > 2**53) and rint(lo) finishes the rounding. The kernel also marks exact
.5 ties, which the writer leaves to Python.

`write_series` renders every value in numpy: the digits of n become ASCII
eight at a time in uint64 words, `%g`'s fixed notation (a dot after digit k,
or "0." and zeros before the digits) is opened as a gap in those words, and
each row's `id,i,` is right-aligned before its value so that a row is one run
of bytes. Values outside the band, ties and zeros take `'%.17g' % x` one at a
time. The bytes equal one `'%.17g'` per value.

Files are read in bulk only in the layout `write_series` writes: no quotes,
CR, NUL or 0x1c-0x1f bytes, ASCII t_index and value fields, each series one
contiguous run of rows whose first t_index is the text `0`, and a newline
after every row. The file is read once into a buffer, whose rows are split in
numpy a slice at a time: a run starts at each row whose t_index is exactly
`0`, and every row of a run must hold the id of its first row. The buffer is
released, and one `np.loadtxt` call reads t_index and value, so a bulk read
holds about the file's size. `np.loadtxt` converts a value with
`PyOS_string_to_double`, the correctly rounded routine behind `float()`, so
each value is bit-equal to `float()` of its field, and a t_index as `int()`
reads it. It refuses some text that those accept, such as underscores and
integers beyond int64. Each later row's t_index must then be one more than
the row before ("1", "01" and "+1" all are). A run whose first t_index is
written otherwise, such as "00" or "+0", is read row by row. The excluded
bytes are those numpy reads otherwise than Python: it takes 0x1c-0x1f for
spaces, and its int parser takes some non-ASCII characters for digits.

Every other file is read row by row: text numpy refuses, rows out of order,
no final newline, blank lines, interleaved series, or any schema error. Both
reads give the same paths and the same errors. A line that is not UTF-8, or
a field over csv's length limit, is a SchemaError that names its line.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .processes import SamplePath

HEADER = ["series_id", "t_index", "value"]
_HEADER_BYTES = (",".join(HEADER) + "\n").encode()
# Rows the writer renders at a time, which bounds its temporary arrays: about
# 3 MiB traced for a file of 20 or 100 paths of 2000 values.
_CHUNK_ROWS = 1 << 13
_POW10 = np.array([float(10**s) for s in range(24)])  # exact up to 10**22
_INT10 = 10 ** np.arange(19, dtype=np.int64)
_BYTES_BELOW = np.array([(1 << 8 * b) - 1 for b in range(9)], np.uint64)  # mask of the low b bytes
# _BEFORE[a, j]: the mask of the bytes of word j that lie before byte a of a string
_BEFORE = _BYTES_BELOW[np.clip(np.arange(33)[:, None] - 8 * np.arange(3), 0, 8)]
_ZEROS, _DOTS, _MINUS = (np.uint64(int.from_bytes(bytes([c]) * 8, "little"))
                         for c in b"0.-")  # one character in every byte
_ZERO_POINT = np.uint64(int.from_bytes(b"0.000000", "little"))  # %g's "0.000" before digits


class SchemaError(ValueError):
    """The series file violates the documented schema."""


def _halves(a):
    """Veltkamp's split of a into two halves of 26 bits that sum to a exactly."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _times_pow10(ax, s):
    """(hi, lo) with hi + lo == ax * 10**s exactly: Dekker's two-product."""
    hi = ax * _POW10[s]
    ah, al = _halves(ax)
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _digits17(ax):
    """(n, k, tie) for each ax in [1e-4, 1e16).

    n = rint(ax * 10**(16 - k)) exactly, an int64 in [1e16, 1e17), where k is
    the decimal exponent that `%.17g` shows for ax; tie marks where
    ax * 10**(16 - k) lies exactly halfway between two integers.
    """
    k = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _times_pow10(ax, 16 - k)
    # floor(log10) can miss by one next to a power of ten, and n can round up to 1e17
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        h, l = hi[edge], lo[edge]
        k[edge] += ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64)
        k[edge] -= (h < 1e16) | ((h == 1e16) & (l < 0))
        hi[edge], lo[edge] = _times_pow10(ax[edge], 16 - k[edge])
    r = np.rint(lo)
    n = hi.astype(np.int64) + r.astype(np.int64)
    if edge.size:
        top = edge[n[edge] == 10**17]  # digits 1000..., exponent k + 1
        n[top] = 10**16
        k[top] += 1
    return n, k, np.abs(lo - r) == 0.5


def _ascii8(x):
    """Eight ASCII digits of each uint64 x < 10**8, the first in the lowest byte."""
    hi = (x * 109951163) >> 40  # x // 10**4
    v = hi | ((x - hi * 10000) << 32)  # two 4-digit halves in 32-bit lanes
    q = ((v * 5243) >> 19) & 0x0000007F0000007F  # // 100 in each lane
    v = q | ((v - q * 100) << 16)  # four 2-digit quarters in 16-bit lanes
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # // 10 in each lane
    return q | ((v - q * 10) << 8) | _ZEROS


def _open_gap(words, at, width, fill):
    """Byte strings in uint64 words, first byte lowest, with `width` < 8 bytes
    of `fill` inserted at byte `at`; what passes the last word is dropped."""
    shift = (8 * width).astype(np.uint64)
    out, prev = [], None
    for j, w in enumerate(words):
        moved = w << shift if prev is None else (w << shift) | (prev >> (64 - shift))
        below, end = _BEFORE[:, j].take(at), _BEFORE[:, j].take(at + width)
        out.append((w & below) | (fill[j] & end & ~below) | (moved & ~end))
        prev = w
    return out


def _render(v):
    """`'%.17g' % x` for each x in v, as rows of 32 bytes and the size of each text."""
    ax = np.abs(v)
    fast = (ax >= 1e-4) & (ax < 1e16)
    n, k, tie = _digits17(np.where(fast, ax, 1.0))
    fast &= ~tie
    head, tail = np.divmod(n, 10**8)
    first, middle = np.divmod(head, 10**8)
    mid, low = _ascii8(middle.astype(np.uint64)), _ascii8(tail.astype(np.uint64))
    words = [(first.astype(np.uint64) + 48) | (mid << 8), (mid >> 56) | (low << 8), low >> 56]
    # trailing zeros are dropped from the 17 digits, never from the integer part
    zeros = _zero_tail(low)
    kept = 17 - zeros - np.where(zeros == 8, _zero_tail(mid), 0)
    point = k >= 0  # a dot after digit k, else "0." and -k - 1 zeros before the digits
    kept = np.where(point, np.maximum(kept, k + 1), kept)
    at = np.where(point, k + 1, 0)
    width = np.where(point, 1, 1 - k)
    words = _open_gap(words, at, width, [np.where(point, _DOTS, _ZERO_POINT), _DOTS, _DOTS])
    size = np.where(point, kept + (kept > k + 1), kept + width)
    neg = np.signbit(v).astype(np.int64)
    words = _open_gap(words, 0, neg, [_MINUS] * 3)
    size += neg
    text = np.zeros((len(v), 4), "<u8")
    text[:, :3] = np.stack(words, axis=1)
    text = text.view(np.uint8)
    for r in np.flatnonzero(~fast):
        line = b"%.17g" % v[r]
        text[r, : len(line)] = np.frombuffer(line, np.uint8)
        size[r] = len(line)
    return text, size


def _zero_tail(w):
    """How many of the eight ASCII digits in w end in '0's: the zero high bytes of
    w ^ '0'*8, whose bytes are at most 9, so that the float's exponent is its bit length."""
    return (64 - np.frexp((w ^ _ZEROS).astype(float))[1]) // 8


def _quoted(field: str) -> str:
    """`field` as csv.writer quotes it when it is not the only field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, ""])
    return buf.getvalue()[:-2]


def _chunks(lengths, size):
    """Runs (path, lo, hi) of rows, grouped into chunks of at most `size` rows."""
    chunk, rows = [], 0
    for p, n in enumerate(lengths):
        lo = 0
        while lo < n:
            hi = min(n, lo + size - rows)
            chunk.append((p, lo, hi))
            rows += hi - lo
            lo = hi
            if rows == size:
                yield chunk
                chunk, rows = [], 0
    if chunk:
        yield chunk


def write_series(paths, destination) -> None:
    """Write paths in long format, one `id,i,value` line per value.

    The file is UTF-8. Rows are laid out in a byte matrix a chunk at a time:
    `id,` (quoted as the csv module quotes it), then `i,` right-aligned to a
    fixed column, then the value from `_render`, so each row is one run of
    bytes that a mask cuts out.
    """
    destination = Path(destination)
    paths = list(paths)
    values = [np.asarray(p.values, dtype=float) for p in paths]
    ids = [np.frombuffer((_quoted(p.id) + ",").encode("utf-8"), np.uint8) for p in paths]
    longest = max(map(len, values), default=0)
    digits = len(str(max(longest - 1, 0)))
    index = np.arange(longest)
    index_text = np.empty((longest, digits + 1), np.uint8)  # `i,` right-aligned
    for c in range(digits):
        index_text[:, digits - 1 - c] = 48 + index // 10**c % 10
    index_text[:, digits] = 44
    index_size = np.searchsorted(_INT10[1:], index, side="right") + 2
    prefix = -(-(max(map(len, ids), default=0) + digits + 1) // 8) * 8  # first byte of the value
    # at most _CHUNK_ROWS rows of 64 bytes at a time, fewer rows when long ids widen them
    chunk_rows = max(1, min(_CHUNK_ROWS, _CHUNK_ROWS * 64 // (prefix + 32)))
    with destination.open("wb") as fh:
        fh.write(_HEADER_BYTES)
        for chunk in _chunks(list(map(len, values)), chunk_rows):
            text, size = _render(np.concatenate([values[p][lo:hi] for p, lo, hi in chunk]))
            rows = np.empty((len(text), prefix + 32), np.uint8)
            rows[:, prefix:] = text
            rows[np.arange(len(text)), prefix + size] = 10
            start = np.empty(len(text), np.int64)
            a = 0
            for p, lo, hi in chunk:
                b = a + hi - lo
                rows[a:b, prefix - digits - 1 : prefix] = index_text[lo:hi]
                start[a:b] = prefix - index_size[lo:hi] - len(ids[p])
                for d in range(1, digits + 1):  # rows whose index has d digits
                    first, last = max(lo, 10 ** (d - 1) * (d > 1)), min(hi, 10**d)
                    if first < last:
                        rows[a + first - lo : a + last - lo,
                             prefix - d - 1 - len(ids[p]) : prefix - d - 1] = ids[p]
                a = b
            # a row is the run of bytes from its start column to the end of its value
            keep = np.hstack([np.arange(prefix) >= start[:, None], np.arange(32) <= size[:, None]])
            fh.write(rows[keep])


def read_series(source, ragged_ok: bool = False) -> list:
    """Parse a series file into SamplePaths, ordered by first appearance.

    A file in the layout `write_series` writes (no quotes, CR, NUL or blank
    lines, each series one contiguous run of rows indexed 0, 1, ..., its
    first index the text `0`, a newline after every row) is read by
    `_read_columns`, whose one `np.loadtxt` call gives each t_index and value
    as `int()` and `float()` read them. Any other file, and any file that
    fails a check, is read again by `_read_checked`, whose row-by-row checks
    define every SchemaError and raise the first one.
    """
    source = Path(source)
    paths = _read_columns(source, ragged_ok)
    return _read_checked(source, ragged_ok) if paths is None else paths


def _read_columns(source: Path, ragged_ok: bool):
    """The paths of a valid file in the writer's layout, or None if it is in
    another layout or any check would fail.

    The runs of rows and their ids are found by `_runs`; t_index and value are
    read by one `np.loadtxt` call, whose fields convert as `int()` and
    `float()` convert them, or raise a ValueError, which also means None. The
    file's bytes are released before that call. Each run starts at t_index 0,
    and each of its later rows must be one past the row before.
    """
    runs = _runs(source)
    if runs is None:
        return None
    ids, first, counts = runs
    try:
        columns = np.loadtxt(source, dtype=[("t", np.int64), ("value", float)], delimiter=",",
                             skiprows=1, usecols=(1, 2), comments=None, encoding="utf-8")
    except ValueError:
        return None
    if len(columns) != counts.sum():
        return None  # the file changed after the scan
    if not (np.delete(np.diff(columns["t"]), first[1:] - 1) == 1).all():
        return None  # a row out of its place in its run
    values = np.ascontiguousarray(columns["value"])
    if not np.isfinite(values).all():
        return None
    paths = [SamplePath(id=sid, values=values[a : a + n])
             for sid, a, n in zip(ids, first.tolist(), counts.tolist())]
    if len({len(p) for p in paths}) > 1 and not ragged_ok:
        return None
    return paths


def _runs(source: Path):
    """(ids, first, counts) of a file in the writer's layout, or None if a check fails:
    the id, first row and row count of each run of rows.

    A run starts at each row whose t_index field is exactly `0`, and every row
    of a run must hold the id of its first row. The file is read once and
    scanned a slice of whole rows at a time: at most _CHUNK_ROWS x 64 bytes,
    or one row that is longer. So the scan holds the file's bytes and the
    arrays of one slice.
    """
    data = source.read_bytes()
    size, h = len(data), len(_HEADER_BYTES)
    if size <= h or not data.startswith(_HEADER_BYTES) or data[-1] != 10:
        return None  # the writer ends every row with a newline
    # and no 0x1c-0x1f, which numpy's parser reads as spaces where int() and float() refuse them
    if any(c in data for c in b'"\r\0\x1c\x1d\x1e\x1f'):
        return None
    text = np.frombuffer(data, np.uint8)
    limit = csv.field_size_limit()
    all_ascii = data.isascii()
    first, heads = [], []  # the first row of each run, and where its id starts and ends
    rows, lo = 0, h
    while lo < size:
        hi = data.rfind(b"\n", lo, lo + _CHUNK_ROWS * 64)
        if hi < 0:  # one row longer than that
            hi = data.find(b"\n", lo)
        hi += 1
        chunk = text[lo:hi]
        ends = np.flatnonzero(chunk == 10) + lo
        commas = np.flatnonzero(chunk == 44) + lo
        # two commas in each line and none elsewhere: each csv row is one line split at its commas
        if len(commas) != 2 * len(ends):
            return None
        starts = np.concatenate(((lo,), ends[:-1] + 1))
        c1, c2 = commas[0::2], commas[1::2]
        if not ((c1 >= starts).all() and (c2 < ends).all()):
            return None
        if max((c1 - starts).max(), (c2 - c1).max() - 1, (ends - c2).max() - 1) > limit:
            return None  # csv refuses a field this long
        # numpy's int parser reads some non-ASCII characters as digits (U+01FE as 462),
        # so t_index and value must be ASCII
        if not all_ascii:
            wide = np.flatnonzero(chunk > 127) + lo
            if (wide > c1[np.searchsorted(ends, wide)]).any():
                return None
        new = np.flatnonzero((c2 - c1 == 2) & (text[c1 + 1] == 48))  # t_index "0"
        first.append(rows + new)
        heads += zip(starts[new].tolist(), c1[new].tolist())
        rows += len(ends)
        lo = hi
    first = np.concatenate(first)
    counts = np.diff(first, append=rows)
    if first[:1].tolist() != [0] or counts.min() < 2:
        return None  # rows before the first run, or a run of one row
    # ids hold no newline or comma, so each match is a row of the run that starts with this id
    stops = [a for a, _ in heads[1:]] + [size]
    if any(data.count(b"\n" + data[a:b] + b",", a - 1, stop - 1) != n
           for (a, b), stop, n in zip(heads, stops, counts.tolist())):
        return None  # a row whose id is not its run's
    try:
        ids = [data[a:b].decode("utf-8") for a, b in heads]
    except UnicodeDecodeError:
        return None
    if len(set(ids)) < len(ids):
        return None  # a series in more than one run
    return ids, first, counts


def _csv_rows(fh, source: Path):
    """(line, row) for each csv row of `fh`, a file opened with
    errors="surrogateescape", where line is the physical line the row ends on.
    A line holding a byte that is not UTF-8, or a field longer than csv's
    limit, raises a SchemaError naming its line when the reader reaches it."""
    def lines():
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")  # an escaped byte is a lone surrogate
                except UnicodeEncodeError:
                    raise SchemaError(f"{source}: line {lineno}: not UTF-8 text") from None
            yield line

    reader = csv.reader(lines())
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from None


def _read_checked(source: Path, ragged_ok: bool) -> list:
    """Row-by-row parse: the paths of a valid file, else the first error in file order.

    The one definition of every SchemaError message.
    """
    rows: dict[str, dict[int, float]] = {}
    with source.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        rows_read = _csv_rows(fh, source)
        try:
            _, header = next(rows_read)
        except StopIteration:
            raise SchemaError(f"{source}: empty file") from None
        if header != HEADER:
            raise SchemaError(f"{source}: line 1: expected header {','.join(HEADER)}")
        for lineno, row in rows_read:
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
