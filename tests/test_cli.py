import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covclust import (
    Clustering,
    ExperimentConfig,
    GroundTruth,
    HurstFunction,
    SamplePath,
    cli,
    evaluation,
    misclassification_rate,
    processes,
    seriesio,
)
from covclust.evaluation import simulate_pool
from covclust.cli import _CONFIG_KEYS, main
from covclust.seriesio import SchemaError, _read_columns, read_series, write_series

from naive_oracles import rowwise_read_series, rowwise_write_series


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# series file round-trips
# ---------------------------------------------------------------------------


def test_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    paths = [SamplePath(f"s{i}", rng.standard_normal(7)) for i in range(3)]
    f = tmp_path / "series.csv"
    write_series(paths, f)
    back = read_series(f)
    assert [p.id for p in back] == [p.id for p in paths]
    for a, b in zip(paths, back):
        assert np.array_equal(a.values, b.values)


def test_ragged_only_in_online_mode(tmp_path):
    rng = np.random.default_rng(1)
    paths = [SamplePath("a", rng.standard_normal(5)), SamplePath("b", rng.standard_normal(8))]
    f = tmp_path / "ragged.csv"
    write_series(paths, f)
    assert len(read_series(f, ragged_ok=True)) == 2
    with pytest.raises(SchemaError, match="ragged"):
        read_series(f, ragged_ok=False)


def test_schema_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("series_id,t_index,value\na,0,1.0\na,zero,2.0\n")
    with pytest.raises(SchemaError, match="line 3"):
        read_series(f)


def test_schema_rejects_bad_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("id,t,v\na,0,1.0\n")
    with pytest.raises(SchemaError, match="header"):
        read_series(f)


def test_schema_rejects_duplicates_and_gaps(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("series_id,t_index,value\na,0,1.0\na,0,2.0\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_series(dup)
    gap = tmp_path / "gap.csv"
    gap.write_text("series_id,t_index,value\na,0,1.0\na,2,2.0\n")
    with pytest.raises(SchemaError, match="gap"):
        read_series(gap)


# ---------------------------------------------------------------------------
# series files against the row-by-row reference writer and reader
# ---------------------------------------------------------------------------

AWKWARD_IDS = ["", "a,b", 'q"t', "new\nline", " sp", "50%", "%d", "%(x)s", "%%",
               "long_id_" * 8, "é"]
AWKWARD_VALUES = [-0.0, 5e-324, 1e308, -1.5, 1 / 3,
                  # exact ties of the 17th digit: ...312|5 and ...937|5
                  1 + 2**-17, 1 + 3 * 2**-17,
                  # the ends of the kernel's band, and each power of ten with its neighbours
                  *(y for x in (1e-4, 1e16, *(10.0**k for k in range(-5, 18)))
                    for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf)))]


def test_write_series_bytes_match_rowwise_writer(tmp_path):
    paths = [SamplePath(sid, np.array(AWKWARD_VALUES)) for sid in AWKWARD_IDS]
    write_series(paths, tmp_path / "joined.csv")
    rowwise_write_series(paths, tmp_path / "rowwise.csv")
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


HEAD = "series_id,t_index,value\n"
READ_CORPUS = [
    # (file text, ragged_ok, substring of the expected error or None if valid)
    pytest.param(HEAD + "a,1,2.0\na,0,1.0\nb,1,4\nb,0,3\n", False, None, id="rows-out-of-order"),
    pytest.param(HEAD + "a,0,1\nb,0,2\na,1,3\nb,1,4\n", False, None, id="interleaved"),
    pytest.param("series_id,t_index,value\r\na,0,1\r\n\r\na,1,2\r\n\r\n", False, None,
                 id="blank-lines-crlf"),
    pytest.param(HEAD + '"x,y",0,1_0\n"x,y",1,2\n', False, None, id="quoted-id-underscore"),
    pytest.param(HEAD + "a,0,nan\na,1,1\n", False, "line 2: non-finite", id="nan"),
    pytest.param(HEAD + "a,0,1\na,1,-inf\n", False, "line 3: non-finite", id="minus-inf"),
    pytest.param(HEAD + "a,-1,1\na,0,2\n", False, "line 2: negative", id="negative-index"),
    pytest.param(HEAD + "a,0,1\na,1.5,2\n", False, "line 3: non-integer", id="non-integer-index"),
    pytest.param(HEAD + "a,0,1\na,1,abc\n", False, "line 3: non-numeric", id="non-numeric"),
    pytest.param(HEAD + "a,0,1\na,x,2\na,1\n", False, "line 3: non-integer",
                 id="bad-index-before-two-columns"),
    # six commas for two rows, but four fields in the first
    pytest.param(HEAD + "a,0,1.5,b\n1,2.5\n", False, "line 2: expected 3 columns, got 4",
                 id="misaligned-columns"),
    # split at every comma, these fields read as the valid series a = (1, 2)
    pytest.param(HEAD + "a,0,1,a\n1,2\n", False, "line 2: expected 3 columns, got 4",
                 id="misaligned-columns-valid-fields"),
    # each index is canonical within its run of rows
    pytest.param(HEAD + "a,0,1\nb,0,5\nb,1,6\na,0,2\n", False, "line 5: duplicate",
                 id="duplicate-in-second-run"),
    pytest.param(HEAD + "a,00,1\na,+1,2\na, 2,3\n", False, None, id="non-canonical-index"),
    pytest.param(HEAD + "a,0,1\na,1,2", False, None, id="no-final-newline"),
    # the id-run check reads no id bytes past the end of the file
    pytest.param(HEAD + f"{'a' * 40},0,1\n{'a' * 40},1,2\nb,0,1\nb,1,2\n", False, None,
                 id="long-id-then-short-series"),
    # a run starts at each t_index "0", and each of its rows must hold its first row's id
    pytest.param(HEAD + "a,0,1\na,1,2\nb,2,3\nb,3,4\n", False, "gap", id="index-counts-across-ids"),
    pytest.param(HEAD + "series_0001,0,1\nseries_0001,1,2\nseries_0002,2,3\nseries_0002,3,4\n",
                 False, "gap", id="index-counts-across-long-ids"),
    pytest.param(HEAD + "a,0,1\na,1,2\nb,2,3\na,3,4\n", False, "gap", id="foreign-row-in-run"),
    pytest.param("series_id,t_index,value\ra,0,1\ra,1,2\r", False, None, id="lone-cr"),
    pytest.param("series_id,t_index,value,\na,0,1\na,1,2\n", False, "line 1: expected header",
                 id="header-trailing-comma"),
    # the undecodable byte lies beyond the first block the file object decodes
    pytest.param(HEAD + "a,0,1\na,x,2\n" + "".join(f"b,{i},1\n" for i in range(3000))
                 + "b,3000,\udcff\n", False, "line 3: non-integer",
                 id="bad-index-before-undecodable-byte"),
    pytest.param(HEAD + "a,0,1.5\na,1,\udcff\n", False, "line 3: not UTF-8", id="undecodable-byte"),
    # the undecodable byte lies in the same block of text as the earlier error
    pytest.param(HEAD + "a,0,1\na,x,2\na,1,\udcff\n", False, "line 3: non-integer",
                 id="bad-index-just-before-undecodable-byte"),
    # the first bad byte's line, before a later row's error and within a quoted id's lines
    pytest.param(HEAD + 'a,0,1\n"x\ny\udce9",0,1\na,x,2\n', False, "line 4: not UTF-8",
                 id="undecodable-byte-in-quoted-id"),
    # a quoted id that holds a newline spans two lines; later rows keep their own line
    pytest.param(HEAD + '"x\ny",0,1\na,x,2\n', False, "line 4: non-integer",
                 id="bad-index-after-multiline-id"),
    pytest.param(HEAD + "a,0,1\na,1,2\n" + "b" * 140_000 + ",0,1\n", False,
                 "line 4: field larger than field limit", id="field-over-limit"),
    # csv's field limit holds for the t_index field too, unquoted
    pytest.param(HEAD + "a,0,1\na," + " " * 140_000 + "1,2\n", False,
                 "line 3: field larger than field limit", id="index-over-limit"),
    # fields np.loadtxt refuses are read row by row, as int() and float() read
    # them: '#' starts no comment, '_' separates digits, '1.0' is no integer
    pytest.param(HEAD + "a,0,1\na,1,2#x\n", False, "line 3: non-numeric", id="value-hash"),
    pytest.param(HEAD + "a,0,1\na,1,1_5\n", False, None, id="value-underscore"),
    pytest.param(HEAD + "a,0,1\na,1.0,2\n", False, "line 3: non-integer", id="index-float-text"),
    pytest.param(HEAD + "".join(f"a,{i},1\n" for i in range(10)) + "a,1_0,2\n", False, None,
                 id="index-underscore"),
    # numpy's parser reads bytes 0x1c-0x1f as spaces and U+01FE as the digit 462,
    # int() and float() refuse both
    pytest.param(HEAD + "a,0,1\na,1\x1c,2\n", False, "line 3: non-integer", id="index-0x1c"),
    pytest.param(HEAD + "a,0,1\na,1,\x1f2\n", False, "line 3: non-numeric", id="value-0x1f"),
    pytest.param(HEAD + "".join(f"a,{i},1\n" for i in range(462)) + "a,\u01fe,1\n", False,
                 "line 464: non-integer", id="index-non-ascii-digit"),
    pytest.param(HEAD + "a,0,1\na,0,2\n", False, "line 3: duplicate", id="duplicate"),
    pytest.param(HEAD + "a,0,1\na,2,2\n", False, "gap", id="gap"),
    pytest.param(HEAD + "a,0,1\na,99999999999999999999,2\n", False, "gap", id="index-beyond-int64"),
    pytest.param(HEAD + "a,0,1\nb,0,1\nb,1,2\n", False, "at least 2 points", id="single-point"),
    pytest.param(HEAD + "a,0,1\na,1,2\nb,0,1\nb,1,2\nb,2,3\n", True, None, id="ragged-online"),
    pytest.param(HEAD + "a,0,1\na,1,2\nb,0,1\nb,1,2\nb,2,3\n", False, "ragged",
                 id="ragged-offline"),
    pytest.param("", False, "empty file", id="empty"),
    pytest.param(HEAD, False, "no data rows", id="header-only"),
    pytest.param("id,t,v\na,0,1\n", False, "line 1: expected header", id="bad-header"),
]


def _read_outcome(reader, path, ragged_ok):
    try:
        paths = reader(path, ragged_ok=ragged_ok)
    except SchemaError as exc:
        return str(exc)
    return [(p.id, p.values.tobytes()) for p in paths]


@pytest.mark.parametrize("text, ragged_ok, error", READ_CORPUS)
def test_read_series_matches_rowwise_reader(tmp_path, text, ragged_ok, error):
    f = tmp_path / "corpus.csv"
    f.write_bytes(text.encode("utf-8", "surrogateescape"))
    got = _read_outcome(read_series, f, ragged_ok)
    assert got == _read_outcome(rowwise_read_series, f, ragged_ok)
    if error is None:
        assert isinstance(got, list)
    else:
        assert error in got


def test_read_series_matches_rowwise_reader_on_awkward_ids(tmp_path):
    f = tmp_path / "awkward.csv"
    rowwise_write_series([SamplePath(sid, np.array(AWKWARD_VALUES)) for sid in AWKWARD_IDS], f)
    got = _read_outcome(read_series, f, False)
    assert got == _read_outcome(rowwise_read_series, f, False)
    assert [sid for sid, _ in got] == AWKWARD_IDS
    # ids csv leaves unquoted keep a file plain, so it takes the string-split read
    plain_ids = [sid for sid in AWKWARD_IDS if not set(sid) & set(',"\n')]
    plain = tmp_path / "plain.csv"
    write_series([SamplePath(sid, np.array(AWKWARD_VALUES)) for sid in plain_ids], plain)
    got = _read_outcome(read_series, plain, False)
    assert got == _read_outcome(rowwise_read_series, plain, False)
    assert [sid for sid, _ in got] == plain_ids
    assert _read_columns(plain, False) is not None


@pytest.mark.parametrize("fmt", ["%r", "%.15g", "%.17e", "%.0f", "%.20f", "%+.5g"])
def test_bulk_read_gives_float_of_each_field(tmp_path, fmt):
    # values as other writers render them, in the writer's layout: the bulk
    # read takes the file and gives float() of every field, bit for bit
    rng = np.random.default_rng(4)
    values = np.concatenate([AWKWARD_VALUES, rng.standard_normal(200)])
    f = tmp_path / "formatted.csv"
    f.write_text(HEAD + "".join(f"{sid},{i},{fmt % x}\n" for sid in ("a", "é")
                                for i, x in enumerate(values.tolist())), encoding="utf-8")
    assert _read_columns(f, False) is not None
    got = _read_outcome(read_series, f, False)
    assert got == _read_outcome(rowwise_read_series, f, False)


def test_read_series_matches_rowwise_reader_across_chunks(tmp_path):
    # 3 x 3000 rows, several chunks of text: series 1 crosses chunk boundaries
    rng = np.random.default_rng(3)
    f = tmp_path / "long.csv"
    write_series([SamplePath(f"s{k}", rng.standard_normal(3000)) for k in range(3)], f)
    head, *rows = f.read_text().splitlines(keepends=True)
    variants = {
        "as-written": rows,
        "first-two-swapped": rows[:3000] + [rows[3001], rows[3000]] + rows[3002:],
        "last-two-swapped": rows[:5998] + [rows[5999], rows[5998]] + rows[6000:],
        "reversed": rows[:3000] + rows[5999:2999:-1] + rows[6000:],
        "duplicate-late": rows[:5999] + [rows[5999].replace(",2999,", ",0,")] + rows[6000:],
    }
    for name, body in variants.items():
        g = tmp_path / f"{name}.csv"
        g.write_text(head + "".join(body))
        got = _read_outcome(read_series, g, False)
        assert got == _read_outcome(rowwise_read_series, g, False), name
        # only the writer's layout takes the bulk read; reordered rows are read row by row
        assert (_read_columns(g, False) is not None) == (name == "as-written"), name


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    # the writer renders 8192 rows at a time: 100 paths of 2000 values take
    # no more than 20 of them
    rng = np.random.default_rng(3)
    paths = [SamplePath(f"path{i}", rng.standard_normal(2000)) for i in range(100)]
    peaks = []
    for count in (20, 100):
        tracemalloc.start()
        try:
            write_series(paths[:count], tmp_path / f"{count}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


def test_long_ids_write_and_read_as_rowwise(tmp_path):
    # 8000-byte ids make rows wide, so the writer takes a few dozen rows at a
    # time, its chunks cross the paths and its memory stays near one chunk
    rng = np.random.default_rng(5)
    paths = [SamplePath(c * 8000, rng.standard_normal(300)) for c in "abc"]
    tracemalloc.start()
    try:
        write_series(paths, tmp_path / "joined.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    rowwise_write_series(paths, tmp_path / "rowwise.csv")
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()
    assert _read_columns(tmp_path / "joined.csv", False) is not None
    got = _read_outcome(read_series, tmp_path / "joined.csv", False)
    assert got == [(p.id, p.values.tobytes()) for p in paths]


def test_bulk_read_in_slices_of_one_row(tmp_path, monkeypatch):
    # slices of at most 64 bytes: nearly every row starts a slice of its own and
    # a row longer than that is one slice, so the id runs, the field checks and
    # the index checks all cross slices; reads and the bulk path's choice stay
    rng = np.random.default_rng(3)
    f = tmp_path / "long.csv"
    ids = ["s" * 70, "s" * 69 + "t", "s0", "é"]
    write_series([SamplePath(sid, rng.standard_normal(300)) for sid in ids], f)
    cases = [(param.values[0], param.values[1]) for param in READ_CORPUS]
    cases += [(f.read_text(), False), (f.read_text().replace(",1,", ",2,", 1), False)]
    files, expected = [], []
    for k, (text, ragged_ok) in enumerate(cases):
        files.append(tmp_path / f"{k}.csv")
        files[-1].write_bytes(text.encode("utf-8", "surrogateescape"))
        expected.append((_read_columns(files[-1], ragged_ok) is not None,
                         _read_outcome(rowwise_read_series, files[-1], ragged_ok)))
    monkeypatch.setattr(seriesio, "_CHUNK_ROWS", 1)
    for g, (text, ragged_ok), (bulk, outcome) in zip(files, cases, expected):
        assert (_read_columns(g, ragged_ok) is not None) == bulk, text[:40]
        assert _read_outcome(read_series, g, ragged_ok) == outcome, text[:40]
    assert expected[-2][0] and not expected[-1][0]


def test_bulk_read_holds_about_the_file(tmp_path, monkeypatch):
    # 100 x 2000 values, 6.6 MB of text: the bulk read holds the file's bytes
    # and one slice of rows' arrays, then np.loadtxt's columns, never several
    # whole-file arrays at once
    rng = np.random.default_rng(6)
    f = tmp_path / "big.csv"
    write_series([SamplePath(f"path-{i}", rng.standard_normal(2000)) for i in range(100)], f)
    expected = _read_outcome(rowwise_read_series, f, False)
    monkeypatch.setattr(seriesio, "_read_checked", lambda *args: pytest.fail("read row by row"))
    tracemalloc.start()
    try:
        got = read_series(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
    assert [(p.id, p.values.tobytes()) for p in got] == expected


SERIES_IDS = st.text(st.sampled_from(list(',"\n\r% ab_')), max_size=40)
SERIES_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
                          st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(SERIES_IDS, st.lists(SERIES_VALUES, min_size=2, max_size=40)),
                min_size=1, max_size=6))
def test_series_round_trip_matches_rowwise(tmp_path_factory, cases):
    paths = [SamplePath(sid, np.array(values)) for sid, values in cases]
    d = tmp_path_factory.mktemp("round-trip")
    write_series(paths, d / "joined.csv")
    rowwise_write_series(paths, d / "rowwise.csv")
    assert (d / "joined.csv").read_bytes() == (d / "rowwise.csv").read_bytes()
    for ragged_ok in (False, True):
        got = _read_outcome(read_series, d / "joined.csv", ragged_ok)
        assert got == _read_outcome(rowwise_read_series, d / "joined.csv", ragged_ok)


def test_simulate_file_reads_and_writes_as_rowwise(tmp_path):
    # 100 x 2000 values, nearly all in the kernel's band: every bulk-read value
    # is bit-equal to float() of its field, and the rewrite is byte-equal
    f = tmp_path / "sim.csv"
    assert run(["simulate", "--hurst", "sin:0.3,1.0", "--n", "2000", "--paths", "100",
                "--delta-t", "0.0005", "--seed", "7", "--output", f]) == 0
    assert _read_columns(f, False) is not None
    got = _read_outcome(read_series, f, False)
    assert got == _read_outcome(rowwise_read_series, f, False)
    paths = [SamplePath(sid, np.frombuffer(values)) for sid, values in got]
    rowwise_write_series(paths, tmp_path / "rowwise.csv")
    assert f.read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--hurst", "constant:0.5", "--n", "10", "--paths", "2",
            "--seed", "7", "--output"]
    assert run(args + [out1]) == 0
    assert run(args + [out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_after_eviction_writes_same_bytes(tmp_path, monkeypatch):
    # one n = 50 factor (20000 bytes) fits the budget, so B evicts A
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 30000)
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    for out, hurst in zip(outs, ["sin:0.3,1.0", "sin:-0.3,1.0", "sin:0.3,1.0"]):
        assert run(["simulate", "--hurst", hurst, "--n", "50", "--paths", "3",
                    "--delta-t", "0.02", "--seed", "7", "--output", out]) == 0
        assert len(processes._FACTORS) == 1
    assert outs[0].read_bytes() == outs[2].read_bytes()
    assert outs[0].read_bytes() != outs[1].read_bytes()


# sha256 of `simulate --hurst sin:0.3,1.0 --n 100 --paths 3 --delta-t 0.01 --seed 7`,
# the same on default and on one BLAS thread. numpy's AVX512_SKX power loop rounds
# some |t|^a otherwise than its other loops, so each has its own digest. Measured
# on x86-64 with numpy 2.4.6 and the OpenBLAS it ships, under default threads,
# OPENBLAS_NUM_THREADS=1 and NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
# AVX512_SPR" (the avx512 digest needs none of those features disabled).
SIMULATE_SHA256 = {
    "avx512": "a3c0a48bc4415b7434f35e7f465a314c3c19dcd52853dec651e3f8946a36af8b",
    "other": "f6dbc145ac82290b7ca47c2d605f9307b99da6f2a3e66acf2c06abeade566b49",
}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the digests were measured on x86-64")
def test_simulate_bytes_are_pinned(tmp_path, monkeypatch):
    # the pinned file from an empty cache, and again after another profile
    # has evicted its factor before building its own covariance
    from numpy._core._multiarray_umath import __cpu_features__

    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 8 * 100**2)
    digests = []
    for hurst in ("sin:0.3,1.0", "sin:-0.3,1.0", "sin:0.3,1.0"):
        out = tmp_path / "pin.csv"
        assert run(["simulate", "--hurst", hurst, "--n", "100", "--paths", "3",
                    "--delta-t", "0.01", "--seed", "7", "--output", out]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(processes._FACTORS) == 1
    loop = "avx512" if __cpu_features__.get("AVX512_SKX") else "other"
    assert digests[0] == digests[2] == SIMULATE_SHA256[loop]
    assert digests[1] != digests[0]


def test_simulate_row_count_and_round_trip(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--hurst", "mono:0.3,1.0", "--n", "12", "--paths", "3",
                "--delta-t", str(1 / 12), "--seed", "1", "--output", out]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 12
    assert len(read_series(out)) == 3


def test_simulate_bad_hurst_spec(tmp_path, capsys):
    code = run(["simulate", "--hurst", "warp:0.5", "--output", tmp_path / "x.csv"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("spec", ["mono:0.3,nan", "sin:0.3,0", "mono:0.3,-1"])
def test_simulate_rejects_a_horizon_that_is_not_positive(tmp_path, capsys, spec):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", spec, "--n", "10", "--output", out])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: bad hurst spec {spec!r}: horizon q")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["mono:nan,1.0", "sin:nan,1.0", "mono:inf,1.0"])
def test_simulate_rejects_a_non_finite_amplitude(tmp_path, capsys, spec):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", spec, "--n", "10", "--output", out])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: bad hurst spec {spec!r}: amplitude")
    assert not out.exists()


@pytest.mark.parametrize("paths", [0, -1])
def test_simulate_rejects_fewer_than_one_path(tmp_path, capsys, paths):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", "constant:0.5", "--paths", paths, "--output", out])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--n", 1), ("--n", 0), ("--delta-t", 0),
                                         ("--delta-t", -0.5), ("--delta-t", "nan"),
                                         ("--delta-t", "inf"), ("--delta-t", "1e308"),
                                         ("--seed", -1)])
def test_simulate_rejects_bad_n_and_delta_t(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", "constant:0.5", flag, value, "--output", out])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {flag} must be")
    assert not out.exists()


@pytest.mark.parametrize("n", [10**400, 2**32])
def test_simulate_rejects_an_n_too_large_to_address(tmp_path, capsys, n):
    # 10**400 overflowed the float check of --delta-t * --n; 2**32 would ask
    # for a 128 EiB covariance. Both are refused before any array is made.
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = run(["simulate", "--hurst", "constant:0.5", "--n", n, "--output", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: --n {n} is too large")
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs Linux's statm")
def test_simulate_n_too_large_for_memory_fails_at_its_covariance(tmp_path):
    # --n 10**9 passes the np.intp check (8 n^2 < 2**63), but no machine holds
    # its covariance. That is allocated first, so the command fails there with
    # nothing else made. A time grid made first would take 16 GB: the child's
    # address space is capped 512 MiB above what its imports mapped, so such a
    # regression fails fast, at an array of n values.
    script = (
        "import resource, sys\n"
        "from covclust import cli\n"
        "with open('/proc/self/statm') as fh:\n"
        "    mapped = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**29, hard))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "x.csv"
    done = subprocess.run([sys.executable, "-c", script, "simulate", "--hurst", "constant:0.5",
                           "--n", str(10**9), "--output", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    err = done.stderr.splitlines()
    assert done.returncode == 5, done.stderr
    assert len(err) == 1 and err[0].startswith("error: infeasible: ")
    assert "shape (1000000000, 1000000000)" in err[0]
    assert not out.exists()


def test_simulate_bytes_do_not_depend_on_block_or_chunk_rows(tmp_path, monkeypatch):
    # the covariance rows in flight and the writer's rows per chunk bound their
    # memory only: each entry and each row is made the same way at any size
    monkeypatch.setattr(processes, "_usable_cpus", lambda: 2)
    written = []
    for block, chunk in [(1, 65536), (7, 3), (64, 8192), (256, 1)]:
        monkeypatch.setattr(processes, "_COV_BLOCK", block)
        monkeypatch.setattr(seriesio, "_CHUNK_ROWS", chunk)
        processes._FACTORS.clear()
        out = tmp_path / f"{block}-{chunk}.csv"
        assert run(["simulate", "--hurst", "sin:0.3,1.0", "--n", 300, "--paths", 3,
                    "--delta-t", "0.003", "--seed", 7, "--output", out]) == 0
        written.append(out.read_bytes())
    assert written[1:] == written[:1] * 3


def test_simulate_memory_error_is_one_infeasible_line(tmp_path, capsys, monkeypatch):
    def fail(f, times):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (63246, 63246)")

    processes.sample_path(HurstFunction.constant(0.5), 6, 1.0 / 6, seed=0)
    assert processes._FACTORS
    monkeypatch.setattr(processes, "build_cov_matrix", fail)
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", "constant:0.4", "--n", 63246, "--delta-t", "1e-5",
                "--output", out])
    assert code == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible: Unable to allocate 29.8 GiB for an array with shape (63246, 63246)"]
    assert not out.exists()
    # a 32 GB factor fits beside no other, so every factor was evicted before the build
    assert not processes._FACTORS


def test_simulate_factorization_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    def fail(cov):
        raise processes.FactorizationError("not positive definite")

    monkeypatch.setattr(processes, "cholesky_with_jitter", fail)
    processes._FACTORS.clear()
    code = run(["simulate", "--hurst", "constant:0.5", "--n", "10", "--paths", "1",
                "--output", tmp_path / "x.csv"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: numeric: not positive definite")


@pytest.mark.parametrize("hurst, n, delta_t, cpus", [("constant:0.9", 10, "1e200", 1),
                                                     ("sin:0.4,1e300", 600, "1e296", 1),
                                                     ("sin:0.4,1e300", 600, "1e296", 2)])
def test_simulate_overflowing_covariance_is_one_numeric_line(tmp_path, capsys, monkeypatch,
                                                             hurst, n, delta_t, cpus):
    # the grid is finite but |t|^a overflows; on 2 CPUs a helper thread builds
    # blocks too, and it must neither warn nor leave a factor behind
    monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)
    processes._FACTORS.clear()  # room for the new factor, so nothing is evicted before its build
    processes.sample_path(HurstFunction.constant(0.5), 6, 1.0 / 6, seed=0)
    cached = [(key, id(factor)) for key, factor in processes._FACTORS.items()]
    out = tmp_path / "x.csv"
    code = run(["simulate", "--hurst", hurst, "--n", n, "--delta-t", delta_t, "--output", out])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric: ")
    assert not out.exists()
    assert [(key, id(factor)) for key, factor in processes._FACTORS.items()] == cached


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COVCLUST_OUTPUT_DIR", str(tmp_path / "outs"))
    assert run(["simulate", "--hurst", "constant:0.5", "--n", "5",
                "--output", "rel.csv"]) == 0
    assert (tmp_path / "outs" / "rel.csv").exists()


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def _write_two_group_fixture(tmp_path):
    rng = np.random.default_rng(3)
    base_a = np.cumsum(rng.standard_normal(30)) * 0.05
    base_b = np.cumsum(rng.standard_normal(30)) * 5.0
    paths = [
        SamplePath("a1", base_a + 0.01 * rng.standard_normal(30)),
        SamplePath("a2", base_a + 0.01 * rng.standard_normal(30)),
        SamplePath("b1", base_b + 0.01 * rng.standard_normal(30)),
        SamplePath("b2", base_b + 0.01 * rng.standard_normal(30)),
    ]
    f = tmp_path / "fixture.csv"
    write_series(paths, f)
    return f


def test_cluster_two_groups(tmp_path):
    f = _write_two_group_fixture(tmp_path)
    out = tmp_path / "labels.csv"
    assert run(["cluster", "--input", f, "--output", out, "--kappa", "2"]) == 0
    with out.open() as fh:
        rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
    assert rows["a1"] == rows["a2"]
    assert rows["b1"] == rows["b2"]
    assert rows["a1"] != rows["b1"]


def test_cluster_default_windows_are_localized(tmp_path):
    # 100 mono paths of n=305: unset K and L resolve to K = isqrt(305) = 17
    # and every window, L = 305 - 17 - 1 = 287
    ec = ExperimentConfig(case="mono")
    f = tmp_path / "mono.csv"
    write_series([p for group in simulate_pool(ec, 0, 20) for p in group], f)
    common = ["cluster", "--input", f, "--kappa", "5", "--log-star", "--output"]
    default, pinned = tmp_path / "default.csv", tmp_path / "pinned.csv"
    assert run(common + [default]) == 0
    assert run(common + [pinned, "--K", "17", "--L", "287"]) == 0
    assert default.read_bytes() == pinned.read_bytes()
    with default.open() as fh:
        labels = np.array([int(r[1]) - 1 for r in list(csv.reader(fh))[1:]])
    truth = GroundTruth(kappa=5, labels=np.repeat(np.arange(5), 20))
    assert misclassification_rate(Clustering(5, labels, ()), truth) == 0.0


def test_cluster_kappa_equals_n(tmp_path):
    f = _write_two_group_fixture(tmp_path)
    out = tmp_path / "labels.csv"
    assert run(["cluster", "--input", f, "--output", out, "--kappa", "4"]) == 0
    with out.open() as fh:
        labels = [r[1] for r in list(csv.reader(fh))[1:]]
    assert sorted(labels) == ["1", "2", "3", "4"]


def test_cluster_kappa_exceeds_n(tmp_path, capsys):
    f = _write_two_group_fixture(tmp_path)
    code = run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "9"])
    assert code == 5
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--kappa", "--K", "--L"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_cluster_flags_below_one_are_config_errors(tmp_path, capsys, flag, value):
    # rejected before the input is read: the file does not exist
    argv = ["cluster", "--input", tmp_path / "missing.csv", "--output", tmp_path / "x.csv",
            "--kappa", "2", flag, value]
    assert run(argv) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {flag} must be at least 1, got {value}"]
    assert not (tmp_path / "x.csv").exists()


def test_cluster_window_longer_than_paths_names_the_length(tmp_path, capsys):
    f = tmp_path / "short.csv"
    rng = np.random.default_rng(5)
    write_series([SamplePath(f"p{i}", rng.standard_normal(40)) for i in range(3)], f)
    code = run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "2",
                "--K", "50"])
    assert code == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible: window length K=50 infeasible for paths of length 40"]


@pytest.mark.parametrize("mode", ["offline", "online"])
@pytest.mark.filterwarnings("error")
def test_cluster_overflowing_values_are_one_infeasible_line(tmp_path, capsys, mode):
    # finite values near 1e200 whose squared increments overflow: no numpy
    # warning, one stderr line naming the cause, and no label file
    rng = np.random.default_rng(6)
    f = tmp_path / "huge.csv"
    write_series([SamplePath(f"p{i}", 1e200 * rng.standard_normal(30)) for i in range(4)], f)
    out = tmp_path / "x.csv"
    assert run(["cluster", "--input", f, "--output", out, "--kappa", "2", "--mode", mode]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible: dissimilarity matrix contains non-finite entries: "
        "the squared increments overflow"]
    assert not out.exists()


def test_cluster_single_series_is_infeasible(tmp_path, capsys):
    f = tmp_path / "one.csv"
    write_series([SamplePath("p", np.arange(10.0))], f)
    assert run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "1"]) == 5
    assert capsys.readouterr().err.splitlines() == ["error: infeasible: need at least 2 paths"]


def test_cluster_internal_value_error_is_not_infeasible(tmp_path, capsys, monkeypatch):
    # only InfeasibleError, HurstDomainError and FactorizationError exit 5;
    # any other ValueError is a fault of the program and is raised as it is
    def broken(D, kappa):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "offline_cluster", broken)
    f = _write_two_group_fixture(tmp_path)
    with pytest.raises(ValueError, match="^internal fault$"):
        run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "2"])
    assert "infeasible" not in capsys.readouterr().err


def test_cluster_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("series_id,t_index,value\na,0,huh\n")
    code = run(["cluster", "--input", bad, "--output", tmp_path / "x.csv", "--kappa", "1"])
    assert code == 3
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_value_is_schema_error(tmp_path, capsys, bad):
    f = tmp_path / "nonfinite.csv"
    f.write_text(f"series_id,t_index,value\na,0,1.0\na,1,2.0\nb,0,0.5\nb,1,{bad}\n")
    assert run(["ingest-check", "--input", f]) == 3
    assert run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("error: schema:")
        assert f"line 5: non-finite value '{bad}'" in line


@pytest.mark.parametrize("bad, message", [("undecodable", "line 3: not UTF-8 text"),
                                          ("oversized", "line 2: field larger than field limit")])
def test_unreadable_text_is_schema_error(tmp_path, capsys, bad, message):
    f = tmp_path / f"{bad}.csv"
    if bad == "undecodable":
        f.write_bytes(b"series_id,t_index,value\na,0,1.5\na,1,\xff\n")
    else:  # the writer writes the id; csv refuses to read it back
        write_series([SamplePath("i" * 140_000, np.arange(2.0))], f)
    assert run(["ingest-check", "--input", f]) == 3
    assert run(["cluster", "--input", f, "--output", tmp_path / "x.csv", "--kappa", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("error: schema:")
        assert message in line


def test_cluster_online_mode_ragged(tmp_path):
    rng = np.random.default_rng(4)
    paths = [SamplePath("a", rng.standard_normal(10)),
             SamplePath("b", rng.standard_normal(14)),
             SamplePath("c", rng.standard_normal(12))]
    f = tmp_path / "ragged.csv"
    write_series(paths, f)
    out = tmp_path / "labels.csv"
    assert run(["cluster", "--input", f, "--output", out, "--mode", "online",
                "--kappa", "2"]) == 0
    # offline mode must reject the same file
    assert run(["cluster", "--input", f, "--output", out, "--kappa", "2"]) == 3


def test_consecutive_calls_share_no_parsed_state(tmp_path, monkeypatch, capsys):
    # one parser serves the process; each call's flags must come from its own argv
    f = _write_two_group_fixture(tmp_path)
    real = cli.dissimilarity_matrix
    seen = []
    monkeypatch.setattr(cli, "dissimilarity_matrix",
                        lambda paths, cfg: seen.append(cfg) or real(paths, cfg))
    common = ["cluster", "--input", f, "--kappa", "2", "--output"]
    assert run(common + [tmp_path / "k3.csv", "--K", "3"]) == 0
    assert run(common + [tmp_path / "default.csv"]) == 0
    assert [cfg.K for cfg in seen] == [3, None]
    assert seen[1].windows(30) == (5, 24)  # K = isqrt(30) resolved from the data
    with pytest.raises(SystemExit) as exc:
        run(common + [tmp_path / "bad.csv", "--K", "three"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(common + [tmp_path / "after.csv"]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def test_ingest_check(tmp_path, capsys):
    f = _write_two_group_fixture(tmp_path)
    assert run(["ingest-check", "--input", f]) == 0
    assert "4 series" in capsys.readouterr().out


def test_missing_input_io_error(tmp_path, capsys):
    code = run(["cluster", "--input", tmp_path / "absent.csv",
                "--output", tmp_path / "x.csv", "--kappa", "1"])
    assert code == 6
    assert "io" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_trend_and_determinism(tmp_path):
    args = ["experiment", "--case", "mono", "--seeds", "0,1", "--epochs", "2,30",
            "--paths-per-group", "2"]
    out1, sum1 = tmp_path / "r1.csv", tmp_path / "s1.csv"
    out2, sum2 = tmp_path / "r2.csv", tmp_path / "s2.csv"
    assert run(args + ["--output", out1, "--summary", sum1]) == 0
    assert run(args + ["--output", out2, "--summary", sum2, "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert sum1.read_bytes() == sum2.read_bytes()
    with sum1.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mean_rate", "std_rate"]
    assert len(rows) == 3


def test_experiment_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "sin", "seeds": [3], "epochs": [2],
                               "paths_per_group": 2}))
    out, summ = tmp_path / "r.csv", tmp_path / "s.csv"
    assert run(["experiment", "--config", cfg, "--output", out, "--summary", summ]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "3" and rows[1][1] == "2"


def test_experiment_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [3], "epochs": [2], "paths_per_group": 2}))
    out, summ = tmp_path / "r.csv", tmp_path / "s.csv"
    assert run(["experiment", "--config", cfg, "--seeds", "5",
                "--output", out, "--summary", summ]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "5"


def test_experiment_empty_seeds_errors(tmp_path, capsys):
    code = run(["experiment", "--seeds", "", "--output", tmp_path / "r.csv",
                "--summary", tmp_path / "s.csv"])
    assert code == 4
    assert "config" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_experiment_disjoint_seed_lists_merge(tmp_path):
    base = ["experiment", "--case", "mono", "--epochs", "2", "--paths-per-group", "2"]
    a, b, both = (tmp_path / n for n in ("a.csv", "b.csv", "both.csv"))
    summ = tmp_path / "s.csv"
    assert run(base + ["--seeds", "0", "--output", a, "--summary", summ]) == 0
    assert run(base + ["--seeds", "1", "--output", b, "--summary", summ]) == 0
    assert run(base + ["--seeds", "0,1", "--output", both, "--summary", summ]) == 0
    merged = a.read_text().splitlines() + b.read_text().splitlines()[1:]
    assert merged == both.read_text().splitlines()


@pytest.mark.parametrize("config, flags", [
    ({"seeds": "12"}, []),
    ({"seeds": []}, []),
    ({"seeds": [0, True]}, []),
    ({"seeds": [0.0]}, []),
    ({"epochs": 5}, []),
    ({"epochs": ["5"]}, []),
    ({"log_star": "false"}, []),
    ({"log_star": 1}, []),
    ({"paths_per_group": "abc"}, []),
    ({"paths_per_group": 2.0}, []),
    ({"paths_per_group": 0}, []),
    ({}, ["--paths-per-group", "0"]),
    ({}, ["--paths-per-group", "-1"]),
    ({"case": "const"}, []),
    ({"case": ["mono"]}, []),
    ({"mode": "sideways"}, []),
    ({"seeds": [-3]}, []),
    ({"seeds": [0]}, ["--seeds=-1"]),
    ({"seed": [4], "epochs": [2], "paths_per_group": 2}, []),
])
def test_experiment_rejects_bad_config_values(tmp_path, capsys, monkeypatch, config, flags):
    def no_run(ec):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(evaluation, "run_experiment", no_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(["experiment", "--config", cfg, *flags, "--output", tmp_path / "r.csv",
                "--summary", tmp_path / "s.csv"])
    key = next(iter(config), "paths_per_group")
    expected = f"{key} " if key in _CONFIG_KEYS else f"unknown key {key!r}\n"
    assert code == 4
    assert capsys.readouterr().err.startswith(f"error: config: {expected}")
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flags", [["--epochs=-2"], ["--mode", "online", "--epochs=0"],
                                   ["--epochs", "5,-40"]])
def test_experiment_rejects_epochs_below_one(tmp_path, capsys, flags):
    out, summ = tmp_path / "r.csv", tmp_path / "s.csv"
    code = run(["experiment", "--seeds", "0", "--paths-per-group", "2", *flags,
                "--output", out, "--summary", summ])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: epochs must be")
    assert not out.exists() and not summ.exists()


def test_experiment_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = run(["experiment", "--config", cfg, "--output", tmp_path / "r.csv",
                "--summary", tmp_path / "s.csv"])
    assert code == 4


def test_experiment_path_length_key_and_flag(tmp_path, capsys):
    common = ["experiment", "--case", "mono", "--seeds", "0", "--epochs", "2,5",
              "--paths-per-group", "2", "--summary"]
    base = tmp_path / "base"
    assert run(common + [f"{base}s.csv", "--output", f"{base}r.csv"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"path_length": 305}))
    keyed = tmp_path / "keyed"
    assert run(common + [f"{keyed}s.csv", "--output", f"{keyed}r.csv", "--config", cfg]) == 0
    flagged = tmp_path / "flagged"
    assert run(common + [f"{flagged}s.csv", "--output", f"{flagged}r.csv",
                         "--path-length", "305"]) == 0
    for name in ("s.csv", "r.csv"):
        want = (tmp_path / f"base{name}").read_bytes()
        assert (tmp_path / f"keyed{name}").read_bytes() == want
        assert (tmp_path / f"flagged{name}").read_bytes() == want
    capsys.readouterr()
    # epoch 5 needs 3 * 5 + 5 = 20 samples
    short = tmp_path / "short"
    assert run(common + [f"{short}s.csv", "--output", f"{short}r.csv",
                         "--path-length", "19"]) == 5
    assert capsys.readouterr().err.startswith("error: infeasible: epoch 5 needs 20 samples")


def test_experiment_online_epoch_longer_than_paths_is_infeasible(tmp_path, capsys):
    # the longest online path at t = 150 holds 3 * 150 + 5 = 455 samples, as offline
    common = ["experiment", "--mode", "online", "--seeds", "0", "--epochs", "100,150"]
    out, summ = tmp_path / "r.csv", tmp_path / "s.csv"
    assert run(common + ["--output", out, "--summary", summ]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible: epoch 150 needs 455 samples but paths have 305"]
    assert not out.exists() and not summ.exists()
    assert run(common + ["--path-length", "455", "--output", out, "--summary", summ]) == 0
    assert [row.split(",")[:2] for row in out.read_text().splitlines()] == [
        ["seed", "t"], ["0", "100"], ["0", "150"]]


@pytest.mark.parametrize("flags, message", [
    (["--case", "const"], "case must be mono or sin, got 'const'"),
    (["--mode", "sideways"], "mode must be offline or online, got 'sideways'"),
])
def test_experiment_case_and_mode_flags_are_config_errors(tmp_path, capsys, flags, message):
    # ExperimentConfig alone checks them, as it does the same keys in a config file
    out = tmp_path / "r.csv"
    assert run(["experiment", *flags, "--output", out, "--summary", tmp_path / "s.csv"]) == 4
    assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("config, flags", [
    ({"path_length": 1}, []),
    ({"path_length": 305.0}, []),
    ({"path_length": "305"}, []),
    ({"path_length": True}, []),
    ({}, ["--path-length", "1"]),
    ({"path_length": 305}, ["--path-length", "-5"]),
    ({"path_length": 2**40}, []),  # its 8 n^2 covariance bytes would overflow np.intp
    ({}, ["--path-length", str(2**40)]),
])
def test_experiment_rejects_bad_path_length(tmp_path, capsys, monkeypatch, config, flags):
    def no_run(ec):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(evaluation, "run_experiment", no_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(["experiment", "--config", cfg, *flags, "--output", tmp_path / "r.csv",
                "--summary", tmp_path / "s.csv"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: config: path_length must be an integer >= 2")
    assert not (tmp_path / "r.csv").exists()
