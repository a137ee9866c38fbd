import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import scorecraft
from scorecraft import data_io
from scorecraft.cli import _default_probs, main
from scorecraft.constraints import compile_constraints
from scorecraft.data_io import (
    DataError,
    ModelFile,
    SyntheticConfig,
    atomic_write_text,
    gen_synthetic,
    load_model,
    load_sample,
    load_score_csv,
    representatives,
    save_model,
)
from scorecraft.metrics import score_cdfs, score_metrics
from scorecraft.model import (
    Column,
    NoInformationBin,
    Sample,
    bin_value,
    build_design_matrix,
)
from scorecraft.report import write_report
from scorecraft.sqp import PenaltySpec, fit

from bin_oracle import bin_one
from dense_design import attribute_columns
from sample_oracle import cells, load_sample_rows
from true_beta import implied_true_beta

# The csv module's default field size limit, which load_sample applies.
LIMIT = 131072

DATA_TEXT = """\
y,w,age,fuel
1,1,25,Gas
0,2,55,Other
1,0.5,,Diesel
0,1,-9999999,Nope
"""


def probs_for_small_spec():
    good = {
        "age": np.array([0.05, 0.4, 0.3, 0.2, 0.05]),
        "fuel": np.array([0.5, 0.4, 0.1]),
    }
    bad = {
        "age": np.array([0.05, 0.1, 0.2, 0.6, 0.05]),
        "fuel": np.array([0.3, 0.5, 0.2]),
    }
    return good, bad


# ---------------------------------------------------------------------------
# Sample CSV

def assert_same_sample(sample, expected):
    assert sample.y.tobytes() == expected.y.tobytes()
    assert sample.w.tobytes() == expected.w.tobytes()
    assert list(sample.records) == list(expected.records)
    for name, column in expected.records.items():
        got = sample.records[name]
        assert isinstance(got, Column) and got.inverse.dtype == np.int32
        assert cells(got) == cells(column)
        assert len(set(got.values)) == len(got.values)  # padded cells merge


def test_load_sample(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# comment\n" + DATA_TEXT)
    sample = load_sample(str(path))
    assert sample.n == 4
    assert np.array_equal(sample.y, [1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(sample.w, [1.0, 2.0, 0.5, 1.0])
    assert cells(sample.records["age"])[2] is None  # empty cell is missing
    assert cells(sample.records["fuel"])[3] == "Nope"


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty data file"),
        ("w,y,age\n1,1,2\n", "must start with y,w"),
        ("y,w,age,age\n1,1,2,3\n", "duplicate characteristic"),
        ("y,w,\n1,1,2\n", "empty characteristic column name"),
        ("y,w,age\n1,1\n", "row 1 has 2 fields"),
        ("y,w,age\n2,1,5\n", "row 1, column y"),
        ("y,w,age\nyes,1,5\n", "row 1, column y"),
        ("y,w,age\n1,,5\n", "row 1, column w: weight is required"),
        ("y,w,age\n1,abc,5\n", "row 1, column w"),
        ("y,w,age\n1,-1,5\n", "row 1, column w"),
        ("y,w,age\n1,0,5\n0,0,6\n", "total weight"),
        # The first faulty row in file order is reported, whatever its fault.
        ("y,w,age\nx,1,5\n1,1\n", "row 1, column y"),
        ("y,w,age\n1,1,5\n0,2,5\nx,1,5\n", "row 3, column y: bad value 'x'"),
        ("y,w,age\n1,1,5\n0,1\n2,1,5\n", "row 2 has 2 fields"),
        ("y,w,age\n1,x,5\n2,1,5\n", "row 1, column w"),
        ("y,w,age\n1,nan,5\n", "row 1, column w: weight must be finite"),
        ("y,w,age\n1,1,5\n0,inf,5\n", "row 2, column w: weight must be finite"),
        # A padded y is read; the fault is in the row after it.
        ("y,w,age\n 1 ,1,5\n 2 ,1,5\n", "row 2, column y: value '2' is not 0 or 1"),
        # A field over the csv module's limit stops reading where it is,
        # in a comment too; an earlier fault is still the one reported.
        pytest.param(
            "y,w,age\n1,1," + "x" * (LIMIT + 1) + "\n",
            f"row 1: field larger than field limit \\({LIMIT}\\)",
            id="field-over-limit",
        ),
        pytest.param(
            "y,w,age\n1,1,5\n#," + "x" * (LIMIT + 1) + ",\n1,1,5\n",
            "row 2: field larger",
            id="comment-over-limit",
        ),
        pytest.param(
            "# " + "x" * (LIMIT + 1) + "\ny,w,age\n", "header: field larger", id="header-over-limit"
        ),
        pytest.param(
            "y,w,age\n1,1\n1,1," + "x" * (LIMIT + 1) + "\n", "row 1 has 2 fields", id="ragged-first"
        ),
        pytest.param(
            "y,w,age\nx,1,5\n1,1," + "x" * (LIMIT + 1) + "\n", "row 1, column y", id="y-first"
        ),
    ],
)
def test_load_sample_rejects(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError) as expected:
        load_sample_rows(str(path))
    with pytest.raises(DataError, match=message) as raised:
        load_sample(str(path))
    assert str(raised.value) == str(expected.value)


MESSY_TEXT = (
    "# a comment line\r\n"
    "y, w ,age,fuel,note\r\n"
    '1,1,25,Gas,"a, b"\r\n'
    "  # an indented comment, 1,2\r\n"
    '0,2.5, 55 ,"Die""sel",Gas\r\n'
    "1,0.5,,  ,nan\r\n"
    "\r\n"
    '0, 1 ,NaN,Gas,"  "\r\n'
    " 1 ,1e0,25,Other,Gas\r\n"
    '0,0,-9999999,nan,"x,""y"""\r\n'
    "1,3,Gas, Gas ,25\r\n"
)


# MESSY_TEXT without its quoted cells: every row and comment rule, plain.
PLAIN_TEXT = (
    "# a comment line\r\n"
    "y, w ,age,fuel,note\r\n"
    "1,1,25,Gas,a\r\n"
    "  # an indented comment, 1,2\r\n"
    "0,2.5, 55 ,Diesel,Gas\r\n"
    "1,0.5,,  ,nan\r\n"
    "\r\n"
    "0, 1 ,NaN,Gas,  \r\n"
    " 1 ,1e0,25,Other,Gas\r\n"
    "0,0,-9999999,nan,x\r\n"
    "1,3,Gas, Gas ,25"
)


# Rows share row blocks of the default size, or each row has a block of its own.
BLOCK_ROWS = pytest.mark.parametrize(
    "block_rows", [data_io._BYTE_BLOCK_ROWS, 1], ids=["shared", "unshared"]
)


@BLOCK_ROWS
@pytest.mark.parametrize(
    "text,n",
    [(MESSY_TEXT, 7), ("y,w,age,fuel,note\n", 0), (PLAIN_TEXT, 7)],
    ids=["messy", "header-only", "plain"],
)
def test_load_sample_matches_per_cell_oracle(
    tmp_path, monkeypatch, small_spec, text, n, block_rows
):
    monkeypatch.setattr(data_io, "_BYTE_BLOCK_ROWS", block_rows)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = load_sample_rows(str(path))
    sample = load_sample(str(path))
    assert sample.n == n
    assert_same_sample(sample, expected)
    del sample.records["note"]
    design = build_design_matrix(small_spec, sample)
    for ch, got in zip(small_spec.characteristics, attribute_columns(design)):
        per_cell = [bin_one(ch, v) for v in cells(sample.records[ch.name])]
        assert got.tolist() == per_cell


def test_load_sample_high_cardinality_matches_oracle(tmp_path, fixture_spec):
    # Every numeric cell and every weight distinct: each column keeps every
    # cell as a value of its own.
    rng = np.random.default_rng(20261018)
    n = 3000
    names = [ch.name for ch in fixture_spec.characteristics]
    numbers = rng.permutation(n * len(names)) + rng.uniform(0.0, 1.0, n * len(names))
    numbers = (numbers * 3.1 - 9000.0).reshape(n, len(names))
    w = rng.permutation(n) + rng.uniform(0.01, 0.99, n)
    lines = ["y,w," + ",".join(names)]
    for i in range(n):
        cells_i = [repr(float(v)) for v in numbers[i]]
        lines.append(f"{int(rng.random() < 0.7)},{float(w[i])!r}," + ",".join(cells_i))
    path = tmp_path / "distinct.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = load_sample_rows(str(path))
    assert len(set(expected.w)) == n
    sample = load_sample(str(path))
    assert sample.y.tobytes() == expected.y.tobytes()
    assert sample.w.tobytes() == expected.w.tobytes()
    design = build_design_matrix(fixture_spec, sample)
    for ch, atts in zip(fixture_spec.characteristics, attribute_columns(design)):
        got, column = sample.records[ch.name], cells(expected.records[ch.name])
        assert len(set(column)) == n
        assert got.values == column and (got.inverse == np.arange(n)).all()
        assert atts.tolist() == [bin_one(ch, v) for v in column]


def test_load_sample_parses_y_and_w_without_a_call_per_value(tmp_path, monkeypatch):
    rng = np.random.default_rng(20261019)
    n = 10000
    w = rng.permutation(n) + rng.uniform(0.01, 0.99, n)
    ys = [" 1 ", "0", "1e0", "-0", "1.0"]
    lines = ["y,w,age"] + [f"{ys[i % 5]},{float(w[i])!r},{i % 7}" for i in range(n)]
    path = tmp_path / "weights.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = load_sample_rows(str(path))
    assert len(set(expected.w)) == n
    calls = []

    def counted(value):
        return lambda path, row, cell: calls.append(cell) or value(path, row, cell)

    for name in ("_y_value", "_w_value"):
        monkeypatch.setattr(data_io, name, counted(getattr(data_io, name)))
    sample = load_sample(str(path))
    assert sample.y.tobytes() == expected.y.tobytes()
    assert sample.w.tobytes() == expected.w.tobytes()
    assert calls == []
    # An empty weight is worded by the message functions for its row alone;
    # the message is the oracle's.
    path.write_text("\n".join(lines[:-1] + ["1,,3"]) + "\n")
    with pytest.raises(DataError) as expected_fault:
        load_sample_rows(str(path))
    with pytest.raises(DataError) as raised:
        load_sample(str(path))
    assert str(raised.value) == str(expected_fault.value)
    assert str(raised.value).endswith(f"row {n}, column w: weight is required")
    assert len(calls) <= 2


def load_or_fault(load, path):
    """load(path) as a Sample, or the message of the DataError it raises."""
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


def assert_matches_oracle(path):
    """load_sample gives the oracle's Sample, or its message."""
    expected = load_or_fault(load_sample_rows, str(path))
    got = load_or_fault(load_sample, str(path))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_sample(got, expected)
    return expected


# Files at the edges of the format, which the csv module reads one way.
EDGE_CASES = [
    pytest.param(b"y,w,a\r\n1,1,5\r\n0,1, 6\r\n", id="crlf"),
    pytest.param(b"y,w,a\n1,1,5\n0,1,6", id="no-final-newline"),
    pytest.param(b"y,w,a,b\n1,1,5,x\r\n0,1,6,", id="empty-cell-at-eof"),
    pytest.param(b"# note,1,2\ny,w,a\n1,1,5\n", id="comment-before-header"),
    pytest.param(b"y,w,a\n\t# note\n1,1,5\n\x1c# note,1\n0,1,6\n", id="indented-comment"),
    pytest.param(b"y,w,a\n1,1,#5\n0,1, #\n 1,1,5\n", id="hash-not-first-field"),
    pytest.param(b"\n\ny,w,a\n\n1,1,5\n\r\n0,1,6\n\n", id="blank-lines"),
    pytest.param(b" y , w ,a\n1,1,5\n0,1, 5\n1,1,5 \n0,1,\t5\x0b\n", id="padded-cells-merge"),
    pytest.param(
        b"y,w,a,b\n1,1,  ,x\n0,1,,x\n1,1,\t,x\n0,1,\x1f,x\n", id="whitespace-only-cells"
    ),
    pytest.param(b"y,w,a\n1,1,5\x00\n0,1,5\n1,1,\x00\n0,1,\x005\n", id="nul-in-cell"),
    pytest.param(b"y,w,a\n1,1,5\n   \n", id="whitespace-only-line"),
    pytest.param(b"", id="empty-file"),
    pytest.param(b"# a\n\n# b,c\n", id="comment-only"),
    pytest.param(b"y,w,a\n", id="header-only"),
    pytest.param(b"y,w,a", id="header-only-no-newline"),
    pytest.param(b"y,w,a\n1,1," + b"x" * LIMIT + b"\n", id="field-at-limit"),
    # The limit counts characters, not bytes.
    pytest.param(b"y,w,a\n1,1," + "é".encode() * LIMIT + b"\n", id="utf8-field-at-limit"),
    pytest.param(
        "y,w,a\n1,1,é\n0,1,café\n1,1,\u3000café\n0,1,ééééé\n1,1,éééé \n".encode(),
        id="utf8-cells",
    ),
    pytest.param(
        "y,w,a\n\u3000# note,1\n1,1,5\n\u00a0 #\n0,1,6\n".encode(), id="unicode-indented-comment"
    ),
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_load_sample_byte_route_edge_cases(tmp_path, text):
    # Before Python 3.11 the csv module rejects a line that holds a NUL.
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    assert_matches_oracle(path)


def test_load_sample_byte_route_tells_cells_apart_by_their_last_byte(tmp_path):
    # Cells either side of each 8-byte word boundary, equal but for their
    # last byte; the file ends without a newline so the last cell runs to
    # its end.
    lengths = [7, 8, 9, 15, 16, 17, 40]
    rows = ["y,w," + ",".join(f"c{k}" for k in lengths)]
    for i in range(12):
        cells_i = ["x" * (k - 1) + "ab"[(i >> k % 3) & 1] for k in lengths]
        rows.append(f"{i % 2},1," + ",".join(cells_i))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows))
    expected = assert_matches_oracle(path)
    for k in lengths:
        assert len(set(cells(expected.records[f"c{k}"]))) == 2


def test_load_sample_byte_route_keys_cells_either_side_of_8_bytes(tmp_path, monkeypatch):
    # A cell under 8 bytes is keyed by its bytes and length, a longer one by
    # a hash: cells of 6 to 10 bytes that differ only in a trailing NUL (read
    # as text by the csv module from Python 3.11) or in their last byte stay
    # apart, in every column.  Long cells that differ in
    # a middle byte get keys of their own, so nothing is regrouped.
    nul = sys.version_info >= (3, 11)
    stems = [b"abcdef", b"abcdefg", b"abcdefgh", b"abcdefghi"]
    variants = [cell for stem in stems for cell in (stem, stem[:-1] + b"z")]
    for c in (b"x", b"y"):
        variants += [b"m" * 10 + c + b"m" * 13, b"m" * 20 + c + b"m" * 19]
    if nul:
        variants += [stem + b"\0" for stem in stems] + [b"\0" * 7, b"\0" * 8, b"\0" * 9]
    rows = [b"y,w,a,b"]
    for i in range(3 * len(variants)):
        a = variants[i % len(variants)]
        b = variants[(7 * i + 3) % len(variants)]
        rows.append(b"%d,1,%s,%s" % (i % 2, a, b))
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    monkeypatch.setattr(data_io, "_exact_groups", None)
    expected = assert_matches_oracle(path)
    for name in ("a", "b"):
        assert len(set(cells(expected.records[name]))) == len(variants)


def assert_groups_a_text_across_row_blocks(tmp_path):
    """One text, short or long, in every row block and chunk, and in cells
    of other texts between, is one value in first-occurrence order."""
    n = 2 * data_io._BYTE_BLOCK_ROWS + 5
    rows = ["y,w,short,long,mixed"]
    for i in range(n):
        mixed = ("7", "seventeen-bytes-x", "")[i % 3] if i % 1000 else f"other-{i}"
        rows.append(f"{i % 2},{1 + i % 3 / 4},7,seventeen-bytes-x,{mixed}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    expected = assert_matches_oracle(path)
    sample = load_sample(str(path))
    assert sample.records["short"].values == ["7"]
    assert sample.records["long"].values == ["seventeen-bytes-x"]
    assert sample.records["mixed"].values[:4] == ["other-0", "seventeen-bytes-x", None, "7"]
    assert (sample.records["long"].inverse == 0).all()
    assert len(expected.records["mixed"].values) == 3 + len(range(0, n, 1000))


def test_load_sample_byte_route_groups_a_text_across_row_blocks(tmp_path):
    # Commas are found block by block, and cells grouped chunk by chunk.
    assert_groups_a_text_across_row_blocks(tmp_path)


def assert_regroups_exactly_when_keys_collide(tmp_path, monkeypatch):
    """With the hash zeroed, long cells that differ are told apart exactly."""
    # Cells that differ only in trailing NULs have equal words and differ in
    # length alone; the csv module reads NUL as text from Python 3.11.
    nul = b"\0" if sys.version_info >= (3, 11) else b""
    # Cells of one length that differ only in their last byte (e), only in
    # a middle byte (f) or only in their first byte (g).
    text = (
        b"y,w,a,b,c,d,e,f,g\n"
        + b"".join(
            b"%d,%s,%s,%s,%s,%s,%s,%s,%s\n"
            % (
                i % 2,
                b"1." + b"0" * (i % 3),
                b"x" * (i % 11),
                b" 5"[: i % 3],
                b"q" * 17 + b"%d" % (i % 4),
                b"7" + nul * (i % 3),
                b"e" * 10 + b"%d" % (i % 3),
                b"f" * 10 + b"%d" % (i % 5) + b"f" * 13,
                b"%d" % (i % 3) + b"g" * 9,
            )
            for i in range(40)
        )
    )
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    expected = load_sample(str(path))
    regroups = []
    exact_groups = data_io._exact_groups
    monkeypatch.setattr(data_io, "_exact_groups", lambda *a: regroups.append(1) or exact_groups(*a))
    monkeypatch.setattr(data_io, "_KEY_MIX", (np.uint64(0), np.uint64(0)))
    sample = load_sample(str(path))
    assert regroups
    assert_same_sample(sample, load_sample_rows(str(path)))
    for name, column in expected.records.items():
        assert sample.records[name].values == column.values
        assert sample.records[name].inverse.tolist() == column.inverse.tolist()


def test_load_sample_byte_route_regroups_exactly_when_keys_collide(tmp_path, monkeypatch):
    assert_regroups_exactly_when_keys_collide(tmp_path, monkeypatch)


def quoted_break_across_blocks(block_rows):
    """A file whose last row in the first row block holds a quoted line break."""
    rows = [f"{i % 2},1,{i % 3}" for i in range(block_rows + 2)]
    rows[block_rows - 1] = '1,1,"a\nb, c"'
    return "y,w,a\n" + "\n".join(rows) + "\n"


# Records that the csv module reads: a line that holds a quote starts one,
# and a quoted field may take in the lines after it.
QUOTED_CASES = {
    "quoted-header": '"y","w",a\n1,1,5\n0,1,"5"\n',
    "break-across-blocks": quoted_break_across_blocks,
    "comma-in-w": 'y,w,a\n1,1,"x,y"\n0,"1,5",z\n',
    "comma-in-cell": 'y,w,a,b\n1,1,"x,y",z\n0,1,"x,y","z,"\n1,1,x,"y"\n',
    "comment-takes-next-line": 'y,w,a\n# note,"1\n1,1,5"\n0,1,6\n',
    "field-over-limit-quoted": 'y,w,a\n1,1,5\n0,1,"ab\n' + "x" * (LIMIT - 2) + '"\n',
    "field-at-limit-quoted": 'y,w,a\n1,1,"' + "x" * LIMIT + '"\n0,1,x\n',
    "unicode-padding-merges": 'y,w,fuel\n1,1,Gas\n0,1,"\u00a0Gas\u3000"\n1,1,\u00a0Gas\n0,1,é\n',
    "lone-cr": 'y,w,a\r1,1,"x\ry"\r0,1,5\r\n1,1,"x\ry"',
    "unquoted-quote": 'y,w,a\n1,1,x"y\n0,1,"x"y\n1,1,"x\n',
}


@BLOCK_ROWS
@pytest.mark.parametrize("case", list(QUOTED_CASES))
def test_load_sample_reads_quoted_records_as_the_csv_module_does(
    tmp_path, monkeypatch, case, block_rows
):
    monkeypatch.setattr(data_io, "_BYTE_BLOCK_ROWS", block_rows)
    text = QUOTED_CASES[case]
    if callable(text):
        text = text(block_rows)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_matches_oracle(path)
    if case == "unicode-padding-merges":
        assert load_sample(str(path)).records["fuel"].values == ["Gas", "é"]


def noisy_text(rng):
    """A short data file with one to three tokens put in at random places.

    The tokens are quotes, line breaks, commas, comment marks and Unicode
    whitespace, and from Python 3.11 a NUL.
    """
    tokens = ['"', '""', ",", "\n", "\r\n", "\r", "#", " ", "é", "\u00a0", "\u3000"]
    if sys.version_info >= (3, 11):
        tokens.append("\0")
    rows = ["y,w,a"] + [
        f"{rng.integers(2)},1," + "ab" * int(rng.integers(5)) for _ in range(rng.integers(1, 6))
    ]
    text = "\n".join(rows) + "\n"
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(len(text) + 1))
        text = text[:at] + tokens[rng.integers(len(tokens))] + text[at:]
    return text


@BLOCK_ROWS
@pytest.mark.parametrize("limit", [LIMIT, 6], ids=["default-limit", "limit-6"])
def test_load_sample_matches_oracle_on_noisy_texts(tmp_path, monkeypatch, block_rows, limit):
    monkeypatch.setattr(data_io, "_BYTE_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(20261019)
    path = tmp_path / "data.csv"
    outcomes = set()
    old = csv.field_size_limit(limit)
    try:
        for _ in range(300):
            text = noisy_text(rng)
            path.write_bytes(text.encode("utf-8"))
            expected = assert_matches_oracle(path)
            outcomes.add(type(expected))
    finally:
        csv.field_size_limit(old)
    assert outcomes == {str, Sample}  # both loads and faults were compared


# Chunks of one row, where each group is made when the chunks merge, and
# of three rows; with row blocks of two, a chunk holds less than a block,
# or a block and part of another.
CHUNK_ROWS = pytest.mark.parametrize("chunk_rows", [1, 3], ids=["chunks-of-1", "chunks-of-3"])


@CHUNK_ROWS
def test_load_sample_in_small_chunks_matches_the_oracle(tmp_path, monkeypatch, chunk_rows):
    # The oracle, edge-case, quoted-record and noisy files.
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(data_io, "_BYTE_BLOCK_ROWS", 2)
    texts = [MESSY_TEXT, PLAIN_TEXT, "y,w,age,fuel,note\n"]
    texts += [text(2) if callable(text) else text for text in QUOTED_CASES.values()]
    rng = np.random.default_rng(20261020)
    texts += [noisy_text(rng) for _ in range(50)]
    path = tmp_path / "data.csv"
    for text in [text.encode("utf-8") for text in texts] + [case.values[0] for case in EDGE_CASES]:
        path.write_bytes(text)
        assert_matches_oracle(path)


@CHUNK_ROWS
def test_load_sample_in_small_chunks_groups_a_text_across_row_blocks(
    tmp_path, monkeypatch, chunk_rows
):
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(data_io, "_BYTE_BLOCK_ROWS", 4)
    assert_groups_a_text_across_row_blocks(tmp_path)


@CHUNK_ROWS
def test_load_sample_in_small_chunks_regroups_exactly_when_keys_collide(
    tmp_path, monkeypatch, chunk_rows
):
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", chunk_rows)
    assert_regroups_exactly_when_keys_collide(tmp_path, monkeypatch)


def test_load_sample_regroups_keys_that_collide_across_chunks(tmp_path, monkeypatch):
    # With the hash zeroed every long cell has one key.  Each chunk of two
    # rows holds one text per column, so only the merge of the chunks'
    # first cells finds the texts that differ: of one length in a, of two
    # in b.
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", 2)
    a, b = ["aaaaaaaaaa", "aaaaaaaaab"], ["bbbbbbbbbb", "bbbbbbbbbbbb"]
    rows = ["y,w,a,b"] + [f"{i % 2},1,{a[i // 2 % 2]},{b[i // 2 % 2]}" for i in range(5)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    regroups = []
    exact_groups = data_io._exact_groups
    monkeypatch.setattr(
        data_io, "_exact_groups", lambda key, *a: regroups.append(len(key)) or exact_groups(key, *a)
    )
    monkeypatch.setattr(data_io, "_KEY_MIX", (np.uint64(0), np.uint64(0)))
    sample = load_sample(str(path))
    # One regrouping in each of a and b, of the first cells of its 3 chunks.
    assert regroups == [3, 3]
    assert_same_sample(sample, load_sample_rows(str(path)))
    for name, texts in (("a", a), ("b", b)):
        assert sample.records[name].values == texts
        assert sample.records[name].inverse.tolist() == [0, 0, 1, 1, 0]


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,1,5", "row 8 has 3 fields, expected 4"),
        ("1,1,5," + "x" * (LIMIT + 1), f"row 8: field larger than field limit ({LIMIT})"),
    ],
    ids=["ragged", "field-over-limit"],
)
def test_load_sample_reports_a_fault_in_a_later_chunk(tmp_path, monkeypatch, row, message):
    # Row 8 is in the third chunk of three rows: the message and the row it
    # names are the ones a read in one chunk gives.
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", 3)
    rows = [f"{i % 2},1,{i % 4},x{i}" for i in range(10)]
    rows[7] = row
    path = tmp_path / "data.csv"
    path.write_text("y,w,a,b\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as expected:
        load_sample_rows(str(path))
    with pytest.raises(DataError) as raised:
        load_sample(str(path))
    assert str(raised.value) == str(expected.value) == f"{path}: {message}"


def test_atomic_write_text(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first")
    assert path.read_text() == "first"
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    # No temp droppings left behind.
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_atomic_write_text_gives_the_mode_open_would(tmp_path, umask):
    # A new file gets 0o666 less the umask; a replaced file keeps its mode.
    old = os.umask(umask)
    try:
        path = tmp_path / "new.txt"
        atomic_write_text(str(path), "first")
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
        os.chmod(path, 0o640)
        atomic_write_text(str(path), "second")
        assert os.stat(path).st_mode & 0o777 == 0o640
        assert path.read_text() == "second"
    finally:
        os.umask(old)


def test_atomic_write_text_writes_through_a_symbolic_link(tmp_path):
    # As a plain write would: the link stays and its target gets the text,
    # keeping its mode; a dangling link's target is created.
    (tmp_path / "models").mkdir()
    target = tmp_path / "models" / "v3.txt"
    target.write_text("old")
    os.chmod(target, 0o640)
    link = tmp_path / "cur.txt"
    link.symlink_to("models/v3.txt")
    atomic_write_text(str(link), "new")
    assert link.is_symlink() and os.readlink(link) == "models/v3.txt"
    assert target.read_text() == "new" and os.stat(target).st_mode & 0o777 == 0o640
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to("models/v4.txt")
    atomic_write_text(str(dangling), "fresh")
    assert dangling.is_symlink() and (tmp_path / "models" / "v4.txt").read_text() == "fresh"
    assert sorted(os.listdir(tmp_path / "models")) == ["v3.txt", "v4.txt"]
    # A link into a missing directory fails as a plain write would, naming the link.
    (tmp_path / "nowhere.txt").symlink_to("nowhere/m.txt")
    with pytest.raises(FileNotFoundError, match=f"^{tmp_path / 'nowhere.txt'}: "):
        atomic_write_text(str(tmp_path / "nowhere.txt"), "lost")
    assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize(
    "fault",
    [ValueError("a bad piece"), OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))],
    ids=["ValueError", "OSError"],
)
def test_atomic_write_text_keeps_the_old_file_when_a_piece_fails(tmp_path, fault):
    # A fault partway through the pieces reaches the caller, leaves the old
    # file byte-unchanged, creates no new one and removes the temp file; an
    # OSError names the path written, not the temp file.
    def pieces():
        yield "new text\n"
        raise fault

    old = tmp_path / "old.txt"
    old.write_bytes(b"old text\n")
    for path in (old, tmp_path / "new.txt"):
        with pytest.raises(type(fault)) as raised:
            atomic_write_text(str(path), pieces())
        if isinstance(fault, OSError):
            assert str(raised.value) == f"{path}: {os.strerror(errno.ENOSPC)}"
        else:
            assert raised.value is fault
    assert old.read_bytes() == b"old text\n"
    assert os.listdir(tmp_path) == ["old.txt"]


def test_atomic_write_text_raises_the_piece_fault_when_the_temp_file_stays(tmp_path, monkeypatch):
    # Removing the temp file fails too: that OSError is dropped, the caller
    # gets the fault that stopped the write, and the old file is unchanged.
    fault = ValueError("a bad piece")

    def pieces():
        yield "new text\n"
        raise fault

    def unlink(path):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    old = tmp_path / "old.txt"
    old.write_bytes(b"old text\n")
    monkeypatch.setattr(data_io.os, "unlink", unlink)
    with pytest.raises(ValueError) as raised:
        atomic_write_text(str(old), pieces())
    assert raised.value is fault
    assert old.read_bytes() == b"old text\n"


# ---------------------------------------------------------------------------
# Synthetic generation


def test_synthetic_config_validation(small_spec):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=1, n_good=5, n_bad=5, spec=small_spec, good_probs=good, bad_probs=bad
    )
    assert cfg.validate() is cfg
    with pytest.raises(DataError, match="at least 1"):
        SyntheticConfig(1, 0, 5, small_spec, good, bad).validate()
    missing = {"age": good["age"]}
    with pytest.raises(DataError, match="lacks characteristic"):
        SyntheticConfig(1, 5, 5, small_spec, missing, bad).validate()
    unknown = dict(bad, typo=np.ones(1))
    with pytest.raises(DataError, match="bad_probs has unknown characteristic 'typo'"):
        SyntheticConfig(1, 5, 5, small_spec, good, unknown).validate()
    wrong = dict(good, age=np.array([1.0]))
    with pytest.raises(DataError, match="must have 5 entries"):
        SyntheticConfig(1, 5, 5, small_spec, wrong, bad).validate()
    unnorm = dict(good, age=np.array([0.5, 0.1, 0.1, 0.1, 0.1]))
    with pytest.raises(DataError, match="must sum to 1"):
        SyntheticConfig(1, 5, 5, small_spec, unnorm, bad).validate()


def test_synthetic_config_refuses_a_negative_seed(tmp_path, small_spec_text, capsys):
    # A negative seed is refused by name, not by the generator's own error.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    out = tmp_path / "x.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out), "--seed", "-1",
        "--n-good", "5", "--n-bad", "5",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err == "scorecraft gen: error: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


def test_gen_finds_each_representative_once(tmp_path, small_spec, small_spec_text, monkeypatch):
    # The default probabilities, the config's check and the draw all read
    # each characteristic's representatives; they are found once.
    calls = []
    binned = data_io.bin_value
    monkeypatch.setattr(data_io, "bin_value", lambda ch, raw: calls.append(ch.name) or binned(ch, raw))
    representatives.cache_clear()
    for ch in small_spec.characteristics:
        representatives(ch)
    once = sorted(calls)
    representatives.cache_clear()
    calls.clear()
    spec_path = write_small_spec(tmp_path, small_spec_text)
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv"),
        "--n-good", "5", "--n-bad", "5",
    ]) == 0
    assert sorted(calls) == once and set(once) == {"age", "fuel"}
    with pytest.raises(TypeError):
        representatives(small_spec.characteristics[0])[0] = "changed"


def test_gen_synthetic_deterministic(tmp_path, small_spec):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=11, n_good=50, n_bad=40, spec=small_spec, good_probs=good, bad_probs=bad
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    s1 = gen_synthetic(cfg, str(p1))
    s2 = gen_synthetic(cfg, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(s1.y, s2.y)
    assert all(
        cells(s1.records[k]) == cells(s2.records[k]) for k in s1.records
    )
    other = SyntheticConfig(
        seed=12, n_good=50, n_bad=40, spec=small_spec, good_probs=good, bad_probs=bad
    )
    gen_synthetic(other, str(p2))
    assert p1.read_bytes() != p2.read_bytes()


def test_gen_synthetic_round_trips_and_bins(tmp_path, small_spec):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=3, n_good=30, n_bad=20, spec=small_spec, good_probs=good, bad_probs=bad
    )
    path = tmp_path / "sample.csv"
    generated = gen_synthetic(cfg, str(path))
    loaded = load_sample(str(path))
    assert loaded.n == 50
    assert np.array_equal(loaded.y, generated.y)
    assert (loaded.y[:30] == 1.0).all() and (loaded.y[30:] == 0.0).all()
    assert (loaded.w == 1.0).all()
    # The written raw values bin identically to the in-memory sample.
    dm_mem = build_design_matrix(small_spec, generated)
    dm_file = build_design_matrix(small_spec, loaded)
    assert np.array_equal(dm_mem.x, dm_file.x)


@pytest.mark.parametrize("which", ["small", "bundled"])
def test_gen_synthetic_holds_the_cells_its_file_holds(tmp_path, small_spec, fixture_spec, which):
    # The in-memory sample is the file as load_sample reads it: the same
    # y and w, and the same text (None where empty) in every cell.
    if which == "small":
        spec, (good, bad) = small_spec, probs_for_small_spec()
    else:
        spec, (good, bad) = fixture_spec, _default_probs(fixture_spec)
    cfg = SyntheticConfig(
        seed=13, n_good=700, n_bad=300, spec=spec, good_probs=good, bad_probs=bad
    )
    path = tmp_path / "sample.csv"
    generated = gen_synthetic(cfg, str(path))
    loaded = load_sample(str(path))
    assert generated.y.tobytes() == loaded.y.tobytes()
    assert generated.w.tobytes() == loaded.w.tobytes()
    names = [ch.name for ch in spec.characteristics]
    assert list(generated.records) == list(loaded.records) == names
    for name, column in generated.records.items():
        assert all(v is None or isinstance(v, str) for v in column.values), name
        assert cells(column) == cells(loaded.records[name]), name


def test_gen_synthetic_frequencies_track_probabilities(small_spec):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=5, n_good=4000, n_bad=4000, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    sample = gen_synthetic(cfg)
    dm = build_design_matrix(small_spec, sample)
    goods = dm.x[:4000]
    freq = goods[:, 1:6].sum(axis=0) / 4000.0
    assert np.abs(freq - good["age"]).max() < 0.03
    bads = dm.x[4000:]
    freq = bads[:, 6:9].sum(axis=0) / 4000.0
    assert np.abs(freq - bad["fuel"]).max() < 0.03


def test_gen_small_spec_bytes_are_pinned(tmp_path, small_spec_text):
    # Representatives that still bin right are kept, so these bytes hold.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    out = tmp_path / "small.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out),
        "--seed", "7", "--n-good", "500", "--n-bad", "300",
    ]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8a6f4c8a291e1647915721833c4c1c62ce4a9ce191ed76200d7d40cb2d65bbb6"


def test_gen_on_the_bundled_spec_round_trips(tmp_path, fixture_spec, fixture_spec_text, capsys):
    spec_path = tmp_path / "spec.csv"
    spec_path.write_text(fixture_spec_text)
    out = tmp_path / "big.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out),
        "--seed", "5", "--n-good", "2000", "--n-bad", "1000",
    ]) == 0
    loaded = load_sample(str(out))
    design = build_design_matrix(fixture_spec, loaded)
    # Default probabilities are positive on every informative attribute
    # that a value reaches, and the file hits each of them.
    wanted = {
        att.att_index
        for ch in fixture_spec.characteristics
        for k in representatives(ch)
        if not isinstance((att := ch.attributes[k]).bin, NoInformationBin)
    }
    assert len(wanted) == fixture_spec.q - 1 - 25 - 10
    assert wanted <= set(np.unique(attribute_columns(design)).tolist())
    for ch in fixture_spec.characteristics:
        for k, raw in representatives(ch).items():
            assert bin_value(ch, raw) == ch.attributes[k].att_index
    # An explicit positive probability on an unreachable attribute fails
    # with one line naming it.
    payload = {}
    for ch in fixture_spec.characteristics:
        p = [float(att is ch.noinfo) for att in ch.attributes]
        if ch.name == "char950":
            # 125 is reached; 126 lies inside 125's interval.
            p = [0.5, 0.5] + [0.0] * (len(p) - 2)
        payload[ch.name] = {"good": p, "bad": p}
    probs_path = tmp_path / "probs.json"
    probs_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out), "--probs", str(probs_path),
        "--n-good", "5", "--n-bad", "5",
    ]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"scorecraft gen: error: {probs_path}: ")
    assert "'char950' attribute 126 ('3300-<4901') has a positive probability" in err


def test_implied_true_beta(small_spec):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=1, n_good=300, n_bad=100, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    beta = implied_true_beta(cfg)
    assert beta[0] == pytest.approx(math.log(3.0))
    assert beta[2] == pytest.approx(math.log(0.4 / 0.1))
    assert beta[7] == pytest.approx(math.log(0.4 / 0.5))
    # Zero in both classes implies weight 0; zero in one class has no finite weight.
    gz = {"age": np.array([0.0, 0.45, 0.3, 0.2, 0.05]), "fuel": good["fuel"]}
    bz = {"age": np.array([0.0, 0.15, 0.2, 0.6, 0.05]), "fuel": bad["fuel"]}
    cfg = SyntheticConfig(1, 10, 10, small_spec, gz, bz)
    assert implied_true_beta(cfg)[1] == 0.0
    # Zero in the bad class only (age att 2) has no finite log ratio.
    one_sided = {"age": np.array([0.0, 0.0, 0.5, 0.45, 0.05]), "fuel": bad["fuel"]}
    cfg = SyntheticConfig(1, 10, 10, small_spec, gz, one_sided)
    with pytest.raises(DataError, match="only one class"):
        implied_true_beta(cfg)


# ---------------------------------------------------------------------------
# Model persistence


def fitted_model(small_spec, tmp_path):
    good, bad = probs_for_small_spec()
    cfg = SyntheticConfig(
        seed=21, n_good=300, n_bad=300, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    data_path = tmp_path / "train.csv"
    sample = gen_synthetic(cfg, str(data_path))
    dm = build_design_matrix(small_spec, sample)
    cs = compile_constraints(small_spec)
    pen = PenaltySpec(lam=0.5)
    result = fit(dm, sample.y, sample.w, pen, cs)
    assert result.status == "converged"
    return result, pen, sample, data_path


def test_model_save_load_round_trip(tmp_path, small_spec, small_spec_text):
    result, pen, _, _ = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    loaded = load_model(str(path))
    # Every field of the fit's record round-trips bitwise (repr is exact),
    # the objective, which the file does not hold, included.
    for field in dataclasses.fields(result):
        a, b = getattr(loaded.fit, field.name), getattr(result, field.name)
        assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b, field.name
    assert loaded.lam == pen.lam
    assert loaded.spec_text == small_spec_text
    assert loaded.spec == small_spec


def test_model_file_corruption_checks(tmp_path, small_spec, small_spec_text):
    result, pen, _, _ = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))

    payload = json.loads(path.read_text())
    payload["spec_text"] = payload["spec_text"].replace("age", "wage")
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="stored hash"):
        load_model(str(path))

    # Rebuild a clean copy, then bump the version.
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="unsupported model version"):
        load_model(str(path))

    # A clean copy whose q alone is edited.
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload["q"] += 1
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"^{path}: beta length disagrees with q$"):
        load_model(str(path))

    path.write_text('{"format": "something-else"}')
    with pytest.raises(DataError, match="not a scorecraft-model"):
        load_model(str(path))
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(str(path))


def test_model_without_spec_text(tmp_path, small_spec, small_spec_text):
    # A model file must carry its spec: a null spec_text fails at load.
    result, pen, _, _ = fitted_model(small_spec, tmp_path)
    path = tmp_path / "bare.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload["spec_text"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"^{path}: key 'spec_text' has a value of the wrong type"):
        load_model(str(path))


def test_score_csv_round_trip(tmp_path):
    path = tmp_path / "score.csv"
    score = np.array([1.5, -2.25, 1e-17, 3.0])
    path.write_text("score\n" + "".join(f"{v!r}\n" for v in score.tolist()))
    assert np.array_equal(load_score_csv(str(path)), score)
    path.write_text("value\n1.0\n")
    with pytest.raises(DataError, match="single `score` column"):
        load_score_csv(str(path))
    path.write_text("score\nabc\n")
    with pytest.raises(DataError, match="bad score"):
        load_score_csv(str(path))
    path.write_text("score\n1\n" + "1" * (LIMIT + 1) + "\n")
    with pytest.raises(DataError, match=f"row 2: field larger than field limit \\({LIMIT}\\)"):
        load_score_csv(str(path))
    # Score files are read as data files are: comment and blank lines are
    # skipped, cells unquoted and stripped, and each row is one finite number.
    path.write_text(' score \n# a comment\n"1.5"\n\n -2.25 ,\n')
    with pytest.raises(DataError, match="row 2 has 2 fields, expected 1"):
        load_score_csv(str(path))
    path.write_text(' score \n# a comment\n"1.5"\n\n -2.25 \n1e-17\n3\n')
    assert np.array_equal(load_score_csv(str(path)), score)
    for cell, text in (("inf", "inf"), ("-nan", "-nan"), ('""', "")):
        path.write_text(f"score\n1\n{cell}\n2\n")
        with pytest.raises(DataError, match=f"^{path}: row 2: bad score '{text}'$"):
            load_score_csv(str(path))
    path.write_text("")
    with pytest.raises(DataError, match="single `score` column"):
        load_score_csv(str(path))


# ---------------------------------------------------------------------------
# Reports


def test_write_report_text_and_csv_twin(tmp_path, small_spec):
    rng = np.random.default_rng(41)
    q = small_spec.q
    beta = rng.standard_normal(q)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    score = np.array([2.0, 1.0, 3.0, 0.0])
    metrics = score_metrics(score_cdfs(score, y, np.ones(4)))
    path = tmp_path / "report.txt"
    name = "alpha_model_long"
    write_report(small_spec, name, beta, metrics, str(path))

    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].split() == ["char", "att", "label", "constraint", name]
    assert set(lines[1]) == {"-"}
    # The weight column is as wide as the model's name, so every row lines up.
    assert {len(line) for line in lines[: q + 1]} == {len(lines[0])}
    assert "intercept:" in text
    assert f"{name}: {beta[0]:.4f}".replace("-0.0000", "0.0000") in text
    assert lines[-2:] == [
        "metrics:",
        f"  {name}: divergence {metrics.divergence:.4f}  minus_ll {metrics.minus_ll:.4f}  "
        f"ks {metrics.ks:.4f}  roc_area {metrics.roc_area:.4f}",
    ]
    # Every attribute appears with its tag.
    assert "age" in text and "Gas or Diesel" in text and "> 3" in text

    # The CSV twin has the intercept as its att-0 row, then one row per
    # attribute in index order, with the model's weights at 4 dp.
    with open(str(path) + ".csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["char", "att", "label", "constraint", name]
    assert [int(row[1]) for row in rows[1:]] == list(range(q))
    column = np.array([float(row[4]) for row in rows[1:]])
    assert np.abs(column - beta).max() <= 5e-5  # printed at 4 dp


def test_write_report_validation(tmp_path, small_spec):
    path = str(tmp_path / "report.txt")
    from scorecraft.model import SpecError

    metrics = score_metrics(
        score_cdfs(np.array([2.0, 1.0, 3.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.0]), np.ones(4))
    )
    with pytest.raises(SpecError, match="coefficients"):
        write_report(small_spec, "bad", np.zeros(3), metrics, path)


# ---------------------------------------------------------------------------
# CLI


def write_small_spec(tmp_path, small_spec_text):
    spec_path = tmp_path / "spec.csv"
    spec_path.write_text(small_spec_text)
    return spec_path


def write_probs(tmp_path):
    good, bad = probs_for_small_spec()
    payload = {
        name: {"good": list(good[name]), "bad": list(bad[name])} for name in good
    }
    path = tmp_path / "probs.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "text, key",
    [
        (json.dumps([1, 2]), None),
        (json.dumps({"age": [1]}), "age"),
        (json.dumps({"age": {"good": [0.5, "x"], "bad": [1]}}), "age"),
        (json.dumps({"age": {"good": [1], "bad": [True]}}), "age"),
        ('{"age": ', None),
    ],
    ids=["list", "name-to-list", "text-entry", "bool-entry", "not-json"],
)
def test_cli_gen_rejects_probs_of_the_wrong_shape(
    tmp_path, small_spec_text, capsys, text, key
):
    # One line naming the file, and the key where one is faulty; no data written.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = tmp_path / "probs.json"
    probs_path.write_text(text)
    out = tmp_path / "train.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out), "--probs", str(probs_path),
        "--n-good", "5", "--n-bad", "5",
    ]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"scorecraft gen: error: {probs_path}: ")
    assert (f"key {key!r}" in err) == (key is not None)
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({"age": [0.5, 0.5]}, "good_probs['age'] must have 5 entries"),
        ({"fuel": None}, "good_probs lacks characteristic 'fuel'"),
        ({"typo_char": [1.0]}, "good_probs has unknown characteristic 'typo_char'"),
        ({"fuel": [0.5, 0.4, 0.2]}, "good_probs['fuel'] must sum to 1"),
        ({"fuel": [-0.5, 1.0, 0.5]}, "good_probs['fuel'] has invalid probabilities"),
    ],
    ids=["wrong-length", "missing-name", "unknown-name", "not-summing-to-1", "negative"],
)
def test_cli_gen_names_the_probs_file_in_content_errors(
    tmp_path, small_spec_text, capsys, payload, fault
):
    # A file of the right shape whose probabilities the spec refuses: one
    # line naming the file and the fault; no data written.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    good, _ = probs_for_small_spec()
    probs = {name: list(values) for name, values in good.items()}
    for name, values in payload.items():
        if values is None:
            del probs[name]
        else:
            probs[name] = values
    probs_path = tmp_path / "probs.json"
    probs_path.write_text(json.dumps({name: {"good": v, "bad": v} for name, v in probs.items()}))
    out = tmp_path / "train.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(out), "--probs", str(probs_path),
        "--n-good", "5", "--n-bad", "5",
    ]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"scorecraft gen: error: {probs_path}: {fault}")
    assert not out.exists()


def test_cli_end_to_end(tmp_path, small_spec, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = write_probs(tmp_path)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.txt"

    code = main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "7", "--n-good", "200", "--n-bad", "200",
        "--probs", str(probs_path),
    ])
    assert code == 0
    assert "wrote 400 rows" in capsys.readouterr().out

    code = main(["compile", "--spec", str(spec_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "equality rows: 3" in out
    assert "inequality rows: 3" in out
    assert "pattern" in out

    code = main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--lambda", "0.5", "--out", str(model_path), "--report", str(report_path),
        "--name", "demo",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out
    assert "iter " in out and "kkt:" in out
    assert model_path.exists()
    assert report_path.exists()
    with open(str(report_path) + ".csv", newline="") as handle:
        assert next(csv.reader(handle))[4:] == ["demo"]

    # The saved model evaluates and the metrics lines print at 4 dp.
    code = main(["eval", "--model", str(model_path), "--data", str(data_path)])
    assert code == 0
    out = capsys.readouterr().out
    for token in ("divergence", "minus_ll", "ks", "roc_area"):
        assert token in out

    # Compare the model against a saved score column of itself.
    model = load_model(str(model_path))
    sample = load_sample(str(data_path))
    theta = build_design_matrix(small_spec, sample).scores(model.fit.beta)
    score_path = tmp_path / "score.csv"
    score_path.write_text("score\n" + "".join(f"{v!r}\n" for v in theta.tolist()))
    code = main([
        "compare", "--data", str(data_path),
        "--model", f"fitted={model_path}", "--score", f"saved={score_path}",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "best divergence:" in out
    assert "fitted" in out and "saved" in out


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_cli_reads_a_spec_as_text_mode_reads_it(tmp_path, small_spec_text, capsys, newline):
    # \r\n and a lone \r are read as \n, so the model embeds the same spec
    # text whatever line breaks its file has.
    spec_path = tmp_path / "spec.csv"
    spec_path.write_bytes(small_spec_text.replace("\n", newline).encode())
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "7", "--n-good", "50", "--n-bad", "50", "--probs", str(write_probs(tmp_path)),
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--lambda", "0.5", "--out", str(model_path),
    ]) == 0
    assert json.loads(model_path.read_text())["spec_text"] == small_spec_text
    capsys.readouterr()


def test_cli_eval_dump_cdfs(tmp_path, small_spec, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = write_probs(tmp_path)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "9", "--n-good", "80", "--n-bad", "80",
        "--probs", str(probs_path),
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--lambda", "1.0", "--out", str(model_path),
    ]) == 0
    capsys.readouterr()
    dump_path = tmp_path / "cdfs.txt"
    assert main([
        "eval", "--model", str(model_path), "--data", str(data_path),
        "--dump-cdfs", str(dump_path),
    ]) == 0
    capsys.readouterr()
    model = load_model(str(model_path))
    sample = load_sample(str(data_path))
    theta = build_design_matrix(model.spec, sample).scores(model.fit.beta)
    text = dump_path.read_text()
    assert text == per_row_cdf_dump(score_cdfs(theta, sample.y, sample.w))
    lines = text.splitlines()
    assert lines[0] == "# score goods_cdf bads_cdf"
    assert len(lines) == 1 + len(np.unique(theta))
    # Rows are plain plot-ready numbers, one triple per distinct score.
    for line in lines[1:]:
        fields = [float(v) for v in line.split()]
        assert len(fields) == 3
    assert fields[1] == fields[2] == 1.0


@pytest.mark.parametrize("flag", ["eval --dump-cdfs", "fit --out", "fit --report"])
@pytest.mark.parametrize(
    "target, error",
    [("missing/out.txt", errno.ENOENT), ("adir", errno.EISDIR)],
)
def test_cli_output_errors_name_the_path(tmp_path, small_spec_text, capsys, flag, target, error):
    # A missing directory or a directory as the target is one line naming
    # the path the user gave, exit 1, and no temp file is left behind.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "9", "--n-good", "60", "--n-bad", "60",
        "--probs", str(write_probs(tmp_path)),
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data_path), "--out", str(model_path),
    ]) == 0
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / target)
    command, option = flag.split()
    inputs = (
        ["--model", str(model_path)] if command == "eval" else ["--spec", str(spec_path)]
    )
    capsys.readouterr()
    assert main([command, *inputs, "--data", str(data_path), option, path]) == 1
    err = capsys.readouterr().err
    assert err == f"scorecraft {command}: error: {path}: {os.strerror(error)}\n"
    assert not [p.name for p in tmp_path.rglob(".tmp-*")]


@pytest.mark.parametrize(
    "command, option, target",
    [
        ("fit", "--out", "missing/model.json"),
        ("fit", "--report", "missing/report.txt"),
        ("fit", "--report", "twin"),
        ("eval", "--dump-cdfs", "missing/cdfs.txt"),
    ],
)
def test_cli_checks_outputs_before_reading_inputs(tmp_path, capsys, command, option, target):
    # The inputs do not exist, so any work before the check would fail on
    # them first; a --report whose csv twin is a directory fails as well.
    (tmp_path / "twin.csv").mkdir()
    path = str(tmp_path / target)
    named = path + ".csv" if target == "twin" else path
    error = errno.EISDIR if target == "twin" else errno.ENOENT
    inputs = ["--model" if command == "eval" else "--spec", str(tmp_path / "no-such-input")]
    assert main([command, *inputs, "--data", str(tmp_path / "no-data.csv"), option, path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"scorecraft {command}: error: {named}: {os.strerror(error)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, path, what, other",
    [
        ("fit --report r.txt --out r.txt.csv", "r.txt.csv", "the --report CSV twin", "--out"),
        ("fit --out r.txt --report r.txt", "r.txt", "--report", "--out"),
        ("fit --init-model model.json --report model.json", "model.json", "--report",
         "--init-model"),
        ("fit --out train.csv", "train.csv", "--out", "--data"),
        ("fit --report train", "train.csv", "the --report CSV twin", "--data"),
        ("fit --out spec.csv", "spec.csv", "--out", "--spec"),
        ("fit --out sub/../train.csv", "sub/../train.csv", "--out", "--data"),
        ("fit --out link.csv", "link.csv", "--out", "--data"),
        ("fit --out hard.csv", "hard.csv", "--out", "--data"),
        ("eval --dump-cdfs train.csv", "train.csv", "--dump-cdfs", "--data"),
        ("eval --dump-cdfs model.json", "model.json", "--dump-cdfs", "--model"),
        ("gen --out spec.csv", "spec.csv", "--out", "--spec"),
        ("gen --out probs.json --probs probs.json", "probs.json", "--out", "--probs"),
    ],
)
def test_cli_refuses_an_output_that_names_another_file(
    tmp_path, small_spec_text, capsys, monkeypatch, args, path, what, other
):
    # An output may not replace another output of the command or a file it
    # reads, under any spelling: one line naming the path, nothing written.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = write_probs(tmp_path)
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(tmp_path / "train.csv"),
        "--seed", "9", "--n-good", "60", "--n-bad", "60", "--probs", str(probs_path),
    ]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--spec", "spec.csv", "--data", "train.csv", "--out", "model.json"]) == 0
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to("train.csv")
    os.link("train.csv", "hard.csv")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    command, *rest = args.split()
    inputs = {
        "fit": ["--spec", "spec.csv", "--data", "train.csv"],
        "eval": ["--model", "model.json", "--data", "train.csv"],
        "gen": ["--spec", "spec.csv", "--n-good", "5", "--n-bad", "5"],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, *rest]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"scorecraft {command}: error: {path}: {what} names the same file as {other}\n"
    )
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("target", ["models/v3.json", "models/new.json", "nowhere/m.json"])
def test_cli_writes_an_output_through_a_symbolic_link(
    tmp_path, small_spec_text, capsys, monkeypatch, target
):
    # `fit --out cur.json`, cur.json a link, writes the link's target and
    # keeps the link; a link into a missing directory is refused with one
    # line before any input is read.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "9", "--n-good", "60", "--n-bad", "60",
        "--probs", str(write_probs(tmp_path)),
    ]) == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "v3.json").write_text("old")
    (tmp_path / "cur.json").symlink_to(target)
    capsys.readouterr()
    if target.startswith("nowhere"):
        monkeypatch.setattr(data_io, "load_sample", lambda path: pytest.fail("read the data"))
    code = main(["fit", "--spec", "spec.csv", "--data", "train.csv", "--out", "cur.json"])
    captured = capsys.readouterr()
    assert (tmp_path / "cur.json").is_symlink() and os.readlink("cur.json") == target
    if target.startswith("nowhere"):
        assert code == 1 and captured.out == ""
        assert captured.err == f"scorecraft fit: error: cur.json: {os.strerror(errno.ENOENT)}\n"
        assert not (tmp_path / "nowhere").exists()
    else:
        assert code == 0
        assert load_model(target).fit.beta.shape == (9,)
        assert sorted(os.listdir("models")) == sorted({"v3.json", os.path.basename(target)})


@pytest.mark.parametrize("command", ["eval", "compare", "fit --init-model"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
def test_cli_refuses_a_model_with_a_non_finite_beta(
    tmp_path, small_spec, small_spec_text, capsys, command, value
):
    # `json` reads NaN and Infinity; a beta holding one fails at load with
    # one line naming the model file.
    result, pen, _, data_path = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload["beta"][3] = value
    path.write_text(json.dumps(payload))
    assert ("NaN" if math.isnan(value) else "Infinity") in path.read_text()
    spec_path = write_small_spec(tmp_path, small_spec_text)
    argv = {
        "eval": ["eval", "--model", str(path), "--data", str(data_path)],
        "compare": ["compare", "--data", str(data_path), "--model", f"m={path}"],
        "fit --init-model": [
            "fit", "--spec", str(spec_path), "--data", str(data_path), "--init-model", str(path),
        ],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"scorecraft {argv[0]}: error: {path}: beta holds a non-finite coefficient\n"
    )
    assert captured.out == ""


def per_row_cdf_dump(cdfs):
    """The --dump-cdfs text as one f-string per distinct score."""
    lines = ["# score goods_cdf bads_cdf"]
    for s, fg, fb in zip(cdfs.sorted_score, cdfs.goods_cdf, cdfs.bads_cdf):
        lines.append(f"{float(s)!r} {float(fg)!r} {float(fb)!r}")
    return "\n".join(lines) + "\n"


def test_cdf_dump_matches_a_line_per_record(monkeypatch):
    # Each value is formatted once per run of equal bits, in write blocks:
    # tied scores, -0.0 next to 0.0, fractional weights and more rows than
    # one block give the per-distinct-score text byte for byte, where the
    # run of -0.0 and 0.0 is the one score 0.0.
    from scorecraft import cli

    rng = np.random.default_rng(5)
    n = 2000
    score = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=n)
    score[rng.random(n) < 0.3] = rng.normal()  # one more tied value
    score[::7] = rng.normal(size=len(score[::7]))
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.uniform(0.1, 2.0, n)
    w[::11] = 0.0
    cdfs = score_cdfs(score, y, w)
    expected = per_row_cdf_dump(cdfs)
    assert "\n-0.0 " not in expected and "\n0.0 " in expected
    for rows in (cli._DUMP_ROWS, 1, 7, 333):
        monkeypatch.setattr(cli, "_DUMP_ROWS", rows)
        assert "".join(cli._cdf_table(cdfs)) == expected


def test_cli_fit_iteration_cap_exit_code(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = write_probs(tmp_path)
    data_path = tmp_path / "train.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "13", "--n-good", "150", "--n-bad", "150",
        "--probs", str(probs_path),
    ]) == 0
    code = main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--max-iters", "1",
    ])
    assert code == 2
    assert "status: max_iterations" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(1, 7))
def test_cli_fit_reports_pins_that_break_an_ordering_as_infeasible(
    tmp_path, small_spec_text, capsys, seed
):
    # Coefficients 3 and 4 are attributes 2 and 3; pinning them to 0 and 1
    # breaks attribute 2's "> 3".  At lambda 0 H is singular, and the
    # rows' own least-distance problem certifies what the model's may not.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", str(seed), "--n-good", "200", "--n-bad", "100",
    ]) == 0
    capsys.readouterr()
    code = main([
        "fit", "--spec", str(spec_path), "--data", str(data_path), "--out", str(model_path),
        "--inweight", "3=0", "--inweight", "4=1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("scorecraft fit: numerical failure: ") and err.count("\n") == 1
    assert "QP status infeasible" in err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "command, option, args",
    [
        ("gen", "--probs", ["--spec", "spec.csv", "--out", "data.csv", "--n-good", "5",
                            "--n-bad", "5"]),
        ("gen", "--out", ["--spec", "spec.csv", "--n-good", "5", "--n-bad", "5"]),
        ("fit", "--init-model", ["--spec", "spec.csv", "--data", "data.csv"]),
        ("fit", "--out", ["--spec", "spec.csv", "--data", "data.csv"]),
        ("fit", "--report", ["--spec", "spec.csv", "--data", "data.csv"]),
        ("eval", "--dump-cdfs", ["--model", "model.json", "--data", "data.csv"]),
        ("compile", "--data", ["--spec", "spec.csv", "--centering", "weighted"]),
    ],
)
def test_cli_refuses_an_empty_path(tmp_path, capsys, monkeypatch, command, option, args):
    # An empty path is no absent option: it is refused by name before any
    # input is read (none of the inputs exists), and nothing is written.
    monkeypatch.chdir(tmp_path)
    assert main([command, *args, option, ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"scorecraft {command}: error: {option}: empty path\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_cli_fit_init_model_warm_start(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = write_probs(tmp_path)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "17", "--n-good", "150", "--n-bad", "150",
        "--probs", str(probs_path),
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--out", str(model_path),
    ]) == 0
    capsys.readouterr()
    code = main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--init-model", str(model_path), "--out", str(model_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: converged" in out
    # Warm started at the optimum: one verification step suffices.
    assert out.count("iter ") <= 2
    # --out may replace its own --init-model, read before the fit.
    assert f"wrote model to {model_path}" in out


def test_cli_compile_inweight_and_centering(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    code = main([
        "compile", "--spec", str(spec_path), "--inweight", "1=-1.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "equality rows: 4" in out
    assert "inweight" in out and "intercept in-weighted to -1.5" in out
    # Weighted centering needs data.
    code = main(["compile", "--spec", str(spec_path), "--centering", "weighted"])
    assert code == 1
    assert "needs --data" in capsys.readouterr().err

    data_path = tmp_path / "data.csv"
    data_path.write_text(DATA_TEXT)
    code = main([
        "compile", "--spec", str(spec_path), "--data", str(data_path),
        "--centering", "weighted",
    ])
    assert code == 0
    assert "centering" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--inweight", "1=inf"], "--inweight needs COEF=VALUE, an integer and a finite number"),
        (["--inweight", "1=nan"], "--inweight needs COEF=VALUE, an integer and a finite number"),
        (["--lambda", "inf"], "penalty weight must be finite"),
        (["--lambda", "nan"], "penalty weight must be finite"),
        (["--tol", "inf"], "tol must be finite"),
        (["--tol", "nan"], "tol must be finite"),
    ],
    ids=["inweight-inf", "inweight-nan", "lambda-inf", "lambda-nan", "tol-inf", "tol-nan"],
)
def test_cli_fit_rejects_non_finite_numbers(tmp_path, small_spec_text, capsys, flags, message):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "data.csv"
    data_path.write_text(DATA_TEXT)
    code = main(["fit", "--spec", str(spec_path), "--data", str(data_path)] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("data", ["data.csv", "missing.csv"])
def test_cli_fit_refuses_a_lambda_whose_double_overflows(tmp_path, small_spec_text, capfd, data):
    # The penalty's Hessian holds 2 lambda / (q - 1): a lambda whose double is
    # not finite is refused with one line before any input is read, where it
    # ended in LAPACK messages on stdout and an SVD failure.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    (tmp_path / "data.csv").write_text(DATA_TEXT)
    model = tmp_path / "model.json"
    argv = ["fit", "--spec", str(spec_path), "--data", str(tmp_path / data), "--out", str(model)]
    assert main(argv + ["--lambda", "1e308"]) == 1
    captured = capfd.readouterr()
    assert captured.err == (
        "scorecraft fit: error: penalty weight must be finite, nonnegative and at most "
        "8.988465674311579e+307, got 1e+308\n"
    )
    assert "DLASCL" not in captured.out
    assert not model.exists()


def test_cli_fit_at_a_large_lambda_does_not_warn(tmp_path, fixture_spec_text, capsys):
    # The ridge makes H definite at any lambda > 0: the pivot test compares
    # each squared Cholesky pivot with its own diagonal entry, so the
    # unpenalized intercept's pivot is not called zero next to the ridge's.
    spec_path, data = tmp_path / "spec.csv", tmp_path / "train.csv"
    spec_path.write_text(fixture_spec_text)
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data),
        "--seed", "1", "--n-good", "3000", "--n-bad", "1000",
    ]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--spec", str(spec_path), "--data", str(data), "--lambda", "1e16"]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("ignore::scorecraft.sqp.FitWarning", "ignore:H is rank deficient")
def test_cli_fit_that_stops_far_from_stationarity_exits_2(tmp_path, fixture_spec_text, capsys):
    # Coefficient 5 pinned to 50 sends minus_ll from 2.5e4 to 4.9e20: every
    # probability saturates and the last step is 0, but the gradient is not.
    # The fit writes its model, as any max_iterations fit does, and exits 2.
    spec_path, data = tmp_path / "spec.csv", tmp_path / "train.csv"
    model = tmp_path / "model.json"
    spec_path.write_text(fixture_spec_text)
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data),
        "--seed", "1", "--n-good", "3000", "--n-bad", "1000",
    ]) == 0
    capsys.readouterr()
    code = main([
        "fit", "--spec", str(spec_path), "--data", str(data), "--lambda", "0.5",
        "--inweight", "5=50", "--out", str(model),
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "status: converged" not in out
    assert "max_delta 0.000000e+00" in out
    assert (
        "status: max_iterations (step tolerance met but stationarity 3.000e+03"
        " exceeds 4.000e-05, 1e-08 of the total weight)"
    ) in out
    assert load_model(str(model)).fit.status == "max_iterations"


def test_cli_refuses_weights_whose_total_overflows(tmp_path, fixture_spec_text, capfd):
    # Every weight is 1e308: each is finite, their total is not.  fit and
    # eval refuse the file with one line naming it, where fit ended in LAPACK
    # messages on stdout and eval printed nan measures.
    spec_path, data, huge = tmp_path / "spec.csv", tmp_path / "train.csv", tmp_path / "huge.csv"
    spec_path.write_text(fixture_spec_text)
    model, refused = tmp_path / "model.json", tmp_path / "refused.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data),
        "--seed", "1", "--n-good", "3000", "--n-bad", "1000",
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data), "--lambda", "0.5", "--out", str(model),
    ]) == 0
    with open(data, newline="") as src, open(huge, "w", newline="") as dst:
        header, *rows = csv.reader(src)
        col = header.index("w")
        csv.writer(dst).writerows([header] + [r[:col] + ["1e308"] + r[col + 1 :] for r in rows])
    capfd.readouterr()
    for command, argv in [
        ("fit", ["--spec", str(spec_path), "--lambda", "0.5", "--out", str(refused)]),
        ("eval", ["--model", str(model)]),
    ]:
        assert main([command, "--data", str(huge)] + argv) == 1
        captured = capfd.readouterr()
        assert captured.err == f"scorecraft {command}: error: {huge}: total weight must be finite\n"
        assert captured.out == ""
    assert not refused.exists()


@pytest.mark.parametrize("pair", ["abc=1", "3=x", "3", "=1", "1.5=2", "1=inf", "1=-inf", "1=nan"])
def test_cli_rejects_a_malformed_inweight(tmp_path, small_spec_text, capsys, pair):
    # One line naming the flag and the pair; nothing compiled.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    assert main(["compile", "--spec", str(spec_path), "--inweight", pair]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "scorecraft compile: error: --inweight needs COEF=VALUE, an integer and a finite "
        f"number, got {pair!r}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["compile", "fit"])
@pytest.mark.parametrize(
    "pairs,message",
    [
        (["2=1"], "coefficient 2 fixed to both 0.0 (tag on age:missing) and 1.0 (in-weight)"),
        (["3=1", "3=2"], "coefficient 3 fixed to both 1.0 (in-weight) and 2.0 (in-weight)"),
    ],
    ids=["tag-and-inweight", "two-inweights"],
)
def test_cli_refuses_contradictory_pins(tmp_path, small_spec_text, capsys, command, pairs, message):
    # Refused when the constraints are compiled: one line, and no rows
    # printed or model fitted.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "data.csv"
    data_path.write_text(DATA_TEXT)
    model_path = tmp_path / "model.json"
    argv = [command, "--spec", str(spec_path), "--data", str(data_path)]
    if command == "fit":
        argv += ["--out", str(model_path)]
    for pair in pairs:
        argv += ["--inweight", pair]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"scorecraft {command}: error: {message}\n"
    assert "rows:" not in captured.out and "iter" not in captured.out
    assert not model_path.exists()


# numpy finds a field over the limit in a plain line, the csv module in a
# quoted one.
@pytest.mark.parametrize(
    "cell", ["9" * (LIMIT + 1), '"' + "9" * (LIMIT + 1) + '"'], ids=["bytes", "csv"]
)
def test_cli_reports_a_field_over_the_csv_limit_in_one_line(
    tmp_path, small_spec_text, capsys, cell
):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "data.csv"
    data_path.write_text("y,w,age,fuel\n1,1," + cell + ",Gas\n")
    code = main(["compile", "--spec", str(spec_path), "--data", str(data_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"scorecraft compile: error: {data_path}: row 1: "
        f"field larger than field limit ({LIMIT})\n"
    )


def test_cli_gen_checks_its_output_before_drawing(tmp_path, small_spec_text, capsys, monkeypatch):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    monkeypatch.setattr(data_io, "gen_synthetic", lambda *args: pytest.fail("drew a sample"))
    path = str(tmp_path / "missing" / "x.csv")
    assert main([
        "gen", "--spec", str(spec_path), "--out", path, "--n-good", "5", "--n-bad", "5",
        "--probs", str(write_probs(tmp_path)),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"scorecraft gen: error: {path}: {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""


# The file is checked in pieces; pieces of 4 bytes cut the two-byte é.
@pytest.mark.parametrize("piece", [data_io._CHECK_BYTES, 4], ids=["default-pieces", "4-byte-pieces"])
def test_cli_names_a_data_file_that_is_not_utf8(tmp_path, capsys, monkeypatch, piece):
    monkeypatch.setattr(data_io, "_CHECK_BYTES", piece)
    data_path = tmp_path / "data.csv"
    text = "y,w,a\n".encode() + "1,1,é\n".encode() * 5 + b"1,1,caf\xff\n"
    data_path.write_bytes(text)
    code = main(["compare", "--data", str(data_path), "--score", "s=nope.csv"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"scorecraft compare: error: {data_path}: not UTF-8 text at byte {text.index(0xFF)}\n"
    )


@pytest.mark.parametrize(
    "flag", ["compile --spec", "compare --score", "eval --model", "gen --probs"]
)
def test_cli_names_a_text_file_that_is_not_utf8(tmp_path, small_spec_text, capsys, flag):
    # A spec, score or model file is read as strictly as a data file.
    data_path = tmp_path / "data.csv"
    data_path.write_text(DATA_TEXT)
    spec_path = write_small_spec(tmp_path, small_spec_text)
    bad = tmp_path / "bad.txt"
    text = "é\n".encode() + b"caf\xff\n"
    bad.write_bytes(text)
    argv = {
        "compile --spec": ["compile", "--spec", str(bad)],
        "compare --score": ["compare", "--data", str(data_path), "--score", f"s={bad}"],
        "eval --model": ["eval", "--model", str(bad), "--data", str(data_path)],
        "gen --probs": [
            "gen", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv"),
            "--n-good", "5", "--n-bad", "5", "--probs", str(bad),
        ],
    }[flag]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"scorecraft {argv[0]}: error: {bad}: not UTF-8 text at byte {text.index(0xFF)}\n"
    )


def test_cli_compare_length_mismatch(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "data.csv"
    data_path.write_text(DATA_TEXT)
    score_path = tmp_path / "score.csv"
    score_path.write_text("score\n1.0\n2.0\n")
    code = main([
        "compare", "--data", str(data_path), "--score", f"s={score_path}",
    ])
    assert code == 1
    assert "2 rows" in capsys.readouterr().err
    code = main(["compare", "--data", str(data_path)])
    assert code == 1
    assert "at least one" in capsys.readouterr().err


def test_cli_compare_refuses_a_pair_without_a_path(tmp_path, capsys):
    # Refused with one line before any input is read: the data file need not exist.
    code = main(["compare", "--data", str(tmp_path / "missing.csv"), "--model", "nameonly"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "scorecraft compare: error: --model must look like NAME=PATH, got 'nameonly'\n"
    )
    assert captured.out == ""


def test_cli_eval_model_without_kkt(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "5", "--n-good", "40", "--n-bad", "40",
        "--probs", str(write_probs(tmp_path)),
    ]) == 0
    assert main([
        "fit", "--spec", str(spec_path), "--data", str(data_path),
        "--lambda", "1.0", "--out", str(model_path),
    ]) == 0
    payload = json.loads(model_path.read_text())
    del payload["kkt"]
    model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "missing key 'kkt'" in err


@pytest.mark.parametrize(
    "key,value",
    [
        ("kkt", []), ("trajectory", [1]), ("beta", {"a": 1}), ("lam", "x"), ("spec_text", 5),
        ("spec_sha256", None),
    ],
    ids=["kkt", "trajectory", "beta", "lam", "spec_text", "spec_sha256"],
)
def test_cli_rejects_a_key_of_the_wrong_type(
    tmp_path, small_spec, small_spec_text, capsys, key, value
):
    result, pen, _, data_path = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    argv = ["eval", "--model", str(path), "--data", str(data_path)]
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}: key {key!r} has a value of the wrong type" in err


@pytest.mark.parametrize("command", ["eval", "compare", "fit --init-model"])
@pytest.mark.parametrize(
    "key,text",
    [("lam", "-1"), ("lam", "NaN"), ("lam", "1e309"), ("status", "12")],
    ids=["lam-negative", "lam-NaN", "lam-overflow", "status-12"],
)
def test_cli_refuses_a_lam_or_status_that_fit_could_not_have_written(
    tmp_path, small_spec, small_spec_text, capsys, command, key, text
):
    # `json` reads NaN, and 1e309 as inf; each of these fails at load with
    # one line naming the model file and the key.
    result, pen, _, data_path = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload[key] = "@"
    path.write_text(json.dumps(payload).replace('"@"', text))
    spec_path = write_small_spec(tmp_path, small_spec_text)
    argv = {
        "eval": ["eval", "--model", str(path), "--data", str(data_path)],
        "compare": ["compare", "--data", str(data_path), "--model", f"m={path}"],
        "fit --init-model": [
            "fit", "--spec", str(spec_path), "--data", str(data_path), "--init-model", str(path),
        ],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"scorecraft {argv[0]}: error: {path}: key {key!r}")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("q", [5, 12], ids=["short", "long"])
def test_cli_checks_beta_against_the_model_spec_before_reading_data(
    tmp_path, small_spec, small_spec_text, capsys, monkeypatch, command, q
):
    # A beta cut or padded with its q, the spec hash intact, fails at load
    # with one line naming the model file, before the data file is read.
    result, pen, _, data_path = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    payload["beta"] = (payload["beta"] + [0.5] * q)[:q]
    payload["q"] = q
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(data_io, "load_sample", lambda path: pytest.fail("read the data"))
    argv = {
        "eval": ["eval", "--model", str(path), "--data", str(data_path)],
        "compare": ["compare", "--data", str(data_path), "--model", f"m={path}"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"scorecraft {command}: error: {path}: beta has {q} coefficients, "
        f"its spec needs {small_spec.q}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_cli_names_a_model_whose_embedded_spec_does_not_parse(
    tmp_path, small_spec, small_spec_text, capsys, monkeypatch, command
):
    # A spec text that does not parse, its hash recomputed, fails at load
    # with one line naming the model file, and no data is read or scored.
    result, pen, _, data_path = fitted_model(small_spec, tmp_path)
    path = tmp_path / "model.json"
    save_model(str(path), ModelFile(result, pen.lam, small_spec_text))
    payload = json.loads(path.read_text())
    text = payload["spec_text"].replace("char,att,label", "chr,att,label", 1)
    payload["spec_text"] = text
    payload["spec_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(data_io, "load_sample", lambda path: pytest.fail("read the data"))
    argv = {
        "eval": ["eval", "--model", str(path), "--data", str(data_path)],
        "compare": ["compare", "--data", str(data_path), "--model", f"m={path}"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"scorecraft {command}: error: {path}: embedded spec: line 1: expected header "
        "char,att,label,kind,lo,hi,categories,constraint\n"
    )
    assert captured.out == ""


def test_every_export_resolves():
    # The package exports exactly what its modules' __all__ lists declare.
    import importlib
    import warnings

    modules = [
        importlib.import_module(f"scorecraft.{name}")
        for name in ("model", "constraints", "qp", "sqp", "metrics", "data_io", "report")
    ]
    declared = {name for module in modules for name in module.__all__}
    assert scorecraft.__all__ == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(scorecraft, name) is getattr(module, name), name
    assert set(dir(scorecraft)) >= declared
    with warnings.catch_warnings():
        warnings.simplefilter("error", scorecraft.FitWarning)
        warnings.simplefilter("error", scorecraft.QpWarning)
        with pytest.raises(scorecraft.FitWarning):
            warnings.warn("fit", scorecraft.FitWarning)


def test_package_import_loads_no_module(tmp_path):
    # Neither the package nor the CLI module loads numpy or another
    # submodule on import; a private or submodule name is not looked up.
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith(('scorecraft', 'numpy'))}\n"
        "import scorecraft\n"
        "assert loaded() == {'scorecraft'}, loaded()\n"
        "from scorecraft import cli\n"
        "assert loaded() == {'scorecraft', 'scorecraft.cli'}, loaded()\n"
        "for name in ('_private', '__wrapped__', 'floatrepr', 'model', 'report'):\n"
        "    assert not hasattr(scorecraft, name), name\n"
        "assert loaded() == {'scorecraft', 'scorecraft.cli'}, loaded()\n"
        "try:\n"
        "    scorecraft.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no_such_name resolved')\n"
        "from scorecraft import *\n"
        "assert FitWarning is sys.modules['scorecraft.sqp'].FitWarning\n"
    )
    src = os.path.dirname(os.path.dirname(scorecraft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_every_definition_is_named_elsewhere_in_the_package():
    # A module-level function or class that no other line of the package
    # names is reached only by tests or through __all__: it belongs in tests/
    # or nowhere.  Names inside strings (__all__, the lazy exports) do not
    # count; module hooks such as __getattr__ are called by the interpreter.
    import ast
    from pathlib import Path

    defined, lines = [], {}
    for path in sorted(Path(scorecraft.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.name, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                lines.setdefault(name, set()).add((path.name, node.lineno))
    unused = [
        f"{module}:{line} {name}"
        for module, line, name in defined
        if not lines.get(name, set()) - {(module, line)}
    ]
    assert not unused, unused


def test_no_cli_command_imports_scipy(tmp_path, small_spec_text):
    # The package runs on numpy alone; no command may load scipy.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    model_path = tmp_path / "model.json"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "7", "--n-good", "100", "--n-bad", "100",
        "--probs", str(write_probs(tmp_path)),
    ]) == 0
    script = (
        "import sys\n"
        "from scorecraft.cli import main\n"
        f"assert main(['compile', '--spec', {str(spec_path)!r}]) == 0\n"
        f"assert main(['fit', '--spec', {str(spec_path)!r}, '--data', {str(data_path)!r},"
        f" '--lambda', '0.5', '--out', {str(model_path)!r}]) == 0\n"
        f"assert main(['eval', '--model', {str(model_path)!r},"
        f" '--data', {str(data_path)!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, f'scipy modules were imported: {loaded}'\n"
    )
    src = os.path.dirname(os.path.dirname(scorecraft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_cli_compile_imports_only_what_it_runs(tmp_path, small_spec_text):
    # compile without data loads neither the data reader nor the fitter;
    # StepError, which main catches, is one class wherever it is imported.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    data_path.write_text(DATA_TEXT)
    script = (
        "import sys\n"
        "from scorecraft.cli import main\n"
        f"assert main(['compile', '--spec', {str(spec_path)!r}]) == 0\n"
        "loaded = {m for m in sys.modules if m.startswith('scorecraft.')}\n"
        "expected = {'scorecraft.cli', 'scorecraft.model', 'scorecraft.constraints'}\n"
        "assert loaded == expected, loaded\n"
        f"assert main(['compile', '--spec', {str(spec_path)!r}, '--data', {str(data_path)!r},"
        " '--centering', 'weighted']) == 0\n"
        "assert 'scorecraft.data_io' in sys.modules\n"
        "import scorecraft\n"
        "from scorecraft import model, sqp\n"
        "assert scorecraft.StepError is sqp.StepError is model.StepError\n"
    )
    src = os.path.dirname(os.path.dirname(scorecraft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_cli_fit_without_report_skips_the_metrics(tmp_path, small_spec_text):
    # Only --report needs the metrics and the report writer.
    spec_path = write_small_spec(tmp_path, small_spec_text)
    data_path = tmp_path / "train.csv"
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data_path),
        "--seed", "9", "--n-good", "60", "--n-bad", "60",
        "--probs", str(write_probs(tmp_path)),
    ]) == 0
    script = (
        "import sys\n"
        "from scorecraft.cli import main\n"
        f"assert main(['fit', '--spec', {str(spec_path)!r}, '--data', {str(data_path)!r}]) == 0\n"
        "loaded = {'scorecraft.metrics', 'scorecraft.report'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(scorecraft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_cli_usage_and_environment_errors(tmp_path, capsys, monkeypatch):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["fit", "--spec", "missing.csv"]) == 1  # missing --data
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()
    assert main(["qp-solve", "x"]) == 1  # not a command
    assert "invalid choice: 'qp-solve'" in capsys.readouterr().err
    monkeypatch.setenv("SCORECRAFT_THREADS", "zero")
    assert main(["compile", "--spec", "x"]) == 1
    assert "SCORECRAFT_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("SCORECRAFT_THREADS", "0")
    assert main(["compile", "--spec", "x"]) == 1
    assert capsys.readouterr().err == (
        "scorecraft: error: SCORECRAFT_THREADS must be a positive integer, got '0'\n"
    )


def test_cli_thread_cap_sets_env(monkeypatch):
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    ):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("SCORECRAFT_THREADS", "2")
    main(["no-such-command"])  # any invocation applies the cap
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_cli_gen_rejects_bad_probs(tmp_path, small_spec_text, capsys):
    spec_path = write_small_spec(tmp_path, small_spec_text)
    probs_path = tmp_path / "probs.json"
    probs_path.write_text(json.dumps({"age": {"good": [1.0], "bad": [1.0]}}))
    code = main([
        "gen", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv"),
        "--n-good", "5", "--n-bad", "5", "--probs", str(probs_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err
