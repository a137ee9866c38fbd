import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from scorecraft import model
from scorecraft.constraints import CenteringPolicy
from scorecraft.data_io import load_sample, representatives
from dense_design import DenseDesign, attribute_columns
from scorecraft.model import (
    Attribute,
    CategoryBin,
    Characteristic,
    Column,
    DesignMatrix,
    IntervalBin,
    NoInformationBin,
    Sample,
    ScorecardSpec,
    SpecError,
    SpecialBin,
    TagTerm,
    bin_value,
    build_design_matrix,
    format_tag,
    number_text,
    parse_spec,
)

from bin_oracle import bin_one
from spec_writer import write_spec
from text_columns import text_column

SPEC_TEXT = """\
char,att,label,kind,lo,hi,categories,constraint
age,1,missing,special,-9999999,,,= 0
age,2,18-<30,interval,18,30,,> 3
age,3,30-<50,interval,30,50,,> 4
age,4,50-High,interval,50,,,
age,5,NO INFORMATION,noinfo,,,,= 0
fuel,6,Gas or Diesel,category,,,Gas|Diesel,
fuel,7,Other,category,,,Other,< 6
fuel,8,NO INFORMATION,noinfo,,,,= 0
"""


def small_spec():
    return parse_spec(SPEC_TEXT)


def characteristic(spec, name):
    return next(ch for ch in spec.characteristics if ch.name == name)


def test_parse_spec_structure():
    spec = small_spec()
    assert spec.q == 9
    assert [ch.name for ch in spec.characteristics] == ["age", "fuel"]
    age = characteristic(spec, "age")
    assert [att.att_index for att in age.attributes] == [1, 2, 3, 4, 5]
    assert age.attributes[0].bin == SpecialBin(-9999999.0)
    assert age.attributes[1].bin == IntervalBin(18.0, 30.0)
    assert age.attributes[3].bin == IntervalBin(50.0, math.inf)
    assert age.noinfo.att_index == 5
    fuel = characteristic(spec, "fuel")
    assert fuel.attributes[0].bin == CategoryBin(frozenset({"Gas", "Diesel"}))
    assert age.attributes[0].tag == (TagTerm("=", 0.0),)
    assert age.attributes[1].tag == (TagTerm(">", 3),)
    assert fuel.attributes[1].tag == (TagTerm("<", 6),)
    assert age.attributes[3].tag == ()
    # A characteristic built without one has no NoInformation attribute to give.
    with pytest.raises(SpecError, match="^characteristic 'fuel' has no NoInformation attribute$"):
        Characteristic("fuel", fuel.attributes[:-1]).noinfo


def test_parse_spec_comments_and_blank_lines():
    text = "# leading comment\n\n" + SPEC_TEXT + "\n# trailing\n"
    assert parse_spec(text) == small_spec()


def test_round_trip_identity():
    spec = small_spec()
    assert parse_spec(write_spec(spec)) == spec


def test_format_tag_grammar():
    tag = (TagTerm("=", 0.0), TagTerm("<", 4), TagTerm(">", 2), TagTerm("~", 7))
    assert format_tag(tag) == "= 0 & < 4 & > 2 & ~ 7"
    assert format_tag(()) == ""


def test_tag_term_refuses_an_unknown_operator_or_a_reference_that_is_no_int():
    with pytest.raises(SpecError, match=re.escape("unknown constraint operator '>='")):
        TagTerm(">=", 3)
    # A float reference would pass the spec's range check and then fail as
    # a column index when the constraints are compiled.
    for op in "<>~":
        with pytest.raises(SpecError, match=re.escape(f"{op} needs an attribute index, got 2.5")):
            TagTerm(op, 2.5)
    assert TagTerm("=", 2.5).operand == 2.5


def test_format_tag_round_trips_through_the_parser():
    rng = np.random.default_rng(7)
    values = [0.0, -0.0, 2.0, -3.0, 0.1, -2.5, 1e-300, -1.7976931348623157e308, 1e15, 123456789.125]
    for _ in range(300):
        terms = []
        for _ in range(int(rng.integers(0, 5))):
            kind = int(rng.integers(4))
            if kind == 0:
                value = values[int(rng.integers(len(values)))] if rng.random() < 0.5 else rng.normal() * 10
                terms.append(TagTerm("=", float(value)))
            else:
                terms.append(TagTerm("><~"[kind - 1], int(rng.integers(1, 10**6))))
        tag = tuple(terms)
        assert model._parse_tag(format_tag(tag), "") == tag


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t.replace("char,att", "name,att"), "header"),
        (lambda t: t.replace("age,2", "age,3", 1), "duplicate attribute index 3"),
        (lambda t: t.replace("> 3", "gt 3"), "malformed constraint term"),
        (lambda t: t.replace("> 3", "> 99"), "missing attribute 99"),
        (lambda t: t.replace("> 3", "> 2"), "references itself"),
        (lambda t: t.replace("> 3", "= inf"), "non-finite"),
        (lambda t: t.replace("interval,18,30", "interval,30,18"), "lo < hi"),
        (lambda t: t.replace("interval,18,30", "window,18,30"), "unknown kind"),
        (lambda t: t.replace("special,-9999999,", "special,-9999999,5"), "lo column"),
        (lambda t: t.replace("Gas|Diesel", ""), "at least one label"),
        (lambda t: t.replace("age,4", "pay,4"), "contiguous"),
        (lambda t: t + "pay,9,0-High,interval,0,,,\n", "at least two attributes"),
        (lambda t: t.replace(",= 0\nage,2", ",= x\nage,2"), "line 2 (age): bad fixed value 'x'"),
        (lambda t: t.replace("> 3", "> 2.5"), "line 3 (age): bad attribute reference '2.5'"),
        (
            lambda t: t.replace("special,-9999999,", "special,,"),
            "line 2 (age): missing numeric value",
        ),
        (
            lambda t: t.replace("interval,18,30", "interval,eighteen,30"),
            "line 3 (age): bad numeric value 'eighteen'",
        ),
        (lambda t: t.replace("interval,50,,,", "interval,50,,"), "line 5: expected 8 fields"),
        (lambda t: t.replace("age,4,", ",4,"), "line 5: empty characteristic name"),
        (lambda t: t.replace("age,4,", "age,four,"), "line 5 (age): bad attribute index 'four'"),
        (
            lambda t: t.replace("interval,50,,,", "interval,50,,x,"),
            "line 5 (age): interval rows must leave categories empty",
        ),
        (
            lambda t: t.replace("category,,,Other", "category,1,,Other"),
            "line 8 (fuel): category rows must leave lo/hi empty",
        ),
        (
            lambda t: t.replace("noinfo,,,,= 0\nfuel", "noinfo,1,,,= 0\nfuel"),
            "line 6 (age): noinfo rows must leave lo/hi/categories empty",
        ),
        (
            lambda t: t.replace("special,-9999999,", "special,inf,"),
            "special attribute 1 ('age') needs a finite value",
        ),
        (lambda t: t.splitlines(keepends=True)[0], "spec has no characteristics"),
    ],
)
def test_parse_spec_rejects(mangle, message):
    with pytest.raises(SpecError, match=re.escape(message)):
        parse_spec(mangle(SPEC_TEXT))


def test_spec_refuses_a_duplicate_name_and_a_category_without_labels():
    # Rules that no spec file can break: parse_spec groups rows by name,
    # and drops empty category labels before it checks for one.
    age, fuel = small_spec().characteristics
    with pytest.raises(SpecError, match=re.escape("duplicate characteristic name 'age'")):
        ScorecardSpec((age, Characteristic("age", fuel.attributes)))
    gas, *rest = fuel.attributes
    bare = Attribute(gas.att_index, gas.label, CategoryBin(frozenset()), gas.tag)
    with pytest.raises(SpecError, match=re.escape("category attribute 6 ('fuel') has no labels")):
        ScorecardSpec((age, Characteristic("fuel", (bare, *rest))))


def test_parse_spec_requires_noinfo_and_consecutive_indices():
    text = SPEC_TEXT.replace("fuel,8,NO INFORMATION,noinfo,,,,= 0\n", "")
    with pytest.raises(SpecError, match="exactly one"):
        parse_spec(text)
    text = SPEC_TEXT.replace("fuel,6", "fuel,60").replace("< 6", "< 60")
    with pytest.raises(SpecError, match="consecutive"):
        parse_spec(text)
    with pytest.raises(SpecError, match="no header"):
        parse_spec("# only a comment\n")


def test_bin_value_small_spec():
    spec = small_spec()
    age = characteristic(spec, "age")
    fuel = characteristic(spec, "fuel")
    assert bin_value(age, -9999999) == 1
    assert bin_value(age, 18) == 2
    assert bin_value(age, 29.999) == 2
    assert bin_value(age, 30) == 3
    assert bin_value(age, 50) == 4
    assert bin_value(age, 1e9) == 4
    assert bin_value(age, 17.9) == 5
    assert bin_value(age, None) == 5
    assert bin_value(age, "") == 5
    assert bin_value(age, float("nan")) == 5
    assert bin_value(age, "25") == 2
    assert bin_value(fuel, "Gas") == 6
    assert bin_value(fuel, "Diesel") == 6
    assert bin_value(fuel, "Other") == 7
    assert bin_value(fuel, "Petrol") == 8
    assert bin_value(fuel, None) == 8


def test_bin_value_reads_an_object_that_is_no_number_as_its_text():
    class Label:
        def __str__(self):
            return "Gas"

    assert bin_value(characteristic(small_spec(), "fuel"), Label()) == 6


def inline_char(rows):
    header = "char,att,label,kind,lo,hi,categories,constraint\n"
    return parse_spec(header + rows).characteristics[0]


def test_representatives_pick_zero_in_an_interval_unbounded_on_both_sides():
    ch = inline_char("x,1,all,interval,,,,\nx,2,NO INFORMATION,noinfo,,,,\n")
    assert representatives(ch)[0] == 0.0


def test_bin_value_kind_priority():
    # Special wins over an interval that contains the sentinel.
    ch = inline_char(
        "x,1,code0,special,0,,,\n"
        "x,2,0-<10,interval,0,10,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
    )
    assert bin_value(ch, 0) == 1
    assert bin_value(ch, 1) == 2
    # Category wins over an interval containing the same numeric value.
    ch = inline_char(
        "x,1,five,category,,,5,\n"
        "x,2,0-<10,interval,0,10,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
    )
    assert bin_value(ch, "5") == 1
    assert bin_value(ch, 5.0) == 1
    assert bin_value(ch, 4) == 2
    # Overlapping intervals resolve to the first declared.
    ch = inline_char(
        "x,1,a,interval,0,10,,\n"
        "x,2,b,interval,5,15,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
    )
    assert bin_value(ch, 7) == 1
    assert bin_value(ch, 12) == 2


def test_build_design_matrix_indicators():
    spec = small_spec()
    sample = Sample(
        y=np.array([1, 0, 1, 0]),
        w=np.ones(4),
        records={
            "age": text_column(["25", "-9999999", "55", None]),
            "fuel": text_column(["Diesel", "Other", "Unknown", "Gas"]),
        },
    )
    dm = build_design_matrix(spec, sample)
    assert dm.n == 4 and dm.q == 9
    assert (dm.x[:, 0] == 1.0).all()
    # One indicator per characteristic: every row sums to 1 + #chars.
    assert (dm.x.sum(axis=1) == 3.0).all()
    expect = np.zeros((4, 9))
    expect[:, 0] = 1.0
    for i, j in enumerate([2, 1, 4, 5]):
        expect[i, j] = 1.0
    for i, j in enumerate([6, 7, 8, 6]):
        expect[i, j] = 1.0
    assert np.array_equal(dm.x, expect)
    assert dm.blocks == (("age", 1, 6), ("fuel", 6, 9))


# A spec whose category labels look like numbers, and cells of every kind
# a data file may hold.
PER_CELL_SPEC_TEXT = (
    "char,att,label,kind,lo,hi,categories,constraint\n"
    "x,1,missing,special,-9999999,,,\n"
    "x,2,twelve,category,,,12|007,\n"
    "x,3,0-<10,interval,0,10,,\n"
    "x,4,10-<100,interval,10,100,,\n"
    "x,5,NO INFORMATION,noinfo,,,,\n"
    "z,6,low,interval,,0,,\n"
    "z,7,NO INFORMATION,noinfo,,,,\n"
)
PER_CELL_CELLS = [
    None, "", " 12 ", "12", "12.0", "007", "7", " 7 ", "7.0", "nan", " NaN ",
    "1", "0", "-0.0", "-9999999", "-9999999.0", " -9999999 ", "99.5", "100",
    "1e9", "1000000000", "-5.0", "-1e+300", "junk",
]


def test_design_codes_equal_per_cell_binning():
    spec = parse_spec(PER_CELL_SPEC_TEXT)
    x, z = spec.characteristics
    cells = PER_CELL_CELLS
    rng = np.random.default_rng(20240819)
    column = [cells[k] for k in rng.permutation(np.arange(3 * len(cells)) % len(cells))]
    other = [None if i % 5 == 0 else repr(float(i - 50)) for i in range(len(column))]
    w = rng.uniform(0.1, 3.0, len(column))
    sample = Sample(
        y=np.ones(len(column)),
        w=w,
        records={"x": text_column(column), "z": text_column(other)},
    )
    dm = build_design_matrix(spec, sample)
    x_atts, z_atts = attribute_columns(dm)
    assert x_atts.tolist() == [bin_one(x, v) for v in column]
    assert z_atts.tolist() == [bin_one(z, v) for v in other]
    # The intercept and one attribute per characteristic on every row.
    assert (dm.x[:, 0] == 1).all() and (dm.x.sum(axis=1) == 3).all()
    assert set(x_atts) == {1, 2, 3, 4, 5}

    # Centering counts: exact for integral weights, within rounding of the
    # row-order sums for others.
    for weights in (np.floor(3 * w), w):
        counts = np.zeros(spec.q - 1)
        for ch, col in ((x, column), (z, other)):
            for i in range(sample.n):
                counts[bin_one(ch, col[i]) - 1] += weights[i]
        policy = CenteringPolicy.weighted_from_sample(dm, weights)
        if weights is w:
            assert relative_gap(policy.attribute_counts, counts) <= 1e-12
        else:
            assert np.array_equal(policy.attribute_counts, counts)


def test_build_design_matrix_checks_record_columns():
    spec = small_spec()
    base = {
        "age": text_column(["25"]),
        "fuel": text_column(["Gas"]),
    }
    y, w = np.array([1]), np.ones(1)
    with pytest.raises(SpecError, match="unknown"):
        build_design_matrix(spec, Sample(y, w, dict(base, pay=text_column(["1"]))))
    with pytest.raises(SpecError, match="lacks"):
        build_design_matrix(spec, Sample(y, w, {"age": base["age"]}))


def test_sample_validate_rejects():
    y, w = np.array([1, 0]), np.ones(2)
    with pytest.raises(SpecError, match="^y and w must be equal-length vectors$"):
        Sample(np.zeros((2, 2)), w, {})
    with pytest.raises(SpecError, match="only 0 and 1"):
        Sample(np.array([1, 2]), w, {})
    with pytest.raises(SpecError, match="nonnegative"):
        Sample(y, np.array([1.0, -0.5]), {})
    with pytest.raises(SpecError, match="positive"):
        Sample(y, np.zeros(2), {})
    # Each weight is finite, their total is not.
    with pytest.raises(SpecError, match="^total weight must be finite$"):
        Sample(np.array([1, 0, 1, 0]), np.full(4, 1e308), {})
    with pytest.raises(SpecError, match="wrong length"):
        Sample(y, w, {"age": text_column(["1"])})


def test_design_scores():
    spec = small_spec()
    sample = Sample(
        y=np.array([1, 0, 1]),
        w=np.ones(3),
        records={
            "age": text_column(["25", None, "-9999999"]),
            "fuel": text_column(["Gas", "Other", None]),
        },
    )
    dm = build_design_matrix(spec, sample)
    beta = np.arange(spec.q, dtype=float)
    assert np.array_equal(dm.scores(beta), dm.x @ beta)
    assert np.array_equal(dm.scores(beta), [0 + 2 + 6, 0 + 5 + 7, 0 + 1 + 8])


def coded_design(widths, n, rng):
    """A design over characteristics of the given attribute counts, random attributes.

    Returns the design built from the attribute columns and the dense n x q
    matrix those columns set, made without the design.
    """
    blocks, columns, start = [], [], 1
    for c, width in enumerate(widths):
        blocks.append((f"c{c}", start, start + width))
        columns.append(rng.integers(start, start + width, n))
        start += width
    dense = np.zeros((n, start))
    dense[:, 0] = 1.0
    for column in columns:
        dense[np.arange(n), column] = 1.0
    return DesignMatrix.build(n, tuple(blocks), iter(columns)), columns, dense


def relative_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def assert_runs_fit_the_row_count(design, widths):
    # Runs cover the characteristics in order, each as long as sqrt(n)
    # allows, and X[:, lo:hi] is table[joint].
    n = design.n
    held = []
    for lo, hi, joint, table in design.runs:
        held.append([stop - start for _, start, stop in design.blocks if lo <= start < hi])
        assert table.shape[0] == math.prod(held[-1])
        assert len(held[-1]) == 1 or table.shape[0] <= math.sqrt(n)
        assert joint.dtype == np.int32 and joint.shape == (n,)
        assert np.array_equal(table[joint], design.x[:, lo:hi])
    assert sum(held, []) == widths and design.runs[-1][1] == design.q
    for run, after in zip(held, held[1:]):
        assert math.prod(run) * after[0] > math.sqrt(n)


@pytest.mark.parametrize("n", [1, 2, 4097, 20000])
def test_design_operations_equal_the_dense_products(fixture_spec, n):
    rng = np.random.default_rng(n)
    bundled = [len(ch.attributes) for ch in fixture_spec.characteristics]
    # 200 and 300 attributes are more than sqrt(n) codes for every n here.
    for widths in [bundled, [3, 200, 4, 2, 6], [5], [300], [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]]:
        design, columns, x = coded_design(widths, n, rng)
        assert np.array_equal(design.x, x)
        # The rows of a permutation and of a subset, their runs chosen again
        # for their own row count (the subset's sqrt is about 0.7 the full one).
        perm = rng.permutation(n)
        subset = rng.choice(n, size=(n + 1) // 2, replace=False)
        cases = [(design, None)] + [
            (DesignMatrix.build(len(rows), design.blocks, [c[rows] for c in columns]), rows)
            for rows in (perm, subset)
        ]
        for taken, rows in cases:
            dense_x = x if rows is None else x[rows]
            assert taken.n == dense_x.shape[0] and taken.blocks == design.blocks
            assert np.array_equal(taken.x, dense_x)
            assert_runs_fit_the_row_count(taken, widths)
            dense = DenseDesign(dense_x)
            m = taken.n
            c = rng.uniform(0.0, 0.25, m) * (rng.random(m) < 0.9)
            beta = rng.normal(0.0, 1.0, design.q)
            r = rng.normal(0.0, 1.0, m)
            assert relative_gap(taken.scores(beta), dense.scores(beta)) <= 1e-12
            assert relative_gap(taken.rmatvec(r), dense.rmatvec(r)) <= 1e-12
            gram = taken.gram(c)
            assert relative_gap(gram, dense.gram(c)) <= 1e-12
            assert np.array_equal(gram, gram.T)
        if n == 20000:
            # Centering counts are X' w: exact for integral weights, and
            # within rounding of the row-order sums per column for others.
            w = rng.uniform(0.5, 2.0, n)
            for weights in (np.floor(3 * w), w):
                per_column = sum(
                    np.bincount(k, weights=weights, minlength=design.q)
                    for k in [np.zeros(n, dtype=np.intp), *columns]
                )
                if weights is w:
                    assert relative_gap(design.rmatvec(w), per_column) <= 1e-12
                else:
                    assert design.rmatvec(weights).tobytes() == per_column.tobytes()


def test_design_holds_only_its_runs(fixture_spec):
    # A built design holds one int32 joint code per row and run, and the
    # runs' tables; no n x (1 + C) array is made on the way, so the traced
    # peak of the build stays below half of such an intp array.
    n, width = 200_000, 1 + len(fixture_spec.characteristics)
    rng = np.random.default_rng(200)
    records = {}
    for ch in fixture_spec.characteristics:
        values = [None, "junk", *map(str, range(-10, 1000, 37))]
        records[ch.name] = Column(values, rng.integers(0, len(values), n, dtype=np.int32))
    sample = Sample(np.ones(n), np.ones(n), records)
    tracemalloc.start()
    try:
        design = build_design_matrix(fixture_spec, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * width / 2, peak
    assert set(vars(design)) == {"n", "blocks", "runs"}
    assert len(design.runs) < width - 1
    for lo, hi, joint, table in design.runs:
        assert joint.dtype == np.int32 and joint.shape == (n,)
        assert table.shape[1] == hi - lo and table.shape[0] <= max(math.isqrt(n), hi - lo)


def test_write_parse_round_trip_random_specs(random_spec_factory):
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        spec = random_spec_factory(rng)
        assert parse_spec(write_spec(spec)) == spec


def test_bin_value_total_on_random_specs(random_spec_factory):
    # Every raw value, including junk, lands on exactly one attribute.
    rng = np.random.default_rng(20240818)
    for _ in range(10):
        spec = random_spec_factory(rng)
        for ch in spec.characteristics:
            lo = min(att.att_index for att in ch.attributes)
            hi = max(att.att_index for att in ch.attributes)
            raws = [*rng.normal(0, 40, size=20), None, "", "junk", float("nan"), -9999999.0]
            for raw in raws:
                idx = bin_value(ch, raw)
                assert lo <= idx <= hi


def raw_text(raw):
    """The cell a data file holds for a raw value: the one rule's text of a number."""
    return raw if raw is None or isinstance(raw, str) else number_text(raw)


def test_bin_value_of_a_number_bins_its_text(random_spec_factory):
    # bin_value reads a number as the text a data file holds for it, so the
    # array binner on that text agrees with the per-value oracle and with
    # bin_value on the raw value.
    rng = np.random.default_rng(20261019)
    for _ in range(25):
        spec = random_spec_factory(rng)
        # Specials and interval edges: random specs hold no category.
        edges = [e for _, att in spec.iter_attributes() for e in vars(att.bin).values()]
        for ch in spec.characteristics:
            integral = [float(e) for e in edges if math.isfinite(e)]
            integral += [float(v) for v in rng.integers(-60, 60, 8)]
            integral += [float(rng.integers(-10**14, 10**14)), 1e15 - 1, -(1e15 - 1)]
            large = [1e15, -1e15, 1e16, 2.0**60, float(rng.integers(10**15, 10**17)), 1e300]
            fractional = list(rng.normal(0.0, 40.0, 8)) + [0.5, -1e-300]
            ints = [int(v) for v in rng.integers(-60, 60, 4)] + [10**15 - 1, 10**15, 10**20]
            special = [math.nan, math.inf, -math.inf, None]
            # A category attribute whose labels are texts of some of these.
            numbers = integral + large + fractional + ints
            picked = rng.choice(len(numbers), 6, replace=False)
            labels = {number_text(numbers[k]) for k in picked}
            labels |= {"1000000000000000.0", "1e+16", "12", "Gas"}
            extended = Characteristic(
                ch.name,
                ch.attributes
                + (Attribute(spec.q, "labelled", CategoryBin(frozenset(labels))),),
            )
            padded = [f"  {label} " for label in sorted(labels)]
            raws = numbers + special + padded
            raws = [raws[k] for k in rng.permutation(len(raws))]
            texts = [raw_text(raw) for raw in raws]
            binned = model._bin_values(extended, texts).tolist()
            assert binned == [bin_one(extended, raw) for raw in raws], ch.name
            assert binned == [bin_value(extended, raw) for raw in raws], ch.name


def test_bin_value_matches_a_large_integral_number_by_its_written_text():
    # From 1e15 up an integral number is written as its repr, as a data
    # file holds it, and a category label of that text matches it ahead of
    # the interval that holds it.
    ch = inline_char(
        "x,1,big,category,,,1000000000000000.0|1e+16,\n"
        "x,2,0-High,interval,0,,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
    )
    assert [number_text(v) for v in (1e15 - 1, 1e15, 1e16)] == [
        "999999999999999", "1000000000000000.0", "1e+16"
    ]
    for raw in (1e15, 10**15, 1e16, 10**16, "1e+16"):
        assert bin_value(ch, raw) == 1, raw
    texts = ["1000000000000000.0", "1e+16", "1000000000000000", "10000000000000000"]
    assert model._bin_values(ch, texts).tolist() == [1, 1, 2, 2]
    assert bin_value(ch, 1e15 - 1) == bin_value(ch, 1e17) == 2


def edge_cells(spec):
    """Cells at and beside every edge and label of a spec, of every kind.

    Each finite interval edge and special value comes as the text of the
    float, of one ulp either side, plain and padded; then infinities, NaN,
    signed zeros, exponent forms, each category label plain and padded,
    non-numeric text, and missing cells.
    """
    numbers = [0.0, -0.0, 1e3, math.inf, -math.inf, math.nan]
    labels = []
    for _, att in spec.iter_attributes():
        rule = att.bin
        if isinstance(rule, IntervalBin):
            edges = [rule.lo, rule.hi]
        elif isinstance(rule, SpecialBin):
            edges = [rule.value]
        else:
            edges = []
            labels += sorted(getattr(rule, "labels", ()))
        for e in filter(math.isfinite, edges):
            numbers += [e, float(np.nextafter(e, -math.inf)), float(np.nextafter(e, math.inf))]
    texts = [repr(v) for v in numbers] + [f" {v!r}  " for v in numbers]
    texts += ["-0", "+0", "1e3", "1E3", "1000", "+inf", "-Infinity", "nan", " NaN "]
    texts += labels + [f"  {label} " for label in labels] + ["junk", "", "   ", "12abc"]
    return texts + [None]


def assert_codes_equal_per_value(spec, column):
    sample = Sample(
        y=np.ones(len(column)),
        w=np.ones(len(column)),
        records={ch.name: text_column(column) for ch in spec.characteristics},
    )
    design = build_design_matrix(spec, sample)
    for ch, atts in zip(spec.characteristics, attribute_columns(design)):
        assert atts.tolist() == [bin_one(ch, v) for v in column], ch.name


def test_vectorized_binning_equals_bin_value(fixture_spec, random_spec_factory, tmp_path):
    rng = np.random.default_rng(20261018)
    # A spec built in code may hold a label that only a missing cell has.
    blank = Characteristic(
        "blank",
        (
            Attribute(1, "blank", CategoryBin(frozenset({"", "nan", "7"}))),
            Attribute(2, "NO INFORMATION", NoInformationBin()),
        ),
    )
    specs = [fixture_spec, parse_spec(PER_CELL_SPEC_TEXT), ScorecardSpec((blank,))]
    specs += [random_spec_factory(rng) for _ in range(10)]
    for spec in specs:
        assert_codes_equal_per_value(spec, edge_cells(spec) + PER_CELL_CELLS)
    # The same texts through a data file, padded cells and all.
    texts = edge_cells(fixture_spec)
    names = [ch.name for ch in fixture_spec.characteristics]
    path = tmp_path / "edges.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "w", *names])
        writer.writerows([1, 1, *[t or ""] * len(names)] for t in texts)
    sample = load_sample(str(path))
    design = build_design_matrix(fixture_spec, sample)
    atts = attribute_columns(design)
    for ch, got in zip(fixture_spec.characteristics, atts):
        expected = [bin_one(ch, t) for t in texts]
        assert got.tolist() == expected, ch.name
    # char950's overlapping rows: first declared wins, so 126 and 130-134,
    # 136-139 are never reached, while values >= 7011 reach 128.
    char950 = characteristic(fixture_spec, "char950")
    assert set(atts[names.index("char950")]) >= {125, 127, 128, 129, 135, 140}
    assert bin_value(char950, 7011) == 128 and bin_value(char950, 7010.5) == 125


def test_binning_parses_numbers_and_labels_without_a_call_per_value(fixture_spec, monkeypatch):
    char950 = characteristic(fixture_spec, "char950")
    labels = sorted(
        label
        for att in char950.attributes
        if isinstance(att.bin, CategoryBin)
        for label in att.bin.labels
    )
    assert "Gas" in labels
    values = [*labels, "7011", " -3.5 ", "", None, "1e9", " Gas ", "nan", "-inf"]
    calls = []
    number = model._number
    monkeypatch.setattr(model, "_number", lambda text: calls.append(text) or number(text))
    assert model._bin_values(char950, values).tolist() == [bin_one(char950, v) for v in values]
    assert calls == []
    # A text that is neither a number nor a label is parsed one value at a time.
    values.append("N/A")
    assert model._bin_values(char950, values).tolist() == [bin_one(char950, v) for v in values]
    assert "N/A" in calls
