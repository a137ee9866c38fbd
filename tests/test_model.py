import math

import numpy as np
import pytest

from scorecraft.constraints import CenteringPolicy
from scorecraft.model import (
    CategoryBin,
    ConstraintTag,
    DesignMatrix,
    FixedTo,
    GreaterThan,
    IntervalBin,
    LessThan,
    Sample,
    SpecError,
    SpecialBin,
    TiedTo,
    bin_value,
    build_design_matrix,
    format_tag,
    parse_spec,
    score_vector,
    write_spec,
)

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


def test_parse_spec_structure():
    spec = small_spec()
    assert spec.q == 9
    assert [ch.name for ch in spec.characteristics] == ["age", "fuel"]
    age = spec.characteristic("age")
    assert [att.att_index for att in age.attributes] == [1, 2, 3, 4, 5]
    assert age.attributes[0].bin == SpecialBin(-9999999.0)
    assert age.attributes[1].bin == IntervalBin(18.0, 30.0)
    assert age.attributes[3].bin == IntervalBin(50.0, math.inf)
    assert age.noinfo.att_index == 5
    fuel = spec.characteristic("fuel")
    assert fuel.attributes[0].bin == CategoryBin(frozenset({"Gas", "Diesel"}))
    assert age.attributes[0].tag.terms == (FixedTo(0.0),)
    assert age.attributes[1].tag.terms == (GreaterThan(3),)
    assert fuel.attributes[1].tag.terms == (LessThan(6),)
    assert not age.attributes[3].tag


def test_parse_spec_comments_and_blank_lines():
    text = "# leading comment\n\n" + SPEC_TEXT + "\n# trailing\n"
    assert parse_spec(text) == small_spec()


def test_round_trip_identity():
    spec = small_spec()
    assert parse_spec(write_spec(spec)) == spec


def test_spec_lookup_helpers():
    spec = small_spec()
    assert spec.attribute(6).label == "Gas or Diesel"
    assert spec.characteristic_of(6).name == "fuel"
    with pytest.raises(SpecError):
        spec.attribute(9)
    with pytest.raises(SpecError):
        spec.characteristic("income")


def test_format_tag_grammar():
    tag = ConstraintTag((FixedTo(0.0), LessThan(4), GreaterThan(2), TiedTo(7)))
    assert format_tag(tag) == "= 0 & < 4 & > 2 & ~ 7"
    assert format_tag(ConstraintTag()) == ""


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
    ],
)
def test_parse_spec_rejects(mangle, message):
    with pytest.raises(SpecError, match=message):
        parse_spec(mangle(SPEC_TEXT))


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
    age = spec.characteristic("age")
    fuel = spec.characteristic("fuel")
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


def inline_char(rows):
    header = "char,att,label,kind,lo,hi,categories,constraint\n"
    return parse_spec(header + rows).characteristics[0]


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
            "age": np.array([25.0, -9999999.0, 55.0, np.nan]),
            "fuel": np.array(["Diesel", "Other", "Unknown", "Gas"], dtype=object),
        },
    ).validate()
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
    assert dm.column_labels[0] == "intercept"
    assert dm.column_labels[6] == "fuel:Gas or Diesel"
    assert dm.blocks == (("age", 1, 6), ("fuel", 6, 9))


def test_design_codes_equal_per_cell_binning():
    spec = parse_spec(
        "char,att,label,kind,lo,hi,categories,constraint\n"
        "x,1,missing,special,-9999999,,,\n"
        "x,2,twelve,category,,,12|007,\n"
        "x,3,0-<10,interval,0,10,,\n"
        "x,4,10-<100,interval,10,100,,\n"
        "x,5,NO INFORMATION,noinfo,,,,\n"
        "z,6,low,interval,,0,,\n"
        "z,7,NO INFORMATION,noinfo,,,,\n"
    )
    x, z = spec.characteristics
    cells = [
        None, "", " 12 ", "12", 12, 12.0, "12.0", "007", 7, "7", " 7 ",
        float("nan"), float("nan"), float("nan"), np.float64("nan"),
        np.float64("nan"), np.nan, "nan", True, False, 1, 0, -0.0, np.int64(12),
        "-9999999", -9999999.0, -9999999, " -9999999 ", 99.5, 100, 1e9, -5.0,
        np.float64(-1e300), "junk",
    ]
    rng = np.random.default_rng(20240819)
    column = np.empty(3 * len(cells), dtype=object)
    column[:] = [cells[k] for k in rng.permutation(np.arange(3 * len(cells)) % len(cells))]
    # An unhashable cell sends its column to the per-cell path.
    other = np.empty(column.shape[0], dtype=object)
    other[:] = [[-1.0] if i % 5 == 0 else float(i - 50) for i in range(column.shape[0])]
    w = rng.uniform(0.1, 3.0, column.shape[0])
    sample = Sample(
        y=np.ones(column.shape[0]), w=w, records={"x": column, "z": other}
    ).validate()
    dm = build_design_matrix(spec, sample)
    assert dm.codes[:, 1].tolist() == [bin_value(x, v) for v in column]
    assert dm.codes[:, 2].tolist() == [bin_value(z, v) for v in other]
    assert (dm.codes[:, 0] == 0).all()
    assert set(dm.codes[:, 1]) == {1, 2, 3, 4, 5}

    counts = np.zeros(spec.q - 1)
    for ch, col in ((x, column), (z, other)):
        for i in range(sample.n):
            counts[bin_value(ch, col[i]) - 1] += w[i]
    policy = CenteringPolicy.weighted_from_sample(dm, w)
    assert np.array_equal(policy.attribute_counts, counts)


def test_build_design_matrix_checks_record_columns():
    spec = small_spec()
    base = {
        "age": np.array([25.0]),
        "fuel": np.array(["Gas"], dtype=object),
    }
    y, w = np.array([1]), np.ones(1)
    with pytest.raises(SpecError, match="unknown"):
        build_design_matrix(spec, Sample(y, w, dict(base, pay=np.array([1.0]))))
    with pytest.raises(SpecError, match="lacks"):
        build_design_matrix(spec, Sample(y, w, {"age": base["age"]}))


def test_sample_validate_rejects():
    y, w = np.array([1, 0]), np.ones(2)
    with pytest.raises(SpecError, match="only 0 and 1"):
        Sample(np.array([1, 2]), w, {}).validate()
    with pytest.raises(SpecError, match="nonnegative"):
        Sample(y, np.array([1.0, -0.5]), {}).validate()
    with pytest.raises(SpecError, match="positive"):
        Sample(y, np.zeros(2), {}).validate()
    with pytest.raises(SpecError, match="wrong length"):
        Sample(y, w, {"age": np.array([1.0])}).validate()


def test_design_matrix_from_array():
    x = np.column_stack([np.ones(3), np.arange(3.0)])
    dm = DesignMatrix.from_array(x)
    assert dm.column_labels == ("intercept", "x1")
    assert dm.blocks == ()
    with pytest.raises(SpecError, match="identically 1"):
        DesignMatrix.from_array(np.arange(6.0).reshape(3, 2))
    with pytest.raises(SpecError, match="label count"):
        DesignMatrix.from_array(x, column_labels=["intercept"])


def test_score_vector():
    x = np.column_stack([np.ones(3), np.arange(3.0)])
    dm = DesignMatrix.from_array(x)
    beta = np.array([0.5, 2.0])
    assert np.array_equal(score_vector(dm, beta), x @ beta)
    assert np.array_equal(score_vector(x, beta), x @ beta)
    with pytest.raises(SpecError, match="dimension"):
        score_vector(dm, np.ones(3))


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
