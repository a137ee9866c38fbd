import math
from importlib import resources

import numpy as np
import pytest

from scorecraft.model import (
    Attribute,
    Characteristic,
    ConstraintTag,
    FixedTo,
    GreaterThan,
    IntervalBin,
    LessThan,
    NoInformationBin,
    ScorecardSpec,
    SpecialBin,
    TiedTo,
    parse_spec,
)

SMALL_SPEC_TEXT = """\
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


def build_random_spec(rng):
    """Small random valid spec: interval grids, optional specials, random tags."""
    n_chars = int(rng.integers(1, 4))
    chars = []
    att_index = 1
    for c in range(n_chars):
        atts = []
        if rng.random() < 0.5:
            atts.append(Attribute(att_index, "missing", SpecialBin(-9999999.0)))
            att_index += 1
        edges = np.sort(rng.choice(np.arange(-50, 50), size=3, replace=False))
        cuts = [-math.inf, *[float(e) for e in edges], math.inf]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            atts.append(Attribute(att_index, f"{lo}-<{hi}", IntervalBin(lo, hi)))
            att_index += 1
        atts.append(Attribute(att_index, "NO INFORMATION", NoInformationBin()))
        att_index += 1
        chars.append(Characteristic(f"char{c}", tuple(atts)))
    q = att_index
    rebuilt = []
    for ch in chars:
        atts = []
        for att in ch.attributes:
            terms = []
            if rng.random() < 0.3:
                terms.append(FixedTo(float(rng.integers(-3, 4))))
            if rng.random() < 0.4:
                other = int(rng.integers(1, q))
                if other != att.att_index:
                    kind = [GreaterThan, LessThan, TiedTo][int(rng.integers(3))]
                    terms.append(kind(other))
            atts.append(
                Attribute(att.att_index, att.label, att.bin, ConstraintTag(tuple(terms)))
            )
        rebuilt.append(Characteristic(ch.name, tuple(atts)))
    return ScorecardSpec(tuple(rebuilt)).validate()


def null_space(a):
    """Orthonormal basis of the null space of a, from one SVD.

    Singular values up to max(shape) * eps * the largest count as zero.
    `qp._null_space` applies the same rule; this copy is kept apart from it
    so the feasible points the tests draw do not rest on the code under test.
    """
    _, sv, vt = np.linalg.svd(a)
    tol = max(a.shape) * np.finfo(float).eps * sv.max(initial=0.0)
    return vt[int((sv > tol).sum()):].T


@pytest.fixture
def small_spec_text():
    return SMALL_SPEC_TEXT


@pytest.fixture
def small_spec():
    return parse_spec(SMALL_SPEC_TEXT)


@pytest.fixture
def random_spec_factory():
    return build_random_spec


def _fixture_text(name):
    return (resources.files("scorecraft") / "fixtures" / name).read_text()


@pytest.fixture(scope="session")
def fixture_spec_text():
    return _fixture_text("scorecard_spec.csv")


@pytest.fixture(scope="session")
def fixture_spec(fixture_spec_text):
    return parse_spec(fixture_spec_text)


@pytest.fixture(scope="session")
def maxdiv_beta(fixture_spec):
    """Known-feasible comparator weights for the bundled spec, intercept 0."""
    beta = np.zeros(fixture_spec.q)
    for line in _fixture_text("maxdiv_weights.csv").splitlines()[1:]:
        att, weight = line.split(",")
        beta[int(att)] = float(weight)
    return beta


_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Recorder for the acceptance battery: one PASS/FAIL line per criterion."""

    def record(name, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
