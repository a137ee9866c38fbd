"""Scorecard domain model: characteristics, attributes, bin rules, constraint tags.

A scorecard partitions each predictor (characteristic) into bins (attributes)
and assigns one additive weight per attribute.  This module parses the spec
file format, bins raw values, and builds design matrices with an intercept
column.  A sample stores each characteristic column once per distinct raw
value, as a `Column` of stripped texts (None for a missing cell, as a data
file holds them) and an integer inverse, so binning works on the distinct
texts and gathers their codes through the inverse.  A design
stores one integer column code per characteristic and row, not the 0/1
indicator matrix; scores, X'r and X' diag(c) X are computed from the codes
with numpy alone, and the dense indicator matrix is only built when
`DesignMatrix.x` is read.

Outcome convention: y = 1 means Good throughout the package.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, Optional, Union

import numpy as np

__all__ = [
    "SpecError",
    "DataError",
    "StepError",
    "SpecialBin",
    "IntervalBin",
    "CategoryBin",
    "NoInformationBin",
    "BinRule",
    "FixedTo",
    "GreaterThan",
    "LessThan",
    "TiedTo",
    "TagTerm",
    "ConstraintTag",
    "Attribute",
    "Characteristic",
    "ScorecardSpec",
    "Column",
    "Sample",
    "DesignMatrix",
    "parse_spec",
    "format_tag",
    "bin_value",
    "build_design_matrix",
    "score_vector",
]

SPEC_HEADER = ("char", "att", "label", "kind", "lo", "hi", "categories", "constraint")


class SpecError(ValueError):
    """Raised for malformed or inconsistent scorecard specifications."""


class DataError(ValueError):
    """Raised for malformed data files or synthetic configurations."""


class StepError(RuntimeError):
    """A QP step failed: infeasible constraints or unmet solver tolerances."""


# ---------------------------------------------------------------------------
# Bin rules


@dataclass(frozen=True)
class SpecialBin:
    """Matches one exact numeric sentinel (for example -9999999)."""

    value: float


@dataclass(frozen=True)
class IntervalBin:
    """Matches lo <= v < hi; lo may be -inf and hi may be +inf."""

    lo: float
    hi: float


@dataclass(frozen=True)
class CategoryBin:
    """Matches when the raw value's string form is one of the labels."""

    labels: frozenset[str]


@dataclass(frozen=True)
class NoInformationBin:
    """Total fallback bin; every characteristic has exactly one."""


BinRule = Union[SpecialBin, IntervalBin, CategoryBin, NoInformationBin]


# ---------------------------------------------------------------------------
# Constraint tags


@dataclass(frozen=True)
class FixedTo:
    """Pin this attribute's weight to a value (equality row)."""

    value: float


@dataclass(frozen=True)
class GreaterThan:
    """This attribute's weight must exceed attribute `att`'s weight."""

    att: int


@dataclass(frozen=True)
class LessThan:
    """This attribute's weight must be below attribute `att`'s weight."""

    att: int


@dataclass(frozen=True)
class TiedTo:
    """This attribute's weight must equal attribute `att`'s weight."""

    att: int


TagTerm = Union[FixedTo, GreaterThan, LessThan, TiedTo]

_TERM_RE = re.compile(r"^([=<>~])\s*(\S+)$")
_TERM_OPS = {"=": FixedTo, ">": GreaterThan, "<": LessThan, "~": TiedTo}


@dataclass(frozen=True)
class ConstraintTag:
    """Conjunction of constraint terms attached to one attribute.

    An empty term list means the attribute is unconstrained.
    """

    terms: tuple[TagTerm, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.terms)


# ---------------------------------------------------------------------------
# Spec structure


@dataclass(frozen=True)
class Attribute:
    """One bin of a characteristic, carrying a 1-based global index."""

    att_index: int
    label: str
    bin: BinRule
    tag: ConstraintTag = ConstraintTag()


@dataclass(frozen=True)
class Characteristic:
    """A predictor variable partitioned into attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    @property
    def noinfo(self) -> Attribute:
        """The characteristic's NoInformation attribute."""
        for att in self.attributes:
            if isinstance(att.bin, NoInformationBin):
                return att
        raise SpecError(f"characteristic {self.name!r} has no NoInformation attribute")

    def elementary_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The real line cut at every finite interval edge: (edges, owner).

        Piece k is [edges[k-1], edges[k]), where edges[-1] reads as -inf and
        edges[len(edges)] as +inf.  No edge lies inside a piece, so every
        number in it matches the same interval rules; owner[k] is the first
        declared interval attribute holding the piece, or the NoInformation
        attribute where none does.
        """
        rules = [att for att in self.attributes if isinstance(att.bin, IntervalBin)]
        edges = np.array(
            sorted({e for att in rules for e in (att.bin.lo, att.bin.hi) if math.isfinite(e)}),
            dtype=float,
        )
        lows = np.concatenate([[-math.inf], edges])
        highs = np.concatenate([edges, [math.inf]])
        owner = np.full(lows.shape[0], self.noinfo.att_index, dtype=np.intp)
        for att in reversed(rules):
            owner[(att.bin.lo <= lows) & (highs <= att.bin.hi)] = att.att_index
        return edges, owner


@dataclass(frozen=True)
class ScorecardSpec:
    """Ordered characteristics; coefficient 1 is the intercept, 2..q the attributes."""

    characteristics: tuple[Characteristic, ...]

    @property
    def q(self) -> int:
        """Total coefficient count: one intercept plus every attribute."""
        return 1 + sum(len(ch.attributes) for ch in self.characteristics)

    def iter_attributes(self) -> Iterator[tuple[Characteristic, Attribute]]:
        for ch in self.characteristics:
            for att in ch.attributes:
                yield ch, att

    def validate(self) -> "ScorecardSpec":
        """Check structural invariants, returning self; raise SpecError otherwise."""
        if not self.characteristics:
            raise SpecError("spec has no characteristics")
        seen_names: set[str] = set()
        expected = 1
        for ch in self.characteristics:
            if ch.name in seen_names:
                raise SpecError(f"duplicate characteristic name {ch.name!r}")
            seen_names.add(ch.name)
            if len(ch.attributes) < 2:
                raise SpecError(
                    f"characteristic {ch.name!r} needs at least two attributes"
                )
            noinfo_count = sum(
                isinstance(att.bin, NoInformationBin) for att in ch.attributes
            )
            if noinfo_count != 1:
                raise SpecError(
                    f"characteristic {ch.name!r} must have exactly one "
                    f"NoInformation attribute, found {noinfo_count}"
                )
            for att in ch.attributes:
                if att.att_index != expected:
                    raise SpecError(
                        f"attribute indices must be consecutive in spec order: "
                        f"{ch.name!r} {att.label!r} has index {att.att_index}, "
                        f"expected {expected}"
                    )
                expected += 1
                _validate_bin(ch, att)
        q = self.q
        for ch, att in self.iter_attributes():
            for term in att.tag.terms:
                if isinstance(term, FixedTo):
                    if not math.isfinite(term.value):
                        raise SpecError(
                            f"attribute {att.att_index} fixed to non-finite value"
                        )
                else:
                    if not 1 <= term.att <= q - 1:
                        raise SpecError(
                            f"attribute {att.att_index} ({ch.name!r}) references "
                            f"missing attribute {term.att}"
                        )
                    if term.att == att.att_index:
                        raise SpecError(
                            f"attribute {att.att_index} ({ch.name!r}) references itself"
                        )
        return self


def _validate_bin(ch: Characteristic, att: Attribute) -> None:
    rule = att.bin
    if isinstance(rule, IntervalBin):
        if not rule.lo < rule.hi:
            raise SpecError(
                f"interval attribute {att.att_index} ({ch.name!r}) requires lo < hi, "
                f"got [{rule.lo}, {rule.hi})"
            )
    elif isinstance(rule, SpecialBin):
        if not math.isfinite(rule.value):
            raise SpecError(
                f"special attribute {att.att_index} ({ch.name!r}) needs a finite value"
            )
    elif isinstance(rule, CategoryBin):
        if not rule.labels:
            raise SpecError(
                f"category attribute {att.att_index} ({ch.name!r}) has no labels"
            )


# ---------------------------------------------------------------------------
# Sample and design matrix


@dataclass(frozen=True, eq=False)
class Column:
    """A characteristic column stored once per distinct raw value.

    Cell i holds values[inverse[i]]; inverse is an int32 array.  Each value
    is a cell's text as `load_sample` reads it, stripped, or None for an
    empty cell.
    """

    values: list[Optional[str]]
    inverse: np.ndarray

    def __len__(self) -> int:
        return int(self.inverse.shape[0])


@dataclass(frozen=True, eq=False)
class Sample:
    """Weighted binary-outcome observations with raw characteristic values.

    y is 0/1 with 1 = Good; w is nonnegative with positive total; records maps
    characteristic name to its `Column` of texts.
    """

    y: np.ndarray
    w: np.ndarray
    records: dict[str, Column]

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def validate(self) -> "Sample":
        y = np.asarray(self.y)
        w = np.asarray(self.w)
        if y.ndim != 1 or w.ndim != 1 or y.shape[0] != w.shape[0]:
            raise SpecError("y and w must be equal-length vectors")
        if not np.isin(y, (0, 1)).all():
            raise SpecError("y must contain only 0 and 1")
        if not np.isfinite(w).all() or (w < 0).any():
            raise SpecError("weights must be finite and nonnegative")
        if y.shape[0] > 0 and not w.sum() > 0:
            raise SpecError("total weight must be positive")
        for name, col in self.records.items():
            if len(col) != y.shape[0]:
                raise SpecError(f"record column {name!r} has wrong length")
        return self


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x q design matrix of attribute indicators whose first column is 1.

    It is stored as `codes`, an n x (1 + C) integer matrix over its C
    characteristics: column 0 is the intercept's code 0, and column c + 1
    holds the design column (the attribute index) that row i bins to in
    characteristic c.  `blocks` maps each characteristic (name, start,
    stop) to its column range; the ranges follow one another from column 1
    up to q, where the last one stops.

    `scores`, `rmatvec_runs` and `gram` are the operations a fit needs.
    They work on `runs`, which join consecutive characteristics into one
    code per row.  `rmatvec` computes X' r as row-order sums per code
    column, for results that must not depend on how the runs fall.  `x` is
    the dense n x q float view, built on first read and then kept.
    """

    codes: np.ndarray
    blocks: tuple[tuple[str, int, int], ...]

    @property
    def n(self) -> int:
        return int(self.codes.shape[0])

    @property
    def q(self) -> int:
        return self.blocks[-1][2]

    @cached_property
    def x(self) -> np.ndarray:
        """The dense n x q float matrix."""
        dense = np.zeros((self.n, self.q))
        dense[np.arange(self.n)[:, None], self.codes] = 1.0
        return dense

    @cached_property
    def runs(self) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
        """Runs of consecutive characteristics, as (lo, hi, joint, table).

        A run grows while its joint code space, the product of its
        characteristics' attribute counts, stays within sqrt(n) codes; a
        characteristic with more attributes than that is a run by itself.
        So a run's histogram has at most sqrt(n) bins and a pair of runs'
        at most n, unless a run is one characteristic with more attributes;
        then a pair's histogram is no larger than the q x q result.

        A run covers design columns lo..hi-1.  joint (int32) is each row's
        joint code: its attributes in the run's characteristics as the
        digits of a mixed-radix number, the first characteristic's digit
        most significant.  table is the K x (hi - lo) 0/1 matrix whose row
        k marks the attributes that joint code k holds, so that X[:, lo:hi]
        equals table[joint].
        """
        limit = math.isqrt(self.n)
        groups: list[list[tuple[int, int, int]]] = []  # (code column, start, stop)
        size = 0
        for col, (_, start, stop) in enumerate(self.blocks, start=1):
            if groups and size * (stop - start) <= limit:
                groups[-1].append((col, start, stop))
                size *= stop - start
            else:
                groups.append([(col, start, stop)])
                size = stop - start
        runs = []
        for group in groups:
            lo, hi = group[0][1], group[-1][2]
            joint = np.zeros(self.n, dtype=np.int32)
            offset = 0
            for col, start, stop in group:
                joint *= stop - start
                joint += self.codes[:, col]
                offset = offset * (stop - start) + start
            joint -= offset
            digits = np.indices([stop - start for _, start, stop in group]).reshape(len(group), -1)
            table = np.zeros((digits.shape[1], hi - lo))
            for (_, start, _), digit in zip(group, digits):
                table[np.arange(digits.shape[1]), start - lo + digit] = 1.0
            runs.append((lo, hi, joint, table))
        return tuple(runs)

    def scores(self, beta: np.ndarray) -> np.ndarray:
        """theta = X beta: the intercept plus one looked-up weight sum per run."""
        theta = np.full(self.n, float(beta[0]))
        for lo, hi, joint, table in self.runs:
            theta += (table @ beta[lo:hi])[joint]
        return theta

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X' r: r summed per design column by one bincount per code column.

        Each column's sums run over the rows in row order; code columns
        own disjoint design columns, so adding their bincounts is exact.
        """
        out = np.zeros(self.q)
        for column in self.codes.T:
            out += np.bincount(column, weights=r, minlength=self.q)
        return out

    def rmatvec_runs(self, r: np.ndarray) -> np.ndarray:
        """X' r through the runs: r.sum() for the intercept, and per run
        table' h for the histogram h = bincount(joint, r) of its joint codes.

        One pass over the rows per run instead of per code column; equal to
        `rmatvec` up to rounding.
        """
        out = np.empty(self.q)
        out[0] = r.sum()
        for lo, hi, joint, table in self.runs:
            out[lo:hi] = np.bincount(joint, weights=r, minlength=table.shape[0]) @ table
        return out

    def gram(self, c: np.ndarray) -> np.ndarray:
        """X' diag(c) X, exactly symmetric, from weighted histograms of runs.

        Per run, h = bincount(joint, c) over its K joint codes gives the
        intercept row table' h and the diagonal block table' diag(h) table.
        Per pair of runs g < h, the K_g x K_h histogram H of c over the
        pair's joint codes gives the block table_g' (H table_h), written to
        both sides.  Each pass over the rows is one bincount; the dense
        products are over codes, not rows.
        """
        out = np.zeros((self.q, self.q))
        out[0, 0] = c.sum()
        runs = self.runs
        for lo, hi, joint, table in runs:
            h = np.bincount(joint, weights=c, minlength=table.shape[0])
            out[0, lo:hi] = out[lo:hi, 0] = h @ table
            block = table.T @ (h[:, None] * table)
            out[lo:hi, lo:hi] = np.triu(block) + np.triu(block, 1).T
        for g, (lo_g, hi_g, joint_g, table_g) in enumerate(runs):
            for lo_h, hi_h, joint_h, table_h in runs[g + 1 :]:
                k = table_h.shape[0]
                pair = np.multiply(joint_g, k, dtype=np.intp)
                pair += joint_h
                hist = np.bincount(pair, weights=c, minlength=table_g.shape[0] * k)
                block = table_g.T @ (hist.reshape(-1, k) @ table_h)
                out[lo_g:hi_g, lo_h:hi_h] = block
                out[lo_h:hi_h, lo_g:hi_g] = block.T
        return out


# ---------------------------------------------------------------------------
# Binning


def number_text(value: float) -> str:
    """A number's text: if integral and below 1e15 in magnitude, with no fraction; else its repr."""
    value = float(value)
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def bin_value(ch: Characteristic, raw: object) -> int:
    """Map a raw value to the characteristic's matching attribute index.

    A raw value is read as the text a data file holds for it: a number as
    its `number_text` (NaN as missing), a text stripped, any other object
    as its str.  Matching is total: Special rules are tried first (exact
    numeric match), then Category membership on the text, then Intervals
    with lo <= v < hi, in declared order within each kind.  Missing values
    (None, NaN, empty text) and anything unmatched fall through to the
    NoInformation attribute.
    """
    if raw is not None and not isinstance(raw, str):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raw = str(raw)
        else:
            raw = None if math.isnan(value) else number_text(value)
    text = (raw or "").strip()
    if text:
        try:
            numeric = float(text)
        except ValueError:
            numeric = math.nan  # matches no special and no interval
        for att in ch.attributes:
            if isinstance(att.bin, SpecialBin) and numeric == att.bin.value:
                return att.att_index
        for att in ch.attributes:
            if isinstance(att.bin, CategoryBin) and text in att.bin.labels:
                return att.att_index
        for att in ch.attributes:
            if isinstance(att.bin, IntervalBin) and att.bin.lo <= numeric < att.bin.hi:
                return att.att_index
    return ch.noinfo.att_index


_EMPTY_IF_NONE = {None: ""}


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _bin_values(ch: Characteristic, values: list[Optional[str]]) -> np.ndarray:
    """bin_value of each text or None, by array operations.

    Numbers are parsed by `float` in C (NaN for the empty text and for a
    category label that is no number; NaN matches no special and no
    interval, as no number does); only a column with some other text that
    is no number is parsed by a Python call per value.  Intervals match by
    one searchsorted over the elementary intervals; then category and
    special matches, exact lookups, overwrite them in the reverse of the
    order `bin_value` tries them; missing values go to NoInformation.
    """
    m = len(values)
    texts = list(map(str.strip, map(_EMPTY_IF_NONE.get, values, values)))
    labels: dict[str, int] = {}
    for att in ch.attributes:
        if isinstance(att.bin, CategoryBin):
            for label in att.bin.labels:
                labels.setdefault(label, att.att_index)
    nan_texts = {"": "nan"}
    for label in labels:
        try:
            float(label)
        except ValueError:
            nan_texts[label] = "nan"
    try:
        numbers = np.fromiter(map(float, map(nan_texts.get, texts, texts)), float, m)
    except ValueError:
        numbers = np.fromiter(map(_number, texts), float, m)
    edges, owner = ch.elementary_intervals()
    codes = np.full(m, ch.noinfo.att_index, dtype=np.intp)
    # NaN and +inf match no interval: lo <= v < hi fails for both.
    ranged = numbers < math.inf
    codes[ranged] = owner[np.searchsorted(edges, numbers[ranged], side="right")]
    if labels:
        hits = np.fromiter(map(labels.get, texts, repeat(0)), np.intp, m)
        codes = np.where(hits > 0, hits, codes)
    for att in reversed(ch.attributes):
        if isinstance(att.bin, SpecialBin):
            codes[numbers == att.bin.value] = att.att_index
    codes[np.fromiter(map(operator.not_, texts), bool, m)] = ch.noinfo.att_index
    return codes


def build_design_matrix(spec: ScorecardSpec, sample: Sample) -> DesignMatrix:
    """Bin a sample under a spec into a coded design matrix.

    Row i has code 0 (the intercept) and, per characteristic, the column of
    the attribute its value bins to; sample records must provide every
    characteristic in the spec and no others.  Each column's distinct
    values are binned once and their codes gathered through its inverse.
    """
    known = {ch.name for ch in spec.characteristics}
    unknown = set(sample.records) - known
    if unknown:
        raise SpecError(f"sample has unknown characteristic(s): {sorted(unknown)}")
    missing = known - set(sample.records)
    if missing:
        raise SpecError(f"sample lacks characteristic(s): {sorted(missing)}")

    # Column-major: the design's operations read the codes column by column.
    codes = np.zeros((sample.n, 1 + len(spec.characteristics)), dtype=np.intp, order="F")
    for c, ch in enumerate(spec.characteristics, start=1):
        column = sample.records[ch.name]
        codes[:, c] = _bin_values(ch, column.values)[column.inverse]

    blocks = []
    start = 1
    for ch in spec.characteristics:
        stop = start + len(ch.attributes)
        blocks.append((ch.name, start, stop))
        start = stop
    return DesignMatrix(codes=codes, blocks=tuple(blocks))


def score_vector(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    """Scores theta = X beta for a design matrix and coefficient vector."""
    if not isinstance(design, DesignMatrix):
        raise SpecError("design must be a DesignMatrix")
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or design.q != beta.shape[0]:
        raise SpecError(
            f"dimension mismatch: design is {(design.n, design.q)}, "
            f"beta has length {beta.shape}"
        )
    return design.scores(beta)


# ---------------------------------------------------------------------------
# Spec file format


def read_text(path: str) -> str:
    """A UTF-8 file's text as text-mode `open` reads it; DataError names a non-UTF-8 byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_tag(text: str, where: str) -> ConstraintTag:
    text = text.strip()
    if not text:
        return ConstraintTag()
    terms: list[TagTerm] = []
    for part in text.split("&"):
        part = part.strip()
        match = _TERM_RE.match(part)
        if match is None:
            raise SpecError(f"{where}: malformed constraint term {part!r}")
        op, arg = match.groups()
        if op == "=":
            try:
                terms.append(FixedTo(float(arg)))
            except ValueError:
                raise SpecError(f"{where}: bad fixed value {arg!r}") from None
        else:
            try:
                target = int(arg)
            except ValueError:
                raise SpecError(f"{where}: bad attribute reference {arg!r}") from None
            terms.append(_TERM_OPS[op](target))
    return ConstraintTag(tuple(terms))


def _parse_number(cell: str, where: str, default: Optional[float] = None) -> float:
    cell = cell.strip()
    if not cell:
        if default is None:
            raise SpecError(f"{where}: missing numeric value")
        return default
    try:
        return float(cell)
    except ValueError:
        raise SpecError(f"{where}: bad numeric value {cell!r}") from None


def parse_spec(text: str) -> ScorecardSpec:
    """Parse the spec CSV format into a validated ScorecardSpec.

    The format has header char,att,label,kind,lo,hi,categories,constraint with
    kind one of special, interval, category, noinfo; `#` lines are comments.
    Rows of one characteristic must be contiguous and attribute indices must
    run 1, 2, ... in file order.
    """
    reader = csv.reader(io.StringIO(text))
    header_seen = False
    order: list[str] = []
    grouped: dict[str, list[Attribute]] = {}
    seen_indices: set[int] = set()
    for lineno, row in enumerate(reader, start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header_seen:
            if tuple(cell.strip() for cell in row) != SPEC_HEADER:
                raise SpecError(
                    f"line {lineno}: expected header {','.join(SPEC_HEADER)}"
                )
            header_seen = True
            continue
        if len(row) != len(SPEC_HEADER):
            raise SpecError(f"line {lineno}: expected {len(SPEC_HEADER)} fields")
        char_name, att_cell, label, kind, lo, hi, cats, tag_cell = (
            cell.strip() for cell in row
        )
        where = f"line {lineno} ({char_name})"
        if not char_name:
            raise SpecError(f"line {lineno}: empty characteristic name")
        try:
            att_index = int(att_cell)
        except ValueError:
            raise SpecError(f"{where}: bad attribute index {att_cell!r}") from None
        if att_index in seen_indices:
            raise SpecError(f"{where}: duplicate attribute index {att_index}")
        seen_indices.add(att_index)

        if kind == "special":
            if hi or cats:
                raise SpecError(f"{where}: special rows use only the lo column")
            rule: BinRule = SpecialBin(_parse_number(lo, where))
        elif kind == "interval":
            if cats:
                raise SpecError(f"{where}: interval rows must leave categories empty")
            rule = IntervalBin(
                _parse_number(lo, where, default=-math.inf),
                _parse_number(hi, where, default=math.inf),
            )
        elif kind == "category":
            if lo or hi:
                raise SpecError(f"{where}: category rows must leave lo/hi empty")
            labels = frozenset(part.strip() for part in cats.split("|") if part.strip())
            if not labels:
                raise SpecError(f"{where}: category rows need at least one label")
            rule = CategoryBin(labels)
        elif kind == "noinfo":
            if lo or hi or cats:
                raise SpecError(f"{where}: noinfo rows must leave lo/hi/categories empty")
            rule = NoInformationBin()
        else:
            raise SpecError(f"{where}: unknown kind {kind!r}")

        att = Attribute(
            att_index=att_index,
            label=label,
            bin=rule,
            tag=_parse_tag(tag_cell, where),
        )
        if char_name not in grouped:
            order.append(char_name)
            grouped[char_name] = []
        elif order[-1] != char_name:
            raise SpecError(f"{where}: characteristic rows must be contiguous")
        grouped[char_name].append(att)

    if not header_seen:
        raise SpecError("spec file has no header row")
    spec = ScorecardSpec(
        characteristics=tuple(
            Characteristic(name=name, attributes=tuple(grouped[name]))
            for name in order
        )
    )
    return spec.validate()


def format_tag(tag: ConstraintTag) -> str:
    """Render a constraint tag in the spec file grammar (empty for no terms)."""
    parts = []
    for term in tag.terms:
        if isinstance(term, FixedTo):
            parts.append(f"= {number_text(term.value)}")
        elif isinstance(term, GreaterThan):
            parts.append(f"> {term.att}")
        elif isinstance(term, LessThan):
            parts.append(f"< {term.att}")
        else:
            parts.append(f"~ {term.att}")
    return " & ".join(parts)

