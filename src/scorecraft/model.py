"""Scorecard domain model: characteristics, attributes, bin rules, constraint tags.

A scorecard partitions each predictor (characteristic) into bins (attributes)
and assigns one additive weight per attribute, under its constraint tag:
a tuple of `TagTerm` records (`= v`, `> k`, `< k`, `~ k`).  A spec and a
sample check themselves when made.  This module parses the spec file
format, bins texts into attributes (`_bin_values` holds the one matching
rule; `bin_value` reads one raw value through it), and builds design
matrices with an intercept column.  A sample stores each
characteristic column once per distinct raw value, as a `Column` of
stripped texts (None for a missing cell, as a data file holds them) and an
integer inverse, so binning works on the distinct texts and gathers their
attributes through the inverse.  A design stores, per run of consecutive
characteristics, one int32 joint code per row, not the 0/1 indicator
matrix; scores, X'r and X' diag(c) X are computed from the joint codes with
numpy alone, one definition each, repeated rows are merged by exact keys of
y and the joint codes, and the dense indicator matrix is only built when
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
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Optional, Union

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
    "TagTerm",
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
class TagTerm:
    """One term of an attribute's constraint tag: op "=" pins its weight to
    operand (a float); ">", "<" and "~" ask it to be above, below or equal
    to attribute operand's (an int).  Another op or operand raises SpecError."""

    op: str
    operand: Union[float, int]

    def __post_init__(self) -> None:
        if self.op not in ("=", "<", ">", "~"):
            raise SpecError(f"unknown constraint operator {self.op!r}")
        if self.op != "=" and not isinstance(self.operand, int):
            raise SpecError(f"{self.op} needs an attribute index, got {self.operand!r}")


_TERM_RE = re.compile(r"^([=<>~])\s*(\S+)$")


# ---------------------------------------------------------------------------
# Spec structure


@dataclass(frozen=True)
class Attribute:
    """One bin of a characteristic: a 1-based global index, and its tag's terms (() for none)."""

    att_index: int
    label: str
    bin: BinRule
    tag: tuple[TagTerm, ...] = ()


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

    @cached_property
    def elementary_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The real line cut at every finite interval edge: (edges, owner).

        Piece k is [edges[k-1], edges[k]), where edges[-1] reads as -inf and
        edges[len(edges)] as +inf.  No edge lies inside a piece, so every
        number in it matches the same interval rules; owner[k] is the first
        declared interval attribute holding the piece, or the NoInformation
        attribute where none does.  Computed on first read and then kept.
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
    """Ordered characteristics; coefficient 1 is the intercept, 2..q the attributes.

    Checked when made: SpecError names the first fault."""

    characteristics: tuple[Characteristic, ...]

    @property
    def q(self) -> int:
        """Total coefficient count: one intercept plus every attribute."""
        return 1 + sum(len(ch.attributes) for ch in self.characteristics)

    def iter_attributes(self) -> Iterator[tuple[Characteristic, Attribute]]:
        for ch in self.characteristics:
            for att in ch.attributes:
                yield ch, att

    def __post_init__(self) -> None:
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
            for term in att.tag:
                if term.op == "=":
                    if not math.isfinite(term.operand):
                        raise SpecError(f"attribute {att.att_index} fixed to non-finite value")
                elif not 1 <= term.operand <= q - 1:
                    raise SpecError(
                        f"attribute {att.att_index} ({ch.name!r}) references "
                        f"missing attribute {term.operand}"
                    )
                elif term.operand == att.att_index:
                    raise SpecError(f"attribute {att.att_index} ({ch.name!r}) references itself")


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
    characteristic name to its `Column` of texts, one cell per row.  Checked
    when made: SpecError names the first fault.
    """

    y: np.ndarray
    w: np.ndarray
    records: dict[str, Column]

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def __post_init__(self) -> None:
        y = np.asarray(self.y)
        w = np.asarray(self.w)
        if y.ndim != 1 or w.ndim != 1 or y.shape[0] != w.shape[0]:
            raise SpecError("y and w must be equal-length vectors")
        if not np.isin(y, (0, 1)).all():
            raise SpecError("y must contain only 0 and 1")
        if not np.isfinite(w).all() or (w < 0).any():
            raise SpecError("weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise SpecError("total weight must be finite")
        if y.shape[0] > 0 and not total > 0:
            raise SpecError("total weight must be positive")
        for name, col in self.records.items():
            if len(col) != y.shape[0]:
                raise SpecError(f"record column {name!r} has wrong length")


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x q design matrix of attribute indicators whose first column is 1, held as its runs.

    `blocks` maps each characteristic (name, start, stop) to its column
    range; the ranges follow one another from column 1 up to q.  A run
    (lo, hi, joint, table) joins the characteristics whose columns lie in
    lo..hi-1.  joint (int32) is each row's joint code, its attributes there
    as the digits of a mixed-radix number (the first characteristic's digit
    most significant); row k of the K x (hi - lo) 0/1 table marks the
    attributes joint code k holds, so X[:, lo:hi] equals table[joint].  The
    joint codes are the only per-row data a design holds.

    A run grows while the product of its attribute counts stays within
    sqrt(n); a characteristic with more attributes is a run by itself.  So
    a run's histogram has at most sqrt(n) bins and a pair of runs' at most
    n, or no more than the q x q result where a run is one such wide
    characteristic.

    `scores` (X beta), `rmatvec` (X' r) and `gram` (X' diag(c) X) are the
    operations the fit, the centering counts and the metrics need, one
    definition each.  `merged` merges its repeated rows for the fit, and
    `x` is the dense n x q float view, built on first read and then kept.
    """

    n: int
    blocks: tuple[tuple[str, int, int], ...]
    runs: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, n: int, blocks: tuple, columns: Iterable[np.ndarray]) -> "DesignMatrix":
        """The design whose characteristic c has attribute columns[c][i] on row i.

        columns yields one integer array of n attribute indices per block,
        in block order; each is folded into its run's joint codes as it comes.
        """
        limit = math.isqrt(n)
        groups: list[list[tuple[int, int]]] = []  # (start, stop) per run
        size = 0
        for _, start, stop in blocks:
            if groups and size * (stop - start) <= limit:
                groups[-1].append((start, stop))
                size *= stop - start
            else:
                groups.append([(start, stop)])
                size = stop - start
        columns = iter(columns)
        runs = []
        for group in groups:
            lo, hi = group[0][0], group[-1][1]
            joint = np.zeros(n, dtype=np.int32)
            for start, stop in group:
                joint *= stop - start
                joint += next(columns) - start
            widths = [stop - start for start, stop in group]
            digits = np.indices(widths).reshape(len(group), -1)
            table = np.hstack([np.eye(width)[digit] for width, digit in zip(widths, digits)])
            runs.append((lo, hi, joint, table))
        return cls(n, tuple(blocks), tuple(runs))

    @property
    def q(self) -> int:
        return self.blocks[-1][2]

    @cached_property
    def x(self) -> np.ndarray:
        """The dense n x q float matrix."""
        return np.hstack([np.ones((self.n, 1)), *(table[joint] for _, _, joint, table in self.runs)])

    def merged(self, y: np.ndarray, w: np.ndarray) -> tuple["DesignMatrix", np.ndarray, np.ndarray]:
        """The rows of equal y and attributes merged into their first, their weights summed.

        A row's key is its y's group among the bits of y, with each run's
        joint code appended as a mixed-radix digit (key * K + joint); where
        a digit could take the keys past 2^63 they are renumbered first, so
        none wraps.  Groups are numbered in order of first rows and summed
        in row order (`_key_groups`); with no repeated row the design comes
        back as given, else the merged design's runs fit its own row count.
        """
        key, first = _key_groups(y.view(np.uint64))
        bound = int(np.count_nonzero(first))  # every key is below it
        for _, _, joint, table in self.runs:
            k = table.shape[0]
            if bound * k > 1 << 63:
                key, first = _key_groups(key.view(np.uint64))
                bound = int(np.count_nonzero(first))
                if bound == self.n:
                    return self, y, w
            key = np.multiply(key, k, dtype=np.int64)
            key += joint
            bound *= k
        group, first = _key_groups(key.view(np.uint64))
        rows = np.flatnonzero(first)
        if rows.size == self.n:
            return self, y, w
        columns = (
            (start + table[:, start - lo : stop - lo].argmax(axis=1)).astype(np.int32)[joint[rows]]
            for lo, hi, joint, table in self.runs
            for _, start, stop in self.blocks
            if lo <= start < hi
        )
        design = DesignMatrix.build(rows.size, self.blocks, columns)
        return design, y[rows], np.bincount(group, weights=w, minlength=rows.size)

    def scores(self, beta: np.ndarray) -> np.ndarray:
        """theta = X beta: the intercept plus one looked-up weight sum per run."""
        theta = np.full(self.n, float(beta[0]))
        for lo, hi, joint, table in self.runs:
            theta += (table @ beta[lo:hi])[joint]
        return theta

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X' r: r.sum() for the intercept, and per run table' h for the
        histogram h = bincount(joint, r) of its joint codes.

        One pass over the rows per run.  Each histogram bin sums its rows in
        row order, and each design column sums the bins that hold it, so
        sums of integral weights (the centering counts of unit weights) are
        exact.
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


# Grouping by 64-bit keys, of the loader's cells and of a design's rows.
# Multiplier of the slot table that finds each key among the distinct keys.
_SLOT_MIX = np.uint64(0x9E3779B97F4A7C15)


def _find(distinct: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The index of each key in the sorted, distinct keys that hold them all.

    The distinct keys go into a slot table of 8 to 16 slots per key, or 2
    to 4 per item where there are more keys than a quarter of the items, by
    multiplicative hashing: most items find their key in one gather, and an
    item whose slot holds another key takes a binary search.
    """
    bits = min(8 * len(distinct), 2 * len(key)).bit_length()
    shift = np.uint64(64 - bits)
    slot = distinct * _SLOT_MIX
    slot >>= shift
    table = np.zeros(1 << bits, dtype=np.intp)
    table[slot.view(np.intp)] = np.arange(len(distinct))
    slot = key * _SLOT_MIX
    slot >>= shift
    found = table[slot.view(np.intp)]
    miss = np.flatnonzero(distinct[found] != key)
    found[miss] = np.searchsorted(distinct, key[miss])
    return found


def _key_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Items grouped by their uint64 keys: each item's group, and whether it is its group's first.

    Groups are numbered 0, 1, ... in order of first occurrence, as int32.
    The distinct keys come from a sort, and `_find` gives each item its
    key's place among them.
    """
    ordered = np.sort(key)
    new = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered, new
    if len(distinct) == len(key):
        # Every item has a key of its own: each is its own group.
        return np.arange(len(key), dtype=np.int32), np.ones(len(key), dtype=bool)
    group = _find(distinct, key)
    # Each group's first item: a reversed scatter, so no stable sort.
    first = np.empty(len(distinct), dtype=np.intp)
    first[group[::-1]] = np.arange(len(key) - 1, -1, -1)
    is_first = np.zeros(len(key), dtype=bool)
    is_first[first] = True
    first = np.flatnonzero(is_first)
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[group[first]] = np.arange(len(first), dtype=np.int32)
    return rank[group], is_first


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
    its `number_text` (NaN as missing), a text as itself, any other object
    as its str.  That text is binned by `_bin_values`.
    """
    if raw is not None and not isinstance(raw, str):
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raw = str(raw)
        else:
            raw = None if math.isnan(value) else number_text(value)
    return int(_bin_values(ch, [raw])[0])


_EMPTY_IF_NONE = {None: ""}


def _number(text: Optional[str]) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _numbers(texts: list[Optional[str]]) -> np.ndarray:
    """The number in each text, NaN for None and for a text that is no number.

    One `float` map in C parses every text; only if some text is None or
    no number is each one parsed by a Python call (`_number`).
    """
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except (TypeError, ValueError):
        return np.fromiter(map(_number, texts), float, len(texts))


def _bin_values(ch: Characteristic, values: list[Optional[str]]) -> np.ndarray:
    """The attribute index (int32) each text or None bins to: the one binning rule.

    Texts are stripped.  Matching is total: Special rules are tried first
    (exact numeric match), then Category membership on the text, then
    Intervals with lo <= v < hi, in declared order within each kind.
    Missing values (None, empty text) and anything unmatched fall through
    to the NoInformation attribute.

    Numbers are parsed by `_numbers`, the empty text and a category label
    that is no number as "nan" (NaN matches no special and no interval, as
    no number does), so only a column with some other text that is no
    number is parsed by a Python call per value.  Intervals match by
    one searchsorted over the elementary intervals; then category and
    special matches, exact lookups, overwrite them in the reverse of the
    order the rule tries them; missing values go to NoInformation.
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
    numbers = _numbers(list(map(nan_texts.get, texts, texts)))
    edges, owner = ch.elementary_intervals
    atts = np.full(m, ch.noinfo.att_index, dtype=np.int32)
    # NaN and +inf match no interval: lo <= v < hi fails for both.
    ranged = numbers < math.inf
    atts[ranged] = owner[np.searchsorted(edges, numbers[ranged], side="right")]
    if labels:
        hits = np.fromiter(map(labels.get, texts, repeat(0)), np.int32, m)
        atts = np.where(hits > 0, hits, atts)
    for att in reversed(ch.attributes):
        if isinstance(att.bin, SpecialBin):
            atts[numbers == att.bin.value] = att.att_index
    atts[np.fromiter(map(operator.not_, texts), bool, m)] = ch.noinfo.att_index
    return atts


def build_design_matrix(spec: ScorecardSpec, sample: Sample) -> DesignMatrix:
    """Bin a sample under a spec into a design matrix.

    Sample records must provide every characteristic in the spec and no
    others.  Each column's distinct values are binned once and gathered
    through its inverse into an int32 column of attributes, which
    `DesignMatrix.build` folds into its run before the next one is made.
    """
    known = {ch.name for ch in spec.characteristics}
    unknown = set(sample.records) - known
    if unknown:
        raise SpecError(f"sample has unknown characteristic(s): {sorted(unknown)}")
    missing = known - set(sample.records)
    if missing:
        raise SpecError(f"sample lacks characteristic(s): {sorted(missing)}")

    chars = spec.characteristics
    stops = list(accumulate((len(ch.attributes) for ch in chars), initial=1))
    blocks = tuple((ch.name, start, stop) for ch, start, stop in zip(chars, stops, stops[1:]))
    records = [sample.records[ch.name] for ch in chars]
    columns = (_bin_values(ch, col.values)[col.inverse] for ch, col in zip(chars, records))
    return DesignMatrix.build(sample.n, blocks, columns)


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


def _parse_tag(text: str, where: str) -> tuple[TagTerm, ...]:
    text = text.strip()
    if not text:
        return ()
    terms: list[TagTerm] = []
    for part in text.split("&"):
        part = part.strip()
        match = _TERM_RE.match(part)
        if match is None:
            raise SpecError(f"{where}: malformed constraint term {part!r}")
        op, arg = match.groups()
        try:
            terms.append(TagTerm(op, float(arg) if op == "=" else int(arg)))
        except ValueError:
            what = "fixed value" if op == "=" else "attribute reference"
            raise SpecError(f"{where}: bad {what} {arg!r}") from None
    return tuple(terms)


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
    """Parse the spec CSV format into a ScorecardSpec, which checks itself when made.

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
    return ScorecardSpec(
        characteristics=tuple(
            Characteristic(name=name, attributes=tuple(grouped[name]))
            for name in order
        )
    )


def format_tag(tag: tuple[TagTerm, ...]) -> str:
    """Render an attribute's tag terms in the spec file grammar (empty for none):
    each term is its op and its operand's number_text, joined by " & "."""
    return " & ".join(f"{term.op} {number_text(term.operand)}" for term in tag)
