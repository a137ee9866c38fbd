"""Scorecard domain model: characteristics, attributes, bin rules, constraint tags.

A scorecard partitions each predictor (characteristic) into bins (attributes)
and assigns one additive weight per attribute.  This module parses the spec
file format, bins raw values, and builds design matrices with an intercept
column.  A spec-built design stores one integer column code per
characteristic and row, not the 0/1 indicator matrix; scores, X'r and
X' diag(c) X are computed from the codes, and the dense indicator matrix is
only built when `DesignMatrix.x` is read.

Outcome convention: y = 1 means Good throughout the package.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy.linalg.blas import dsyrk

__all__ = [
    "SpecError",
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
    "Sample",
    "DesignMatrix",
    "parse_spec",
    "write_spec",
    "format_tag",
    "bin_value",
    "build_design_matrix",
    "score_vector",
]

SPEC_HEADER = ("char", "att", "label", "kind", "lo", "hi", "categories", "constraint")


class SpecError(ValueError):
    """Raised for malformed or inconsistent scorecard specifications."""


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

    @cached_property
    def _by_index(self) -> dict[int, tuple[Characteristic, Attribute]]:
        return {att.att_index: (ch, att) for ch, att in self.iter_attributes()}

    def attribute(self, att_index: int) -> Attribute:
        try:
            return self._by_index[att_index][1]
        except KeyError:
            raise SpecError(f"no attribute with index {att_index}") from None

    def characteristic_of(self, att_index: int) -> Characteristic:
        try:
            return self._by_index[att_index][0]
        except KeyError:
            raise SpecError(f"no attribute with index {att_index}") from None

    def characteristic(self, name: str) -> Characteristic:
        for ch in self.characteristics:
            if ch.name == name:
                return ch
        raise SpecError(f"no characteristic named {name!r}")

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
class Sample:
    """Weighted binary-outcome observations with raw characteristic values.

    y is 0/1 with 1 = Good; w is nonnegative with positive total; records maps
    characteristic name to a length-n array of raw values (None for missing).
    """

    y: np.ndarray
    w: np.ndarray
    records: dict[str, np.ndarray]

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


# Rows per dense block when DesignMatrix.gram accumulates X' diag(c) X.
GRAM_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x q design matrix whose first column is identically 1.

    A spec-built design stores `codes`, an n x (1 + C) integer matrix over
    its C characteristics: column 0 is the intercept's code 0, and column
    c + 1 holds the design column (the attribute index) that row i bins to
    in characteristic c.  `blocks` maps each characteristic (name, start,
    stop) to its column range.  A raw numeric basis (`from_array`) stores
    its n x q matrix in `raw` and has no blocks.  Exactly one of `codes`
    and `raw` is set.

    `scores`, `rmatvec` and `gram` are the operations a fit needs; `x` is
    the dense n x q float view, built on first read and then kept.
    """

    column_labels: tuple[str, ...]
    codes: Optional[np.ndarray] = None
    raw: Optional[np.ndarray] = None
    blocks: tuple[tuple[str, int, int], ...] = ()

    @property
    def n(self) -> int:
        values = self.codes if self.codes is not None else self.raw
        return int(values.shape[0])

    @property
    def q(self) -> int:
        return len(self.column_labels)

    @classmethod
    def from_array(cls, x: np.ndarray, column_labels: Optional[Sequence[str]] = None) -> "DesignMatrix":
        """Wrap an externally built numeric basis matrix (no binning, no blocks)."""
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] < 1:
            raise SpecError("design matrix must be 2-d with at least one column")
        if x.shape[0] > 0 and not (x[:, 0] == 1.0).all():
            raise SpecError("design matrix column 1 must be identically 1")
        if column_labels is None:
            labels = _default_labels(x.shape[1])
        else:
            labels = tuple(column_labels)
            if len(labels) != x.shape[1]:
                raise SpecError("column label count must match column count")
        return cls(column_labels=labels, raw=x)

    @classmethod
    def coerce(cls, x: Union["DesignMatrix", np.ndarray]) -> "DesignMatrix":
        """x itself, or a raw basis over the 2-d array x (not copied or checked)."""
        if isinstance(x, DesignMatrix):
            return x
        mat = np.asarray(x, dtype=float)
        if mat.ndim != 2:
            raise SpecError("design matrix must be 2-d")
        return cls(column_labels=_default_labels(mat.shape[1]), raw=mat)

    @cached_property
    def x(self) -> np.ndarray:
        """The dense n x q float matrix."""
        if self.raw is not None:
            return self.raw
        dense = np.zeros((self.n, self.q))
        dense[np.arange(self.n)[:, None], self.codes] = 1.0
        return dense

    def scores(self, beta: np.ndarray) -> np.ndarray:
        """theta = X beta; for codes, the sum of each row's gathered weights."""
        if self.raw is not None:
            return self.raw @ beta
        return beta[self.codes].sum(axis=1)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X' r; for codes, r summed per design column by bincount."""
        if self.raw is not None:
            return self.raw.T @ r
        return np.bincount(
            self.codes.ravel(),
            weights=np.repeat(r, self.codes.shape[1]),
            minlength=self.q,
        )

    def gram(self, c: np.ndarray) -> np.ndarray:
        """X' diag(c) X for nonnegative c, as a symmetric q x q matrix.

        Accumulated by dsyrk over dense blocks of GRAM_CHUNK_ROWS rows of
        diag(sqrt(c)) X, so no n x q temporary is formed.
        """
        acc = np.zeros((self.q, self.q), order="F")
        for block in self._row_blocks(np.sqrt(c)):
            # block.T is the Fortran-ordered q x m view, so dsyrk forms
            # block' block without copying.
            acc = dsyrk(1.0, block.T, beta=1.0, c=acc, overwrite_c=1)
        return np.triu(acc) + np.triu(acc, 1).T

    def _row_blocks(self, scale: np.ndarray) -> Iterator[np.ndarray]:
        """Consecutive dense blocks of GRAM_CHUNK_ROWS rows of diag(scale) X.

        Coded blocks share one buffer: each is valid until the next is drawn.
        """
        step = GRAM_CHUNK_ROWS
        if self.raw is not None:
            for lo in range(0, self.n, step):
                yield self.raw[lo : lo + step] * scale[lo : lo + step, None]
            return
        buf = np.zeros((min(self.n, step), self.q))
        rows = np.arange(buf.shape[0])[:, None]
        for lo in range(0, self.n, step):
            codes = self.codes[lo : lo + step]
            block, at = buf[: len(codes)], (rows[: len(codes)], codes)
            block[at] = scale[lo : lo + step, None]
            yield block
            block[at] = 0.0


def _default_labels(q: int) -> tuple[str, ...]:
    return tuple("intercept" if j == 0 else f"x{j}" for j in range(q))


# ---------------------------------------------------------------------------
# Binning


def _coerce_raw(raw: object) -> tuple[bool, Optional[float], str]:
    """Normalize a raw record value to (missing, numeric form, text form)."""
    if raw is None:
        return True, None, ""
    if isinstance(raw, str):
        text = raw.strip()
        if not text:
            return True, None, ""
        try:
            return False, float(text), text
        except ValueError:
            return False, None, text
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return False, None, str(raw)
    if math.isnan(value):
        return True, None, ""
    return False, value, _canonical_number(value)


def _canonical_number(value: float) -> str:
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def bin_value(ch: Characteristic, raw: object) -> int:
    """Map a raw value to the characteristic's matching attribute index.

    Matching is total: Special rules are tried first (exact numeric match),
    then Category membership on the value's string form, then Intervals with
    lo <= v < hi, in declared order within each kind.  Missing values (None,
    NaN, empty string) and anything unmatched fall through to the
    NoInformation attribute.
    """
    missing, numeric, text = _coerce_raw(raw)
    if not missing:
        if numeric is not None:
            for att in ch.attributes:
                if isinstance(att.bin, SpecialBin) and numeric == att.bin.value:
                    return att.att_index
        for att in ch.attributes:
            if isinstance(att.bin, CategoryBin) and text in att.bin.labels:
                return att.att_index
        if numeric is not None:
            for att in ch.attributes:
                if isinstance(att.bin, IntervalBin) and att.bin.lo <= numeric < att.bin.hi:
                    return att.att_index
    return ch.noinfo.att_index


def _bin_column(ch: Characteristic, column: Sequence[object]) -> np.ndarray:
    """bin_value over a column, called once per distinct cell value.

    Each cell is looked up in a memo keyed by the cell itself; a cell equal
    to no earlier one (a new value, or a NaN, which equals nothing) becomes
    a key binned by a direct bin_value call.  Equal values bin alike, so the
    codes are those of a per-cell bin_value loop.  A column with an
    unhashable cell is binned cell by cell.
    """
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    first: dict[object, int] = {}
    try:
        # Each cell maps to the position of the first cell equal to it.
        pos = np.fromiter(
            map(first.setdefault, values, count()), dtype=np.intp, count=len(values)
        )
    except TypeError:
        return np.fromiter(
            (bin_value(ch, v) for v in values), dtype=np.intp, count=len(values)
        )
    code_at = np.empty(len(values), dtype=np.intp)
    for value, i in first.items():
        code_at[i] = bin_value(ch, value)
    return code_at[pos]


def build_design_matrix(spec: ScorecardSpec, sample: Sample) -> DesignMatrix:
    """Bin a sample under a spec into a coded design matrix.

    Row i has code 0 (the intercept) and, per characteristic, the column of
    the attribute its value bins to; sample records must provide every
    characteristic in the spec and no others.
    """
    known = {ch.name for ch in spec.characteristics}
    unknown = set(sample.records) - known
    if unknown:
        raise SpecError(f"sample has unknown characteristic(s): {sorted(unknown)}")
    missing = known - set(sample.records)
    if missing:
        raise SpecError(f"sample lacks characteristic(s): {sorted(missing)}")

    codes = np.zeros((sample.n, 1 + len(spec.characteristics)), dtype=np.intp)
    for c, ch in enumerate(spec.characteristics, start=1):
        codes[:, c] = _bin_column(ch, sample.records[ch.name])

    labels = ["intercept"]
    blocks = []
    start = 1
    for ch in spec.characteristics:
        labels.extend(f"{ch.name}:{att.label}" for att in ch.attributes)
        stop = start + len(ch.attributes)
        blocks.append((ch.name, start, stop))
        start = stop
    return DesignMatrix(column_labels=tuple(labels), codes=codes, blocks=tuple(blocks))


def score_vector(x: Union[DesignMatrix, np.ndarray], beta: np.ndarray) -> np.ndarray:
    """Scores theta = X beta for a design matrix and coefficient vector."""
    design = DesignMatrix.coerce(x)
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or design.q != beta.shape[0]:
        raise SpecError(
            f"dimension mismatch: design is {(design.n, design.q)}, "
            f"beta has length {beta.shape}"
        )
    return design.scores(beta)


# ---------------------------------------------------------------------------
# Spec file format


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


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_tag(tag: ConstraintTag) -> str:
    """Render a constraint tag in the spec file grammar (empty for no terms)."""
    parts = []
    for term in tag.terms:
        if isinstance(term, FixedTo):
            parts.append(f"= {_format_number(term.value)}")
        elif isinstance(term, GreaterThan):
            parts.append(f"> {term.att}")
        elif isinstance(term, LessThan):
            parts.append(f"< {term.att}")
        else:
            parts.append(f"~ {term.att}")
    return " & ".join(parts)


def write_spec(spec: ScorecardSpec) -> str:
    """Serialize a spec back to the CSV format; inverse of parse_spec."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SPEC_HEADER)
    for ch, att in spec.iter_attributes():
        lo = hi = cats = ""
        rule = att.bin
        if isinstance(rule, SpecialBin):
            kind = "special"
            lo = _format_number(rule.value)
        elif isinstance(rule, IntervalBin):
            kind = "interval"
            if math.isfinite(rule.lo):
                lo = _format_number(rule.lo)
            if math.isfinite(rule.hi):
                hi = _format_number(rule.hi)
        elif isinstance(rule, CategoryBin):
            kind = "category"
            cats = "|".join(sorted(rule.labels))
        else:
            kind = "noinfo"
        writer.writerow(
            [ch.name, att.att_index, att.label, kind, lo, hi, cats, format_tag(att.tag)]
        )
    return out.getvalue()
