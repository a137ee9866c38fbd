"""File formats and synthetic data: sample CSVs, model JSON, QP dumps.

The data CSV has header y,w,<characteristic names...>; empty cells are
missing values, y is 0/1 with 1 = Good, and w is a required nonnegative
weight.  It is read in one streaming pass that gives each column as its
distinct stripped cells and an integer inverse (a `Column`), mapping cell
texts to indices in one `map` per block; a column whose cells are mostly
distinct keeps them as read instead.  y and w are parsed once per distinct
cell.  Fitted models persist as versioned JSON with the spec text embedded
so evaluation can rebuild the design matrix.  All writes go through a
temporary file and an atomic rename.

Synthetic samples draw each characteristic's attribute from class
conditional multinomials using the counter-based Philox generator, so one
seed produces byte-identical files on every platform.  Each attribute is
drawn as one raw value found from the binner's elementary intervals;
attributes no value reaches (rows that earlier ones cover) get no
probability by default.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from typing import Optional, get_type_hints

import numpy as np

from .constraints import ConstraintResiduals, ConstraintSet
from .model import (
    CategoryBin,
    Characteristic,
    Column,
    NoInformationBin,
    Sample,
    ScorecardSpec,
    SpecError,
    SpecialBin,
    _Index,
    bin_value,
    parse_spec,
)
from .qp import KktResiduals, QpProblem
from .sqp import FitResult, IterationRecord, PenaltySpec

__all__ = [
    "DataError",
    "SyntheticConfig",
    "ModelFile",
    "load_sample",
    "representatives",
    "gen_synthetic",
    "implied_true_beta",
    "save_model",
    "load_model",
    "save_qp_problem",
    "load_qp_problem",
    "load_score_csv",
    "save_score_csv",
    "atomic_write_text",
]

MODEL_FORMAT = "scorecraft-model"
MODEL_VERSION = 1
QP_FORMAT = "scorecraft-qp"
QP_VERSION = 2


class DataError(ValueError):
    """Raised for malformed data files or synthetic configurations."""


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Sample CSV


def _y_value(path: str, row: int, cell: str) -> float:
    """The outcome in a stripped y cell; DataError names the row otherwise."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}: row {row}, column y: bad value {cell!r}") from None
    if value not in (0.0, 1.0):
        raise DataError(f"{path}: row {row}, column y: value {cell!r} is not 0 or 1")
    return value


def _w_value(path: str, row: int, cell: str) -> float:
    """The weight in a stripped w cell; DataError names the row otherwise."""
    if not cell:
        raise DataError(f"{path}: row {row}, column w: weight is required")
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}: row {row}, column w: bad value {cell!r}") from None
    if not math.isfinite(value) or value < 0:
        raise DataError(
            f"{path}: row {row}, column w: weight must be finite and nonnegative"
        )
    return value


def _parsed(path: str, values: list, value) -> np.ndarray:
    """value() of each stripped cell value; NaN where it raises."""
    out = np.empty(len(values))
    for i, cell in enumerate(values):
        try:
            out[i] = value(path, 0, cell or "")
        except DataError:
            out[i] = math.nan
    return out


# Rows are read in blocks of this many.  A column is factorized until a block
# ends with over half of its cells read so far distinct: then a dictionary of
# nearly every cell costs more memory and time than it saves.  A block is
# long enough that a column of a couple of thousand values among many more
# rows is not judged by its first, mostly new, cells alone, and short
# enough that a column of distinct cells is dropped from the table early.
SHARE_BLOCK_ROWS = 4096
_NONE_IF_EMPTY = {"": None}


class _CellIndex(dict):
    """Cell text -> index of its stripped text (None if empty) in `values`.

    One table serves every column; a stripped text gets one index wherever
    it appears.
    """

    def __init__(self) -> None:
        super().__init__()
        self.values = _Index()

    def __missing__(self, text: str) -> int:
        self[text] = i = self.values[text.strip() or None]
        return i


def _stripped(cells: list) -> list:
    cells = list(map(str.strip, cells))
    return list(map(_NONE_IF_EMPTY.get, cells, cells))


def _factorized_columns(rows, width: int) -> list[Column]:
    """Each column's stripped cells, empty ones as None, as a Column.

    One table maps each cell text to the index of its stripped text.  While
    every column is factorized, a block's texts map to indices in one `map`;
    after that, one `map` per factorized column and block.  A column that
    stops keeps its cells as values, with inverse arange; once all columns
    have stopped, the table is dropped.
    """
    table: Optional[_CellIndex] = _CellIndex()
    parts: list[list] = [[] for _ in range(width)]  # index blocks, or cells
    factorized = [True] * width
    seen = np.zeros((width, 0), dtype=bool)  # seen[j, i]: column j holds value i
    read = 0
    while block := list(chain.from_iterable(islice(rows, SHARE_BLOCK_ROWS))):
        read += len(block) // width
        if all(factorized):
            ids = np.fromiter(map(table.__getitem__, block), np.int32, len(block))
            for j, part in enumerate(parts):
                part.append(ids[j::width])
        else:
            for j, part in enumerate(parts):
                cells = block[j::width]
                if factorized[j]:
                    part.append(np.fromiter(map(table.__getitem__, cells), np.int32, len(cells)))
                else:
                    part += _stripped(cells)
        if table is None:
            continue
        if len(table.values) > seen.shape[1]:
            grown = np.zeros((width, 2 * len(table.values)), dtype=bool)
            grown[:, : seen.shape[1]] = seen
            seen = grown
        for j in filter(factorized.__getitem__, range(width)):
            seen[j, parts[j][-1]] = True
        stopping = [
            j for j in range(width) if factorized[j] and np.count_nonzero(seen[j]) > read // 2
        ]
        distinct = list(table.values) if stopping else []
        for j in stopping:
            parts[j] = list(map(distinct.__getitem__, np.concatenate(parts[j]).tolist()))
            factorized[j] = False
        if not any(factorized):
            table = None
    distinct = list(table.values) if table is not None else []
    columns = []
    for part, keep, mark in zip(parts, factorized, seen):
        if not keep:
            columns.append(Column(part, np.arange(len(part), dtype=np.int32)))
            continue
        # Renumber the column's own values 0, 1, ... in table order.
        ids = np.concatenate(part) if part else np.zeros(0, np.int32)
        values = list(map(distinct.__getitem__, np.flatnonzero(mark).tolist()))
        columns.append(Column(values, (np.cumsum(mark, dtype=np.int32) - 1)[ids]))
    return columns


def load_sample(path: str) -> Sample:
    """Read a data CSV into a Sample; empty characteristic cells are missing.

    The file is read in one streaming pass.  Each column becomes a `Column`
    of its distinct stripped cells and an inverse, unless most of its cells
    are distinct; y and w are parsed once per distinct cell.

    A faulty file reports its first faulty row; within a row the field count
    comes first, then y, then w.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = (
            row for row in csv.reader(handle) if row and not row[0].lstrip().startswith("#")
        )
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: empty data file")
        header = [cell.strip() for cell in header]
        if len(header) < 2 or header[0] != "y" or header[1] != "w":
            raise DataError(f"{path}: header must start with y,w")
        char_names = header[2:]
        if len(set(char_names)) != len(char_names):
            raise DataError(f"{path}: duplicate characteristic column")
        if any(not name for name in char_names):
            raise DataError(f"{path}: empty characteristic column name")
        width = len(header)
        ragged: list[tuple[int, int]] = []

        def full_rows():
            # Reading stops at a row of the wrong length; the rows before it
            # are still checked, since an earlier fault is the one to report.
            for i, row in enumerate(rows, start=1):
                if len(row) != width:
                    ragged.append((i, len(row)))
                    return
                yield row

        y_cells, w_cells, *columns = _factorized_columns(full_rows(), width)
    y = _parsed(path, y_cells.values, _y_value)[y_cells.inverse]
    w = _parsed(path, w_cells.values, _w_value)[w_cells.inverse]
    bad = np.flatnonzero(np.isnan(y) | np.isnan(w))
    if bad.size:
        i = int(bad[0])
        # One of these raises: the row has a y or a w that does not parse.
        _y_value(path, i + 1, y_cells.values[y_cells.inverse[i]] or "")
        _w_value(path, i + 1, w_cells.values[w_cells.inverse[i]] or "")
    if ragged:
        i, fields = ragged[0]
        raise DataError(f"{path}: row {i} has {fields} fields, expected {width}")

    sample = Sample(y=y, w=w, records=dict(zip(char_names, columns)))
    try:
        return sample.validate()
    except SpecError as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True, eq=False)
class SyntheticConfig:
    """Class-conditional multinomial generator configuration.

    good_probs/bad_probs map characteristic name to a probability vector over
    that characteristic's attributes (spec order, including NoInformation);
    each vector must sum to 1.  true_weights optionally carries a length-q
    coefficient vector for oracle checks.
    """

    seed: int
    n_good: int
    n_bad: int
    spec: ScorecardSpec
    good_probs: dict[str, np.ndarray] = field(default_factory=dict)
    bad_probs: dict[str, np.ndarray] = field(default_factory=dict)
    true_weights: Optional[np.ndarray] = None

    def validate(self) -> "SyntheticConfig":
        if self.n_good < 1 or self.n_bad < 1:
            raise DataError("n_good and n_bad must be at least 1")
        for which, probs in (("good_probs", self.good_probs), ("bad_probs", self.bad_probs)):
            for ch in self.spec.characteristics:
                if ch.name not in probs:
                    raise DataError(f"{which} lacks characteristic {ch.name!r}")
                p = np.asarray(probs[ch.name], dtype=float)
                if p.shape != (len(ch.attributes),):
                    raise DataError(
                        f"{which}[{ch.name!r}] must have {len(ch.attributes)} entries"
                    )
                if (p < 0).any() or not np.isfinite(p).all():
                    raise DataError(f"{which}[{ch.name!r}] has invalid probabilities")
                if abs(float(p.sum()) - 1.0) > 1e-9:
                    raise DataError(
                        f"{which}[{ch.name!r}] must sum to 1, got {float(p.sum()):.12g}"
                    )
        if self.true_weights is not None:
            tw = np.asarray(self.true_weights, dtype=float)
            if tw.shape != (self.spec.q,):
                raise DataError(f"true_weights must have length {self.spec.q}")
        return self


def _midpoint(lo: float, hi: float) -> float:
    """A point of [lo, hi): its middle, or 1 inside a finite end, or 0."""
    if math.isfinite(lo) and math.isfinite(hi):
        return (lo + hi) / 2.0
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def representatives(ch: Characteristic) -> dict[int, object]:
    """A raw value that bins to each attribute, keyed by its position in ch.

    The first pick is a special's value, a category's first label, or the
    middle of an interval; where that bins elsewhere, the other labels, or
    the middle and left end of each elementary interval the attribute owns,
    are tried.  An attribute none of these reach (an interval that earlier
    rows cover, say) is left out.
    """
    edges, owner = ch.elementary_intervals()
    pieces = list(zip(owner, [-math.inf, *edges], [*edges, math.inf]))
    found: dict[int, object] = {}
    for k, att in enumerate(ch.attributes):
        rule = att.bin
        if isinstance(rule, NoInformationBin):
            found[k] = None
            continue
        if isinstance(rule, SpecialBin):
            tries: list = [rule.value]
        elif isinstance(rule, CategoryBin):
            tries = sorted(rule.labels)
        else:
            tries = [_midpoint(rule.lo, rule.hi)]
            for index, lo, hi in pieces:
                if index == att.att_index:
                    tries += [_midpoint(lo, hi)] + ([lo] if math.isfinite(lo) else [])
        for raw in tries:
            if bin_value(ch, raw) == att.att_index:
                found[k] = raw
                break
    return found


def _format_cell(raw: object) -> str:
    if raw is None:
        return ""
    if isinstance(raw, str):
        return raw
    value = float(raw)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def gen_synthetic(cfg: SyntheticConfig, path: Optional[str] = None) -> Sample:
    """Draw a synthetic sample; optionally write it as a data CSV.

    Attribute draws use inverse-CDF lookups on Philox-generated uniforms, so
    a given seed yields the same sample, and the same file bytes, on every
    platform.  Rows are all Goods first, then all Bads, unit weights.  Each
    attribute is drawn as its `representatives` value; one with none and a
    positive probability raises DataError.
    """
    cfg.validate()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n = cfg.n_good + cfg.n_bad
    y = np.concatenate([np.ones(cfg.n_good), np.zeros(cfg.n_bad)])
    w = np.ones(n)
    records: dict[str, Column] = {}
    for ch in cfg.spec.characteristics:
        reps = representatives(ch)
        for k, att in enumerate(ch.attributes):
            if k not in reps and (cfg.good_probs[ch.name][k] > 0 or cfg.bad_probs[ch.name][k] > 0):
                raise DataError(
                    f"{ch.name!r} attribute {att.att_index} ({att.label!r}) has a positive "
                    "probability, but no value found bins to it"
                )
        draws = []
        for cls_probs, rows in ((cfg.good_probs, cfg.n_good), (cfg.bad_probs, cfg.n_bad)):
            cum = np.cumsum(np.asarray(cls_probs[ch.name], dtype=float))
            cum[-1] = 1.0
            draws.append(np.searchsorted(cum, rng.random(rows), side="right"))
        values = [reps.get(k) for k in range(len(ch.attributes))]
        records[ch.name] = Column(values, np.concatenate(draws).astype(np.int32))
    sample = Sample(y=y, w=w, records=records).validate()

    if path is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        names = [ch.name for ch in cfg.spec.characteristics]
        cells = []
        for nm in names:
            texts = [_format_cell(v) for v in records[nm].values]
            cells.append(list(map(texts.__getitem__, records[nm].inverse.tolist())))
        writer.writerow(["y", "w"] + names)
        writer.writerows(zip([str(int(v)) for v in y], repeat("1"), *cells))
        atomic_write_text(path, buffer.getvalue())
    return sample


def implied_true_beta(cfg: SyntheticConfig) -> np.ndarray:
    """Coefficients the generator implies under class-conditional independence.

    Intercept log(n_good/n_bad); attribute weight log(PGood/PBad) where both
    class probabilities are positive, 0 where both are zero.  An attribute
    drawn by only one class has no finite weight and raises.
    """
    cfg.validate()
    beta = np.zeros(cfg.spec.q)
    beta[0] = math.log(cfg.n_good / cfg.n_bad)
    for ch in cfg.spec.characteristics:
        pg = np.asarray(cfg.good_probs[ch.name], dtype=float)
        pb = np.asarray(cfg.bad_probs[ch.name], dtype=float)
        for k, att in enumerate(ch.attributes):
            if pg[k] > 0 and pb[k] > 0:
                beta[att.att_index] = math.log(pg[k] / pb[k])
            elif pg[k] == 0 and pb[k] == 0:
                beta[att.att_index] = 0.0
            else:
                raise DataError(
                    f"attribute {att.att_index} ({ch.name!r}) is drawn by only "
                    "one class; its implied weight is not finite"
                )
    return beta


# ---------------------------------------------------------------------------
# Model persistence


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A fitted model as persisted: coefficients plus fit provenance."""

    beta: np.ndarray
    lam: float
    status: str
    trajectory: tuple[IterationRecord, ...]
    kkt: KktResiduals
    residuals: ConstraintResiduals
    minus_ll: float
    spec_text: Optional[str] = None
    note: str = ""

    @classmethod
    def from_fit(
        cls, result: FitResult, pen: PenaltySpec, spec_text: Optional[str] = None
    ) -> "ModelFile":
        return cls(
            beta=np.asarray(result.beta, dtype=float),
            lam=pen.lam,
            status=result.status,
            trajectory=result.trajectory,
            kkt=result.kkt,
            residuals=result.residuals,
            minus_ll=result.minus_ll,
            spec_text=spec_text,
            note=result.note,
        )

    def spec(self) -> ScorecardSpec:
        if self.spec_text is None:
            raise DataError("model file carries no spec text")
        return parse_spec(self.spec_text)


def save_model(path: str, model: ModelFile) -> None:
    """Write a model as versioned, diffable JSON (atomic)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "q": int(model.beta.shape[0]),
        "lam": model.lam,
        "status": model.status,
        "minus_ll": model.minus_ll,
        "note": model.note,
        "beta": [float(v) for v in model.beta],
        "trajectory": [asdict(rec) for rec in model.trajectory],
        "kkt": asdict(model.kkt),
        "residuals": asdict(model.residuals),
        "spec_sha256": (
            hashlib.sha256(model.spec_text.encode("utf-8")).hexdigest()
            if model.spec_text is not None
            else None
        ),
        "spec_text": model.spec_text,
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _fields(cls, data: dict):
    """A record of numbers from the same-named JSON fields, cast to their types."""
    return cls(**{name: kind(data[name]) for name, kind in get_type_hints(cls).items()})


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _read_json(path: str, fmt: str, version: int, kind: str) -> dict:
    """Load a versioned JSON file; reading a key it lacks raises DataError."""

    class Fields(dict):
        def __missing__(self, key):
            raise DataError(f"{path}: missing key {key!r}")

        def read(self, key: str, convert, optional: bool = False):
            """convert(self[key]); a value it rejects raises DataError naming the key.

            An optional key that is absent or null reads as None.
            """
            if optional and self.get(key) is None:
                return None
            try:
                return convert(self[key])
            except DataError:
                raise
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: key {key!r} has a value of the wrong type or shape"
                ) from None

    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_hook=Fields)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise DataError(f"{path}: not a {fmt} file")
    if payload.get("version") != version:
        raise DataError(f"{path}: unsupported {kind} version {payload.get('version')}")
    return payload


def load_model(path: str) -> ModelFile:
    """Read a model JSON, checking format, version, key types and spec hash."""
    payload = _read_json(path, MODEL_FORMAT, MODEL_VERSION, "model")
    read = payload.read
    beta = read("beta", _floats)
    if beta.shape != (read("q", int),):
        raise DataError(f"{path}: beta length disagrees with q")
    spec_text = read("spec_text", _text, optional=True)
    stored_hash = payload.get("spec_sha256")
    if spec_text is not None and stored_hash is not None:
        actual = hashlib.sha256(spec_text.encode("utf-8")).hexdigest()
        if actual != stored_hash:
            raise DataError(f"{path}: spec text does not match its stored hash")
    return ModelFile(
        beta=beta,
        lam=read("lam", float),
        status=str(payload["status"]),
        trajectory=read(
            "trajectory", lambda recs: tuple(map(partial(_fields, IterationRecord), recs))
        ),
        kkt=read("kkt", partial(_fields, KktResiduals)),
        residuals=read("residuals", partial(_fields, ConstraintResiduals)),
        minus_ll=read("minus_ll", float),
        spec_text=spec_text,
        note=str(payload.get("note", "")),
    )


# ---------------------------------------------------------------------------
# QP problem dumps


def save_qp_problem(path: str, problem: QpProblem) -> None:
    """Dump one QP instance as self-describing JSON for offline debugging."""
    payload = {
        "format": QP_FORMAT,
        "version": QP_VERSION,
        "q": problem.q,
        "h": problem.h.tolist(),
        "f": problem.f.tolist(),
        "aeq": problem.cs.aeq.tolist(),
        "beq": problem.cs.beq.tolist(),
        "a": problem.cs.a.tolist(),
        "b": problem.cs.b.tolist(),
        "warm_start": None if problem.warm_start is None else problem.warm_start.tolist(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_qp_problem(path: str) -> QpProblem:
    payload = _read_json(path, QP_FORMAT, QP_VERSION, "dump")
    read = payload.read
    q = read("q", int)
    h = read("h", lambda v: _floats(v).reshape(q, q))
    try:
        cs = ConstraintSet(
            aeq=read("aeq", lambda v: _floats(v).reshape(-1, q)),
            beq=read("beq", _floats),
            a=read("a", lambda v: _floats(v).reshape(-1, q)),
            b=read("b", _floats),
        )
    except SpecError as exc:
        raise DataError(f"{path}: {exc}") from None
    return QpProblem(
        h=h,
        f=read("f", _floats),
        cs=cs,
        warm_start=read("warm_start", _floats, optional=True),
    )


# ---------------------------------------------------------------------------
# Score CSVs


def load_score_csv(path: str) -> np.ndarray:
    """Read a one-column score file with header `score`."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows or [c.strip() for c in rows[0]] != ["score"]:
        raise DataError(f"{path}: expected a single `score` column")
    values = np.zeros(len(rows) - 1)
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 1:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected 1")
        try:
            values[i - 1] = float(row[0])
        except ValueError:
            raise DataError(f"{path}: row {i}: bad score {row[0]!r}") from None
    return values


def save_score_csv(path: str, score: np.ndarray) -> None:
    lines = ["score"] + [repr(float(v)) for v in np.asarray(score, dtype=float)]
    atomic_write_text(path, "\n".join(lines) + "\n")
