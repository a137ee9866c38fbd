"""File formats and synthetic data: sample CSVs, model JSON, score CSVs.

The data CSV has header y,w,<characteristic names...>; empty cells are
missing values, y is 0/1 with 1 = Good, and w is a required nonnegative
weight.  `load_sample` reads it as the csv module would, each column as
its distinct stripped cells and an integer inverse (a `Column`), with no
Python object per cell.  Fitted models persist as versioned JSON with the
spec text embedded so evaluation can rebuild the design matrix.  All
writes go through a temporary file and an atomic rename.

Synthetic samples draw each characteristic's attribute from class
conditional multinomials using the counter-based Philox generator, so one
seed produces byte-identical files on every platform.  Each attribute is
drawn as one raw value found from the binner's elementary intervals;
attributes no value reaches (rows that earlier ones cover) get no
probability by default.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import math
import mmap
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import repeat
from typing import Iterable, Optional, Union, get_type_hints

import numpy as np

from .constraints import ConstraintResiduals
from .model import (
    CategoryBin,
    Characteristic,
    Column,
    DataError,
    NoInformationBin,
    Sample,
    ScorecardSpec,
    SpecError,
    SpecialBin,
    bin_value,
    number_text,
    parse_spec,
    read_text,
)
from .qp import KktResiduals
from .sqp import FitResult, IterationRecord, PenaltySpec

__all__ = [
    "SyntheticConfig",
    "ModelFile",
    "load_sample",
    "representatives",
    "gen_synthetic",
    "save_model",
    "load_model",
    "load_score_csv",
    "atomic_write_text",
]

MODEL_FORMAT = "scorecraft-model"
MODEL_VERSION = 1


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text, or its pieces in turn, via a same-directory temp file and atomic rename.

    An OSError names `path`, not the temp file, and the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise type(exc)(f"{path}: {exc.strerror or exc}") from exc
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


def _y_valid(values: np.ndarray) -> np.ndarray:
    """Where parsed y values are ones `_y_value` accepts."""
    return (values == 0.0) | (values == 1.0)


def _w_valid(values: np.ndarray) -> np.ndarray:
    """Where parsed w values are ones `_w_value` accepts."""
    return np.isfinite(values) & (values >= 0.0)


def _parsed(path: str, values: list, value, valid) -> np.ndarray:
    """value() of each stripped cell value; NaN where it raises.

    One `float` map in C parses every cell, and `valid`, the array form of
    value's checks, marks the rest NaN.  value is called per cell only
    when some cell is empty or no number, and such a file is rejected.
    """
    try:
        out = np.fromiter(map(float, values), float, len(values))
    except (TypeError, ValueError):
        out = np.empty(len(values))
        for i, cell in enumerate(values):
            try:
                out[i] = value(path, 0, cell or "")
            except DataError:
                out[i] = math.nan
        return out
    out[~valid(out)] = math.nan
    return out


def _char_names(path: str, header: list[str]) -> list[str]:
    """The characteristic names of a header row; DataError if it is faulty."""
    header = [cell.strip() for cell in header]
    if len(header) < 2 or header[0] != "y" or header[1] != "w":
        raise DataError(f"{path}: header must start with y,w")
    char_names = header[2:]
    if len(set(char_names)) != len(char_names):
        raise DataError(f"{path}: duplicate characteristic column")
    if any(not name for name in char_names):
        raise DataError(f"{path}: empty characteristic column name")
    return char_names


def _is_comment(row: list[str]) -> bool:
    return row[0].lstrip().startswith("#")


# Every cell gets a 64-bit key while its row block is in cache.  A cell
# under 8 bytes is keyed exactly: its bytes as a little-endian word, with
# its length in the top byte.  A longer cell's key is a hash with the top
# bit set: its length times the first constant plus the second times the
# sum of its first 8 bytes, 3 times its last 8 bytes and, over 16 bytes,
# 2k + 5 times its word k (see `_long_words`), all modulo 2**64.  Keys only
# group cells: a second pass over the row blocks compares each long cell with
# its group's first, so a collision costs an exact regrouping, never a wrong
# value.
_WORD = 8
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(_WORD)] + [2**64 - 1], dtype=np.uint64)
# A short cell's length in its key's top byte; a long cell's key is set apart.
_LENGTHS = np.array([k << 8 * (_WORD - 1) for k in range(_WORD)] + [0], dtype=np.uint64)
_LONG = np.uint64(1 << 63)
_KEY_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9))
# Multiplier of the slot table that finds each key among a column's distinct keys.
_SLOT_MIX = np.uint64(0x9E3779B97F4A7C15)
# Whether a byte may begin or end whitespace that str.strip removes: ASCII
# whitespace, or any byte of a multibyte UTF-8 character.
_SPACE = np.array([chr(c).isspace() or c >= 128 for c in range(256)])
# Data rows whose cells are found and keyed in one go.
_BYTE_BLOCK_ROWS = 1 << 12
# Words of long cells read in one go, at most (a block spans one word at least).
_BLOCK_WORDS = 1 << 20
# Distinct cells' bytes are gathered in pieces of about this many.
_PIECE_BYTES = 1 << 16
# Bytes that send a line to the csv module: a quote, and before Python 3.11
# a NUL, which the csv module rejects (from 3.11 it is text).
_CSV_ONLY = b'"\0' if sys.version_info < (3, 11) else b'"'
# A comma inside a cell that the csv module read is written as the byte 0xFF,
# which no UTF-8 text holds: this str under the "surrogateescape" handler.
_CELL_COMMA = "\udcff"
# UTF-8 text is checked in pieces of this many bytes.
_CHECK_BYTES = 1 << 20


def _first_rows(group: np.ndarray, groups: int) -> np.ndarray:
    """The first row of each group; a reversed scatter, so no stable sort."""
    first = np.empty(groups, dtype=np.intp)
    first[group[::-1]] = np.arange(len(group) - 1, -1, -1)
    return first


def _cell_blocks(u8: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int):
    """The cells of the rows whose lines start and end there, block by block.

    Yields (r0, at, left, ragged): at[j, i] is where cell j of row r0 + i
    starts, and left[j, i] its length.  At a row with another field count
    than width the block ends before it and is the last; ragged is then
    that row's index and field count, and None before.
    """
    for r0 in range(0, len(starts), _BYTE_BLOCK_ROWS):
        begin, end = starts[r0 : r0 + _BYTE_BLOCK_ROWS], ends[r0 : r0 + _BYTE_BLOCK_ROWS]
        commas = np.flatnonzero(u8[begin[0] : end[-1]] == ord(",")) + begin[0]
        comma0 = np.searchsorted(commas, begin)
        fields = np.searchsorted(commas, end) - comma0 + 1
        wrong = np.flatnonzero(fields != width)
        ragged = None
        if wrong.size:
            b = int(wrong[0])
            ragged = (r0 + b, int(fields[b]))
            begin, end, comma0 = begin[:b], end[:b], comma0[:b]
        # at[width] is each line's end + 1, where a next cell would start.
        at = np.empty((width + 1, len(begin)), dtype=np.intp)
        at[0] = begin
        if len(commas) == len(begin) * (width - 1):
            # No comma falls outside the rows: row i has commas i(width - 1) on.
            at[1:width] = commas.reshape(len(begin), width - 1).T
        else:
            at[1:width] = commas[comma0 + np.arange(width - 1)[:, None]]
        at[1:width] += 1
        at[width] = end + 1
        del commas, comma0
        left = np.diff(at, axis=0)
        left -= 1
        yield r0, at[:width], left, ragged
        if ragged:
            return


def _long_words(words: np.ndarray, at: np.ndarray, left: np.ndarray):
    """The 8-byte words of cells of 8 bytes or more, in blocks: (rows, k, block).

    block[j, i] is word k + j of the cell at rows[i]: its 8 bytes from
    offset 8(k + j), or its last 8 bytes for its last word, and 0 past
    that.  So every word read lies inside its cell, and cells of one length
    are equal exactly where their words are.  rows are all cells (a slice)
    at first, then the cells that go on past the block before.  A block
    spans the cells' mean length, or as many word positions as keep it near
    _BLOCK_WORDS words: so the few cells that go on take blocks of their
    own, and a few very long cells take a few blocks, not one per word.
    """
    rows, k, last = slice(None), 0, left - _WORD
    while len(at):
        mean = -(-int(last.sum() + _WORD * len(at)) // (_WORD * len(at)))
        span = max(1, min(_BLOCK_WORDS // len(at), mean))
        offsets = _WORD * np.arange(k, k + span)[:, None]
        block = words[at + np.minimum(offsets, last)]
        block[offsets >= last + _WORD] = 0
        yield rows, k, block
        more = np.flatnonzero(last > offsets[-1])
        rows = more if isinstance(rows, slice) else rows[more]
        at, last, k = at[more], last[more], k + span


def _cell_keys(words: np.ndarray, at: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The keys of the cells at `at` with `left` bytes, in at's shape."""
    size = np.minimum(left, _WORD)
    key = words[at]
    key &= _MASKS[size]
    key |= _LENGTHS[size]
    long = np.flatnonzero(left >= _WORD)
    if long.size:
        at, left = at.ravel()[long], left.ravel()[long]
        hashed = words[at + left - _WORD]
        hashed *= 3
        hashed += key.ravel()[long]  # so far a long cell's key is its first word
        more = np.flatnonzero(left > 2 * _WORD)
        for rows, k, block in _long_words(words, at[more], left[more]):
            mix = 2 * np.arange(k, k + len(block), dtype=np.uint64) + 5
            hashed[more[rows]] += (block * mix[:, None]).sum(axis=0)
        hashed *= _KEY_MIX[1]
        hashed += left.astype(np.uint64) * _KEY_MIX[0]
        key.ravel()[long] = hashed | _LONG
    return key


def _find(distinct: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The index of each key in the sorted, distinct keys that hold them all.

    The distinct keys go into a slot table of 8 to 16 slots per key, or 2
    to 4 per cell where there are more keys than a quarter of the cells, by
    multiplicative hashing: most cells find their key in one gather, and a
    cell whose slot holds another key takes a binary search.
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
    """Cells grouped by key: each cell's group, and whether it is its group's first.

    Groups are numbered 0, 1, ... in order of first occurrence, as int32.
    The distinct keys come from a sort, and `_find` gives each cell its
    key's place among them.
    """
    ordered = np.sort(key)
    new = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered, new
    if len(distinct) == len(key):
        # Every cell has a key of its own: each is its own group.
        return np.arange(len(key), dtype=np.int32), np.ones(len(key), dtype=bool)
    group = _find(distinct, key)
    is_first = np.zeros(len(key), dtype=bool)
    is_first[_first_rows(group, len(distinct))] = True
    first = np.flatnonzero(is_first)
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[group[first]] = np.arange(len(first), dtype=np.int32)
    return rank[group], is_first


def _exact_groups(key: np.ndarray, words: np.ndarray, rows: np.ndarray,
                  at: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Keys equal exactly where the cells are: the long cells' hashes replaced.

    The long cells are at rows, at `at`, with `left` bytes.  They are
    grouped by length, then the groups are split block by block of
    `_long_words`.  Cells of one group have one length, so a block splits
    only the groups it reaches.
    """
    ids = left.astype(np.intp)
    for sub, _, block in _long_words(words, at, left):
        pairs = np.column_stack((ids[sub], block.T.view(np.intp)))
        split = np.unique(pairs, axis=0, return_inverse=True)[1].reshape(-1)
        ids[sub] = split + int(ids.max()) + 1
    exact = key.copy()
    exact[rows] = ids.astype(np.uint64) | _LONG
    return exact


def _first_cells(u8: np.ndarray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 groups: list, is_first: np.ndarray) -> tuple[list, np.ndarray]:
    """Each group's first cell, and which columns' keys join unequal long cells.

    A second pass over the row blocks: for each column, it notes where each
    group's first cell is and its length, and compares each other long cell
    with its group's first while its block is in cache.  groups[j] are
    column j's groups, and is_first[j] marks the first cell of each.
    """
    width = len(groups)
    base = np.cumsum([0, *map(np.count_nonzero, is_first)])
    cell_at = np.empty(base[-1], dtype=np.intp)
    cell_left = np.empty(base[-1], dtype=np.int32)
    found = base[:-1].tolist()
    unequal = np.zeros(width, dtype=bool)
    for r0, at, left, _ in _cell_blocks(u8, starts, ends, width):
        rows = at.shape[1]
        firsts = is_first[:, r0 : r0 + rows]
        for j in range(width):
            new = np.flatnonzero(firsts[j])
            if new.size:
                a, b = found[j], found[j] + new.size
                cell_at[a:b] = at[j][new]
                cell_left[a:b] = left[j][new]
                found[j] = b
        # The other long cells, of columns not yet found unequal.
        long = np.flatnonzero((left >= _WORD) & ~firsts & ~unequal[:, None])
        column, row = np.divmod(long, rows)
        row += r0
        head = np.empty_like(long)
        bounds = np.searchsorted(column, np.arange(width + 1)).tolist()
        for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
            head[a:b] = groups[j][row[a:b]]
        head += base[column]
        size = left.ravel()[long]
        same = cell_left[head] == size
        unequal[column[~same]] = True
        mine, theirs, size = at.ravel()[long[same]], cell_at[head[same]], size[same]
        column = column[same]
        # The first and last 8 bytes, then the words of cells over 16 bytes.
        same = words[mine] == words[theirs]
        same &= words[mine + size - _WORD] == words[theirs + size - _WORD]
        more = np.flatnonzero(same & (size > 2 * _WORD))
        size = size[more]
        for (sub, _, block), (_, _, other) in zip(
            _long_words(words, mine[more], size), _long_words(words, theirs[more], size)
        ):
            same[more[sub]] &= (block == other).all(axis=0)
        unequal[column[~same]] = True
    cells = [(cell_at[a:b], cell_left[a:b]) for a, b in zip(base, base[1:])]
    return cells, unequal


def _regrouped(u8: np.ndarray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               width: int, j: int) -> tuple[np.ndarray, tuple]:
    """Column j grouped exactly, and its groups' first cells' offsets and lengths."""
    at = np.empty(len(starts), dtype=np.intp)
    left = np.empty(len(starts), dtype=np.intp)
    for r0, block_at, block_left, _ in _cell_blocks(u8, starts, ends, width):
        at[r0 : r0 + block_at.shape[1]] = block_at[j]
        left[r0 : r0 + block_at.shape[1]] = block_left[j]
    long = np.flatnonzero(left >= _WORD)
    exact = _exact_groups(_cell_keys(words, at, left), words, long, at[long], left[long])
    group, is_first = _key_groups(exact)
    return group, (at[is_first], left[is_first])


def _joined(u8: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Optional[mmap.mmap]:
    """The cells at starts with lengths, each followed by a comma; None if no cells.

    The bytes go to an anonymous memory map, so they return to the system
    as soon as the column is decoded; a heap block would stay resident
    while the column's strs are made.  They are gathered in pieces of about
    _PIECE_BYTES, so no index array grows with the column.
    """
    if not len(starts):
        return None
    ends = np.cumsum(lengths + 1)
    joined = mmap.mmap(-1, int(ends[-1]))
    out = np.frombuffer(joined, dtype=np.uint8)
    cuts = np.searchsorted(ends, np.arange(_PIECE_BYTES, len(out), _PIECE_BYTES)).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(starts)]):
        if a < b:
            lo, hi = int(ends[a] - lengths[a] - 1), int(ends[b - 1])
            at = np.repeat(starts[a:b] - ends[a:b] + lengths[a:b] + 1, lengths[a:b] + 1)
            at += np.arange(lo, hi)
            # Every index is in bounds; "clip" only skips the check.
            np.take(u8, at, out=out[lo:hi], mode="clip")
    out[ends - 1] = ord(",")
    del out  # a map cannot close while an array views it
    return joined


def _read_records(buf: bytearray, size: int, starts: np.ndarray, ends: np.ndarray,
                  holds: np.ndarray) -> tuple[list[int], Optional[tuple[int, str]]]:
    """Read with the csv module the record at each line k where holds[k].

    holds marks the lines that hold a byte of _CSV_ONLY.  A record may take
    in the lines after it, which start no record then.  It is written back
    over its own bytes as its cells joined by commas, each comma inside a
    cell written as _CELL_COMMA (unquoting only shrinks a record, so this
    fits), and ends[k] moves to the end of those bytes.  The lines it took
    in are blanked (ends = starts), as is a record that is a comment.
    Returns the lines that now hold a record, and the line and the csv
    module's message where a record cannot be read and reading stops, or None.
    """
    records, lengths, blank, fault = [], [], [], None
    bounds = np.append(starts, size)  # line i with its line break is bounds[i:i + 2]
    taken = 0  # lines the csv module has read

    def lines():
        nonlocal taken
        while taken < len(starts):
            taken += 1
            yield str(buf[bounds[taken - 1] : bounds[taken]], "utf-8")

    reader = csv.reader(lines())
    for k in np.flatnonzero(holds).tolist():
        if k < taken:
            continue  # a line that the record before took in
        taken = k
        try:
            record = next(reader)
        except csv.Error as exc:
            fault = (k, str(exc))
            break
        blank.extend(range(k + 1, taken))
        if _is_comment(record):
            blank.append(k)
            continue
        text = ",".join(record)
        if text.count(",") >= len(record):
            text = ",".join([cell.replace(",", _CELL_COMMA) for cell in record])
        cells = text.encode("utf-8", "surrogateescape")
        buf[bounds[k] : bounds[k] + len(cells)] = cells
        records.append(k)
        lengths.append(len(cells))
    ends[blank] = starts[blank]
    ends[records] = starts[records] + lengths
    return records, fault


def _byte_table(path: str, buf: bytearray, size: int):
    """Characteristic names, the cells of y, w, ... and the fault that ended reading.

    Reads a file from its bytes, giving what the csv module gives: numpy
    finds the line ends and the commas, and a line is read in Python only
    where a quote (`_read_records`), the comment rule or the field size
    limit needs it.  Every cell is keyed while its row block is in cache,
    each column is grouped by its keys, and one more pass over the blocks
    finds each group's first cell and checks the long cells.  Each column
    comes as the arguments of `_text_column`, which hold no reference to
    buf.
    """
    if not buf.isascii():
        # Each piece is decoded but for a character it cuts, which starts the next.
        at = 0
        while at < size:
            piece = buf[at : min(at + _CHECK_BYTES, size)]
            try:
                at += codecs.utf_8_decode(piece, None, at + len(piece) == size)[1]
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text at byte {at + exc.start}") from None
    u8 = np.frombuffer(buf, dtype=np.uint8)
    words = np.ndarray((size + 1,), dtype="<u8", buffer=buf, strides=(1,))
    # One mask of the file's bytes serves every scan.  Lines end where the
    # csv module ends them: at \n, \r\n and a lone \r.
    mask = np.zeros(size + 1, dtype=bool)  # mask[size] stays False
    cr = np.flatnonzero(np.equal(u8[:size], ord("\r"), out=mask[:size]))
    np.equal(u8[:size], ord("\n"), out=mask[:size])
    mask[cr[u8[cr + 1] != ord("\n")]] = True
    breaks = np.flatnonzero(mask)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [size]))
    del breaks, cr
    ends -= (ends > starts) & (u8[ends - 1] == ord("\r"))
    holds = np.zeros(len(starts), dtype=bool)
    for byte in _CSV_ONLY:
        if buf.find(byte, 0, size) >= 0:
            np.equal(u8[:size], byte, out=mask[:size])
            holds |= np.logical_or.reduceat(mask, starts)
    del mask
    records, fault = _read_records(buf, size, starts, ends, holds)

    def line_cells(i: int) -> list[str]:
        text = str(buf[starts[i] : ends[i]], "utf-8", "surrogateescape")
        return [cell.replace(_CELL_COMMA, ",") for cell in text.split(",")]

    lead = u8[starts]
    used = (ends > starts) & (lead != ord("#"))
    used[records] = True  # a record of one empty cell holds no byte, but is a row
    for i in np.flatnonzero(used & _SPACE[lead]).tolist():
        used[i] = not _is_comment(line_cells(i))
    lines = np.flatnonzero(used)
    del lead, used
    # A line is over the limit where a cell holds more characters than the
    # limit, so more bytes too; a record's cells are within it.
    limit = csv.field_size_limit()
    over = next(
        (i for i in np.flatnonzero(ends - starts > limit).tolist()
         if max(map(len, line_cells(i))) > limit),
        len(starts),
    )
    message = f"field larger than field limit ({limit})"
    if fault and fault[0] < over:
        over, message = fault
    if over < len(starts) and (not lines.size or over <= lines[0]):
        raise DataError(f"{path}: header: {message}")
    if not lines.size:
        raise DataError(f"{path}: empty data file")
    char_names = _char_names(path, line_cells(lines[0]))
    width = len(char_names) + 2
    rows = lines[1:]
    rows = rows[rows < over]
    stop = f"{path}: row {len(rows) + 1}: {message}" if over < len(starts) else None
    starts, ends = starts[rows], ends[rows]
    del lines, rows
    # Each column's keys live in an anonymous memory map, which returns to
    # the system as soon as the column is grouped; heap blocks would stay
    # resident under what comes after.
    keys = [
        np.frombuffer(mmap.mmap(-1, _WORD * len(starts) or 1), dtype=np.uint64, count=len(starts))
        for _ in range(width)
    ]
    for r0, at, left, ragged in _cell_blocks(u8, starts, ends, width):
        key = _cell_keys(words, at, left)
        for j in range(width):
            keys[j][r0 : r0 + key.shape[1]] = key[j]
        if ragged:
            stop = f"{path}: row {ragged[0] + 1} has {ragged[1]} fields, expected {width}"
            starts, ends = starts[: ragged[0]], ends[: ragged[0]]
    groups = []
    is_first = np.empty((width, len(starts)), dtype=bool)
    for j in range(width):
        group, is_first[j] = _key_groups(keys[j][: len(starts)])
        keys[j] = None
        groups.append(group)
    cells, unequal = _first_cells(u8, words, starts, ends, groups, is_first)
    del is_first
    for j in np.flatnonzero(unequal).tolist():
        # Some key joins long cells that differ.
        groups[j], cells[j] = _regrouped(u8, words, starts, ends, width, j)
    columns = []
    for group, (at, lengths) in zip(groups, cells):
        padded = (_SPACE[u8[at]] | _SPACE[u8[at + lengths - 1]])[lengths > 0].any()
        empty = np.flatnonzero(lengths == 0).tolist()
        columns.append((_joined(u8, at, lengths), group, padded, empty))
    return char_names, columns, stop


class _Index(dict):
    """Maps each new key to the number of keys before it."""

    def __missing__(self, key) -> int:
        self[key] = i = len(self)
        return i


def _text_column(joined: Optional[mmap.mmap], group: np.ndarray, padded: bool,
                 empty: list[int]) -> Column:
    """A Column of the distinct cells `_joined` gave and each cell's group.

    Distinct cells with nothing to strip stay distinct values, and the
    empty one (at most one, at a position in empty) becomes None; if some
    cell is padded, cells equal after stripping share a value.
    """
    texts = []
    if joined is not None:
        with joined:
            text = str(joined, "utf-8", "surrogateescape")
        texts = text.split(",")[:-1]
        if _CELL_COMMA in text:
            texts = [cell.replace(_CELL_COMMA, ",") for cell in texts]
    if not padded:
        for i in empty:
            texts[i] = None
        return Column(texts, group)
    index = _Index()
    stripped = (cell.strip() or None for cell in texts)
    code = np.fromiter(map(index.__getitem__, stripped), np.int32, len(texts))
    return Column(list(index), code[group])


def load_sample(path: str) -> Sample:
    """Read a data CSV into a Sample; empty characteristic cells are missing.

    The file must be UTF-8 text; it is read as the csv module reads it,
    once, as bytes.  numpy splits it into lines where the csv module does,
    a line that holds a `"` starts a record that the csv module reads and
    `_read_records` writes back unquoted in place, and numpy finds the
    commas, keys each cell by its bytes block by block of rows and groups
    each column by its keys (`_byte_table`).  Each column comes as a
    `Column` of distinct stripped cells and an inverse; y and w are parsed
    once per distinct cell.

    A faulty file reports its first faulty row; within a row a field over
    the csv module's size limit (or another fault the csv module finds)
    comes first, then the field count, then y, then w.
    """
    with open(path, "rb") as handle:
        # A file that grows while it is read is read as it was when opened.
        buf = bytearray(os.fstat(handle.fileno()).st_size + _WORD)
        size = handle.readinto(memoryview(buf)[:-_WORD])
    char_names, cells, stop = _byte_table(path, buf, size)
    del buf  # decode the distinct cells once the file is gone
    cells = [_text_column(*cell) for cell in cells]
    y_cells, w_cells, *columns = cells
    y = _parsed(path, y_cells.values, _y_value, _y_valid)[y_cells.inverse]
    w = _parsed(path, w_cells.values, _w_value, _w_valid)[w_cells.inverse]
    bad = np.flatnonzero(np.isnan(y) | np.isnan(w))
    if bad.size:
        i = int(bad[0])
        # One of these raises: the row has a y or a w that does not parse.
        _y_value(path, i + 1, y_cells.values[y_cells.inverse[i]] or "")
        _w_value(path, i + 1, w_cells.values[w_cells.inverse[i]] or "")
    if stop:
        raise DataError(stop)

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
    each vector must sum to 1.
    """

    seed: int
    n_good: int
    n_bad: int
    spec: ScorecardSpec
    good_probs: dict[str, np.ndarray] = field(default_factory=dict)
    bad_probs: dict[str, np.ndarray] = field(default_factory=dict)

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


def gen_synthetic(cfg: SyntheticConfig, path: Optional[str] = None) -> Sample:
    """Draw a synthetic sample; optionally write it as a data CSV.

    Attribute draws use inverse-CDF lookups on Philox-generated uniforms, so
    a given seed yields the same sample, and the same file bytes, on every
    platform.  Rows are all Goods first, then all Bads, unit weights.  Each
    attribute is drawn as the text of its `representatives` value (a
    number's `number_text`, None for a missing cell), so the sample holds
    the cells its file does; one with none and a positive probability
    raises DataError.
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
        texts = [
            raw if raw is None or isinstance(raw, str) else number_text(raw)
            for raw in map(reps.get, range(len(ch.attributes)))
        ]
        records[ch.name] = Column(texts, np.concatenate(draws).astype(np.int32))
    sample = Sample(y=y, w=w, records=records).validate()

    if path is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        cells = [
            np.array([v or "" for v in col.values], dtype=object)[col.inverse]
            for col in records.values()
        ]
        writer.writerow(["y", "w", *records])
        writer.writerows(zip([str(int(v)) for v in y], repeat("1"), *cells))
        atomic_write_text(path, buffer.getvalue())
    return sample


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
    spec_text: str
    note: str = ""

    @classmethod
    def from_fit(
        cls, result: FitResult, pen: PenaltySpec, spec_text: str
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
        "spec_sha256": hashlib.sha256(model.spec_text.encode("utf-8")).hexdigest(),
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


def _read_json(path: str) -> dict:
    """Load a model JSON file; reading a key it lacks raises DataError."""

    class Fields(dict):
        def __missing__(self, key):
            raise DataError(f"{path}: missing key {key!r}")

        def read(self, key: str, convert):
            """convert(self[key]); a value it rejects raises DataError naming the key."""
            try:
                return convert(self[key])
            except DataError:
                raise
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: key {key!r} has a value of the wrong type or shape"
                ) from None

    try:
        payload = json.loads(read_text(path), object_hook=Fields)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {payload.get('version')}")
    return payload


def load_model(path: str) -> ModelFile:
    """Read a model JSON, checking format, version, key types and spec hash."""
    payload = _read_json(path)
    read = payload.read
    beta = read("beta", _floats)
    if beta.shape != (read("q", int),):
        raise DataError(f"{path}: beta length disagrees with q")
    spec_text = read("spec_text", _text)
    if hashlib.sha256(spec_text.encode("utf-8")).hexdigest() != read("spec_sha256", _text):
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
# Score CSVs


def load_score_csv(path: str) -> np.ndarray:
    """Read a one-column score file with header `score`."""
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
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

