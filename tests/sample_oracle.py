"""A data CSV loader that checks and stores one cell at a time.

An equivalence oracle for `scorecraft.data_io.load_sample`: it reads the
whole file into row lists, then walks every row in file order, so its
results and its choice of which fault to report are those of the plainest
reading of the format.
"""

import csv
import math

import numpy as np

from scorecraft.data_io import DataError
from scorecraft.model import Column, Sample, SpecError


def cells(column):
    """The cells of a sample's `Column`, one raw value per row."""
    return [column.values[i] for i in column.inverse]


def load_sample_rows(path):
    """Read a data CSV into a Sample by a per-row, per-cell loop."""
    rows, unread = [], None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for row in csv.reader(handle):
                if row and not row[0].lstrip().startswith("#"):
                    rows.append(row)
        except csv.Error as exc:
            # Reading ends at a line the csv module cannot read: the header,
            # or the data row after the rows read.
            unread = f"{path}: row {len(rows)}: {exc}" if rows else f"{path}: header: {exc}"
    if not rows:
        raise DataError(unread or f"{path}: empty data file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[0] != "y" or header[1] != "w":
        raise DataError(f"{path}: header must start with y,w")
    char_names = header[2:]
    if len(set(char_names)) != len(char_names):
        raise DataError(f"{path}: duplicate characteristic column")
    if any(not name for name in char_names):
        raise DataError(f"{path}: empty characteristic column name")

    n = len(rows) - 1
    y = np.zeros(n)
    w = np.zeros(n)
    # Each column's distinct cells in order of first occurrence, and each
    # row's place among them.
    values = {name: {} for name in char_names}
    inverse = {name: np.empty(n, dtype=np.int32) for name in char_names}
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
        y_cell = row[0].strip()
        try:
            y_val = float(y_cell)
        except ValueError:
            raise DataError(f"{path}: row {i}, column y: bad value {y_cell!r}") from None
        if y_val not in (0.0, 1.0):
            raise DataError(
                f"{path}: row {i}, column y: value {y_cell!r} is not 0 or 1"
            )
        w_cell = row[1].strip()
        if not w_cell:
            raise DataError(f"{path}: row {i}, column w: weight is required")
        try:
            w_val = float(w_cell)
        except ValueError:
            raise DataError(f"{path}: row {i}, column w: bad value {w_cell!r}") from None
        if not math.isfinite(w_val) or w_val < 0:
            raise DataError(
                f"{path}: row {i}, column w: weight must be finite and nonnegative"
            )
        y[i - 1] = y_val
        w[i - 1] = w_val
        for j, name in enumerate(char_names):
            cell = row[2 + j].strip() or None
            inverse[name][i - 1] = values[name].setdefault(cell, len(values[name]))
    if unread:
        raise DataError(unread)
    records = {name: Column(list(values[name]), inverse[name]) for name in char_names}
    sample = Sample(y=y, w=w, records=records)
    try:
        return sample.validate()
    except SpecError as exc:
        raise DataError(f"{path}: {exc}") from None
