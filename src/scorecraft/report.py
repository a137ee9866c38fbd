"""Scorecard reports: the per-attribute weight table with a metrics footer.

The text report lists every attribute row (characteristic, attribute number,
label, constraint tag) with the model's weight at 4 decimal places, followed
by its intercept line and a footer of its metrics.  A machine-readable CSV
twin is written alongside at <path>.csv, with the intercept as its att-0 row.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .data_io import atomic_write_text
from .metrics import ScoreMetrics
from .model import ScorecardSpec, SpecError, format_tag

__all__ = ["write_report"]


def _fmt4(value: float) -> str:
    text = f"{value:.4f}"
    # Collapse the signed zero so pinned-to-zero weights print as 0.0000.
    return "0.0000" if text == "-0.0000" else text


def write_report(
    spec: ScorecardSpec,
    name: str,
    beta: np.ndarray,
    metrics: ScoreMetrics,
    path: str,
) -> None:
    """Write the attribute/weight table to path and its CSV twin to path.csv.

    beta is the model's coefficients, of length q; name heads its weight
    column, and metrics are its measures.
    """
    q = spec.q
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (q,):
        raise SpecError(
            f"model {name!r} has {beta.shape[0] if beta.ndim == 1 else '?'} "
            f"coefficients, spec needs {q}"
        )

    rows = []
    for ch, att in spec.iter_attributes():
        rows.append(
            (
                ch.name,
                str(att.att_index),
                att.label,
                format_tag(att.tag),
                _fmt4(beta[att.att_index]),
            )
        )

    char_w = max([len("char")] + [len(r[0]) for r in rows])
    att_w = max(len("att"), len(str(q - 1)))
    label_w = max([len("label")] + [len(r[2]) for r in rows])
    tag_w = max([len("constraint")] + [len(r[3]) for r in rows])
    col_w = max(len(name), 9)

    lines = []
    header = (
        f"{'char':<{char_w}}  {'att':>{att_w}}  {'label':<{label_w}}  "
        f"{'constraint':<{tag_w}}  {name:>{col_w}}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for char_name, att_no, label, tag, weight in rows:
        line = (
            f"{char_name:<{char_w}}  {att_no:>{att_w}}  {label:<{label_w}}  "
            f"{tag:<{tag_w}}  {weight:>{col_w}}"
        )
        lines.append(line)

    lines.append("")
    lines.append("intercept:")
    lines.append(f"  {name}: {_fmt4(beta[0])}")
    lines.append("")
    lines.append("metrics:")
    lines.append(
        f"  {name}: divergence {_fmt4(metrics.divergence)}  "
        f"minus_ll {_fmt4(metrics.minus_ll)}  ks {_fmt4(metrics.ks)}  "
        f"roc_area {_fmt4(metrics.roc_area)}"
    )
    atomic_write_text(path, "\n".join(lines) + "\n")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["char", "att", "label", "constraint", name])
    writer.writerow(["(intercept)", "0", "", "", _fmt4(beta[0])])
    writer.writerows(rows)
    atomic_write_text(path + ".csv", buffer.getvalue())

