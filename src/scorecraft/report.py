"""Scorecard reports: the per-attribute weight table with a metrics footer.

The text report lists every attribute row (characteristic, attribute number,
label, constraint tag) with one weight column per model at 4 decimal places,
followed by per-model intercept lines and, when metrics are supplied, a
comparison footer.  A machine-readable CSV twin is written alongside at
<path>.csv, with the intercept as its att-0 row.
"""

from __future__ import annotations

import csv
import io
from typing import Optional, Sequence

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
    models: Sequence[tuple[str, np.ndarray]],
    metrics: Optional[dict[str, ScoreMetrics]],
    path: str,
) -> None:
    """Write the attribute/weight table to path and its CSV twin to path.csv.

    models is an ordered list of (name, beta) with each beta of length q;
    column order follows the list.  metrics maps model name to its measures
    and may be None or partial.
    """
    q = spec.q
    names = []
    betas = []
    for name, beta in models:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (q,):
            raise SpecError(
                f"model {name!r} has {beta.shape[0] if beta.ndim == 1 else '?'} "
                f"coefficients, spec needs {q}"
            )
        names.append(str(name))
        betas.append(beta)
    if len(set(names)) != len(names):
        raise SpecError("model names must be unique")

    rows = []
    for ch, att in spec.iter_attributes():
        rows.append(
            (
                ch.name,
                str(att.att_index),
                att.label,
                format_tag(att.tag),
                [_fmt4(beta[att.att_index]) for beta in betas],
            )
        )

    char_w = max([len("char")] + [len(r[0]) for r in rows])
    att_w = max(len("att"), len(str(q - 1)))
    label_w = max([len("label")] + [len(r[2]) for r in rows])
    tag_w = max([len("constraint")] + [len(r[3]) for r in rows])
    col_w = [max(len(name), 9) for name in names]

    lines = []
    header = (
        f"{'char':<{char_w}}  {'att':>{att_w}}  {'label':<{label_w}}  "
        f"{'constraint':<{tag_w}}"
    )
    for name, width in zip(names, col_w):
        header += f"  {name:>{width}}"
    lines.append(header)
    lines.append("-" * len(header))
    for char_name, att_no, label, tag, weights in rows:
        line = (
            f"{char_name:<{char_w}}  {att_no:>{att_w}}  {label:<{label_w}}  "
            f"{tag:<{tag_w}}"
        )
        for text, width in zip(weights, col_w):
            line += f"  {text:>{width}}"
        lines.append(line)

    lines.append("")
    lines.append("intercept:")
    for name, beta in zip(names, betas):
        lines.append(f"  {name}: {_fmt4(beta[0])}")
    if metrics:
        lines.append("")
        lines.append("metrics:")
        for name in names:
            m = metrics.get(name)
            if m is None:
                continue
            lines.append(
                f"  {name}: divergence {_fmt4(m.divergence)}  "
                f"minus_ll {_fmt4(m.minus_ll)}  ks {_fmt4(m.ks)}  "
                f"roc_area {_fmt4(m.roc_area)}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["char", "att", "label", "constraint"] + names)
    writer.writerow(
        ["(intercept)", "0", "", ""] + [_fmt4(beta[0]) for beta in betas]
    )
    for char_name, att_no, label, tag, weights in rows:
        writer.writerow([char_name, att_no, label, tag] + weights)
    atomic_write_text(path + ".csv", buffer.getvalue())

