"""Score separation measures: class CDFs, KS, ROC area, divergence.

`score_cdfs` checks and sorts a score column once, and `score_metrics` reads
all four measures off its result.  y = 1 is Good and y = 0 is Bad, and every
record carries a weight.  KS is the largest vertical gap between the Bads
and Goods empirical CDFs over the distinct scores, and the ROC area is the
trapezoidal integral of the Bads CDF against the Goods CDF from (0, 0), which
equals the Good/Bad pairwise concordance probability with half credit for
tied pairs (Fawcett 2006, "An introduction to ROC analysis").  Both are
properties of the sample, not of its row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sqp import score_minus_log_likelihood

__all__ = [
    "MetricsError",
    "ScoreCdfs",
    "ScoreMetrics",
    "ComparisonTable",
    "score_cdfs",
    "score_metrics",
    "compare_scores",
]


class MetricsError(ValueError):
    """Raised for inputs the separation measures are undefined on."""


@dataclass(frozen=True, eq=False)
class ScoreCdfs:
    """A checked score column in input order, its distinct scores ascending,
    and the class CDFs at them: goods_cdf[i] (bads_cdf[i]) is the fraction of
    total Good (Bad) weight at or below sorted_score[i]; both end at exactly 1.
    """

    score: np.ndarray
    y: np.ndarray
    w: np.ndarray
    sorted_score: np.ndarray
    goods_cdf: np.ndarray
    bads_cdf: np.ndarray

    @property
    def ks(self) -> float:
        """max(FB - FG) over distinct scores; never negative, as the last has FB = FG = 1."""
        return float(np.max(self.bads_cdf - self.goods_cdf))

    @property
    def roc_area(self) -> float:
        """Trapezoid of FB against FG from (0, 0); like ks, unchanged by increasing
        score transforms.  The first trapezoid is 0 unless the lowest score ties
        a Good with a Bad."""
        fg, fb = self.goods_cdf, self.bads_cdf
        steps = ((fg[1:] - fg[:-1]) * (fb[1:] + fb[:-1])).sum()
        return float(0.5 * fg[0] * fb[0] + 0.5 * steps)


@dataclass(frozen=True)
class ScoreMetrics:
    """The comparison measures for one score column."""

    ks: float
    roc_area: float
    divergence: float
    minus_ll: float


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Per-score metrics plus which score wins each measure."""

    rows: tuple[tuple[str, ScoreMetrics], ...]
    winners: dict[str, str]

    def to_text(self) -> str:
        name_w = max([len("score")] + [len(name) for name, _ in self.rows])
        header = (
            f"{'score':<{name_w}}  {'divergence':>10}  {'minus_ll':>12}  "
            f"{'ks':>8}  {'roc_area':>8}"
        )
        lines = [header]
        for name, m in self.rows:
            lines.append(
                f"{name:<{name_w}}  {m.divergence:>10.4f}  {m.minus_ll:>12.4f}  "
                f"{m.ks:>8.4f}  {m.roc_area:>8.4f}"
            )
        if len(self.rows) > 1:
            lines.append("")
            for metric in ("divergence", "minus_ll", "ks", "roc_area"):
                lines.append(f"best {metric}: {self.winners[metric]}")
        return "\n".join(lines)


def _check_scores(
    score: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    score = np.asarray(score, dtype=float)
    y = np.asarray(y, dtype=float)
    n = score.shape[0]
    if score.ndim != 1 or y.shape != (n,):
        raise MetricsError("score and y must be equal-length vectors")
    if not np.isin(y, (0.0, 1.0)).all():
        raise MetricsError("y must contain only 0 and 1")
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise MetricsError("w must match the score length")
    if not np.isfinite(w).all() or (w < 0).any():
        raise MetricsError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):
            raise MetricsError("total weight must be finite")
    if not np.isfinite(score).all():
        raise MetricsError("scores must be finite")
    return score, y, w


def score_cdfs(score: np.ndarray, y: np.ndarray, w: np.ndarray) -> ScoreCdfs:
    """The checked column and its Goods and Bads CDFs at each distinct score.

    Records are summed in ascending score order, and a run of equal scores
    keeps its last cumulative sum, so neither CDF depends on row order; a
    run of -0.0 and 0.0 is the one score 0.0.  Raises MetricsError on a
    malformed column and when either class has no weight.
    """
    score, y, w = _check_scores(score, y, w)
    order = np.argsort(score, kind="stable")
    ys = y[order]
    ws = w[order]
    sorted_score = score[order]
    cum_good = np.cumsum(ws * ys)
    cum_bad = np.cumsum(ws * (1.0 - ys))
    # Normalizing by the cumulative totals makes both CDFs end at exactly 1,
    # which keeps the final KS gap at exactly 0.
    total_good = cum_good[-1] if cum_good.size else 0.0
    total_bad = cum_bad[-1] if cum_bad.size else 0.0
    if not total_good > 0 or not total_bad > 0:
        raise MetricsError("both classes need positive weight for score CDFs")
    distinct = sorted_score[1:] != sorted_score[:-1]
    if not distinct.all():
        ends = np.append(distinct, True)
        # Adding 0.0 writes a run that ends in -0.0 as 0.0.
        sorted_score, cum_good, cum_bad = sorted_score[ends] + 0.0, cum_good[ends], cum_bad[ends]
    return ScoreCdfs(
        score=score,
        y=y,
        w=w,
        sorted_score=sorted_score,
        goods_cdf=cum_good / total_good,
        bads_cdf=cum_bad / total_bad,
    )


def _class_moments(score: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    """Weighted mean and weight-normalized (population) variance of one class.

    The sums are elementwise: a BLAS dot of n-vectors may start a thread pool.
    """
    total = mass.sum()
    mean = float((mass * score).sum() / total)
    centered = score - mean
    return mean, float((mass * (centered * centered)).sum() / total)


def _divergence(score: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """(muG - muB)^2 / ((sigmaG^2 + sigmaB^2) / 2) of a column that score_cdfs checked."""
    mu_g, var_g = _class_moments(score, w * y)
    mu_b, var_b = _class_moments(score, w * (1.0 - y))
    pooled = 0.5 * (var_g + var_b)
    if pooled == 0.0:
        raise MetricsError("both class variances are zero; divergence undefined")
    gap = mu_g - mu_b
    return float(gap * gap / pooled)


def score_metrics(cdfs: ScoreCdfs) -> ScoreMetrics:
    """All four comparison measures of a column, read off its score_cdfs.

    Divergence uses weighted class means and population variances and is
    invariant under affine score transforms; one zero class variance is
    fine, both zero raise MetricsError.
    """
    return ScoreMetrics(
        ks=cdfs.ks,
        roc_area=cdfs.roc_area,
        divergence=_divergence(cdfs.score, cdfs.y, cdfs.w),
        minus_ll=score_minus_log_likelihood(cdfs.score, cdfs.y, cdfs.w),
    )


def compare_scores(
    scores: Sequence[tuple[str, np.ndarray]],
    y: np.ndarray,
    w: np.ndarray,
) -> ComparisonTable:
    """Metrics for several score columns over one sample, plus the winners.

    Winners: highest divergence, ks, and roc_area; lowest minus_ll.  Ties go
    to the earliest listed score.
    """
    if not scores:
        raise MetricsError("compare_scores needs at least one score")
    rows = [(str(name), score_metrics(score_cdfs(score, y, w))) for name, score in scores]
    winners = {
        "divergence": max(rows, key=lambda r: r[1].divergence)[0],
        "minus_ll": min(rows, key=lambda r: r[1].minus_ll)[0],
        "ks": max(rows, key=lambda r: r[1].ks)[0],
        "roc_area": max(rows, key=lambda r: r[1].roc_area)[0],
    }
    return ComparisonTable(rows=tuple(rows), winners=winners)
