"""Score separation measures: class CDFs, KS, ROC area, divergence.

All measures treat y = 1 as Good and y = 0 as Bad and accept observation
weights; unit weights reproduce the classic unweighted record-by-record
cumulative sums exactly.  KS is the largest vertical gap between the Bads
and Goods empirical CDFs over the ascending-sorted scores, and the ROC area
is the trapezoidal integral of the Bads CDF against the Goods CDF, which on
tie-free data equals the Good/Bad pairwise concordance probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sqp import score_minus_log_likelihood

__all__ = [
    "MetricsError",
    "ScoreCdfs",
    "RocStats",
    "ScoreMetrics",
    "ComparisonTable",
    "score_cdfs",
    "roc",
    "divergence",
    "score_metrics",
    "compare_scores",
]


class MetricsError(ValueError):
    """Raised for inputs the separation measures are undefined on."""


@dataclass(frozen=True, eq=False)
class ScoreCdfs:
    """Ascending-sorted scores with the per-record class CDFs.

    goods_cdf[i] (bads_cdf[i]) is the fraction of total Good (Bad) weight at
    or below sorted record i; both end at exactly 1.
    """

    sorted_score: np.ndarray
    goods_cdf: np.ndarray
    bads_cdf: np.ndarray


@dataclass(frozen=True)
class RocStats:
    ks: float
    roc_area: float


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
    score: np.ndarray, y: np.ndarray, w: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    score = np.asarray(score, dtype=float)
    y = np.asarray(y, dtype=float)
    n = score.shape[0]
    if score.ndim != 1 or y.shape != (n,):
        raise MetricsError("score and y must be equal-length vectors")
    if not np.isin(y, (0.0, 1.0)).all():
        raise MetricsError("y must contain only 0 and 1")
    if w is None:
        w = np.ones(n)
    else:
        w = np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise MetricsError("w must match the score length")
        if not np.isfinite(w).all() or (w < 0).any():
            raise MetricsError("weights must be finite and nonnegative")
    if not np.isfinite(score).all():
        raise MetricsError("scores must be finite")
    return score, y, w


def score_cdfs(
    score: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None
) -> ScoreCdfs:
    """Empirical Goods and Bads CDFs after a stable ascending sort.

    Ties keep their input order (stable sort), so each record contributes its
    own CDF point; with unit weights this is the plain cumulative-count
    construction.  Raises MetricsError when either class has no weight.
    """
    score, y, w = _check_scores(score, y, w)
    order = np.argsort(score, kind="stable")
    ys = y[order]
    ws = w[order]
    cum_good = np.cumsum(ws * ys)
    cum_bad = np.cumsum(ws * (1.0 - ys))
    # Normalizing by the cumulative totals makes both CDFs end at exactly 1,
    # which keeps the final KS gap at exactly 0.
    total_good = cum_good[-1] if cum_good.size else 0.0
    total_bad = cum_bad[-1] if cum_bad.size else 0.0
    if not total_good > 0 or not total_bad > 0:
        raise MetricsError("both classes need positive weight for score CDFs")
    return ScoreCdfs(
        sorted_score=score[order],
        goods_cdf=cum_good / total_good,
        bads_cdf=cum_bad / total_bad,
    )


def roc(score: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None) -> RocStats:
    """KS = max(FB - FG) over records; ROC area = trapezoid of FB against FG.

    Both are rank statistics, invariant under strictly increasing transforms
    of the score.  The final record has FB = FG = 1, so ks is never negative.
    """
    return _roc_stats(score_cdfs(score, y, w))


def _roc_stats(cdfs: ScoreCdfs) -> RocStats:
    fg, fb = cdfs.goods_cdf, cdfs.bads_cdf
    ks = float(np.max(fb - fg))
    area = float(0.5 * ((fg[1:] - fg[:-1]) * (fb[1:] + fb[:-1])).sum())
    return RocStats(ks=ks, roc_area=area)


def _class_moments(score: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    """Weighted mean and weight-normalized (population) variance of one class.

    The sums are elementwise: a BLAS dot of n-vectors may start a thread pool.
    """
    total = mass.sum()
    mean = float((mass * score).sum() / total)
    centered = score - mean
    return mean, float((mass * (centered * centered)).sum() / total)


def divergence(
    score: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None
) -> float:
    """Separation measure (muG - muB)^2 / ((sigmaG^2 + sigmaB^2) / 2).

    Means and variances are weighted per class, and the variances are
    population (weight-normalized) ones.  One zero class variance is fine;
    both zero is an error.  The measure is invariant under affine score
    transforms with nonzero slope.
    """
    score, y, w = _check_scores(score, y, w)
    good_mass = w * y
    bad_mass = w * (1.0 - y)
    if not good_mass.sum() > 0 or not bad_mass.sum() > 0:
        raise MetricsError("both classes need positive weight for divergence")
    mu_g, var_g = _class_moments(score, good_mass)
    mu_b, var_b = _class_moments(score, bad_mass)
    pooled = 0.5 * (var_g + var_b)
    if pooled == 0.0:
        raise MetricsError("both class variances are zero; divergence undefined")
    gap = mu_g - mu_b
    return float(gap * gap / pooled)


def score_metrics(
    score: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None, *, _cdfs=None
) -> ScoreMetrics:
    """All four comparison measures for one score column.

    `_cdfs` is score_cdfs(score, y, w) if the caller has it, so it is not made twice.
    """
    score, y, w = _check_scores(score, y, w)
    stats = roc(score, y, w) if _cdfs is None else _roc_stats(_cdfs)
    return ScoreMetrics(
        ks=stats.ks,
        roc_area=stats.roc_area,
        divergence=divergence(score, y, w),
        minus_ll=score_minus_log_likelihood(score, y, w),
    )


def compare_scores(
    scores: Sequence[tuple[str, np.ndarray]],
    y: np.ndarray,
    w: Optional[np.ndarray] = None,
) -> ComparisonTable:
    """Metrics for several score columns over one sample, plus the winners.

    Winners: highest divergence, ks, and roc_area; lowest minus_ll.  Ties go
    to the earliest listed score.
    """
    if not scores:
        raise MetricsError("compare_scores needs at least one score")
    rows = []
    for name, score in scores:
        rows.append((str(name), score_metrics(score, y, w)))
    winners = {
        "divergence": max(rows, key=lambda r: r[1].divergence)[0],
        "minus_ll": min(rows, key=lambda r: r[1].minus_ll)[0],
        "ks": max(rows, key=lambda r: r[1].ks)[0],
        "roc_area": max(rows, key=lambda r: r[1].roc_area)[0],
    }
    return ComparisonTable(rows=tuple(rows), winners=winners)
