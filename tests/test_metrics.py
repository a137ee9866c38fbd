import numpy as np
import pytest

from scorecraft.metrics import (
    MetricsError,
    compare_scores,
    divergence,
    roc,
    score_cdfs,
    score_metrics,
)
from scorecraft.sqp import score_minus_log_likelihood


def test_score_cdfs_hand_case():
    score = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    cdfs = score_cdfs(score, y)
    assert np.array_equal(cdfs.sorted_score, score)
    assert np.allclose(cdfs.goods_cdf, [0.0, 0.5, 0.5, 1.0])
    assert np.allclose(cdfs.bads_cdf, [0.5, 0.5, 1.0, 1.0])


def test_roc_hand_case():
    score = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    stats = roc(score, y)
    assert stats.ks == pytest.approx(0.5)
    # Concordance by hand: good/bad pairs (2,1) (2,3) (4,1) (4,3) -> 3 of 4.
    assert stats.roc_area == pytest.approx(0.75)


def test_roc_weighted_hand_case():
    # One good above one bad, arbitrary weights: perfect separation.
    stats = roc(np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    assert stats.ks == pytest.approx(1.0)
    assert stats.roc_area == pytest.approx(1.0)


def test_separation_extremes():
    score = np.array([1.0, 2.0, 3.0, 4.0])
    up = np.array([0.0, 0.0, 1.0, 1.0])
    stats = roc(score, up)
    assert stats.ks == pytest.approx(1.0)
    assert stats.roc_area == pytest.approx(1.0)
    # Goods below bads: the one-sided KS gap never goes negative.
    stats = roc(score, 1.0 - up)
    assert stats.ks == 0.0
    assert stats.roc_area == pytest.approx(0.0)


def test_cdfs_end_at_one_and_ks_nonnegative():
    rng = np.random.default_rng(20240825)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        score = rng.standard_normal(n)
        w = rng.uniform(0.1, 5.0, size=n)
        cdfs = score_cdfs(score, y, w)
        assert cdfs.goods_cdf[-1] == 1.0
        assert cdfs.bads_cdf[-1] == 1.0
        assert (np.diff(cdfs.goods_cdf) >= 0).all()
        assert (np.diff(cdfs.bads_cdf) >= 0).all()
        assert roc(score, y, w).ks >= 0.0


def brute_ks(score, y, w):
    wb = w * (1.0 - y)
    wg = w * y
    gaps = [
        (wb[score <= t].sum() / wb.sum()) - (wg[score <= t].sum() / wg.sum())
        for t in score
    ]
    return max(0.0, max(gaps))


def brute_area(score, y, w):
    goods = np.flatnonzero(y == 1.0)
    bads = np.flatnonzero(y == 0.0)
    num = 0.0
    for g in goods:
        for b in bads:
            if score[g] > score[b]:
                num += w[g] * w[b]
            elif score[g] == score[b]:
                num += 0.5 * w[g] * w[b]
    return num / (w[goods].sum() * w[bads].sum())


def test_roc_matches_brute_force_on_tie_free_data():
    rng = np.random.default_rng(20240826)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        y = rng.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        score = rng.permutation(np.arange(n, dtype=float))  # distinct scores
        w = rng.uniform(0.5, 3.0, size=n)
        stats = roc(score, y, w)
        assert stats.ks == pytest.approx(brute_ks(score, y, w), abs=1e-12)
        assert stats.roc_area == pytest.approx(brute_area(score, y, w), abs=1e-12)


def test_roc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(20240827)
    score = rng.standard_normal(30)
    y = rng.integers(0, 2, size=30).astype(float)
    y[0], y[1] = 0.0, 1.0
    w = rng.uniform(0.5, 2.0, size=30)
    base = roc(score, y, w)
    for transformed in (2.0 * score + 3.0, np.exp(score), score**3):
        stats = roc(transformed, y, w)
        assert stats.ks == base.ks
        assert stats.roc_area == base.roc_area


def test_roc_negation_duality():
    # Reversing score order swaps concordant and discordant pairs.
    rng = np.random.default_rng(20240828)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        y = rng.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        score = rng.permutation(np.arange(n, dtype=float))
        w = rng.uniform(0.5, 2.0, size=n)
        assert roc(-score, y, w).roc_area == pytest.approx(
            1.0 - roc(score, y, w).roc_area, abs=1e-12
        )


def test_divergence_hand_cases():
    # Goods {1,3}, bads {-1,-3}: means +-2, both variances 1, divergence 16.
    score = np.array([1.0, 3.0, -1.0, -3.0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    assert divergence(score, y) == pytest.approx(16.0)
    # Population variances: goods {0,2}, bads {5,7}, both variances 1.
    score = np.array([0.0, 2.0, 5.0, 7.0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    assert divergence(score, y) == pytest.approx(25.0)


def test_divergence_affine_invariance():
    rng = np.random.default_rng(20240829)
    score = rng.standard_normal(40)
    y = rng.integers(0, 2, size=40).astype(float)
    y[0], y[1] = 0.0, 1.0
    w = rng.uniform(0.5, 2.0, size=40)
    base = divergence(score, y, w)
    assert divergence(3.0 * score - 7.0, y, w) == pytest.approx(base, rel=1e-12)
    assert divergence(-score, y, w) == pytest.approx(base, rel=1e-12)


def test_divergence_zero_variance_sides():
    # One degenerate class is fine.
    score = np.array([2.0, 2.0, 0.0, 2.0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    assert divergence(score, y) == pytest.approx(1.0 / 0.5)
    # Both degenerate is undefined.
    with pytest.raises(MetricsError, match="both class variances"):
        divergence(np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))


def test_divergence_weighted_matches_replication():
    # Integer weights equal replicated records under population variance.
    score = np.array([1.0, 4.0, 2.0, 5.0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    w = np.array([2.0, 1.0, 3.0, 1.0])
    rep_score = np.array([1.0, 1.0, 4.0, 2.0, 2.0, 2.0, 5.0])
    rep_y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert divergence(score, y, w) == pytest.approx(divergence(rep_score, rep_y))
    assert roc(score, y, w).roc_area == pytest.approx(roc(rep_score, rep_y).roc_area)
    assert roc(score, y, w).ks == pytest.approx(roc(rep_score, rep_y).ks)


def test_metric_input_validation():
    y = np.array([1.0, 0.0])
    with pytest.raises(MetricsError, match="only 0 and 1"):
        score_cdfs(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(MetricsError, match="equal-length"):
        score_cdfs(np.array([1.0, 2.0, 3.0]), y)
    with pytest.raises(MetricsError, match="finite"):
        score_cdfs(np.array([1.0, np.inf]), y)
    with pytest.raises(MetricsError, match="nonnegative"):
        score_cdfs(np.array([1.0, 2.0]), y, np.array([1.0, -1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(MetricsError, match="finite and nonnegative"):
            score_metrics([0, 1, 2, 3], [0, 1, 0, 1], w=[bad, 1, 1, 1])
    with pytest.raises(MetricsError, match="both classes"):
        score_cdfs(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(MetricsError, match="both classes"):
        divergence(np.array([1.0, 2.0]), np.array([0.0, 0.0]))


def test_score_metrics_shares_likelihood_definition():
    rng = np.random.default_rng(20240830)
    score = rng.standard_normal(25)
    y = rng.integers(0, 2, size=25).astype(float)
    y[0], y[1] = 0.0, 1.0
    w = rng.uniform(0.5, 2.0, size=25)
    m = score_metrics(score, y, w)
    assert m.minus_ll == score_minus_log_likelihood(score, y, w)
    assert m.ks == roc(score, y, w).ks
    assert m.roc_area == roc(score, y, w).roc_area
    assert m.divergence == divergence(score, y, w)


def test_elementwise_sums_keep_the_metrics_of_blas_dots():
    # Divergence and minus_ll sum elementwise products instead of taking
    # BLAS dots of n-vectors; the values eval prints move by rounding only.
    rng = np.random.default_rng(20261019)
    n = 100_000
    score = rng.normal(0.0, 2.0, n)
    y = (rng.random(n) < 0.3).astype(float)
    w = rng.uniform(0.25, 4.0, n)

    def moments(mass):
        mean = (mass @ score) / mass.sum()
        centered = score - mean
        return mean, (mass @ (centered * centered)) / mass.sum()

    (mu_g, var_g), (mu_b, var_b) = moments(w * y), moments(w * (1.0 - y))
    dot_divergence = (mu_g - mu_b) ** 2 / (0.5 * (var_g + var_b))
    dot_minus_ll = w @ (np.logaddexp(0.0, score) - y * score)
    m = score_metrics(score, y, w)
    assert abs(m.divergence - dot_divergence) <= 1e-12 * dot_divergence
    assert abs(m.minus_ll - dot_minus_ll) <= 1e-12 * dot_minus_ll


def test_compare_scores_winners_and_text():
    score = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    strong = score
    weak = np.array([1.0, 4.0, 2.0, 3.0])
    table = compare_scores([("strong", strong), ("weak", weak)], y)
    assert set(table.winners.values()) == {"strong"}
    text = table.to_text()
    assert "best divergence: strong" in text
    assert "best minus_ll: strong" in text
    assert "strong" in text.splitlines()[1]
    # Ties go to the earliest listed score.
    table = compare_scores([("first", strong), ("second", strong.copy())], y)
    assert set(table.winners.values()) == {"first"}
    # A single row has no winner lines.
    table = compare_scores([("only", strong)], y)
    assert "best" not in table.to_text()
    with pytest.raises(MetricsError, match="at least one"):
        compare_scores([], y)


def test_stable_sort_keeps_tied_record_order():
    # Two tied scores with different classes: the input order decides which
    # CDF steps first, matching the record-by-record construction.
    score = np.array([1.0, 1.0, 2.0])
    y_bad_first = np.array([0.0, 1.0, 1.0])
    cdfs = score_cdfs(score, y_bad_first)
    assert np.allclose(cdfs.bads_cdf, [1.0, 1.0, 1.0])
    assert np.allclose(cdfs.goods_cdf, [0.0, 0.5, 1.0])
    y_good_first = np.array([1.0, 0.0, 1.0])
    cdfs = score_cdfs(score, y_good_first)
    assert np.allclose(cdfs.goods_cdf, [0.5, 0.5, 1.0])
    assert np.allclose(cdfs.bads_cdf, [0.0, 1.0, 1.0])
