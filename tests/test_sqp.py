import math
import warnings

import numpy as np
import pytest

from scorecraft import sqp
from scorecraft.constraints import ConstraintSet, compile_constraints
from scorecraft.model import DesignMatrix, Sample, SpecError, build_design_matrix
from scorecraft.sqp import (
    FitConfig,
    FitWarning,
    PenaltySpec,
    StepError,
    assemble_qp,
    fit,
    initial_beta,
    logistic_terms,
    score_minus_log_likelihood,
)

from dense_design import DenseDesign
from ircls_oracle import ircls_step
from text_columns import text_column


def cs_of(q, aeq=None, beq=None, a=None, b=None):
    empty = ConstraintSet.empty(q)
    return ConstraintSet(
        aeq=np.asarray(aeq, float).reshape(-1, q) if aeq is not None else empty.aeq,
        beq=np.asarray(beq, float).ravel() if beq is not None else empty.beq,
        a=np.asarray(a, float).reshape(-1, q) if a is not None else empty.a,
        b=np.asarray(b, float).ravel() if b is not None else empty.b,
    )


def minus_log_likelihood(design, y, w, beta):
    return logistic_terms(design, y, w, beta, hessian=False).minus_ll


def first_step(design, y, w, pen, cs, beta):
    """The fit's first constrained Newton step from beta."""
    return fit(design, y, w, pen, cs, FitConfig(max_outer_iters=1, beta0=beta)).beta


def make_logistic(rng, n=200, q=5):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, q - 1))])
    beta_true = rng.uniform(-1.0, 1.0, q)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ beta_true)))).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    w = rng.uniform(0.5, 2.0, n)
    return DenseDesign(x), y, w


def test_minus_ll_closed_forms():
    # At beta = 0 every term is log 2, so M = log(2) * total weight.
    rng = np.random.default_rng(1)
    x, y, w = make_logistic(rng, n=50, q=3)
    assert minus_log_likelihood(x, y, w, np.zeros(3)) == pytest.approx(
        math.log(2.0) * w.sum(), rel=1e-14
    )
    # Intercept-only, y = (1,1,1,0), unit weights, theta = log 3 for all rows:
    # M = 4 log 4 - 3 log 3.
    x1 = DenseDesign(np.ones((4, 1)))
    y1 = np.array([1.0, 1.0, 1.0, 0.0])
    w1 = np.ones(4)
    m = minus_log_likelihood(x1, y1, w1, np.array([math.log(3.0)]))
    assert m == pytest.approx(4.0 * math.log(4.0) - 3.0 * math.log(3.0), rel=1e-14)


def test_minus_ll_linear_in_weights():
    rng = np.random.default_rng(2)
    x, y, w = make_logistic(rng)
    beta = rng.standard_normal(x.q) * 0.5
    m1 = minus_log_likelihood(x, y, w, beta)
    assert minus_log_likelihood(x, y, 2.0 * w, beta) == pytest.approx(2.0 * m1, rel=1e-13)
    terms1 = logistic_terms(x, y, w, beta)
    terms2 = logistic_terms(x, y, 2.0 * w, beta)
    assert np.allclose(terms2.grad, 2.0 * terms1.grad, rtol=1e-13)
    assert np.allclose(terms2.hess, 2.0 * terms1.hess, rtol=1e-13)


def test_score_minus_ll_shared_definition():
    rng = np.random.default_rng(3)
    x, y, w = make_logistic(rng, n=40, q=4)
    beta = rng.standard_normal(4) * 0.3
    assert score_minus_log_likelihood(x.x @ beta, y, w) == pytest.approx(
        minus_log_likelihood(x, y, w, beta), rel=1e-15
    )
    with pytest.raises(SpecError, match="equal lengths"):
        score_minus_log_likelihood(np.zeros(3), y[:2], w[:2])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y, w = make_logistic(rng, n=120, q=4)
        beta = rng.standard_normal(4) * 0.5
        terms = logistic_terms(x, y, w, beta)
        h = 1e-6
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (
                minus_log_likelihood(x, y, w, beta + e)
                - minus_log_likelihood(x, y, w, beta - e)
            ) / (2.0 * h)
        scale = 1.0 + np.abs(terms.grad).max()
        assert np.allclose(fd, terms.grad, rtol=1e-5, atol=1e-6 * scale)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y, w = make_logistic(rng, n=120, q=4)
        beta = rng.standard_normal(4) * 0.5
        terms = logistic_terms(x, y, w, beta)
        h = 1e-6
        fd = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            gp = logistic_terms(x, y, w, beta + e).grad
            gm = logistic_terms(x, y, w, beta - e).grad
            fd[:, j] = (gp - gm) / (2.0 * h)
        scale = 1.0 + np.abs(terms.hess).max()
        assert np.allclose(fd, terms.hess, rtol=1e-4, atol=1e-6 * scale)
        # Hessian is symmetric PSD.
        assert np.allclose(terms.hess, terms.hess.T)
        assert np.linalg.eigvalsh(terms.hess).min() >= -1e-10 * scale


def test_logistic_probabilities_are_stable():
    # prob is the logistic of theta, with no overflow at any magnitude.
    thetas = [0.0]
    for t in (1e-300, 1.0, 36.7, 40.0, 709.0, 745.0, 800.0, 1e3):
        thetas += [t, -t]
    x = DenseDesign(np.array(thetas)[:, None])
    y = np.tile([0.0, 1.0], len(thetas))[: len(thetas)]
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        prob = logistic_terms(x, y, np.ones(len(thetas)), np.array([1.0])).prob
    assert ((prob >= 0.0) & (prob <= 1.0)).all()
    for t, p in zip(thetas, prob):
        try:
            ref = 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))
        except OverflowError:
            continue
        assert abs(p - ref) <= 2.0 * np.spacing(ref), (t, p, ref)


def test_penalty_spec():
    pen = PenaltySpec(lam=3.0)
    d = pen.hessian_diag(4)
    assert d[0] == 0.0
    assert np.allclose(d[1:], 2.0 * 3.0 / 3.0)
    beta = np.array([5.0, 1.0, -2.0, 2.0])
    assert pen.value(beta) == pytest.approx(3.0 / 3.0 * 9.0)
    assert PenaltySpec().value(beta) == 0.0
    assert np.array_equal(PenaltySpec().hessian_diag(4), np.zeros(4))
    for lam in (-1.0, np.inf, np.nan):
        with pytest.raises(SpecError, match="nonnegative"):
            PenaltySpec(lam=lam)
    with pytest.raises(SpecError, match="q >= 2"):
        PenaltySpec(lam=1.0).hessian_diag(1)


def test_assemble_qp_shapes_the_newton_model():
    rng = np.random.default_rng(6)
    x, y, w = make_logistic(rng, n=60, q=4)
    beta = rng.standard_normal(4) * 0.4
    terms = logistic_terms(x, y, w, beta)
    pen = PenaltySpec(lam=2.0)
    p = assemble_qp(terms, pen, beta, ConstraintSet.empty(4))
    assert np.allclose(p.h, terms.hess + np.diag(pen.hessian_diag(4)))
    # The penalty is exactly quadratic: it contributes to H only, never to f.
    assert np.allclose(p.f, terms.grad - terms.hess @ beta)
    assert np.array_equal(p.warm_start, beta)
    # At the expansion point the model gradient is the penalized gradient.
    model_grad = p.h @ beta + p.f
    pen_grad = pen.hessian_diag(4) * beta
    assert np.allclose(model_grad, terms.grad + pen_grad)


def test_sqp_step_is_newton_without_constraints():
    rng = np.random.default_rng(7)
    x, y, w = make_logistic(rng, n=150, q=4)
    beta = rng.standard_normal(4) * 0.3
    terms = logistic_terms(x, y, w, beta)
    newton = beta - np.linalg.solve(terms.hess, terms.grad)
    step = first_step(x, y, w, PenaltySpec(), ConstraintSet.empty(4), beta)
    assert np.abs(step - newton).max() <= 1e-9


def test_sqp_and_ircls_steps_agree():
    rng = np.random.default_rng(8)
    for lam in (0.0, 0.5, 5.0):
        for _ in range(5):
            x, y, w = make_logistic(rng, n=100, q=5)
            beta = rng.standard_normal(5) * 0.4
            a = rng.standard_normal((2, 5))
            b = a @ beta + rng.uniform(0.05, 0.5, 2)
            aeq = np.zeros((1, 5))
            aeq[0, 1] = 1.0
            cs = cs_of(5, aeq=aeq, beq=[0.1], a=a, b=b)
            pen = PenaltySpec(lam=lam)
            s1 = first_step(x, y, w, pen, cs, beta)
            s2 = ircls_step(x.x, y, w, pen, cs, beta)
            assert np.abs(s1 - s2).max() <= 1e-8


def test_ircls_rejects_degenerate_probabilities():
    x = np.ones((3, 1))
    y = np.array([1.0, 0.0, 1.0])
    w = np.ones(3)
    with pytest.raises(StepError, match="working response is undefined"):
        ircls_step(x, y, w, PenaltySpec(), ConstraintSet.empty(1), np.array([800.0]))


def test_initial_beta_policies():
    y = np.array([1.0, 1.0, 1.0, 0.0])
    w = np.ones(4)
    beta = initial_beta(3, y, w)
    assert beta[0] == pytest.approx(math.log(3.0))
    assert (beta[1:] == 0.0).all()
    # Weighted odds.
    w = np.array([2.0, 1.0, 1.0, 2.0])
    assert initial_beta(2, y, w)[0] == pytest.approx(math.log(4.0 / 2.0))
    # Warm start passes through unchanged.
    warm = np.array([0.5, -1.0])
    out = initial_beta(2, y, w, warm_start=warm)
    assert np.array_equal(out, warm)
    out[0] = 9.0
    assert warm[0] == 0.5  # returned copy does not alias the input
    with pytest.raises(SpecError, match="length 3"):
        initial_beta(3, y, w, warm_start=np.zeros(2))
    with pytest.raises(SpecError, match="both outcome classes"):
        initial_beta(2, np.ones(4), np.ones(4))


def test_fit_intercept_only_closed_form():
    x = DenseDesign(np.ones((4, 1)))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    w = np.ones(4)
    result = fit(x, y, w, PenaltySpec(), ConstraintSet.empty(1))
    assert result.status == "converged"
    assert result.beta[0] == pytest.approx(math.log(3.0), abs=1e-8)
    assert result.minus_ll == pytest.approx(
        4.0 * math.log(4.0) - 3.0 * math.log(3.0), rel=1e-12
    )
    assert result.initial_minus_ll >= result.minus_ll
    assert result.iterations == len(result.trajectory)


def test_fit_unconstrained_reaches_stationarity():
    rng = np.random.default_rng(9)
    x, y, w = make_logistic(rng, n=300, q=5)
    result = fit(x, y, w, PenaltySpec(), ConstraintSet.empty(5))
    assert result.status == "converged"
    terms = logistic_terms(x, y, w, result.beta)
    assert np.abs(terms.grad).max() <= 1e-6
    assert result.kkt.max() <= 1e-6
    deltas = [rec.max_delta for rec in result.trajectory]
    assert deltas[-1] <= 1e-6
    lls = [rec.minus_ll for rec in result.trajectory]
    assert result.minus_ll == pytest.approx(lls[-1], rel=1e-12)


def test_fit_respects_equality_and_inequality_rows():
    rng = np.random.default_rng(10)
    x, y, w = make_logistic(rng, n=300, q=5)
    aeq = np.zeros((1, 5))
    aeq[0, 2] = 1.0
    # Force beta_4 <= beta_3 even if the data disagrees.
    a = np.zeros((1, 5))
    a[0, 4] = 1.0
    a[0, 3] = -1.0
    cs = cs_of(5, aeq=aeq, beq=[0.3], a=a, b=[0.0])
    result = fit(x, y, w, PenaltySpec(), cs)
    assert result.status == "converged"
    assert result.beta[2] == pytest.approx(0.3, abs=1e-8)
    assert result.beta[4] <= result.beta[3] + 1e-8
    assert result.residuals.eq_residual <= 1e-8
    assert result.residuals.ineq_violation <= 1e-8
    assert result.kkt.max() <= 1e-6
    # The constrained optimum cannot beat the unconstrained one.
    free = fit(x, y, w, PenaltySpec(), ConstraintSet.empty(5))
    assert result.minus_ll >= free.minus_ll - 1e-10


def test_fit_penalty_shrinks_weights():
    rng = np.random.default_rng(11)
    x, y, w = make_logistic(rng, n=400, q=6)
    norms = []
    for lam in (0.0, 1.0, 10.0):
        result = fit(x, y, w, PenaltySpec(lam=lam), ConstraintSet.empty(6))
        assert result.status == "converged"
        norms.append(np.linalg.norm(result.beta[1:]))
    assert norms[0] >= norms[1] >= norms[2]
    # A huge penalty pins the weights at 0 and leaves the log-odds intercept.
    result = fit(x, y, w, PenaltySpec(lam=1e8), ConstraintSet.empty(6))
    assert result.status == "converged"
    assert np.abs(result.beta[1:]).max() <= 1e-3
    odds = math.log((w @ y) / (w @ (1.0 - y)))
    assert result.beta[0] == pytest.approx(odds, abs=1e-3)


def test_fit_objective_includes_penalty():
    rng = np.random.default_rng(12)
    x, y, w = make_logistic(rng, n=200, q=4)
    pen = PenaltySpec(lam=2.0)
    result = fit(x, y, w, pen, ConstraintSet.empty(4))
    assert result.objective == pytest.approx(result.minus_ll + pen.value(result.beta))


def test_fit_iteration_cap_is_honest():
    rng = np.random.default_rng(13)
    x, y, w = make_logistic(rng, n=300, q=5)
    config = FitConfig(tol=1e-12, max_outer_iters=1)
    result = fit(x, y, w, PenaltySpec(), ConstraintSet.empty(5), config)
    assert result.status == "max_iterations"
    assert result.iterations == 1
    assert "iteration cap" in result.note


@pytest.mark.filterwarnings("ignore:H is rank deficient")
def test_fit_warns_on_separation():
    # Perfectly separable data sends unpenalized coefficients to infinity.
    x = DenseDesign(np.column_stack([np.ones(20), np.repeat([-1.0, 1.0], 10)]))
    y = np.repeat([0.0, 1.0], 10)
    w = np.ones(20)
    config = FitConfig(tol=1e-12, max_outer_iters=40)
    with pytest.warns(FitWarning, match="separable"):
        result = fit(x, y, w, PenaltySpec(), ConstraintSet.empty(2), config)
    assert result.status == "max_iterations"


def test_fit_raises_on_infeasible_constraints():
    rng = np.random.default_rng(14)
    x, y, w = make_logistic(rng, n=100, q=3)
    cs = cs_of(3, aeq=[[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], beq=[0.0, 1.0])
    with pytest.raises(StepError, match="infeasible"):
        fit(x, y, w, PenaltySpec(), cs)


def test_fit_validates_shapes():
    rng = np.random.default_rng(15)
    x, y, w = make_logistic(rng, n=50, q=3)
    with pytest.raises(SpecError, match="constraint set"):
        fit(x, y, w, PenaltySpec(), ConstraintSet.empty(4))
    with pytest.raises(SpecError, match="length 50"):
        fit(x, y[:-1], w[:-1], PenaltySpec(), ConstraintSet.empty(3))
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(SpecError, match="tol"):
            FitConfig(tol=tol)
    with pytest.raises(SpecError, match="max_outer_iters"):
        FitConfig(max_outer_iters=0)


def test_fit_on_design_matrix_with_compiled_constraints(small_spec):
    rng = np.random.default_rng(16)
    n = 400
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=np.ones(n), records=records).validate()
    dm = build_design_matrix(small_spec, sample)
    cs = compile_constraints(small_spec)
    result = fit(dm, y, sample.w, PenaltySpec(lam=0.5), cs)
    assert result.status == "converged"
    beta = result.beta
    # Pins hold and the ordering pattern holds on the fitted weights.
    for pinned in (1, 5, 8):
        assert beta[pinned] == pytest.approx(0.0, abs=1e-8)
    assert beta[2] >= beta[3] - 1e-8
    assert beta[3] >= beta[4] - 1e-8
    assert beta[7] <= beta[6] + 1e-8


def test_warm_started_fit_matches_cold_fit():
    rng = np.random.default_rng(17)
    x, y, w = make_logistic(rng, n=250, q=4)
    cold = fit(x, y, w, PenaltySpec(lam=1.0), ConstraintSet.empty(4))
    warm = fit(
        x, y, w, PenaltySpec(lam=1.0), ConstraintSet.empty(4),
        FitConfig(beta0=cold.beta),
    )
    assert warm.status == "converged"
    assert warm.iterations <= cold.iterations
    assert np.abs(warm.beta - cold.beta).max() <= 1e-6


def test_fit_rejects_non_finite_weights():
    rng = np.random.default_rng(18)
    x, y, w = make_logistic(rng, n=50, q=3)
    for bad in (np.nan, np.inf):
        w_bad = w.copy()
        w_bad[7] = bad
        with pytest.raises(SpecError, match="finite"):
            fit(x, y, w_bad, PenaltySpec(0.1), ConstraintSet.empty(3))


def test_logistic_terms_reject_bad_shapes():
    x = DenseDesign(np.ones((5, 2)))
    with pytest.raises(SpecError, match="length 5"):
        logistic_terms(x, np.ones(4), np.ones(4), np.zeros(2))
    with pytest.raises(SpecError, match="beta must have length"):
        logistic_terms(x, np.ones(5), np.ones(5), np.zeros(3))
    with pytest.raises(SpecError, match="nonnegative"):
        logistic_terms(x, np.ones(5), -np.ones(5), np.zeros(2))
    with pytest.raises(SpecError, match="must be a DesignMatrix"):
        logistic_terms(np.ones((5, 2)), np.ones(5), np.ones(5), np.zeros(2))


def merged_by_hand(design, y, w):
    """Rows of equal codes and y summed into one, in order of first rows."""
    groups = {}
    for i, key in enumerate(zip(map(tuple, design.codes.tolist()), y.tolist())):
        groups.setdefault(key, []).append(i)
    first = [rows[0] for rows in groups.values()]
    weights = np.array([w[rows].sum() for rows in groups.values()])
    merged = DesignMatrix(design.codes[first], design.blocks)
    return merged, y[first], weights


def test_fit_merges_repeated_rows(small_spec, monkeypatch):
    rng = np.random.default_rng(19)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=w, records=records).validate()
    dm = build_design_matrix(small_spec, sample)
    merged = merged_by_hand(dm, y, w)
    assert merged[0].n < n / 10
    perm = rng.permutation(n)
    permuted = (DesignMatrix(dm.codes[perm], dm.blocks), y[perm], w[perm])
    cs = compile_constraints(small_spec)
    for lam in (0.0, 0.5):
        fits = [fit(*case, PenaltySpec(lam=lam), cs) for case in ((dm, y, w), merged, permuted)]
        for other in fits[1:]:
            assert other.status == fits[0].status == "converged"
            assert other.iterations == fits[0].iterations
            assert np.abs(other.beta - fits[0].beta).max() <= 1e-10

    # The loop sees the merged rows; with no repeated row, the design as given.
    seen = []

    def spy(design, *args, **kwargs):
        seen.append(design)
        return logistic_terms(design, *args, **kwargs)

    monkeypatch.setattr(sqp, "logistic_terms", spy)
    fit(dm, y, w, PenaltySpec(lam=0.5), cs)
    assert {d.n for d in seen} == {merged[0].n}
    distinct = merged[0]
    seen.clear()
    fit(distinct, merged[1], merged[2], PenaltySpec(lam=0.5), cs)
    assert seen and all(d is distinct for d in seen)

    # Rows whose hashes collide are never merged: with every multiplier 1,
    # codes (2, 7) and (3, 6) hash alike, and the design is kept as given.
    monkeypatch.setattr(sqp, "_multipliers", lambda count: np.ones(count, dtype=np.int64))
    colliding = DesignMatrix(np.array([[0, 2, 7], [0, 3, 6]] * 3), dm.blocks)
    seen.clear()
    y6 = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    fit(colliding, y6, np.ones(6), PenaltySpec(lam=0.5), ConstraintSet.empty(9))
    assert seen and all(d is colliding for d in seen)


def test_merge_multipliers_are_the_splitmix64_sequence():
    # The first outputs of splitmix64 from seed 0, with the top two bits
    # dropped so that products of codes stay clear of the sign bit.
    first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    mix = sqp._multipliers(40)
    assert mix.dtype == np.int64
    assert [int(m) for m in mix[:3]] == [(v >> 2) | 1 for v in first]
    assert (mix % 2 == 1).all() and (mix > 0).all() and (mix < 2**62).all()
    assert len(set(mix.tolist())) == 40
    assert np.array_equal(sqp._multipliers(3), mix[:3])


def test_merged_codes_are_column_major(small_spec, monkeypatch):
    # Runs and rmatvec read whole code columns, so the merged design keeps
    # the column-major codes build_design_matrix gives; the layout changes
    # no fitted number.
    rng = np.random.default_rng(23)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=w, records=records).validate()
    dm = build_design_matrix(small_spec, sample)
    assert dm.codes.flags.f_contiguous
    merged = sqp._merged(dm, y, w)
    assert merged[0].n < n / 10 and merged[0].codes.flags.f_contiguous
    for got, expected in zip(merged, merged_by_hand(dm, y, w)):
        assert np.array_equal(getattr(got, "codes", got), getattr(expected, "codes", expected))

    cs = compile_constraints(small_spec)
    expected = fit(dm, y, w, PenaltySpec(lam=0.5), cs)
    merge = sqp._merged

    def row_major(*args):
        design, my, mw = merge(*args)
        codes = np.ascontiguousarray(design.codes)
        return DesignMatrix(codes, design.blocks), my, mw

    monkeypatch.setattr(sqp, "_merged", row_major)
    got = fit(dm, y, w, PenaltySpec(lam=0.5), cs)
    assert got.iterations == expected.iterations
    assert got.beta.tobytes() == expected.beta.tobytes()


def test_merged_skips_the_argsort_without_repeated_rows(small_spec, monkeypatch):
    # One plain sort of the row keys shows that no two rows are equal, so a
    # design of distinct (codes, y) rows never pays for the stable argsort.
    rng = np.random.default_rng(29)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=w, records=records).validate()
    dm = build_design_matrix(small_spec, sample)
    argsort = np.argsort
    stable = []

    def counting(*args, **kwargs):
        stable.append(kwargs.get("kind") == "stable")
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    distinct = sqp._merged(dm, y, w)
    assert distinct[0].n < n and stable == [True]
    stable.clear()
    again = sqp._merged(*distinct)
    assert all(got is given for got, given in zip(again, distinct))
    assert stable == []
