import math
import warnings

import numpy as np
import pytest

from scorecraft import sqp
from scorecraft.cli import _default_probs
from scorecraft.constraints import ConstraintSet, compile_constraints
from scorecraft.data_io import SyntheticConfig, gen_synthetic
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

from conftest import kkt_max, no_constraints
from dense_design import DenseDesign, attribute_columns
from ircls_oracle import ircls_step
from text_columns import text_column


def cs_of(q, aeq=None, beq=None, a=None, b=None):
    empty = no_constraints(q)
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
    # prob is the logistic of theta, with no overflow at any magnitude; on
    # one row with x = 1 and y = 0 the gradient is prob itself.
    thetas = [0.0]
    for t in (1e-300, 1.0, 36.7, 40.0, 709.0, 745.0, 800.0, 1e3):
        thetas += [t, -t]
    one = DenseDesign(np.ones((1, 1)))
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        prob = np.array([
            logistic_terms(one, np.zeros(1), np.ones(1), np.array([t])).grad[0] for t in thetas
        ])
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
    # The largest lambda whose double, in the Hessian, is finite.
    top = np.finfo(float).max / 2
    assert PenaltySpec(lam=top).hessian_diag(2)[1] == np.finfo(float).max
    with pytest.raises(SpecError, match=r"at most 8\.988465674311579e\+307, got 1e\+308$"):
        PenaltySpec(lam=1e308)
    with pytest.raises(SpecError, match="q >= 2"):
        PenaltySpec(lam=1.0).hessian_diag(1)
    with pytest.raises(SpecError, match="q >= 2"):
        PenaltySpec(lam=1.0).value(np.zeros(1))


def test_assemble_qp_shapes_the_newton_model():
    rng = np.random.default_rng(6)
    x, y, w = make_logistic(rng, n=60, q=4)
    beta = rng.standard_normal(4) * 0.4
    terms = logistic_terms(x, y, w, beta)
    pen = PenaltySpec(lam=2.0)
    p = assemble_qp(terms, pen, beta, no_constraints(4))
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
    step = first_step(x, y, w, PenaltySpec(), no_constraints(4), beta)
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
        ircls_step(x, y, w, PenaltySpec(), no_constraints(1), np.array([800.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_initial_beta_refuses_a_non_finite_warm_start(value):
    warm = np.array([0.5, value, 0.0])
    with pytest.raises(SpecError, match="warm start must be finite"):
        initial_beta(3, np.array([1.0, 0.0]), np.ones(2), warm_start=warm)


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
    result = fit(x, y, w, PenaltySpec(), no_constraints(1))
    assert result.status == "converged"
    assert result.beta[0] == pytest.approx(math.log(3.0), abs=1e-8)
    assert result.minus_ll == pytest.approx(
        4.0 * math.log(4.0) - 3.0 * math.log(3.0), rel=1e-12
    )
    start = logistic_terms(x, y, w, initial_beta(1, y, w), hessian=False)
    assert start.minus_ll >= result.minus_ll
    assert result.iterations == len(result.trajectory)


def test_fit_unconstrained_reaches_stationarity():
    rng = np.random.default_rng(9)
    x, y, w = make_logistic(rng, n=300, q=5)
    result = fit(x, y, w, PenaltySpec(), no_constraints(5))
    assert result.status == "converged"
    terms = logistic_terms(x, y, w, result.beta)
    assert np.abs(terms.grad).max() <= 1e-6
    assert kkt_max(result.kkt) <= 1e-6
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
    assert kkt_max(result.kkt) <= 1e-6
    # The constrained optimum cannot beat the unconstrained one.
    free = fit(x, y, w, PenaltySpec(), no_constraints(5))
    assert result.minus_ll >= free.minus_ll - 1e-10


def test_fit_penalty_shrinks_weights():
    rng = np.random.default_rng(11)
    x, y, w = make_logistic(rng, n=400, q=6)
    norms = []
    for lam in (0.0, 1.0, 10.0):
        result = fit(x, y, w, PenaltySpec(lam=lam), no_constraints(6))
        assert result.status == "converged"
        norms.append(np.linalg.norm(result.beta[1:]))
    assert norms[0] >= norms[1] >= norms[2]
    # A huge penalty pins the weights at 0 and leaves the log-odds intercept.
    result = fit(x, y, w, PenaltySpec(lam=1e8), no_constraints(6))
    assert result.status == "converged"
    assert np.abs(result.beta[1:]).max() <= 1e-3
    odds = math.log((w @ y) / (w @ (1.0 - y)))
    assert result.beta[0] == pytest.approx(odds, abs=1e-3)


def test_fit_objective_includes_penalty():
    rng = np.random.default_rng(12)
    x, y, w = make_logistic(rng, n=200, q=4)
    pen = PenaltySpec(lam=2.0)
    result = fit(x, y, w, pen, no_constraints(4))
    assert result.objective == pytest.approx(result.minus_ll + pen.value(result.beta))


def test_fit_iteration_cap_is_honest():
    rng = np.random.default_rng(13)
    x, y, w = make_logistic(rng, n=300, q=5)
    config = FitConfig(tol=1e-12, max_outer_iters=1)
    result = fit(x, y, w, PenaltySpec(), no_constraints(5), config)
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
        result = fit(x, y, w, PenaltySpec(), no_constraints(2), config)
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
        fit(x, y, w, PenaltySpec(), no_constraints(4))
    with pytest.raises(SpecError, match="length 50"):
        fit(x, y[:-1], w[:-1], PenaltySpec(), no_constraints(3))
    with pytest.raises(SpecError, match="^total weight must be finite$"):
        fit(x, y, np.full(50, 1e308), PenaltySpec(lam=0.5), no_constraints(3))
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
    sample = Sample(y=y, w=np.ones(n), records=records)
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
    cold = fit(x, y, w, PenaltySpec(lam=1.0), no_constraints(4))
    warm = fit(
        x, y, w, PenaltySpec(lam=1.0), no_constraints(4),
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
            fit(x, y, w_bad, PenaltySpec(0.1), no_constraints(3))


def test_fit_does_not_depend_on_a_power_of_two_scale_of_the_weights(small_spec):
    # Scaling w and lam by 2^k leaves beta, status and iterations bitwise
    # the same and scales minus_ll, the objective and the KKT residuals
    # that carry weight by exactly 2^k, fractional weights included.
    rng = np.random.default_rng(19)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    dm = build_design_matrix(small_spec, Sample(y=y, w=w, records=records))
    cs = compile_constraints(small_spec)
    for lam in (0.0, 0.5):
        base = fit(dm, y, w, PenaltySpec(lam), cs)
        assert base.status == "converged"
        for k in (-600, -20, 37, 500):
            scaled = fit(dm, y, np.ldexp(w, k), PenaltySpec(math.ldexp(lam, k)), cs)
            assert scaled.beta.tobytes() == base.beta.tobytes()
            assert (scaled.status, scaled.iterations) == (base.status, base.iterations)
            assert scaled.minus_ll == math.ldexp(base.minus_ll, k)
            assert scaled.objective == math.ldexp(base.objective, k)
            assert [r.minus_ll for r in scaled.trajectory] == [
                math.ldexp(r.minus_ll, k) for r in base.trajectory
            ]
            assert scaled.kkt.stationarity == math.ldexp(base.kkt.stationarity, k)
            assert scaled.residuals == base.residuals


@pytest.mark.filterwarnings("ignore:H is rank deficient")
def test_fit_that_stops_far_from_stationarity_is_not_converged(fixture_spec):
    # On the bundled spec's gen sample, coefficient 5 pinned to 50 drives
    # every probability to 0 or 1: the steps end at 0 with the penalized
    # gradient still at 0.75 of the total weight.  That is no optimum.
    good, bad = _default_probs(fixture_spec)
    sample = gen_synthetic(SyntheticConfig(
        seed=1, n_good=3000, n_bad=1000, spec=fixture_spec, good_probs=good, bad_probs=bad,
    ))
    design = build_design_matrix(fixture_spec, sample)
    cs = compile_constraints(fixture_spec, inweights=[(5, 50.0)])
    with pytest.warns(FitWarning, match="separable"):
        result = fit(design, sample.y, sample.w, PenaltySpec(0.5), cs)
    assert result.trajectory[-1].max_delta == 0.0
    assert result.status == "max_iterations"
    bound = sqp.STATIONARITY_TOL * sample.w.sum()
    assert result.kkt.stationarity > 1e7 * bound
    assert result.note == (
        f"step tolerance met but stationarity {result.kkt.stationarity:.3e}"
        f" exceeds {bound:.3e}, 1e-08 of the total weight"
    )


def test_fit_refuses_a_lambda_that_overflows_with_the_weights_scale():
    rng = np.random.default_rng(20)
    x, y, w = make_logistic(rng, n=30, q=3)
    with pytest.raises(SpecError, match=r"^--lambda 1e\+300 is too large for weights"):
        fit(x, y, w * 1e-300, PenaltySpec(1e300), no_constraints(3))


def test_assemble_qp_refuses_terms_over_another_coefficient_count():
    rng = np.random.default_rng(21)
    x, y, w = make_logistic(rng, n=20, q=3)
    terms = logistic_terms(x, y, w, np.zeros(3))
    with pytest.raises(SpecError, match="^terms and beta_hat disagree on the coefficient count$"):
        assemble_qp(terms, PenaltySpec(), np.zeros(4), no_constraints(3))


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


def attribute_rows(design):
    """Each row's attributes, one per characteristic, as a tuple."""
    return list(zip(*(column.tolist() for column in attribute_columns(design))))


def merged_by_hand(design, y, w):
    """Rows of equal attributes and y summed into one, in order of first rows.

    Each weight is summed in row order.
    """
    groups = {}
    for i, key in enumerate(zip(attribute_rows(design), y.tolist())):
        groups.setdefault(key, []).append(i)
    first = [rows[0] for rows in groups.values()]
    weights = np.array([sum(w[rows].tolist()) for rows in groups.values()])
    columns = [column[first] for column in attribute_columns(design)]
    merged = DesignMatrix.build(len(first), design.blocks, columns)
    return merged, y[first], weights


def test_fit_merges_repeated_rows(small_spec, monkeypatch):
    rng = np.random.default_rng(19)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=w, records=records)
    dm = build_design_matrix(small_spec, sample)
    merged = merged_by_hand(dm, y, w)
    assert merged[0].n < n / 10
    perm = rng.permutation(n)
    columns = [column[perm] for column in attribute_columns(dm)]
    permuted = (DesignMatrix.build(n, dm.blocks, columns), y[perm], w[perm])
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


def test_merged_keys_rows_exactly():
    # Rows merge when y and every attribute are equal, and only then.
    blocks = (("age", 1, 6), ("fuel", 6, 9))
    # Attributes (2, 7) and (3, 6), in runs of one characteristic each at
    # six rows, have joint codes (1, 1) and (2, 0): a linear hash with
    # equal multipliers sums them alike, the exact key does not.
    design = DesignMatrix.build(6, blocks, [np.array([2, 3] * 3), np.array([7, 6] * 3)])
    assert [joint.tolist() for _, _, joint, _ in design.runs] == [[1, 2] * 3, [1, 0] * 3]
    y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    w = np.arange(1.0, 7.0)
    merged, my, mw = design.merged(y, w)
    assert attribute_rows(merged) == [(2, 7), (3, 6)] * 2
    assert my.tolist() == [1.0, 1.0, 0.0, 0.0] and mw.tolist() == [6.0, 8.0, 3.0, 4.0]
    # Rows that differ only in a fractional y (0.1 + 0.2 is not 0.3) stay apart.
    design = DesignMatrix.build(4, blocks, [np.full(4, 2), np.full(4, 7)])
    y = np.array([0.3, 0.1 + 0.2, 0.3, 0.3])
    merged, my, mw = design.merged(y, np.ones(4))
    assert merged.n == 2 and my.tobytes() == y[:2].tobytes() and mw.tolist() == [3.0, 1.0]


def test_merged_keys_pass_2_to_the_63():
    # 14 characteristics of 40 attributes: at 3000 rows each is its own run,
    # and y with the 14 joint codes spans 2 * 40^14 keys, past 2^63, so the
    # keys are renumbered on the way; the rows, drawn from 300 profiles,
    # merge to exactly those profiles.
    rng = np.random.default_rng(31)
    profiles = rng.integers(0, 40, (300, 14))
    assert len({tuple(p) for p in profiles.tolist()}) == 300
    rows = rng.permutation(np.concatenate([np.arange(300), rng.integers(0, 300, 2700)]))
    blocks = tuple((f"c{c}", 1 + 40 * c, 41 + 40 * c) for c in range(14))
    columns = [1 + 40 * c + profiles[rows, c] for c in range(14)]
    design = DesignMatrix.build(3000, blocks, columns)
    assert len(design.runs) == 14
    y = (profiles[rows, 0] % 2).astype(float)
    assert 2 * math.prod(table.shape[0] for _, _, _, table in design.runs) > 2**63
    w = rng.uniform(0.5, 2.0, 3000)
    merged, my, mw = design.merged(y, w)
    expected, ey, ew = merged_by_hand(design, y, w)
    assert merged.n == expected.n == 300
    for got, want in zip(merged.runs, expected.runs, strict=True):
        assert got[:2] == want[:2]
        assert got[2].tobytes() == want[2].tobytes() and got[3].tobytes() == want[3].tobytes()
    assert my.tobytes() == ey.tobytes() and mw.tobytes() == ew.tobytes()
    # The 300 distinct rows are told apart as soon as the keys are renumbered.
    again = merged.merged(my, mw)
    assert all(got is given for got, given in zip(again, (merged, my, mw)))


def test_merged_is_the_design_of_first_rows(small_spec, fixture_spec):
    # The merged design is built from each group's first row, its runs
    # chosen for its own row count, with the group's weights summed:
    # equal bit for bit, runs and all.
    rng = np.random.default_rng(23)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    cases = [(build_design_matrix(small_spec, Sample(y=y, w=w, records=records)), y, w)]
    # The bundled spec on rows drawn from 40 profiles: 15 runs at 4000
    # rows, one per characteristic (25) at the merged 40.
    profiles = rng.integers(0, 40, 4000)
    records = {}
    for ch in fixture_spec.characteristics:
        texts = [str(v) for v in rng.integers(-10, 1000, 40)]
        records[ch.name] = text_column([texts[k] for k in profiles])
    big_y = (profiles % 3 == 0).astype(float)
    big_w = rng.uniform(0.5, 2.0, 4000)
    cases.append((build_design_matrix(fixture_spec, Sample(big_y, big_w, records)), big_y, big_w))
    for dm, y, w in cases:
        merged, my, mw = dm.merged(y, w)
        expected, ey, ew = merged_by_hand(dm, y, w)
        assert merged.n == expected.n < dm.n / 10
        rows = list(zip(attribute_rows(dm), y.tolist()))
        first = [rows.index(row) for row in zip(attribute_rows(merged), my.tolist())]
        assert first == sorted(first)
        assert merged.blocks == expected.blocks == dm.blocks
        assert len(merged.runs) == len(expected.runs)
        for got, built in zip(merged.runs, expected.runs):
            assert got[:2] == built[:2]
            assert got[2].tobytes() == built[2].tobytes()
            assert got[3].tobytes() == built[3].tobytes()
        assert my.tobytes() == ey.tobytes() == y[first].tobytes()
        assert mw.tobytes() == ew.tobytes()
    assert (len(cases[1][0].runs), merged.n, len(merged.runs)) == (15, 40, 25)


def test_merged_keeps_a_design_without_repeated_rows(small_spec, monkeypatch):
    # Rows are grouped by one plain sort of their keys, with no argsort.
    # Groups stand in order of first rows, each weight summed in row order;
    # a design of distinct (attributes, y) rows comes back as given.
    rng = np.random.default_rng(29)
    n = 600
    ages = rng.choice(["-9999999", "20", "40", "60", None], size=n)
    fuels = rng.choice(["Gas", "Diesel", "Other", "???"], size=n)
    y = (rng.random(n) < 0.6).astype(float)
    w = rng.uniform(0.1, 2.0, size=n)
    records = {"age": text_column(ages), "fuel": text_column(fuels)}
    sample = Sample(y=y, w=w, records=records)
    dm = build_design_matrix(small_spec, sample)
    argsort = np.argsort
    calls = []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k))
    distinct = dm.merged(y, w)
    sums = {}
    for key, weight in zip(zip(attribute_rows(dm), y.tolist()), w.tolist()):
        sums[key] = sums.get(key, 0.0) + weight
    assert distinct[0].n == len(sums) < n
    assert list(zip(attribute_rows(distinct[0]), distinct[1].tolist())) == list(sums)
    assert distinct[2].tolist() == list(sums.values())
    again = distinct[0].merged(*distinct[1:])
    assert all(got is given for got, given in zip(again, distinct))
    assert calls == []
