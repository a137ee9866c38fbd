"""Penalized constrained logistic regression by sequential quadratic programming.

The fit minimizes  M(beta) + (lambda/(q-1)) * S'S  subject to the compiled
linear constraints, where M is minus the Bernoulli log likelihood of the
weighted sample, beta' = [S0 S'] holds the intercept and the scorecard
weights, and the intercept is never penalized.  Each outer iteration solves
the exact Newton quadratic model of M under the original constraints.  The
design enters only through three operations of `DesignMatrix`: scores X beta,
the gradient X' r, and the Gram matrix X' diag(c) X.

Convergence is measured by max|delta beta| between iterations, with no step
damping: full QP steps, an iteration cap, and a recorded trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .constraints import (
    ConstraintResiduals,
    ConstraintSet,
    constraint_residuals,
)
from .model import DesignMatrix, SpecError
from .qp import KktResiduals, QpProblem, QpSettings, QpSolution, kkt_residuals, solve_qp

__all__ = [
    "FitWarning",
    "StepError",
    "LogisticTerms",
    "PenaltySpec",
    "FitConfig",
    "IterationRecord",
    "FitResult",
    "score_minus_log_likelihood",
    "minus_log_likelihood",
    "logistic_terms",
    "assemble_qp",
    "sqp_step",
    "initial_beta",
    "fit",
]


class FitWarning(UserWarning):
    """Non-fatal fitting conditions, e.g. apparent class separation."""


class StepError(RuntimeError):
    """A QP step failed: infeasible constraints or unmet solver tolerances."""


def _check_sample(design: DesignMatrix, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = design.n
    if y.shape != (n,) or w.shape != (n,):
        raise SpecError(f"y and w must have length {n}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise SpecError("weights must be finite and nonnegative")
    return y, w


def _check_beta(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.q,):
        raise SpecError(f"beta must have length {design.q}")
    return beta


@dataclass(frozen=True, eq=False)
class LogisticTerms:
    """Joint logistic quantities at one coefficient vector.

    theta are the scores X beta; prob the modeled Pr{y=1}; grad and hess the
    gradient and Hessian of minus log likelihood; minus_ll its value.  hess
    is the weighted Gram matrix X' diag(w p (1-p)) X, symmetric PSD.
    """

    theta: np.ndarray
    prob: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    minus_ll: float


@dataclass(frozen=True)
class PenaltySpec:
    """Ridge penalty (lam/(q-1)) * S'S on the scorecard weights only.

    The intercept coefficient is exempt: the penalty's Hessian contribution
    is (2 lam/(q-1)) on the diagonal for every coefficient but the first.
    """

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not self.lam >= 0:
            raise SpecError(f"penalty weight must be nonnegative, got {self.lam}")

    def hessian_diag(self, q: int) -> np.ndarray:
        """Diagonal of the penalty's Hessian contribution to the QP."""
        if self.lam == 0:
            return np.zeros(q)
        if q < 2:
            raise SpecError("a positive penalty needs q >= 2 (lam/(q-1) division)")
        d = np.full(q, 2.0 * self.lam / (q - 1))
        d[0] = 0.0
        return d

    def value(self, beta: np.ndarray) -> float:
        """Penalty term (lam/(q-1)) * sum of squared scorecard weights."""
        beta = np.asarray(beta, dtype=float)
        if self.lam == 0:
            return 0.0
        q = beta.shape[0]
        if q < 2:
            raise SpecError("a positive penalty needs q >= 2 (lam/(q-1) division)")
        s = beta[1:]
        return float(self.lam / (q - 1) * (s @ s))


@dataclass(frozen=True, eq=False)
class FitConfig:
    """Outer-loop controls: convergence threshold on max|delta beta|,
    iteration cap, inner QP settings, and the starting-point policy
    (beta0 None means intercept = log population odds, weights 0)."""

    tol: float = 1e-6
    max_outer_iters: int = 50
    qp: QpSettings = field(default_factory=QpSettings)
    beta0: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise SpecError("tol must be positive")
        if self.max_outer_iters < 1:
            raise SpecError("max_outer_iters must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    max_delta: float
    minus_ll: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fit output: coefficients, per-iteration trajectory, and certificates.

    beta[0] is the intercept, beta[1:] the scorecard weights.  kkt holds the
    first-order residuals of the penalized nonlinear problem at beta with the
    final step's multipliers; residuals the constraint residuals at beta.
    """

    beta: np.ndarray
    trajectory: tuple[IterationRecord, ...]
    status: str
    initial_minus_ll: float
    minus_ll: float
    objective: float
    kkt: KktResiduals
    residuals: ConstraintResiduals
    note: str = ""

    @property
    def iterations(self) -> int:
        return len(self.trajectory)


def score_minus_log_likelihood(theta: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Minus Bernoulli log likelihood of scores theta: w'(log(1+e^theta) - y theta).

    Shared by the fitting loop and the score comparison metrics so both use
    one definition.  log(1+e^theta) is evaluated in overflow-safe form.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta.shape != y.shape or theta.shape != w.shape:
        raise SpecError("theta, y, w must have equal lengths")
    return float(w @ (np.logaddexp(0.0, theta) - y * theta))


def minus_log_likelihood(
    x: Union[DesignMatrix, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    beta: np.ndarray,
) -> float:
    """Minus log likelihood at beta; additive in observations, linear in w."""
    design = DesignMatrix.coerce(x)
    y, w = _check_sample(design, y, w)
    beta = _check_beta(design, beta)
    return score_minus_log_likelihood(design.scores(beta), y, w)


def logistic_terms(
    x: Union[DesignMatrix, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    beta: np.ndarray,
) -> LogisticTerms:
    """Scores, probabilities, gradient, Hessian, and minus log likelihood.

    One pass over theta = X beta:
        prob = e^theta / (1 + e^theta)
        grad = X' [w (prob - y)]
        hess = X' diag(w prob (1-prob)) X
        minus_ll = w' (log(1+e^theta) - y theta)
    """
    design = DesignMatrix.coerce(x)
    y, w = _check_sample(design, y, w)
    beta = _check_beta(design, beta)
    theta = design.scores(beta)
    prob = expit(theta)
    grad = design.rmatvec(w * (prob - y))
    hess = design.gram(w * prob * (1.0 - prob))
    minus_ll = score_minus_log_likelihood(theta, y, w)
    return LogisticTerms(theta=theta, prob=prob, grad=grad, hess=hess, minus_ll=minus_ll)


def assemble_qp(
    terms: LogisticTerms,
    pen: PenaltySpec,
    beta_hat: np.ndarray,
    cs: ConstraintSet,
) -> QpProblem:
    """The Newton quadratic model of the penalized objective at beta_hat.

    H = hess + (2 lam/(q-1)) on the non-intercept diagonal; f = grad -
    hess beta_hat (the penalty, being exactly quadratic, adds nothing to f).
    beta_hat seeds the warm start; bounds stay infinite.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    q = beta_hat.shape[0]
    if terms.hess.shape != (q, q):
        raise SpecError("terms and beta_hat disagree on the coefficient count")
    h = terms.hess + np.diag(pen.hessian_diag(q))
    f = terms.grad - terms.hess @ beta_hat
    return QpProblem(h=h, f=f, cs=cs, warm_start=beta_hat)


def _sqp_solution(
    x: Union[DesignMatrix, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    pen: PenaltySpec,
    cs: ConstraintSet,
    beta_in: np.ndarray,
    settings: Optional[QpSettings] = None,
) -> QpSolution:
    terms = logistic_terms(x, y, w, beta_in)
    problem = assemble_qp(terms, pen, np.asarray(beta_in, dtype=float), cs)
    solution = solve_qp(problem, settings)
    if solution.status != "optimal":
        raise StepError(
            f"quadratic programming step failed: QP status {solution.status}"
            f" (stationarity {solution.kkt.stationarity:.3e},"
            f" primal eq {solution.kkt.primal_eq:.3e},"
            f" primal ineq {solution.kkt.primal_ineq:.3e})"
            + (f"; {solution.note}" if solution.note else "")
        )
    return solution


def sqp_step(
    x: Union[DesignMatrix, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    pen: PenaltySpec,
    cs: ConstraintSet,
    beta_in: np.ndarray,
    settings: Optional[QpSettings] = None,
) -> np.ndarray:
    """One constrained Newton step: solve the quadratic model at beta_in.

    With no constraints, lam = 0, and nonsingular Hessian this is exactly the
    Newton iterate beta_in - hess^-1 grad.
    """
    return _sqp_solution(x, y, w, pen, cs, beta_in, settings).beta


def initial_beta(
    q: int,
    y: np.ndarray,
    w: np.ndarray,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Starting point: supplied warm start, or log population odds intercept.

    The default policy sets beta[0] = log(sum w y / sum w (1-y)) and every
    scorecard weight to 0; a supplied warm start is returned verbatim after
    a dimension check.
    """
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (q,):
            raise SpecError(f"warm start must have length {q}, got {warm.shape}")
        return warm.copy()
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    good = float(w @ y)
    bad = float(w @ (1.0 - y))
    if good <= 0 or bad <= 0:
        raise SpecError(
            "initial intercept needs both outcome classes with positive weight"
        )
    beta = np.zeros(q)
    beta[0] = np.log(good / bad)
    return beta


def fit(
    x: Union[DesignMatrix, np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    pen: PenaltySpec,
    cs: ConstraintSet,
    config: Optional[FitConfig] = None,
) -> FitResult:
    """Run the sequential QP loop until max|delta beta| <= tol.

    Each iteration takes a full constrained Newton step from the current
    beta; the trajectory records the step size and minus log likelihood per
    iteration.  The returned KKT residuals certify the penalized nonlinear
    problem at the final beta using the final step's multipliers.
    """
    config = config or FitConfig()
    design = DesignMatrix.coerce(x)
    y, w = _check_sample(design, y, w)
    q = design.q
    if cs.q != q:
        raise SpecError(f"constraint set is over {cs.q} coefficients, design over {q}")

    beta = initial_beta(q, y, w, config.beta0)
    initial_ll = minus_log_likelihood(design, y, w, beta)
    trajectory: list[IterationRecord] = []
    status = "max_iterations"
    note = ""
    solution: Optional[QpSolution] = None
    warned_separation = False

    for iteration in range(1, config.max_outer_iters + 1):
        solution = _sqp_solution(design, y, w, pen, cs, beta, config.qp)
        delta = float(np.abs(solution.beta - beta).max())
        beta = solution.beta
        theta = design.scores(beta)
        trajectory.append(
            IterationRecord(
                iteration=iteration,
                max_delta=delta,
                minus_ll=score_minus_log_likelihood(theta, y, w),
            )
        )
        # Scores beyond 30 put fitted probabilities within ~1e-13 of 0 or 1;
        # combined with steps still far above tol that is the separation
        # signature, not ordinary convergence.
        if (
            not warned_separation
            and float(np.abs(theta).max()) > 30.0
            and delta > 10.0 * config.tol
        ):
            warnings.warn(
                "fitted scores exceed 30 in magnitude and are still moving; "
                "the classes may be separable (consider a positive penalty)",
                FitWarning,
                stacklevel=2,
            )
            warned_separation = True
        if delta <= config.tol:
            status = "converged"
            break

    residuals = constraint_residuals(cs, beta)
    # The quadratic model assembled at the final beta has gradient
    # H beta + f = grad + penalty gradient there, so its KKT residuals with
    # the final multipliers certify the nonlinear problem, not a stale model.
    final_terms = logistic_terms(design, y, w, beta)
    final_problem = assemble_qp(final_terms, pen, beta, cs)
    assert solution is not None
    kkt = kkt_residuals(
        final_problem,
        beta,
        solution.eq_multipliers,
        solution.ineq_multipliers,
        solution.lower_multipliers,
        solution.upper_multipliers,
    )
    if status == "converged" and max(residuals.eq_residual, residuals.ineq_violation) > 1e-8:
        status = "max_iterations"
        note = "step tolerance met but constraints violated beyond 1e-8"
    elif status == "max_iterations":
        note = note or "iteration cap reached before the step tolerance"
    return FitResult(
        beta=beta,
        trajectory=tuple(trajectory),
        status=status,
        initial_minus_ll=initial_ll,
        minus_ll=final_terms.minus_ll,
        objective=final_terms.minus_ll + pen.value(beta),
        kkt=kkt,
        residuals=residuals,
        note=note,
    )
