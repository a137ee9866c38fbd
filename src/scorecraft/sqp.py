"""Penalized constrained logistic regression by sequential quadratic programming.

The fit minimizes  M(beta) + (lambda/(q-1)) * S'S  subject to the compiled
linear constraints, where M is minus the Bernoulli log likelihood of the
weighted sample, beta' = [S0 S'] holds the intercept and the scorecard
weights, and the intercept is never penalized.  Each outer iteration solves
the exact Newton quadratic model of M under the original constraints with
`qp.solve_qp`.  The design is a `DesignMatrix` and enters only through
four of its operations: its merged rows, scores X beta, the gradient X' r,
and the Gram matrix X' diag(c) X.  Probabilities come from a logistic
evaluated through e^-|theta|, so no score overflows.

Before the loop, rows with equal attributes and y are merged into one row
that carries their summed weight (`DesignMatrix.merged`, exact keys of y
and the joint codes), so a sample drawn from few profiles costs as many
rows as it has distinct ones; every term is a weighted sum over rows, so
only rounding changes.
Every iterate is evaluated once: one gather of its scores gives minus log
likelihood and gradient, and the Gram matrix is built only where another QP
follows.  Each QP after the first is warm started from the inequality rows
the step before left active (those with positive multipliers); the
constraints do not change between steps, so the active set rarely does,
and `solve_qp` falls back to its cold path wherever that start does not
certify.  A warm solve's `iterations` counts only the polish rounds that
changed the active set.  Convergence is measured by max|delta beta| between
iterations, with no step damping: full QP steps, an iteration cap, and a
recorded trajectory.  The final beta is certified by the KKT residuals of
its penalized gradient with the last step's multipliers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constraints import (
    ConstraintResiduals,
    ConstraintSet,
    constraint_residuals,
)
from .model import DesignMatrix, SpecError, StepError
from .qp import KktResiduals, QpProblem, QpSolution, kkt_residuals, solve_qp

__all__ = [
    "FitWarning",
    "StepError",
    "LogisticTerms",
    "PenaltySpec",
    "FitConfig",
    "IterationRecord",
    "FitResult",
    "score_minus_log_likelihood",
    "logistic_terms",
    "assemble_qp",
    "initial_beta",
    "fit",
]

MAX_LAM = float(np.finfo(float).max) / 2
# Share of the total weight that a converged fit's stationarity may reach.
STATIONARITY_TOL = 1e-8


class FitWarning(UserWarning):
    """Non-fatal fitting conditions, e.g. apparent class separation."""


def _check_sample(design: DesignMatrix, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not all(hasattr(design, op) for op in ("n", "q", "scores", "rmatvec", "gram", "merged")):
        raise SpecError("design must be a DesignMatrix")
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = design.n
    if y.shape != (n,) or w.shape != (n,):
        raise SpecError(f"y and w must have length {n}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise SpecError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):
            raise SpecError("total weight must be finite")
    return y, w


def _check_beta(design: DesignMatrix, beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.q,):
        raise SpecError(f"beta must have length {design.q}")
    return beta


@dataclass(frozen=True, eq=False)
class LogisticTerms:
    """Joint logistic quantities at one coefficient vector.

    theta are the scores X beta; grad and hess the gradient and Hessian of
    minus log likelihood; minus_ll its value.  hess is the weighted Gram
    matrix X' diag(w p (1-p)) X, for p the modeled Pr{y=1}, symmetric PSD,
    or None where it was not asked for.
    """

    theta: np.ndarray
    grad: np.ndarray
    hess: Optional[np.ndarray]
    minus_ll: float


@dataclass(frozen=True)
class PenaltySpec:
    """Ridge penalty (lam/(q-1)) * S'S on the scorecard weights only.

    The intercept coefficient is exempt: the penalty's Hessian contribution
    is (2 lam/(q-1)) on the diagonal for every coefficient but the first.
    lam is at most MAX_LAM, the largest value whose double is finite.
    """

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.lam <= MAX_LAM:
            raise SpecError(
                "penalty weight must be finite, nonnegative and at most "
                f"{MAX_LAM!r}, got {self.lam}"
            )

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
    iteration cap, and the starting-point policy (beta0 None means
    intercept = log population odds, weights 0)."""

    tol: float = 1e-6
    max_outer_iters: int = 50
    beta0: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not 0 < self.tol < np.inf:
            raise SpecError(f"tol must be finite and positive, got {self.tol}")
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
    return _minus_ll(theta, np.exp(-np.abs(theta)), y, w)


def _minus_ll(theta: np.ndarray, e: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """sum w (max(theta, 0) + log1p(e) - y theta) for e = e^-|theta|.

    log(1+e^theta) = max(theta, 0) + log(1 + e^-|theta|) never overflows.
    The sum is elementwise: a BLAS dot of n-vectors may start a thread pool.
    """
    return float((w * (np.maximum(theta, 0.0) + np.log1p(e) - y * theta)).sum())


def logistic_terms(
    design: DesignMatrix,
    y: np.ndarray,
    w: np.ndarray,
    beta: np.ndarray,
    hessian: bool = True,
) -> LogisticTerms:
    """Scores, gradient, Hessian, and minus log likelihood.

    One pass over theta = X beta:
        prob = e^theta / (1 + e^theta)
        grad = X' [w (prob - y)]
        hess = X' diag(w prob (1-prob)) X   (None unless hessian is set)
        minus_ll = w' (log(1+e^theta) - y theta)
    On a `DesignMatrix`, theta is one table lookup per run of
    characteristics, grad one bincount per run, and hess, the largest cost,
    one weighted histogram of joint codes per run and per pair of runs.
    """
    y, w = _check_sample(design, y, w)
    beta = _check_beta(design, beta)
    theta = design.scores(beta)
    # e^-|theta| never overflows: prob = 1/(1+e) for theta >= 0, else e/(1+e).
    e = np.exp(-np.abs(theta))
    prob = np.where(theta >= 0, 1.0, e) / (1.0 + e)
    grad = design.rmatvec(w * (prob - y))
    hess = design.gram(w * prob * (1.0 - prob)) if hessian else None
    minus_ll = _minus_ll(theta, e, y, w)
    return LogisticTerms(theta=theta, grad=grad, hess=hess, minus_ll=minus_ll)


def assemble_qp(
    terms: LogisticTerms,
    pen: PenaltySpec,
    beta_hat: np.ndarray,
    cs: ConstraintSet,
) -> QpProblem:
    """The Newton quadratic model of the penalized objective at beta_hat.

    H = hess + (2 lam/(q-1)) on the non-intercept diagonal; f = grad -
    hess beta_hat (the penalty, being exactly quadratic, adds nothing to f).
    beta_hat seeds the warm start.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    q = beta_hat.shape[0]
    if terms.hess.shape != (q, q):
        raise SpecError("terms and beta_hat disagree on the coefficient count")
    h = terms.hess + np.diag(pen.hessian_diag(q))
    f = terms.grad - terms.hess @ beta_hat
    return QpProblem(h=h, f=f, cs=cs, warm_start=beta_hat)


def _solve_step(problem: QpProblem, active: Optional[np.ndarray]) -> QpSolution:
    solution = solve_qp(problem, active)
    if solution.status != "optimal":
        raise StepError(
            f"quadratic programming step failed: QP status {solution.status}"
            f" (stationarity {solution.kkt.stationarity:.3e},"
            f" primal eq {solution.kkt.primal_eq:.3e},"
            f" primal ineq {solution.kkt.primal_ineq:.3e})"
            + (f"; {solution.note}" if solution.note else "")
        )
    return solution


def initial_beta(
    q: int,
    y: np.ndarray,
    w: np.ndarray,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Starting point: supplied warm start, or log population odds intercept.

    The default policy sets beta[0] = log(sum w y / sum w (1-y)) and every
    scorecard weight to 0; a supplied warm start is returned verbatim after
    a check of its length and that it is finite.
    """
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (q,):
            raise SpecError(f"warm start must have length {q}, got {warm.shape}")
        if not np.isfinite(warm).all():
            raise SpecError("warm start must be finite")
        return warm.copy()
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    good = float((w * y).sum())
    bad = float((w * (1.0 - y)).sum())
    if good <= 0 or bad <= 0:
        raise SpecError(
            "initial intercept needs both outcome classes with positive weight"
        )
    beta = np.zeros(q)
    beta[0] = np.log(good / bad)
    return beta


def fit(
    design: DesignMatrix,
    y: np.ndarray,
    w: np.ndarray,
    pen: PenaltySpec,
    cs: ConstraintSet,
    config: Optional[FitConfig] = None,
) -> FitResult:
    """Run the sequential QP loop until max|delta beta| <= tol.

    w and lam are scaled by the power of two 2^s that puts max w in [1, 2),
    which changes no rounding, so beta does not depend on the weights'
    scale; what carries weight is scaled back on exit.  Rows with equal
    attributes and y are merged by summing w (`design.merged`).  Each
    iteration takes a full constrained Newton step from the current beta;
    the trajectory records the step size and minus log likelihood per
    iteration.  Each iterate is evaluated once, with its Hessian only where
    another step follows.  The returned KKT residuals certify the penalized
    nonlinear problem at the final beta from its gradient plus the penalty
    gradient, using the final step's multipliers.  "converged" also needs the
    constraints within 1e-8 and that stationarity within STATIONARITY_TOL * sum w.
    """
    config = config or FitConfig()
    y, w = _check_sample(design, y, w)
    q = design.q
    if cs.q != q:
        raise SpecError(f"constraint set is over {cs.q} coefficients, design over {q}")
    s = 1 - int(np.frexp(w.max(initial=0.0))[1])
    try:
        pen = PenaltySpec(math.ldexp(pen.lam, s))
    except (OverflowError, SpecError):
        raise SpecError(
            f"--lambda {pen.lam!r} is too large for weights whose largest is {float(w.max())!r}"
        ) from None
    design, y, w = design.merged(y, np.ldexp(w, s))

    def unscaled(value: float) -> float:
        return float(np.ldexp(value, -s))

    beta = initial_beta(q, y, w, config.beta0)
    terms = logistic_terms(design, y, w, beta)
    trajectory: list[IterationRecord] = []
    status = "max_iterations"
    note = ""
    solution: Optional[QpSolution] = None
    warned_separation = False

    for iteration in range(1, config.max_outer_iters + 1):
        # The last step's active rows seed this step's active set.
        active = None if solution is None else solution.ineq_multipliers > 0
        solution = _solve_step(assemble_qp(terms, pen, beta, cs), active)
        delta = float(np.abs(solution.beta - beta).max())
        beta = solution.beta
        last = delta <= config.tol or iteration == config.max_outer_iters
        terms = logistic_terms(design, y, w, beta, hessian=not last)
        trajectory.append(
            IterationRecord(
                iteration=iteration, max_delta=delta, minus_ll=unscaled(terms.minus_ll)
            )
        )
        # Scores beyond 30 put fitted probabilities within ~1e-13 of 0 or 1;
        # combined with steps still far above tol that is the separation
        # signature, not ordinary convergence.
        if (
            not warned_separation
            and float(np.abs(terms.theta).max()) > 30.0
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
    # A model with zero curvature and the penalized gradient as f certifies
    # the nonlinear problem at beta without building its Hessian.  It is
    # judged before it is scaled back, so the verdict does not depend on 2^s.
    assert solution is not None
    gradient = terms.grad + pen.hessian_diag(q) * beta
    kkt = kkt_residuals(
        QpProblem(h=np.zeros((q, q)), f=gradient, cs=cs),
        beta,
        solution.eq_multipliers,
        solution.ineq_multipliers,
    )
    bound = STATIONARITY_TOL * float(w.sum())
    if status == "converged" and max(residuals.eq_residual, residuals.ineq_violation) > 1e-8:
        status = "max_iterations"
        note = "step tolerance met but constraints violated beyond 1e-8"
    elif status == "converged" and kkt.stationarity > bound:
        status = "max_iterations"
        note = (f"step tolerance met but stationarity {unscaled(kkt.stationarity):.3e} exceeds "
                f"{unscaled(bound):.3e}, {STATIONARITY_TOL:g} of the total weight")
    elif status == "max_iterations":
        note = note or "iteration cap reached before the step tolerance"
    return FitResult(
        beta=beta,
        trajectory=tuple(trajectory),
        status=status,
        minus_ll=unscaled(terms.minus_ll),
        objective=unscaled(terms.minus_ll + pen.value(beta)),
        kkt=replace(kkt, stationarity=unscaled(kkt.stationarity), dual=unscaled(kkt.dual),
                    complementarity=unscaled(kkt.complementarity)),
        residuals=residuals,
        note=note,
    )
