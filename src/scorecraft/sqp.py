"""Penalized constrained logistic regression by sequential quadratic programming.

The fit minimizes  M(beta) + (lambda/(q-1)) * S'S  subject to the compiled
linear constraints, where M is minus the Bernoulli log likelihood of the
weighted sample, beta' = [S0 S'] holds the intercept and the scorecard
weights, and the intercept is never penalized.  Each outer iteration solves
the exact Newton quadratic model of M under the original constraints with
`qp.solve_qp`.  The design is a `DesignMatrix` and enters only through
three of its operations: scores X beta, the gradient X' r, and the Gram
matrix X' diag(c) X.  Probabilities come from a logistic evaluated through
e^-|theta|, so no score overflows.

Before the loop, rows with equal codes and y are merged into one row that
carries their summed weight, so a sample drawn from few profiles costs as
many rows as it has distinct ones; every term is a weighted sum over rows,
so only rounding changes.  Every iterate is evaluated once: one gather of
its scores gives minus log likelihood and gradient, and the Gram matrix is
built only where another QP follows.  Each QP after the first is warm
started from the inequality rows the step before left active (those with
positive multipliers); the constraints do not change between steps, so the
active set rarely does, and `solve_qp` falls back to its cold path
wherever that start does not certify.  A warm solve's `iterations` counts
only the polish rounds that changed the active set.  Convergence is
measured by max|delta beta| between iterations, with no step damping: full
QP steps, an iteration cap, and a recorded trajectory.  The final beta is
certified by the KKT residuals of its penalized gradient with the last
step's multipliers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


class FitWarning(UserWarning):
    """Non-fatal fitting conditions, e.g. apparent class separation."""


def _check_sample(design: DesignMatrix, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not all(hasattr(design, op) for op in ("n", "q", "scores", "rmatvec_runs", "gram")):
        raise SpecError("design must be a DesignMatrix")
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
    is the weighted Gram matrix X' diag(w p (1-p)) X, symmetric PSD, or None
    where it was not asked for.
    """

    theta: np.ndarray
    prob: np.ndarray
    grad: np.ndarray
    hess: Optional[np.ndarray]
    minus_ll: float


@dataclass(frozen=True)
class PenaltySpec:
    """Ridge penalty (lam/(q-1)) * S'S on the scorecard weights only.

    The intercept coefficient is exempt: the penalty's Hessian contribution
    is (2 lam/(q-1)) on the diagonal for every coefficient but the first.
    """

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.lam < np.inf:
            raise SpecError(f"penalty weight must be finite and nonnegative, got {self.lam}")

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
    """Scores, probabilities, gradient, Hessian, and minus log likelihood.

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
    grad = design.rmatvec_runs(w * (prob - y))
    hess = design.gram(w * prob * (1.0 - prob)) if hessian else None
    minus_ll = _minus_ll(theta, e, y, w)
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
    a dimension check.
    """
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (q,):
            raise SpecError(f"warm start must have length {q}, got {warm.shape}")
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


# splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): its increment and its two mixing multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _multipliers(count: int) -> np.ndarray:
    """`count` odd hash multipliers below 2^62, the splitmix64 sequence from
    seed 0 with its top two bits dropped, computed in Python ints."""
    out = []
    state = 0
    for _ in range(count):
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        out.append(((z ^ (z >> 31)) >> 2) | 1)
    return np.array(out, dtype=np.int64)


def _merged(
    design: DesignMatrix, y: np.ndarray, w: np.ndarray
) -> tuple[DesignMatrix, np.ndarray, np.ndarray]:
    """The sample with rows of equal codes and y merged by summing w.

    Each group stands where its first row stood.  Likelihood, gradient and
    Hessian are sums over rows, linear in w, so the merged sample has the
    same ones.  Rows are grouped by a linear hash of their codes and y with
    pseudorandom multipliers, and each group is checked against its first
    row; a design with no repeated row, no codes, or a hash collision comes
    back as given.
    """
    codes = getattr(design, "codes", None)
    if codes is None:
        return design, y, w
    n = design.n
    mix = _multipliers(codes.shape[1])
    # Integer products wrap around; column 0 is the intercept's code 0.
    key = y.view(np.int64) * mix[0]
    for c in range(1, codes.shape[1]):
        key += codes[:, c] * mix[c]
    # A plain sort shows whether any two keys are equal, several times
    # faster than the stable argsort that grouping needs.
    ordered = np.sort(key)
    starts = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    if starts.all():
        return design, y, w
    order = np.argsort(key, kind="stable")
    # The first row of each row's group; the stable sort puts it first.
    first_of = np.empty(n, dtype=np.intp)
    first_of[order] = order[starts][np.cumsum(starts) - 1]
    same = y[first_of] == y
    for c in range(1, codes.shape[1]):
        same &= codes[first_of, c] == codes[:, c]
    if not same.all():
        return design, y, w
    first = np.flatnonzero(first_of == np.arange(n))
    # The merged codes are column-major like the design's: runs and rmatvec
    # read whole code columns.
    kept = np.empty((first.size, codes.shape[1]), dtype=codes.dtype, order="F")
    np.take(codes, first, axis=0, out=kept)
    merged = DesignMatrix(kept, design.blocks)
    weights = np.bincount(np.searchsorted(first, first_of), weights=w, minlength=first.size)
    return merged, y[first], weights


def fit(
    design: DesignMatrix,
    y: np.ndarray,
    w: np.ndarray,
    pen: PenaltySpec,
    cs: ConstraintSet,
    config: Optional[FitConfig] = None,
) -> FitResult:
    """Run the sequential QP loop until max|delta beta| <= tol.

    Rows with equal codes and y are merged by summing w first.  Each
    iteration takes a full constrained Newton step from the current beta;
    the trajectory records the step size and minus log likelihood per
    iteration.  Each iterate is evaluated once, with its Hessian only where
    another step follows.  The returned KKT residuals certify the penalized
    nonlinear problem at the final beta from its gradient plus the penalty
    gradient, using the final step's multipliers.
    """
    config = config or FitConfig()
    y, w = _check_sample(design, y, w)
    q = design.q
    if cs.q != q:
        raise SpecError(f"constraint set is over {cs.q} coefficients, design over {q}")
    design, y, w = _merged(design, y, w)

    beta = initial_beta(q, y, w, config.beta0)
    terms = logistic_terms(design, y, w, beta)
    initial_ll = terms.minus_ll
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
            IterationRecord(iteration=iteration, max_delta=delta, minus_ll=terms.minus_ll)
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
    # the nonlinear problem at beta without building its Hessian.
    assert solution is not None
    gradient = terms.grad + pen.hessian_diag(q) * beta
    kkt = kkt_residuals(
        QpProblem(h=np.zeros((q, q)), f=gradient, cs=cs),
        beta,
        solution.eq_multipliers,
        solution.ineq_multipliers,
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
        minus_ll=terms.minus_ll,
        objective=terms.minus_ll + pen.value(beta),
        kkt=kkt,
        residuals=residuals,
        note=note,
    )
