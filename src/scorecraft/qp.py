"""Dense convex QP solver: a least-distance NNLS guess, an active-set polish,
and KKT certification.

Solves  minimize 1/2 beta' H beta + f' beta
        subject to  Aeq beta = beq,  A beta <= b

for symmetric positive semidefinite H; a bound on a coefficient is a unit row
of A.  A cold solve takes three steps:

1. Factor H + delta I = L L' with delta tiny and relative to H, so that the
   model is strictly convex where H is singular (scorecard designs are rank
   deficient by construction); the delta term is centred at the warm start.
2. In z = L' beta + L^-1 f the model is a least-distance problem, whose
   dual is a nonnegative least-squares problem (Lawson & Hanson, Solving
   Least Squares Problems, 1974, ch. 23) with the equality rows as free
   columns.  Its passive set guesses the active set.
3. An active-set polish settles that set on H itself and yields exact
   multipliers.

A warm solve is given the inequality rows active at a nearby solution, as an
SQP step is by the step before it (Nocedal & Wright, Numerical Optimization,
ch. 18), and polishes from them directly; its result is returned only if it
passes the certification a cold solve applies, else the cold solve runs.
The polish solves each KKT system by one LU solve where H is definite, and
by iterative refinement on a shifted inverse where it is singular.

"infeasible" comes only with a Farkas vector and "unbounded" only with a
descent ray, each checked on the problem data.  `iterations` counts NNLS
iterations plus the polish rounds that changed the active set (so a warm
solve counts only the latter, and may report 0), and MAX_ITERS caps it.
Identical inputs give bitwise identical outputs.  All linear algebra is
numpy.linalg.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .constraints import ConstraintSet
from .model import SpecError

__all__ = [
    "QpWarning",
    "QpProblem",
    "QpSolution",
    "KktResiduals",
    "solve_qp",
    "kkt_residuals",
    "qp_objective",
]

# Caps NNLS iterations plus the polish rounds that changed the active set.
MAX_ITERS = 5_000
# delta = DELTA * max diag(H) regularizes the active-set guess only.
DELTA = 1e-10
# "optimal" needs KKT residuals within KKT_TOL * (1 + data scale), plus
# ROUNDOFF times the sizes of the KKT matrix and of its solution (far below
# DELTA, so the far-off points of an unbounded regularized model fail).  The
# polish uses the same tolerances for violated rows and wrong-sign multipliers.
KKT_TOL = 1e-9
ROUNDOFF = 1e-14
# Eigenvalues and Cholesky pivots of H below RANK_TOL relative count as zero.
RANK_TOL = 1e-10
# A least-distance point needs ||r||^2 = 1 / (1 + ||z||^2) above RQ_MIN and
# must keep its rows to CERT_TOL relative; Farkas vectors and rays are held
# to CERT_TOL relative as well.
RQ_MIN = 1e-14
CERT_TOL = 1e-9
# Passive NNLS sets are solved by the normal equations while their Cholesky
# pivots (of unit-length columns) exceed GRAM_MIN_PIVOT.
GRAM_MIN_PIVOT = 1e-8
POLISH_ROUNDS = 40
POLISH_DELTA = 1e-7
POLISH_REFINE = 10


class QpWarning(UserWarning):
    """Non-fatal solver conditions, e.g. an optimum that is not unique."""


@dataclass(frozen=True, eq=False)
class QpProblem:
    """One convex QP instance over the full coefficient vector.

    h is symmetrized on construction and must be symmetric to within 1e-12
    relative; warm_start, when given, centres the regularization of the
    active-set guess.
    """

    h: np.ndarray
    f: np.ndarray
    cs: ConstraintSet
    warm_start: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise SpecError(f"H must be square, got shape {h.shape}")
        q = h.shape[0]
        if f.shape != (q,):
            raise SpecError(f"f must have length {q}, got {f.shape}")
        scale = 1.0 + (np.abs(h).max() if h.size else 0.0)
        asym = np.abs(h - h.T).max() if h.size else 0.0
        if asym > 1e-12 * scale:
            raise SpecError(f"H is not symmetric (max asymmetry {asym:.3e})")
        object.__setattr__(self, "h", (h + h.T) / 2.0)
        object.__setattr__(self, "f", f)
        if self.cs.q != q:
            raise SpecError(
                f"constraint set is over {self.cs.q} coefficients, H over {q}"
            )
        if self.warm_start is not None:
            ws = np.asarray(self.warm_start, dtype=float)
            if ws.shape != (q,):
                raise SpecError(f"warm start must have length {q}")
            object.__setattr__(self, "warm_start", ws)

    @property
    def q(self) -> int:
        return int(self.h.shape[0])


@dataclass(frozen=True)
class KktResiduals:
    """First-order optimality residuals of a (beta, multipliers) candidate.

    stationarity: max |H beta + f + Aeq' mu + A' nu|
    primal_eq:    max |Aeq beta - beq|
    primal_ineq:  max positive part of A beta - b
    dual:         magnitude of the most negative inequality multiplier
    complementarity: max |nu * (A beta - b)|
    """

    stationarity: float
    primal_eq: float
    primal_ineq: float
    dual: float
    complementarity: float

    def max(self) -> float:
        return max(astuple(self))


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output: point, multipliers, status, and certified residuals.

    status "optimal" means the KKT residuals passed the tolerance.
    "infeasible" carries a Farkas vector y over the stacked rows C = [Aeq; A]:
    C' y = 0, while y' z > 0 for every z with z = beq on the equality rows
    and z <= b on the inequality rows.  "unbounded" carries a descent ray d:
    H d = 0, f' d < 0, and d keeps every constraint.  "max_iterations"
    returns the best point found with its honest residuals.
    """

    beta: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    status: str
    kkt: KktResiduals
    objective: float
    iterations: int
    note: str = ""
    certificate: Optional[np.ndarray] = None


def _max_abs(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _max_pos(v: np.ndarray) -> float:
    return float(np.maximum(v, 0.0).max()) if v.size else 0.0


def qp_objective(p: QpProblem, beta: np.ndarray) -> float:
    """Objective value 1/2 beta' H beta + f' beta."""
    beta = np.asarray(beta, dtype=float)
    return float(0.5 * beta @ p.h @ beta + p.f @ beta)


def kkt_residuals(
    p: QpProblem,
    beta: np.ndarray,
    eq_multipliers: Optional[np.ndarray] = None,
    ineq_multipliers: Optional[np.ndarray] = None,
) -> KktResiduals:
    """Exact KKT residuals for a candidate point; pure certificate checker.

    Missing multiplier vectors are treated as zero.
    """
    q = p.q
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (q,):
        raise SpecError(f"beta must have length {q}")
    mu = _as_mult(eq_multipliers, p.cs.m_e, "eq_multipliers")
    nu = _as_mult(ineq_multipliers, p.cs.m_i, "ineq_multipliers")

    grad = p.h @ beta + p.f + p.cs.aeq.T @ mu + p.cs.a.T @ nu
    ineq_slack = p.cs.a @ beta - p.cs.b
    return KktResiduals(
        stationarity=_max_abs(grad),
        primal_eq=_max_abs(p.cs.aeq @ beta - p.cs.beq),
        primal_ineq=_max_pos(ineq_slack),
        dual=_max_pos(-nu),
        complementarity=_max_abs(nu * ineq_slack),
    )


def _as_mult(v: Optional[np.ndarray], m: int, name: str) -> np.ndarray:
    if v is None:
        return np.zeros(m)
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise SpecError(f"{name} must have length {m}, got {v.shape}")
    return v


# ---------------------------------------------------------------------------
# Solver


def solve_qp(p: QpProblem, active: Optional[np.ndarray] = None) -> QpSolution:
    """Solve the QP, certifying the result through KKT residuals.

    A least-distance NNLS on H + delta I guesses the active set and the
    polish settles it on H.  `active`, a boolean mask over the inequality
    rows (the rows active at a previous, nearby solution), lets the polish
    start from those rows and the equality rows instead; that result is
    returned only if it passes the same certification, else the cold path
    runs.  The mask is ignored when the problem has no inequality rows.
    """
    q, h, f, m_e = p.q, p.h, p.f, p.cs.m_e
    # The rows s beta <= t of [Aeq; A]; the first m_e hold with equality, and
    # their multipliers are free.
    s = np.vstack([p.cs.aeq, p.cs.a])
    t = np.concatenate([p.cs.beq, p.cs.b])
    free = np.arange(t.size) < m_e
    no_mult = np.zeros(t.size)
    centre = p.warm_start if p.warm_start is not None else np.zeros(q)
    # Constraint residuals are measured against the rows' data, gradient
    # residuals and multiplier signs against the objective's.
    tol_row = KKT_TOL * (1.0 + _max_abs(t))
    tol_grad = KKT_TOL * (1.0 + max(_max_abs(f), _max_abs(h)))
    definite = _is_definite(h)
    # Solving the KKT system costs roundoff in proportion to the row sums of
    # [[H, S'], [S, 0]] and to its solution.
    abs_s = np.abs(s)
    norm_kkt = max(
        float((np.abs(h).sum(axis=1) + abs_s.sum(axis=0)).max(initial=0.0)),
        float(abs_s.sum(axis=1).max(initial=0.0)),
    )
    iterations = 0

    def split(v):
        """(mu, nu) from per-row multipliers v."""
        return v[:m_e], np.maximum(v[m_e:], 0.0)

    def error(beta, v):
        """Largest KKT residual over its tolerance; "optimal" needs <= 1."""
        kkt = kkt_residuals(p, beta, *split(v))
        slack = ROUNDOFF * norm_kkt * max(_max_abs(beta), _max_abs(v))
        rows = max(kkt.primal_eq, kkt.primal_ineq) / (tol_row + slack)
        grads = max(kkt.stationarity, kkt.dual, kkt.complementarity) / (tol_grad + slack)
        return max(rows, grads)

    def finish(beta, v, status, note="", certificate=None):
        if status == "optimal":
            _warn_if_not_unique(h, s[free | (v != 0)], definite)
        mu, nu = split(v)
        return QpSolution(
            beta=beta,
            eq_multipliers=mu,
            ineq_multipliers=nu,
            status=status,
            kkt=kkt_residuals(p, beta, mu, nu),
            objective=qp_objective(p, beta),
            iterations=iterations,
            note=note,
            certificate=certificate,
        )

    if active is not None and p.cs.m_i:
        active = np.asarray(active, dtype=bool)
        if active.shape != (p.cs.m_i,):
            raise SpecError(f"active must have length {p.cs.m_i}, got {active.shape}")
        warm = _polish(
            h, f, s, t, free, np.concatenate([free[:m_e], active]),
            definite, tol_row, tol_grad, MAX_ITERS,
        )
        if warm is not None and error(warm[0], warm[1]) <= 1.0:
            iterations = warm[2]
            return finish(warm[0], warm[1], "optimal")

    delta = DELTA * (float(np.diag(h).max(initial=0.0)) or 1.0)
    try:
        chol = np.linalg.cholesky(h + delta * np.eye(q))
    except np.linalg.LinAlgError:
        raise SpecError("H is not positive semidefinite") from None
    f_reg = f - delta * centre
    # Least-distance form in z = L' beta + L^-1 f_reg: rows s' beta <= t
    # read (L^-1 s)' z <= t + s' M^-1 f_reg.
    solved = np.linalg.solve(chol, np.column_stack([s.T, f_reg]))
    lg, w0 = solved[:, :-1], solved[:, -1]
    z, v, iterations, limited = _ldp(lg.T, t + w0 @ lg, free, MAX_ITERS)
    candidates = [(centre, no_mult)]
    if z is not None:
        # beta = -M^-1 (f_reg + s' v), with L^-1 (f_reg + s' v) = w0 + lg v.
        beta = -np.linalg.solve(chol.T, w0 + lg @ v)
        candidates.insert(0, (beta, v))

    limit_note = "iteration limit reached before the active set was certified"
    if limited:
        return finish(*candidates[0], "max_iterations", limit_note)
    if z is None:
        # Then v combines the rows to S' v = 0 and t' v < 0 up to roundoff:
        # -v is a Farkas vector, if that holds on the data.
        size = np.abs(v) @ (1.0 + np.abs(np.column_stack([s, t])).max(axis=1))
        if _max_abs(s.T @ v) <= CERT_TOL * size and t @ v < -CERT_TOL * size:
            note = "constraint system admits a Farkas certificate"
            return finish(centre, no_mult, "infeasible", note, -v / _max_abs(v))

    polished = _polish(
        h, f, s, t, free, free | (v > 0), definite, tol_row, tol_grad, MAX_ITERS - iterations
    )
    if polished is not None:
        beta, v, changes = polished
        iterations += changes
        candidates.insert(0, (beta, v))
    errors = [error(b, m) for b, m in candidates]
    beta, v = candidates[int(np.argmin(errors))]
    if min(errors) <= 1.0:
        return finish(beta, v, "optimal")

    # A descent ray means "unbounded" only where a feasible point is known.
    note = "the active-set polish did not settle"
    if z is not None:
        ray, used, limited = _descent_ray(p, s, free, MAX_ITERS - iterations)
        iterations += used
        if ray is not None:
            note = "objective admits an unbounded descent ray"
            return finish(beta, v, "unbounded", note, ray)
        note = limit_note if limited else note
    return finish(beta, v, "max_iterations", note)


def _nnls(
    e: np.ndarray, free: np.ndarray, max_iters: int
) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson NNLS: min ||e u - e_last|| with u >= 0 off the free columns.

    Free columns stay in the passive set throughout.  The columns are scaled
    to unit length, which leaves the passive set unchanged.  Returns (u,
    iterations, limit reached); the solve stops once iterations reaches
    max_iters.
    """
    k = e.shape[1]
    norms = np.linalg.norm(e, axis=0)
    norms[norms == 0] = 1.0
    e = e / norms
    target = np.zeros(e.shape[0])
    target[-1] = 1.0
    tol = 10.0 * np.finfo(float).eps * max(e.shape)
    gram = e.T @ e

    def solve(passive: np.ndarray) -> np.ndarray:
        # Normal equations while they are well conditioned, else least squares.
        idx = np.flatnonzero(passive)
        out = np.zeros(k)
        sub = gram[np.ix_(idx, idx)]
        try:
            if np.diag(np.linalg.cholesky(sub)).min() ** 2 > GRAM_MIN_PIVOT:
                out[idx] = np.linalg.solve(sub, e[-1, idx])
                return out
        except np.linalg.LinAlgError:
            pass
        out[idx] = np.linalg.lstsq(e[:, idx], target, rcond=None)[0]
        return out

    passive = free.copy()
    u = solve(passive) if passive.any() else np.zeros(k)
    skip = np.zeros(k, dtype=bool)
    iterations = 0
    while iterations < max_iters:
        w = e.T @ (target - e @ u)
        open_ = ~passive & ~skip & (w > tol)
        if not open_.any():
            return u / norms, iterations, False
        j = int(np.argmax(np.where(open_, w, -np.inf)))
        iterations += 1
        passive[j] = True
        trial = solve(passive)
        if trial[j] <= 0:
            # Roundoff made w[j] look positive; leave j out until the
            # passive set next changes.
            passive[j] = False
            skip[j] = True
            continue
        skip[:] = False
        while True:
            blocked = passive & ~free & (trial <= 0)
            if not blocked.any():
                u = trial
                break
            ratio = u[blocked] / (u[blocked] - trial[blocked])
            u = u + ratio.min() * (trial - u)
            out = blocked & (u <= 0)
            out[np.flatnonzero(blocked)[np.argmin(ratio)]] = True
            passive &= ~out
            u[out] = 0.0
            trial = solve(passive)
    return u / norms, iterations, True


def _ldp(
    g: np.ndarray, h: np.ndarray, free: np.ndarray, max_iters: int
) -> tuple[Optional[np.ndarray], np.ndarray, int, bool]:
    """Least-distance point: min ||z|| s.t. g z <= h (= h on the free rows).

    Returns (z, v, iterations, limit reached).  When z is found, v holds its
    multipliers, z = -g' v with v >= 0 off the free rows.  When no point is
    in reach, z is None and v a combination with g' v = 0 and h' v < 0 up to
    roundoff.  h is divided by the farthest single-row distance from the
    origin first: the NNLS sees a violation only in proportion to
    1 / (1 + ||z||^2), so z must be of order one.
    """
    norms = np.linalg.norm(g, axis=1)
    reach = np.where(free, np.abs(h), -h) / np.where(norms > 0, norms, 1.0)
    gamma = float(reach.max()) if reach.size and reach.max() > 0 else 1.0
    e = np.vstack([-g.T, -h / gamma])
    u, iterations, limited = _nnls(e, free, max_iters)
    r = e @ u
    r[-1] -= 1.0
    # ||r||^2 = -r[-1] = 1 / (1 + ||z / gamma||^2) at the NNLS solution; a
    # point is kept only if it keeps the rows.
    if -r[-1] > RQ_MIN:
        z = -gamma * r[:-1] / r[-1]
        excess = g @ z - h
        excess[free] = np.abs(excess[free])
        if _max_pos(excess) <= CERT_TOL * (_max_abs(h) + _max_abs(g) * _max_abs(z)):
            return z, -gamma * u / r[-1], iterations, limited
    return None, u, iterations, limited


def _descent_ray(
    p: QpProblem, s: np.ndarray, free: np.ndarray, budget: int
) -> tuple[Optional[np.ndarray], int, bool]:
    """A checked ray d with H d = 0, f' d < 0 that keeps every constraint.

    The least-distance problem over the recession cone, with f' d <= -1
    added, has a point exactly when such a ray exists.
    """
    vals, vecs = np.linalg.eigh(p.h)
    basis = vecs[:, vals > RANK_TOL * vals.max(initial=0.0)].T
    g = np.vstack([basis, s, p.f[None, :]])
    h = np.concatenate([np.zeros(basis.shape[0] + s.shape[0]), [-1.0]])
    cone_free = np.concatenate([np.ones(basis.shape[0], bool), free, [False]])
    d, _, used, limited = _ldp(g, h, cone_free, budget)
    if d is None:
        return None, used, limited
    d = d / _max_abs(d)
    tol_s = CERT_TOL * (1.0 + _max_abs(s))
    slope = s @ d
    if (
        _max_abs(p.h @ d) <= CERT_TOL * float(np.abs(p.h).sum(axis=1).max())
        and p.f @ d < -CERT_TOL * (1.0 + _max_abs(p.f))
        and _max_abs(slope[free]) <= tol_s
        and _max_pos(slope[~free]) <= tol_s
    ):
        return d, used, False
    return None, used, False


def _polish(
    h: np.ndarray,
    f: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    free: np.ndarray,
    active: np.ndarray,
    definite: bool,
    tol_row: float,
    tol_grad: float,
    budget: int,
) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Solve the KKT system on the active rows until the set settles.

    The rows start as `active`, plus the free rows, which always are.  Each
    round solves the KKT system on the active rows, drops those whose
    multipliers have the wrong sign and adds violated ones.  Returns (x,
    multipliers, rounds that changed the set) from the last solve, settled
    or not, or None when no trusted solve settles the set.
    """
    q = h.shape[0]
    active = active | free
    changes = 0
    for _ in range(POLISH_ROUNDS):
        idx = np.flatnonzero(active)
        s_act = s[idx]
        kkt = np.block([[h, s_act.T], [s_act, np.zeros((idx.size, idx.size))]])
        sol, trusted = _kkt_solve(kkt, np.concatenate([-f, t[idx]]), q, definite)
        if sol is None:
            return None
        x, v = sol[:q], np.zeros(t.size)
        v[idx] = sol[q:]
        drop = active & ~free & (v < -tol_grad)
        add = ~active & (s @ x - t > tol_row)
        if not (drop.any() or add.any()):
            # An untrusted solve may still steer the set, but cannot settle it.
            return (x, v, changes) if trusted else None
        if changes >= budget:
            break
        changes += 1
        active = (active & ~drop) | add
    return x, v, changes


def _kkt_solve(
    kkt: np.ndarray, rhs: np.ndarray, q: int, definite: bool
) -> tuple[Optional[np.ndarray], bool]:
    """Solve kkt t = rhs, checking the residual.

    Where H (the leading q x q block) is definite, one LU solve of the
    unshifted matrix comes first.  Otherwise, or where that solve fails its
    residual (active rows that cannot all hold), iterative refinement on a
    shifted inverse follows: the shift diag(delta I, -delta I) suits a
    singular H, whose KKT systems an LU solve would pass with arbitrary
    parts in the null space.  Where refinement cannot close the gap (H
    definite but nearly singular), the unshifted inverse is tried.  Returns
    (t, trusted): the first solve whose residual passes, else the shifted
    solution, or None when it is not finite.
    """

    def passes(t: np.ndarray) -> bool:
        return bool(np.isfinite(t).all()) and (
            _max_abs(rhs - kkt @ t) <= 1e-6 * (1.0 + _max_abs(rhs))
        )

    if definite:
        with np.errstate(all="ignore"):
            try:
                t = np.linalg.solve(kkt, rhs)
                if passes(t):
                    return t, True
            except np.linalg.LinAlgError:
                pass  # exactly singular: the active rows are dependent
    fallback = None
    for reg in (POLISH_DELTA, 0.0):
        shift = np.concatenate([np.full(q, reg), np.full(kkt.shape[0] - q, -reg)])
        with np.errstate(all="ignore"):
            try:
                inverse = np.linalg.inv(kkt + np.diag(shift))
            except np.linalg.LinAlgError:
                continue  # exactly singular: no finite solve
            t = inverse @ rhs
            for _ in range(POLISH_REFINE):
                t = t + inverse @ (rhs - kkt @ t)
            if not np.isfinite(t).all():
                continue
            if passes(t):
                return t, True
        if fallback is None:
            fallback = t
    return fallback, False


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, from its SVD.

    Singular values up to max(shape) * eps * the largest count as zero.
    """
    _, sv, vt = np.linalg.svd(a)
    tol = max(a.shape) * np.finfo(float).eps * sv.max(initial=0.0)
    return vt[int((sv > tol).sum()) :].T


def _is_definite(h: np.ndarray) -> bool:
    """Whether H passes the Cholesky pivot test: every squared pivot above
    RANK_TOL times its largest diagonal entry."""
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return float(np.diag(chol).min(initial=np.inf)) ** 2 > RANK_TOL * float(
        np.diag(h).max(initial=0.0)
    )


def _warn_if_not_unique(h: np.ndarray, s_act: np.ndarray, definite: bool) -> None:
    """Warn when H is singular (not `definite`) and Z' H Z is too, for Z
    spanning the null space of the active rows: the optimum is then not
    unique."""
    if definite:
        return
    null = _null_space(s_act) if s_act.shape[0] else np.eye(h.shape[0])
    if null.shape[1] == 0:
        return
    reduced = null.T @ h @ null
    if np.linalg.eigvalsh(reduced)[0] < 1e-10 * (1.0 + _max_abs(reduced)):
        warnings.warn(
            "H is rank deficient and the active constraints leave part of its "
            "null space free: the optimum is not unique, and the polish "
            "returns the solution nearest its regularized start",
            QpWarning,
            stacklevel=4,
        )
