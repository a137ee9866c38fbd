"""Iteratively reweighted constrained least squares step, on dense arrays.

An equivalence oracle for `scorecraft.sqp.sqp_step`: it reaches the same
iterate by a separate route and shares no design code with the package.
"""

import numpy as np
from scipy.special import expit

from scorecraft.qp import QpProblem, solve_qp
from scorecraft.sqp import StepError


def ircls_step(x, y, w, pen, cs, beta_in, settings=None):
    """One iteratively reweighted constrained least squares step.

    Minimizes 1/2 sum_i omega_i (z_i - x_i'beta)^2 + penalty over the
    constraints, with working weights omega = w p (1-p) and working response
    z = theta + (y - p) / (p (1-p)).  Expanding the square gives the same
    QP as sqp_step up to a constant, so the two agree to solver tolerance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    beta_in = np.asarray(beta_in, dtype=float)
    theta = x @ beta_in
    prob = expit(theta)
    curve = prob * (1.0 - prob)
    degenerate = np.flatnonzero(curve == 0.0)
    if degenerate.size:
        i = int(degenerate[0])
        raise StepError(
            f"ircls step: observation {i} has p(1-p) = 0 at the current beta "
            f"(theta = {theta[i]:.6g}); the working response is undefined"
        )
    z = theta + (y - prob) / curve
    omega = w * curve
    h = x.T @ (x * omega[:, None]) + np.diag(pen.hessian_diag(beta_in.shape[0]))
    f = -(x.T @ (omega * z))
    solution = solve_qp(QpProblem(h=h, f=f, cs=cs, warm_start=beta_in), settings)
    if solution.status != "optimal":
        raise StepError(f"reweighted least squares step failed: QP status {solution.status}")
    return solution.beta
