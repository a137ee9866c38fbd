import warnings

import numpy as np
import pytest

from scorecraft import qp
from scorecraft.constraints import ConstraintSet, compile_constraints, constraint_residuals
from scorecraft.model import SpecError
from scorecraft.qp import (
    QpProblem,
    QpWarning,
    kkt_residuals,
    qp_objective,
    solve_qp,
)

from conftest import null_space


def cs_of(q, aeq=None, beq=None, a=None, b=None):
    empty = ConstraintSet.empty(q)
    return ConstraintSet(
        aeq=np.asarray(aeq, float).reshape(-1, q) if aeq is not None else empty.aeq,
        beq=np.asarray(beq, float).ravel() if beq is not None else empty.beq,
        a=np.asarray(a, float).reshape(-1, q) if a is not None else empty.a,
        b=np.asarray(b, float).ravel() if b is not None else empty.b,
    )


def test_unconstrained_diagonal():
    # 1/2 b'Hb + f'b with H = diag(2, 4), f = (-2, -8): minimum at (1, 2).
    p = QpProblem(h=np.diag([2.0, 4.0]), f=np.array([-2.0, -8.0]), cs=cs_of(2))
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.iterations == 0
    assert sol.beta == pytest.approx([1.0, 2.0], abs=1e-12)
    assert sol.kkt.max() <= 1e-10
    assert sol.objective == pytest.approx(qp_objective(p, sol.beta))


def test_equality_only_hand_case():
    # min 1/2 ||b||^2 s.t. b1 + b2 = 2: b = (1, 1), mu = -1.
    p = QpProblem(
        h=np.eye(2), f=np.zeros(2), cs=cs_of(2, aeq=[[1.0, 1.0]], beq=[2.0])
    )
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([1.0, 1.0], abs=1e-9)
    assert sol.eq_multipliers == pytest.approx([-1.0], abs=1e-9)
    assert sol.kkt.max() <= 1e-8


def test_active_inequality_hand_case():
    # min 1/2 ||b||^2 - b1 - b2 s.t. b1 + b2 <= 1: b = (0.5, 0.5), nu = 0.5.
    p = QpProblem(
        h=np.eye(2),
        f=np.array([-1.0, -1.0]),
        cs=cs_of(2, a=[[1.0, 1.0]], b=[1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([0.5, 0.5], abs=1e-8)
    assert sol.ineq_multipliers == pytest.approx([0.5], abs=1e-8)
    assert sol.kkt.max() <= 1e-8


def test_inactive_inequality_hand_case():
    p = QpProblem(
        h=np.eye(2),
        f=np.array([-1.0, -1.0]),
        cs=cs_of(2, a=[[1.0, 1.0]], b=[10.0]),
    )
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([1.0, 1.0], abs=1e-8)
    assert sol.ineq_multipliers == pytest.approx([0.0], abs=1e-8)


def test_mixed_equality_inequality_hand_case():
    # min 1/2 ||b||^2 s.t. b1 = 1, b1 - b2 <= 0: b = (1, 1, 0), mu = -2, nu = 1.
    p = QpProblem(
        h=np.eye(3),
        f=np.zeros(3),
        cs=cs_of(
            3,
            aeq=[[1.0, 0.0, 0.0]],
            beq=[1.0],
            a=[[1.0, -1.0, 0.0]],
            b=[0.0],
        ),
    )
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([1.0, 1.0, 0.0], abs=1e-8)
    assert sol.eq_multipliers == pytest.approx([-2.0], abs=1e-7)
    assert sol.ineq_multipliers == pytest.approx([1.0], abs=1e-7)
    assert sol.kkt.max() <= 1e-8


def test_upper_bound_hand_case():
    # min 1/2 ||b||^2 - 3 b1 - 3 b2 with the unit row b1 <= 1: b = (1, 3),
    # nu = 2.
    p = QpProblem(
        h=np.eye(2),
        f=np.array([-3.0, -3.0]),
        cs=cs_of(2, a=[[1.0, 0.0]], b=[1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([1.0, 3.0], abs=1e-8)
    assert sol.ineq_multipliers == pytest.approx([2.0], abs=1e-7)
    assert sol.kkt.max() <= 1e-8


def test_lower_bound_hand_case():
    # b1 >= 2 as the unit row -b1 <= -2.
    p = QpProblem(h=np.eye(2), f=np.zeros(2), cs=cs_of(2, a=[[-1.0, 0.0]], b=[-2.0]))
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([2.0, 0.0], abs=1e-8)
    assert sol.ineq_multipliers == pytest.approx([2.0], abs=1e-7)


def test_kkt_residuals_checker():
    p = QpProblem(
        h=np.eye(2),
        f=np.array([-1.0, -1.0]),
        cs=cs_of(2, a=[[1.0, 1.0]], b=[1.0]),
    )
    beta = np.array([0.5, 0.5])
    kkt = kkt_residuals(p, beta, ineq_multipliers=np.array([0.5]))
    assert kkt.max() <= 1e-15
    # Missing multipliers leave a stationarity gap.
    kkt = kkt_residuals(p, beta)
    assert kkt.stationarity == pytest.approx(0.5)
    # Negative multipliers violate dual feasibility.
    kkt = kkt_residuals(p, beta, ineq_multipliers=np.array([-0.5]))
    assert kkt.dual == pytest.approx(0.5)
    # Infeasible points show up in primal_ineq.
    kkt = kkt_residuals(p, np.array([2.0, 2.0]), ineq_multipliers=np.array([0.5]))
    assert kkt.primal_ineq == pytest.approx(3.0)
    assert kkt.complementarity == pytest.approx(1.5)
    with pytest.raises(SpecError, match="length"):
        kkt_residuals(p, beta, ineq_multipliers=np.array([0.5, 0.5]))


def test_kkt_residuals_with_bounds():
    # The bound b1 <= 1 as a unit row.
    p = QpProblem(h=np.eye(1), f=np.array([-3.0]), cs=cs_of(1, a=[[1.0]], b=[1.0]))
    kkt = kkt_residuals(p, np.array([1.0]), ineq_multipliers=np.array([2.0]))
    assert kkt.max() <= 1e-15
    kkt = kkt_residuals(p, np.array([2.0]), ineq_multipliers=np.array([2.0]))
    assert kkt.primal_ineq == pytest.approx(1.0)
    assert kkt.complementarity == pytest.approx(2.0)


def test_problem_validation():
    with pytest.raises(SpecError, match="symmetric"):
        QpProblem(h=np.array([[1.0, 2.0], [0.0, 1.0]]), f=np.zeros(2), cs=cs_of(2))
    with pytest.raises(SpecError, match="square"):
        QpProblem(h=np.zeros((2, 3)), f=np.zeros(2), cs=cs_of(2))
    with pytest.raises(SpecError, match="f must have length"):
        QpProblem(h=np.eye(2), f=np.zeros(3), cs=cs_of(2))
    with pytest.raises(SpecError, match="constraint set"):
        QpProblem(h=np.eye(2), f=np.zeros(2), cs=cs_of(3))
    with pytest.raises(SpecError, match="warm start"):
        QpProblem(h=np.eye(2), f=np.zeros(2), cs=cs_of(2), warm_start=np.zeros(3))


def test_rank_deficient_unconstrained_warns():
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = QpProblem(h=h, f=np.array([-1.0, 0.0]), cs=cs_of(2))
    with pytest.warns(QpWarning, match="rank deficient"):
        sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta == pytest.approx([1.0, 0.0], abs=1e-9)


def test_unbounded_unconstrained():
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = QpProblem(h=h, f=np.array([0.0, -1.0]), cs=cs_of(2))
    sol = solve_qp(p)
    assert sol.status == "unbounded"
    ray = sol.certificate
    assert ray is not None
    assert np.abs(h @ ray).max() <= 1e-10
    assert p.f @ ray < 0


def test_unbounded_with_constraints():
    # x2 is free and enters the objective linearly; x1 <= 1 does not help.
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = QpProblem(
        h=h, f=np.array([0.0, -1.0]), cs=cs_of(2, a=[[1.0, 0.0]], b=[1.0])
    )
    sol = solve_qp(p)
    assert sol.status == "unbounded"
    ray = sol.certificate
    assert ray is not None
    assert np.abs(h @ ray).max() <= 1e-6
    assert p.f @ ray < 0
    assert (p.cs.a @ ray <= 1e-6).all()


def test_infeasible_equalities():
    p = QpProblem(
        h=np.eye(2),
        f=np.zeros(2),
        cs=cs_of(2, aeq=[[1.0, 0.0], [1.0, 0.0]], beq=[0.0, 1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == "infeasible"
    y = sol.certificate
    assert y is not None
    # Farkas: Aeq' y = 0 with beq' y > 0.
    assert np.abs(p.cs.aeq.T @ y).max() <= 1e-10
    assert p.cs.beq @ y > 0


def test_infeasible_inequalities():
    # x1 <= -1 and -x1 <= -1 cannot both hold.
    p = QpProblem(
        h=np.eye(1),
        f=np.zeros(1),
        cs=cs_of(1, a=[[1.0], [-1.0]], b=[-1.0, -1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == "infeasible"
    assert sol.certificate is not None


def test_max_iterations_is_honest(monkeypatch):
    p = QpProblem(
        h=np.eye(2),
        f=np.array([-1.0, -1.0]),
        cs=cs_of(2, a=[[1.0, 1.0]], b=[1.0]),
    )
    monkeypatch.setattr(qp, "MAX_ITERS", 1)
    sol = solve_qp(p)
    assert sol.status == "max_iterations"
    assert sol.iterations == 1
    assert "iteration limit" in sol.note
    # Residuals are reported, not zeroed.
    assert sol.kkt.max() > 0


def test_nonunique_equality_solution_warns():
    # H vanishes on the null space of Aeq: optimum is a line.
    p = QpProblem(
        h=np.zeros((2, 2)), f=np.zeros(2), cs=cs_of(2, aeq=[[1.0, 0.0]], beq=[1.0])
    )
    with pytest.warns(QpWarning, match="not unique"):
        sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.beta[0] == pytest.approx(1.0, abs=1e-9)


def random_problem(rng, with_eq=True):
    q = int(rng.integers(3, 9))
    m_i = int(rng.integers(1, 5))
    m_e = int(rng.integers(0, 3)) if with_eq else 0
    r = rng.standard_normal((q, q))
    h = r.T @ r + 0.5 * np.eye(q)
    f = rng.standard_normal(q)
    feas = rng.standard_normal(q)
    a = rng.standard_normal((m_i, q))
    b = a @ feas + rng.uniform(0.1, 1.0, size=m_i)
    if m_e:
        aeq = rng.standard_normal((m_e, q))
        beq = aeq @ feas
        cs = cs_of(q, aeq=aeq, beq=beq, a=a, b=b)
    else:
        cs = cs_of(q, a=a, b=b)
    return QpProblem(h=h, f=f, cs=cs), feas


def feasible_samples(rng, p, feas, count=60):
    out = []
    if p.cs.m_e:
        basis = null_space(p.cs.aeq)
    else:
        basis = np.eye(p.q)
    while len(out) < count:
        step = basis @ rng.standard_normal(basis.shape[1]) * 0.5
        z = feas + step
        if p.cs.m_i == 0 or (p.cs.a @ z <= p.cs.b + 1e-12).all():
            out.append(z)
    return out


def test_optimality_against_feasible_samples():
    rng = np.random.default_rng(20240820)
    for _ in range(25):
        p, feas = random_problem(rng)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert sol.kkt.max() <= 1e-6
        res = constraint_residuals(p.cs, sol.beta)
        assert max(res.eq_residual, res.ineq_violation) <= 1e-7
        best = qp_objective(p, sol.beta)
        for z in feasible_samples(rng, p, feas):
            assert best <= qp_objective(p, z) + 1e-7


def test_warm_start_invariance():
    rng = np.random.default_rng(20240821)
    for _ in range(10):
        p, feas = random_problem(rng)
        cold = solve_qp(p)
        for start in (feas, cold.beta, rng.standard_normal(p.q) * 10.0):
            warm = solve_qp(
                QpProblem(h=p.h, f=p.f, cs=p.cs, warm_start=start)
            )
            assert warm.status == "optimal"
            assert np.abs(warm.beta - cold.beta).max() <= 1e-6


def test_determinism_bitwise():
    rng = np.random.default_rng(20240822)
    p, _ = random_problem(rng)
    a = solve_qp(p)
    b = solve_qp(p)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.ineq_multipliers, b.ineq_multipliers)
    assert a.iterations == b.iterations
    assert a.objective == b.objective


def test_tightening_cannot_improve_objective():
    rng = np.random.default_rng(20240823)
    for _ in range(10):
        q = int(rng.integers(3, 7))
        r = rng.standard_normal((q, q))
        h = r.T @ r + 0.5 * np.eye(q)
        f = rng.standard_normal(q)
        feas = rng.standard_normal(q)
        a = rng.standard_normal((2, q))
        loose = QpProblem(h=h, f=f, cs=cs_of(q, a=a, b=a @ feas + 1.0))
        tight = QpProblem(h=h, f=f, cs=cs_of(q, a=a, b=a @ feas + 0.2))
        sol_loose = solve_qp(loose)
        sol_tight = solve_qp(tight)
        assert sol_loose.status == "optimal" and sol_tight.status == "optimal"
        assert sol_tight.objective >= sol_loose.objective - 1e-7


def test_solve_with_compiled_constraints(small_spec):
    rng = np.random.default_rng(20240824)
    cs = compile_constraints(small_spec)
    q = small_spec.q
    p = QpProblem(h=np.eye(q), f=rng.standard_normal(q), cs=cs)
    sol = solve_qp(p)
    assert sol.status == "optimal"
    assert sol.kkt.max() <= 1e-7
    res = constraint_residuals(cs, sol.beta)
    assert max(res.eq_residual, res.ineq_violation) <= 1e-7
    # Pinned attributes actually land on their pins.
    assert sol.beta[1] == pytest.approx(0.0, abs=1e-8)
    assert sol.beta[5] == pytest.approx(0.0, abs=1e-8)
    assert sol.beta[8] == pytest.approx(0.0, abs=1e-8)


def stacked_rows(p):
    """[Aeq; A] and the rows' lower and upper bounds."""
    c = np.vstack([p.cs.aeq, p.cs.a])
    lo = np.concatenate([p.cs.beq, np.full(p.cs.m_i, -np.inf)])
    up = np.concatenate([p.cs.beq, p.cs.b])
    return c, lo, up


def assert_farkas(p, y):
    # C'y = 0, while y'z > 0 for every z within the rows' bounds.
    c, lo, up = stacked_rows(p)
    assert y.shape == (c.shape[0],)
    assert np.abs(c.T @ y).max() <= 1e-8 * np.abs(y).max()
    assert np.isfinite(lo[y > 0]).all() and np.isfinite(up[y < 0]).all()
    floor = lo[y > 0] @ y[y > 0] + up[y < 0] @ y[y < 0]
    assert floor > 1e-8 * np.abs(y).max()


def assert_ray(p, d):
    # H d = 0, f'd < 0, and d keeps every constraint.
    c, lo, up = stacked_rows(p)
    scale = np.abs(d).max()
    assert np.abs(p.h @ d).max() <= 1e-7 * scale * (1.0 + np.abs(p.h).max())
    assert p.f @ d < 0
    cd = c @ d
    assert (cd[np.isfinite(up)] <= 1e-8 * scale).all()
    assert (cd[np.isfinite(lo)] >= -1e-8 * scale).all()


def psd_of_rank(rng, q, rank):
    r = rng.standard_normal((rank, q))
    return r.T @ r


def ill_conditioned(rng, q):
    basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
    return basis @ np.diag(np.logspace(-12, 0, q)) @ basis.T


def feasible_problem(rng, h):
    q = h.shape[0]
    feas = rng.standard_normal(q)
    m_i = int(rng.integers(1, 7))
    a = rng.standard_normal((m_i, q))
    # Some rows are tight at the feasible point, the rest have slack.
    b = a @ feas + rng.uniform(0.0, 1.0, m_i) * (rng.random(m_i) < 0.6)
    m_e = int(rng.integers(0, 3))
    aeq = rng.standard_normal((m_e, q))
    lower = np.where(rng.random(q) < 0.2, feas - rng.uniform(0.0, 1.0, q), -np.inf)
    upper = np.where(rng.random(q) < 0.2, feas + rng.uniform(0.0, 1.0, q), np.inf)
    # Bounds on coefficients are unit rows: beta <= upper and -beta <= -lower.
    has_u, has_l = np.isfinite(upper), np.isfinite(lower)
    a = np.vstack([a, np.eye(q)[has_u], -np.eye(q)[has_l]])
    b = np.concatenate([b, upper[has_u], -lower[has_l]])
    cs = cs_of(q, aeq=aeq, beq=aeq @ feas, a=a, b=b)
    return QpProblem(h=h, f=rng.standard_normal(q), cs=cs)


def feasible_sweep(rng, groups):
    for _ in range(groups):
        q = int(rng.integers(2, 9))
        for rank in range(q + 1):
            yield feasible_problem(rng, psd_of_rank(rng, q, rank))
        yield feasible_problem(rng, ill_conditioned(rng, q))


def solve_and_check(p):
    """Solve a feasible problem and check what its status claims."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QpWarning)
        sol = solve_qp(p)
    assert sol.status != "infeasible"
    if sol.status == "optimal":
        kkt = kkt_residuals(p, sol.beta, sol.eq_multipliers, sol.ineq_multipliers)
        assert kkt == sol.kkt
        # Relative to the terms of H beta + f: far-off optima carry the
        # roundoff of forming H beta.
        size = np.abs(p.h).max() * max(1.0, np.abs(sol.beta).max())
        assert kkt.max() <= 1e-8 * (1.0 + np.abs(p.f).max() + size)
    elif sol.status == "unbounded":
        assert_ray(p, sol.certificate)
    return sol.status


def test_feasible_problems_are_never_called_infeasible():
    rng = np.random.default_rng(20240825)
    statuses = [solve_and_check(p) for p in feasible_sweep(rng, 6)]
    # The sweep reaches both outcomes and settles nearly every problem.
    assert statuses.count("optimal") > len(statuses) // 2
    assert "unbounded" in statuses
    assert statuses.count("max_iterations") <= len(statuses) // 20


def test_far_pulled_problems_are_never_called_infeasible():
    # A linear term 1e6 times larger puts the unconstrained optimum far
    # outside the feasible region, as nearly separable data do.  The
    # least-distance residual is then tiny, which is not infeasibility.
    rng = np.random.default_rng(20240827)
    for p in feasible_sweep(rng, 6):
        solve_and_check(QpProblem(h=p.h, f=1e6 * p.f, cs=p.cs))


def infeasible_problem(rng):
    q = int(rng.integers(2, 7))
    m = int(rng.integers(2, 6))
    a = rng.standard_normal((m, q))
    weights = rng.uniform(0.5, 2.0, m)
    # Rows whose positive combination vanishes while the same combination of
    # their right-hand sides is negative: a Farkas system by construction.
    a[-1] = -(weights[:-1] @ a[:-1]) / weights[-1]
    b = rng.standard_normal(m)
    b[-1] = -(weights[:-1] @ b[:-1] + rng.uniform(0.1, 1.0)) / weights[-1]
    n_eq = int(rng.integers(0, m))
    # Equality rows take either sign in the combination.
    flip = np.where(rng.random(n_eq) < 0.5, -1.0, 1.0)
    cs = cs_of(
        q,
        aeq=a[:n_eq] * flip[:, None],
        beq=b[:n_eq] * flip,
        a=a[n_eq:],
        b=b[n_eq:],
    )
    r = rng.standard_normal((q, q))
    h = r.T @ r if rng.random() < 0.5 else psd_of_rank(rng, q, int(rng.integers(0, q)))
    return QpProblem(h=h, f=rng.standard_normal(q), cs=cs)


def test_infeasible_problems_carry_a_checked_certificate():
    rng = np.random.default_rng(20240826)
    for _ in range(40):
        p = infeasible_problem(rng)
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert_farkas(p, sol.certificate)


# ---------------------------------------------------------------------------
# Warm start from a previous active set


def relative_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def hints(p, cold):
    """The right active set, every inequality row, and none."""
    return {
        "right": cold.ineq_multipliers > 0,
        "all": np.ones(p.cs.m_i, dtype=bool),
        "none": np.zeros(p.cs.m_i, dtype=bool),
    }


def assert_warm_matches_cold(p, cold):
    for name, hint in hints(p, cold).items():
        warm = solve_qp(p, active=hint)
        assert warm.status == "optimal", name
        assert relative_gap(warm.beta, cold.beta) <= 1e-12, name
        kkt = kkt_residuals(p, warm.beta, warm.eq_multipliers, warm.ineq_multipliers)
        assert kkt == warm.kkt


def test_warm_active_set_matches_cold_on_random_problems():
    rng = np.random.default_rng(20261019)
    for with_eq in (True, False):
        for _ in range(40):
            p, _ = random_problem(rng, with_eq)
            cold = solve_qp(p)
            assert cold.status == "optimal"
            assert_warm_matches_cold(p, cold)


def bundled_gen_design(tmp_path, fixture_spec_text):
    """The bundled spec, a 4000-row `gen` sample of it, and its design."""
    from scorecraft.cli import main
    from scorecraft.data_io import load_sample
    from scorecraft.model import build_design_matrix, parse_spec

    spec_path, data = tmp_path / "spec.csv", tmp_path / "train.csv"
    spec_path.write_text(fixture_spec_text)
    assert main([
        "gen", "--spec", str(spec_path), "--out", str(data),
        "--seed", "1", "--n-good", "3000", "--n-bad", "1000",
    ]) == 0
    spec = parse_spec(fixture_spec_text)
    sample = load_sample(str(data))
    return spec, sample, build_design_matrix(spec, sample)


def centered_gen_fit_qps(tmp_path, fixture_spec_text):
    """The QPs of a centered, penalized fit of a bundled-spec `gen` sample,
    each with the active set the fit passed to it."""
    from scorecraft import sqp
    from scorecraft.constraints import CenteringPolicy

    spec, sample, design = bundled_gen_design(tmp_path, fixture_spec_text)
    cs = compile_constraints(spec, CenteringPolicy.weighted_from_sample(design, sample.w))
    recorded = []

    def spy(problem, active=None):
        recorded.append((problem, active))
        return solve_qp(problem, active)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqp, "solve_qp", spy)
        result = sqp.fit(design, sample.y, sample.w, sqp.PenaltySpec(lam=0.5), cs)
    assert result.status == "converged" and cs.m_i > 0
    return recorded


def test_warm_active_set_matches_cold_on_fit_qps(tmp_path, fixture_spec_text, monkeypatch):
    recorded = centered_gen_fit_qps(tmp_path, fixture_spec_text)
    # The first step starts cold; every later one gets the last step's rows.
    assert recorded[0][1] is None and all(a is not None for _, a in recorded[1:])
    for problem, passed in recorded:
        cold = solve_qp(problem)
        assert cold.status == "optimal"
        assert_warm_matches_cold(problem, cold)
        if passed is not None:
            # The hint the fit passed settles without the cold path's NNLS.
            monkeypatch.setattr(qp, "_nnls", None)
            warm = solve_qp(problem, active=passed)
            monkeypatch.undo()
            assert warm.status == "optimal"
            assert relative_gap(warm.beta, cold.beta) <= 1e-12


def test_failed_warm_start_falls_back_to_the_cold_path(monkeypatch):
    # A warm polish that fails certification leaves the cold result as it is,
    # bit for bit.
    rng = np.random.default_rng(20261020)
    polish = qp._polish
    for _ in range(10):
        p, _ = random_problem(rng)
        cold = solve_qp(p)
        calls = []

        def bogus_first(*args):
            calls.append(1)
            if len(calls) == 1:
                x, v, changes = polish(*args)
                return x + 1.0, v, changes
            return polish(*args)

        monkeypatch.setattr(qp, "_polish", bogus_first)
        warm = solve_qp(p, active=cold.ineq_multipliers > 0)
        monkeypatch.undo()
        assert len(calls) == 2
        assert warm.status == "optimal"
        assert warm.beta.tobytes() == cold.beta.tobytes()
        assert warm.iterations == cold.iterations


def test_warm_hint_is_ignored_without_inequality_rows(monkeypatch):
    # The cold path, least-distance guess included, runs as if no hint came.
    rng = np.random.default_rng(20261021)
    ldp = qp._ldp
    guesses = []

    def counting(*args):
        guesses.append(1)
        return ldp(*args)

    monkeypatch.setattr(qp, "_ldp", counting)
    for _ in range(10):
        q = int(rng.integers(3, 9))
        r = rng.standard_normal((q, q))
        aeq = rng.standard_normal((2, q))
        p = QpProblem(
            h=r.T @ r + 0.5 * np.eye(q), f=rng.standard_normal(q),
            cs=cs_of(q, aeq=aeq, beq=aeq @ rng.standard_normal(q)),
        )
        cold = solve_qp(p)
        guesses.clear()
        warm = solve_qp(p, active=np.zeros(0, dtype=bool))
        assert guesses == [1]
        assert warm.beta.tobytes() == cold.beta.tobytes()
        assert warm.iterations == cold.iterations


def test_warm_hint_must_cover_the_inequality_rows():
    rng = np.random.default_rng(20261022)
    p, _ = random_problem(rng)
    with pytest.raises(SpecError, match="active must have length"):
        solve_qp(p, active=np.ones(p.cs.m_i + 1, dtype=bool))


def test_singular_h_never_takes_the_direct_kkt_solve(tmp_path, fixture_spec_text, monkeypatch):
    # lam = 0 and no pins leave H singular: each characteristic's columns sum
    # to the intercept's.  An LU solve of such a KKT system passes its
    # residual test with arbitrary null-space parts, so only the shifted
    # inverse may solve it.
    from scorecraft.sqp import PenaltySpec, assemble_qp, initial_beta, logistic_terms

    spec, sample, design = bundled_gen_design(tmp_path, fixture_spec_text)
    pins = compile_constraints(spec)
    unpinned = ConstraintSet(aeq=np.zeros((0, spec.q)), beq=np.zeros(0), a=pins.a, b=pins.b)
    beta = initial_beta(spec.q, sample.y, sample.w)
    terms = logistic_terms(design, sample.y, sample.w, beta)
    p = assemble_qp(terms, PenaltySpec(lam=0.0), beta, unpinned)
    assert p.cs.m_i > 0
    assert not qp._is_definite(p.h)
    definite = []
    kkt_solve = qp._kkt_solve

    def spy(kkt, rhs, q, is_definite):
        definite.append(is_definite)
        return kkt_solve(kkt, rhs, q, is_definite)

    monkeypatch.setattr(qp, "_kkt_solve", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QpWarning)
        cold = solve_qp(p)
        solve_qp(p, active=cold.ineq_multipliers > 0)
    assert definite and not any(definite)
