"""Acceptance battery: one test per shipped guarantee.

Each test records a single PASS/FAIL line (printed in the terminal summary)
stating the guarantee and the measured numbers.  A failed guarantee fails
its test; nothing here is allowed to soften the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from scorecraft.cli import _default_probs, main
from scorecraft.constraints import (
    CenteringPolicy,
    ConstraintSet,
    compile_constraints,
    constraint_residuals,
)
from scorecraft.data_io import SyntheticConfig, gen_synthetic
from scorecraft.metrics import score_cdfs, score_metrics
from scorecraft.model import (
    Attribute,
    Characteristic,
    IntervalBin,
    NoInformationBin,
    Sample,
    ScorecardSpec,
    SpecialBin,
    TagTerm,
    build_design_matrix,
    number_text,
)
from scorecraft.sqp import (
    FitConfig,
    PenaltySpec,
    fit,
    logistic_terms,
    score_minus_log_likelihood,
)

from conftest import no_constraints, null_space
from dense_design import DenseDesign
from ircls_oracle import ircls_step
from text_columns import text_column
from true_beta import implied_true_beta


def random_logistic_instance(rng, n_max=50, q_max=8):
    n = int(rng.integers(10, n_max + 1))
    q = int(rng.integers(2, q_max + 1))
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, q - 1))])
    y = (rng.random(n) < 0.5).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    w = rng.uniform(0.2, 3.0, size=n)
    beta = 0.5 * rng.standard_normal(q)
    return x, y, w, beta


def random_constraints(rng, q):
    """A feasible random system: maybe one pin, up to two ordering rows."""
    aeq_rows, beq, a_rows, b = [], [], [], []
    if rng.random() < 0.8:
        j = int(rng.integers(1, q))
        row = np.zeros(q)
        row[j] = 1.0
        aeq_rows.append(row)
        beq.append(float(rng.uniform(-0.5, 0.5)))
    if q >= 3:
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(np.arange(1, q), size=2, replace=False)
            row = np.zeros(q)
            row[int(i)], row[int(j)] = 1.0, -1.0
            a_rows.append(row)
            b.append(0.0)
    return ConstraintSet(
        aeq=np.array(aeq_rows) if aeq_rows else np.zeros((0, q)),
        beq=np.array(beq),
        a=np.array(a_rows) if a_rows else np.zeros((0, q)),
        b=np.array(b),
    )


def monotone_q30_spec():
    """Four characteristics, 29 attributes + intercept = 30 coefficients.

    Interval weights are tagged to decrease along each characteristic; the
    last interval and the no-information bin are pinned to zero, which also
    makes the one-hot design identifiable without a penalty.
    """
    sizes = [8, 7, 6, 4]
    chars = []
    att = 1
    for c, m in enumerate(sizes):
        atts = []
        for k in range(m):
            term = TagTerm(">", att + 1) if k < m - 1 else TagTerm("=", 0.0)
            bin_rule = IntervalBin(float(k), float(k + 1))
            atts.append(Attribute(att, f"{k}-<{k + 1}", bin_rule, (term,)))
            att += 1
        atts.append(Attribute(att, "NO INFORMATION", NoInformationBin(), (TagTerm("=", 0.0),)))
        att += 1
        chars.append(Characteristic(f"char{c}", tuple(atts)))
    return ScorecardSpec(tuple(chars))


def monotone_q30_probs(spec):
    """Good draws favor low bins, bad draws are uniform; no-information 0."""
    good, bad = {}, {}
    for ch in spec.characteristics:
        m = len(ch.attributes) - 1
        woe = 0.3 * np.arange(m - 1, -1, -1, dtype=float)
        pg = np.exp(woe)
        pg /= pg.sum()
        good[ch.name] = np.append(pg, 0.0)
        bad[ch.name] = np.append(np.full(m, 1.0 / m), 0.0)
    return good, bad


def small_spec_probs():
    """Class-conditional draws for the small spec; pinned bins are balanced."""
    good = {
        "age": np.array([0.05, 0.4, 0.3, 0.2, 0.05]),
        "fuel": np.array([0.5, 0.4, 0.1]),
    }
    bad = {
        "age": np.array([0.05, 0.1, 0.25, 0.55, 0.05]),
        "fuel": np.array([0.35, 0.55, 0.1]),
    }
    return good, bad


def tag_orderings_hold(spec, beta, tol=1e-8):
    for _, att in spec.iter_attributes():
        v = beta[att.att_index]
        for term in att.tag:
            if term.op == "=" and abs(v - term.operand) > tol:
                return False
            if term.op == ">" and v < beta[term.operand] - tol:
                return False
            if term.op == "<" and v > beta[term.operand] + tol:
                return False
            if term.op == "~" and abs(v - beta[term.operand]) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# 1. Analytic derivatives match central finite differences.


def test_gradient_and_hessian_match_finite_differences(acceptance):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x, y, w, beta = random_logistic_instance(rng)
        q = x.shape[1]
        design = DenseDesign(x)
        terms = logistic_terms(design, y, w, beta)

        def mll(b):
            return logistic_terms(design, y, w, b, hessian=False).minus_ll

        h = 1e-6
        grad_fd = np.zeros(q)
        for j in range(q):
            e = np.zeros(q)
            e[j] = h
            grad_fd[j] = (mll(beta + e) - mll(beta - e)) / (2.0 * h)
        scale = max(1.0, float(np.abs(terms.grad).max()))
        worst = max(worst, float(np.abs(grad_fd - terms.grad).max()) / scale)

        h2 = 1e-4
        hess_fd = np.zeros((q, q))
        for i in range(q):
            for j in range(q):
                ei = np.zeros(q)
                ej = np.zeros(q)
                ei[i], ej[j] = h2, h2
                hess_fd[i, j] = (
                    mll(beta + ei + ej)
                    - mll(beta + ei - ej)
                    - mll(beta - ei + ej)
                    + mll(beta - ei - ej)
                ) / (4.0 * h2 * h2)
        scale = max(1.0, float(np.abs(terms.hess).max()))
        worst = max(worst, float(np.abs(hess_fd - terms.hess).max()) / scale)
    elapsed = time.perf_counter() - start
    acceptance(
        "derivatives-vs-finite-differences",
        worst <= 1e-5 and elapsed < 5.0,
        f"20 instances, max relative error {worst:.2e}, {elapsed:.2f}s total",
    )


# ---------------------------------------------------------------------------
# 2. The Newton-model step and the working-response step agree.


def test_sqp_and_ircls_steps_agree(acceptance):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        x, y, w, beta = random_logistic_instance(rng)
        cs = random_constraints(rng, x.shape[1])
        pen = PenaltySpec(lam=float(rng.choice([0.0, 0.5, 5.0])))
        first = FitConfig(max_outer_iters=1, beta0=beta)
        a = fit(DenseDesign(x), y, w, pen, cs, first).beta
        b = ircls_step(x, y, w, pen, cs, beta)
        worst = max(worst, float(np.abs(a - b).max()))
    acceptance(
        "step-route-equivalence",
        worst <= 1e-8,
        f"100 constrained instances, max coefficient gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. A full-size monotone fit converges fast with decreasing steps.


def test_monotone_fit_converges_fast(acceptance):
    spec = monotone_q30_spec()
    good, bad = monotone_q30_probs(spec)
    cfg = SyntheticConfig(
        seed=303, n_good=2500, n_bad=2500, spec=spec, good_probs=good, bad_probs=bad
    )
    sample = gen_synthetic(cfg)
    design = build_design_matrix(spec, sample)
    cs = compile_constraints(spec)
    start = time.perf_counter()
    result = fit(
        design, sample.y, sample.w, PenaltySpec(lam=0.0), cs, FitConfig(tol=1e-6)
    )
    elapsed = time.perf_counter() - start
    deltas = [rec.max_delta for rec in result.trajectory]
    tail_monotone = all(b <= a for a, b in zip(deltas[1:], deltas[2:]))
    per_iter = elapsed / max(result.iterations, 1)
    acceptance(
        "monotone-fit-speed",
        result.status == "converged"
        and result.iterations <= 10
        and tail_monotone
        and per_iter <= 2.0,
        f"q=30 n=5000: {result.iterations} iterations at tol 1e-6, "
        f"max_delta {' '.join(f'{d:.1e}' for d in deltas)}, "
        f"{per_iter:.3f}s per iteration",
    )


# ---------------------------------------------------------------------------
# 4. Intercept-only fits hit the closed-form log odds.


def test_intercept_only_fit_matches_closed_form(acceptance):
    x = DenseDesign(np.ones((4, 1)))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    unit = fit(x, y, np.ones(4), PenaltySpec(lam=0.0), no_constraints(1))
    err_unit = abs(float(unit.beta[0]) - math.log(3.0))
    w = np.array([2.0, 1.0, 1.0, 4.0])
    weighted = fit(x, y, w, PenaltySpec(lam=0.0), no_constraints(1))
    err_weighted = abs(float(weighted.beta[0]) - 0.0)
    acceptance(
        "intercept-closed-form",
        unit.status == "converged"
        and weighted.status == "converged"
        and err_unit <= 1e-8
        and err_weighted <= 1e-8,
        f"unit weights {unit.beta[0]:.8f} (error {err_unit:.1e}), "
        f"weighted {weighted.beta[0]:.1e} (error {err_weighted:.1e})",
    )


# ---------------------------------------------------------------------------
# 5. Converged fits certify their constraints and first-order conditions.


def test_converged_fits_carry_certificates(acceptance, small_spec):
    good, bad = small_spec_probs()
    cfg = SyntheticConfig(
        seed=505, n_good=300, n_bad=300, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    sample = gen_synthetic(cfg)
    design = build_design_matrix(small_spec, sample)
    systems = [
        compile_constraints(small_spec),
        compile_constraints(small_spec, CenteringPolicy.none(), [(1, -0.1)]),
    ]
    worst_eq = worst_ineq = worst_kkt = 0.0
    statuses = []
    orderings_ok = True
    for cs in systems:
        for lam in (0.0, 0.5, 10.0):
            result = fit(design, sample.y, sample.w, PenaltySpec(lam=lam), cs)
            statuses.append(result.status)
            worst_eq = max(worst_eq, result.residuals.eq_residual)
            worst_ineq = max(worst_ineq, result.residuals.ineq_violation)
            worst_kkt = max(
                worst_kkt,
                result.kkt.stationarity,
                result.kkt.primal_eq,
                result.kkt.primal_ineq,
                result.kkt.dual,
                result.kkt.complementarity,
            )
            orderings_ok = orderings_ok and tag_orderings_hold(
                small_spec, result.beta
            )
            recomputed = constraint_residuals(cs, result.beta)
            worst_eq = max(worst_eq, recomputed.eq_residual)
            worst_ineq = max(worst_ineq, recomputed.ineq_violation)
    acceptance(
        "constraint-kkt-certificates",
        all(s == "converged" for s in statuses)
        and worst_eq <= 1e-8
        and worst_ineq <= 1e-8
        and worst_kkt <= 1e-6
        and orderings_ok,
        f"6 fits converged; eq residual {worst_eq:.1e}, "
        f"ineq violation {worst_ineq:.1e}, kkt {worst_kkt:.1e}, "
        f"tag orderings hold: {orderings_ok}",
    )


# ---------------------------------------------------------------------------
# 6. The bundled full-size spec compiles to the expected row counts.


def test_bundled_spec_compiles_to_expected_counts(acceptance, fixture_spec, maxdiv_beta):
    cs = compile_constraints(fixture_spec)
    zero_pins = sum(
        1
        for _, att in fixture_spec.iter_attributes()
        for term in att.tag
        if term == TagTerm("=", 0.0)
    )
    residuals = constraint_residuals(cs, maxdiv_beta)
    acceptance(
        "bundled-spec-parity",
        cs.m_i == 106 and zero_pins == 29 and cs.m_e == zero_pins
        and residuals.eq_residual == 0.0 and residuals.ineq_violation == 0.0,
        f"q={cs.q}: {cs.m_i} inequality rows (want 106), {cs.m_e} equality rows "
        f"(want the {zero_pins} zero pins); bundled comparator weights feasible "
        f"(eq {residuals.eq_residual:g}, ineq {residuals.ineq_violation:g})",
    )


# ---------------------------------------------------------------------------
# 7. Metrics match brute-force oracles exactly on tie-free data, and on tied
#    data in any row order.


def brute_ks(score, y, w):
    goods, bads = w[y == 1.0], w[y == 0.0]
    total_g, total_b = goods.sum(), bads.sum()
    best = 0.0
    for t in score:
        fb = w[(y == 0.0) & (score <= t)].sum() / total_b
        fg = w[(y == 1.0) & (score <= t)].sum() / total_g
        best = max(best, fb - fg)
    return best


def brute_area(score, y, w):
    num = den = 0.0
    for i in np.flatnonzero(y == 1.0):
        for j in np.flatnonzero(y == 0.0):
            pair = w[i] * w[j]
            den += pair
            if score[i] > score[j]:
                num += pair
            elif score[i] == score[j]:
                num += 0.5 * pair
    return num / den


def test_metrics_match_brute_force_oracles(acceptance):
    rng = np.random.default_rng(707)
    worst = 0.0
    checked = 0
    # Exhaustive over class labelings at small n, unit weights.
    for n in range(2, 9):
        score = np.sort(rng.standard_normal(n) * 3.0)
        assert len(np.unique(score)) == n
        for mask in range(1, 2**n - 1):
            y = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            w = np.ones(n)
            m = score_cdfs(score, y, w)
            worst = max(worst, abs(m.ks - brute_ks(score, y, w)))
            worst = max(worst, abs(m.roc_area - brute_area(score, y, w)))
            checked += 1
    # Random weighted instances.
    for _ in range(200):
        n = int(rng.integers(4, 13))
        score = rng.standard_normal(n)
        while len(np.unique(score)) != n:
            score = rng.standard_normal(n)
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        w = rng.uniform(0.1, 4.0, size=n)
        m = score_cdfs(score, y, w)
        worst = max(worst, abs(m.ks - brute_ks(score, y, w)))
        worst = max(worst, abs(m.roc_area - brute_area(score, y, w)))
        checked += 1
    # Full separation pins both measures at 1.
    sep_score = np.arange(10.0)
    sep_y = np.array([0.0] * 5 + [1.0] * 5)
    sep = score_cdfs(sep_score, sep_y, np.ones(10))
    sep_exact = sep.ks == 1.0 and abs(sep.roc_area - 1.0) <= 1e-12
    acceptance(
        "metrics-brute-force",
        worst <= 1e-12 and sep_exact,
        f"{checked} tie-free instances, max gap {worst:.1e}; "
        f"separation ks {sep.ks:g}, roc_area {sep.roc_area:g}",
    )


def test_tied_metrics_match_brute_force_in_any_row_order(acceptance):
    # Scores drawn from a few values tie Goods with Bads.  KS and ROC area
    # (half credit per tied pair) must match the oracles, and must not move,
    # not even by rounding, when the rows are permuted; dyadic weights keep
    # every sum exact in any order.
    rng = np.random.default_rng(708)
    worst = perm_gap = 0.0
    checked = 0

    def measures(score, y, w):
        m = score_cdfs(score, y, w)
        return m.ks, m.roc_area, m.sorted_score.tobytes()

    instances = []
    # Exhaustive over class labelings of [0, 0, 1, 1, 1, 2] at unit weights.
    score = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
    for mask in range(1, 2**6 - 1):
        y = np.array([(mask >> i) & 1 for i in range(6)], dtype=float)
        instances.append((score, y, np.ones(6)))
    for _ in range(200):
        n = int(rng.integers(4, 14))
        score = rng.integers(-2, 3, size=n) * 1.5
        score[score == 0.0] = rng.choice([-0.0, 0.0], size=int((score == 0.0).sum()))
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        instances.append((score, y, rng.integers(1, 17, size=n) / 8.0))
    for score, y, w in instances:
        base = measures(score, y, w)
        worst = max(worst, abs(base[0] - brute_ks(score, y, w)))
        worst = max(worst, abs(base[1] - brute_area(score, y, w)))
        for order in (np.arange(len(y))[::-1], rng.permutation(len(y))):
            moved = measures(score[order], y[order], w[order])
            perm_gap = max(perm_gap, abs(moved[0] - base[0]), abs(moved[1] - base[1]))
            perm_gap = max(perm_gap, float(moved[2] != base[2]))
        checked += 1
    # A score that says nothing about y, on Goods written before Bads as
    # `gen` writes them, reads the same in either row order.
    y = np.repeat([1.0, 0.0], [3000, 1000])
    noise = np.arange(4000) % 3.0
    forward = score_cdfs(noise, y, np.ones(4000))
    backward = score_cdfs(noise[::-1], y[::-1], np.ones(4000))
    noise_ok = forward.roc_area == backward.roc_area and forward.ks == backward.ks
    acceptance(
        "metrics-ties",
        worst <= 1e-12 and perm_gap == 0.0 and noise_ok,
        f"{checked} tied instances, max oracle gap {worst:.1e}, permutation gap {perm_gap:g}; "
        f"row index mod 3 on 3000 Goods then 1000 Bads: roc_area {forward.roc_area:g} "
        f"(reversed {backward.roc_area:g}), ks {forward.ks:.4f} (reversed {backward.ks:.4f})",
    )


# ---------------------------------------------------------------------------
# 8. The fit's minus log likelihood beats feasible perturbations and
#    comparator scorecards.


def test_fit_objective_beats_feasible_alternatives(acceptance, small_spec):
    good, bad = small_spec_probs()
    cfg = SyntheticConfig(
        seed=808, n_good=300, n_bad=300, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    sample = gen_synthetic(cfg)
    design = build_design_matrix(small_spec, sample)
    cs = compile_constraints(small_spec)
    result = fit(
        design, sample.y, sample.w, PenaltySpec(lam=0.0), cs, FitConfig(tol=1e-8)
    )
    assert result.status == "converged"
    beta = result.beta
    fit_mll = result.minus_ll

    basis = null_space(cs.aeq)  # feasible moves stay inside the pinned plane
    rng = np.random.default_rng(809)
    slack = cs.b - cs.a @ beta
    margins = []
    attempts = 0
    while len(margins) < 1000:
        attempts += 1
        assert attempts < 20000
        d = basis @ rng.standard_normal(basis.shape[1])
        d *= 0.1 / np.linalg.norm(d)
        rate = cs.a @ d
        with np.errstate(divide="ignore"):
            t_max = np.where(rate > 1e-12, slack / rate, np.inf).min()
        if t_max <= 1e-6:
            continue
        t = min(float(t_max), 1.0) * float(rng.uniform(0.2, 1.0))
        candidate = beta + t * d
        mll = score_minus_log_likelihood(
            design.scores(candidate), sample.y, sample.w
        )
        margins.append(mll - fit_mll)
    min_margin = min(margins)

    implied = implied_true_beta(cfg)
    comparators = {
        "population-odds": implied,
        "rescaled": 2.0 * implied,
        "expert": np.array([0.0, 0.0, 1.0, 0.3, -1.0, 0.0, 0.4, -0.4, 0.0]),
    }
    comparator_margins = {}
    for name, other in comparators.items():
        res = constraint_residuals(cs, other)
        assert res.eq_residual <= 1e-12 and res.ineq_violation <= 1e-12
        theta = design.scores(other)
        comparator_margins[name] = (
            score_minus_log_likelihood(theta, sample.y, sample.w) - fit_mll
        )
    worst_comparator = min(comparator_margins.values())
    acceptance(
        "objective-ordering",
        min_margin >= -1e-9 and worst_comparator >= -1e-9,
        f"1000 feasible perturbations: min excess minus_ll {min_margin:.2e}; "
        "comparators "
        + ", ".join(f"{k} +{v:.2f}" for k, v in comparator_margins.items()),
    )


# ---------------------------------------------------------------------------
# 9. The ridge penalty shrinks the scorecard part toward zero.


@pytest.mark.filterwarnings("ignore::scorecraft.qp.QpWarning")
def test_penalty_ladder_shrinks_weights(acceptance, small_spec):
    good, bad = small_spec_probs()
    cfg = SyntheticConfig(
        seed=909, n_good=300, n_bad=200, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    sample = gen_synthetic(cfg)
    design = build_design_matrix(small_spec, sample)
    unconstrained = no_constraints(small_spec.q)
    norms = []
    statuses = []
    for lam in (0.0, 1.0, 10.0, 1e4):
        result = fit(design, sample.y, sample.w, PenaltySpec(lam=lam), unconstrained)
        statuses.append(result.status)
        norms.append(float(np.linalg.norm(result.beta[1:])))
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    heavy = fit(design, sample.y, sample.w, PenaltySpec(lam=1e8), unconstrained)
    max_s = float(np.abs(heavy.beta[1:]).max())
    pop_odds = math.log(300.0 / 200.0)
    intercept_err = abs(float(heavy.beta[0]) - pop_odds)
    acceptance(
        "penalty-shrinkage",
        nonincreasing and max_s <= 1e-3 and intercept_err <= 1e-3,
        "scorecard norms "
        + " -> ".join(f"{v:.4f}" for v in norms)
        + f" over lam 0,1,10,1e4 (statuses {','.join(statuses)}); "
        f"at lam=1e8 max|weight| {max_s:.1e}, intercept off log pop odds by "
        f"{intercept_err:.1e}",
    )


# ---------------------------------------------------------------------------
# 10. A spec-built design computes what its dense indicator matrix does.


def representative_sample(spec, rng, n):
    """Cells that hit every attribute, with outcomes from random weights."""
    records = {}
    for ch in spec.characteristics:
        reps = []
        for att in ch.attributes:
            rule = att.bin
            if isinstance(rule, SpecialBin):
                reps.append(number_text(rule.value))
            elif isinstance(rule, IntervalBin):
                lo = rule.lo if math.isfinite(rule.lo) else rule.hi - 10.0
                reps.append(number_text(lo))
            elif isinstance(rule, NoInformationBin):
                reps.append(None)
            else:
                reps.append(sorted(rule.labels)[0])
        records[ch.name] = text_column([reps[k] for k in rng.integers(0, len(reps), size=n)])
    sample = Sample(y=np.zeros(n), w=rng.uniform(0.5, 2.0, n), records=records)
    x = build_design_matrix(spec, sample).x
    theta = x @ rng.normal(0.0, 0.5, spec.q)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return Sample(y=y, w=sample.w, records=records)


def noinfo_pins(spec):
    """Pin each characteristic's NoInformation weight to 0 (identifies the design)."""
    atts = [ch.noinfo.att_index for ch in spec.characteristics]
    aeq = np.zeros((len(atts), spec.q))
    aeq[np.arange(len(atts)), atts] = 1.0
    return ConstraintSet(aeq=aeq, beq=np.zeros(len(atts)), a=np.zeros((0, spec.q)), b=np.zeros(0))


def relative_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.filterwarnings("ignore::scorecraft.qp.QpWarning")
def test_spec_design_matches_its_dense_view(acceptance, small_spec, random_spec_factory):
    rng = np.random.default_rng(1010)
    good, bad = small_spec_probs()
    cfg = SyntheticConfig(
        seed=1010, n_good=300, n_bad=300, spec=small_spec,
        good_probs=good, bad_probs=bad,
    )
    cases = [(small_spec, gen_synthetic(cfg), compile_constraints(small_spec))]
    # The first random sample is the large one: its design joins
    # characteristics into runs of up to 91 joint codes (sqrt(8315) = 91.2),
    # against 28 at n = 800.
    for n in (8315, 800, 800, 800, 800, 800):
        spec = random_spec_factory(rng)
        cases.append((spec, representative_sample(spec, rng, n), noinfo_pins(spec)))
    terms_gap = beta_gap = theta_gap = 0.0
    fits = 0
    for spec, sample, pinned in cases:
        design = build_design_matrix(spec, sample)
        dense = DenseDesign(design.x)
        for _ in range(3):
            beta = rng.normal(0.0, 0.5, spec.q)
            coded = logistic_terms(design, sample.y, sample.w, beta)
            plain = logistic_terms(dense, sample.y, sample.w, beta)
            for name in ("theta", "grad", "hess"):
                terms_gap = max(
                    terms_gap, relative_gap(getattr(coded, name), getattr(plain, name))
                )
        unpinned = no_constraints(spec.q)
        for lam, cs in ((0.5, unpinned), (0.0, pinned), (0.5, pinned), (0.0, unpinned)):
            a = fit(design, sample.y, sample.w, PenaltySpec(lam=lam), cs)
            b = fit(dense, sample.y, sample.w, PenaltySpec(lam=lam), cs)
            fits += 1
            if lam > 0 or cs is pinned:
                beta_gap = max(beta_gap, float(np.abs(a.beta - b.beta).max()))
            else:
                gap = np.abs(design.scores(a.beta) - dense.scores(b.beta)).max()
                theta_gap = max(theta_gap, float(gap))
    acceptance(
        "design-parity",
        terms_gap <= 1e-12 and beta_gap <= 1e-10 and theta_gap <= 1e-10,
        f"{len(cases)} specs: logistic terms relative gap {terms_gap:.1e}; "
        f"{fits} fit pairs, beta gap {beta_gap:.1e} (lam > 0 or pinned), "
        f"theta gap {theta_gap:.1e} (lam = 0 unpinned)",
    )


# ---------------------------------------------------------------------------
# 11. A gen sample of the bundled spec converges in as many outer iterations
#     as the paper's fraud example took (four).


def test_bundled_gen_fit_matches_paper_iterations(acceptance, tmp_path, fixture_spec_text, capsys):
    spec_path = tmp_path / "spec.csv"
    spec_path.write_text(fixture_spec_text)
    data, model = tmp_path / "train.csv", tmp_path / "model.json"
    gen = main([
        "gen", "--spec", str(spec_path), "--out", str(data),
        "--seed", "1", "--n-good", "3000", "--n-bad", "1000",
    ])
    fitted = main([
        "fit", "--spec", str(spec_path), "--data", str(data),
        "--lambda", "0.5", "--out", str(model),
    ])
    capsys.readouterr()
    payload = json.loads(model.read_text()) if fitted == 0 else {"trajectory": [], "status": "-"}
    iterations = len(payload["trajectory"])
    acceptance(
        "paper-iterations",
        gen == 0 and fitted == 0 and payload["status"] == "converged" and iterations <= 4,
        f"bundled spec, gen seed 1, 4000 rows, lambda 0.5: {payload['status']} in "
        f"{iterations} outer iterations (paper: 4)",
    )


# ---------------------------------------------------------------------------
# 12. A common power-of-two scale of the weights, with lambda, changes no
#     fitted coefficient and no measure: beta, status, iterations, KS, ROC
#     area and divergence are bitwise those of the unscaled sample.


def test_weight_scale_leaves_fit_and_measures_unchanged(acceptance, fixture_spec):
    good, bad = _default_probs(fixture_spec)
    sample = gen_synthetic(SyntheticConfig(
        seed=1, n_good=3000, n_bad=1000, spec=fixture_spec, good_probs=good, bad_probs=bad,
    ))
    design = build_design_matrix(fixture_spec, sample)
    cs = compile_constraints(fixture_spec)
    runs = {}
    for k in (0, -1000, -20, 20, 900):
        w = np.ldexp(sample.w, k)
        result = fit(design, sample.y, w, PenaltySpec(math.ldexp(0.5, k)), cs)
        cdfs = score_cdfs(design.scores(result.beta), sample.y, w)
        runs[k] = result, (cdfs.ks, cdfs.roc_area, score_metrics(cdfs).divergence)
    base, measures = runs[0]
    gaps = []
    for k, (result, scaled_measures) in runs.items():
        mll = [r.minus_ll for r in result.trajectory] + [result.minus_ll]
        base_mll = [math.ldexp(r.minus_ll, k) for r in base.trajectory] + [
            math.ldexp(base.minus_ll, k)
        ]
        gaps.append((
            float(np.abs(result.beta - base.beta).max()),
            result.status != base.status or result.iterations != base.iterations,
            mll != base_mll,
            scaled_measures != measures,
        ))
    acceptance(
        "weight-scale",
        base.status == "converged" and not any(any(gap) for gap in gaps),
        f"bundled spec, gen seed 1, 4000 rows, (w, lambda 0.5) x 2^k for k in "
        f"{sorted(runs)}: max |beta gap| {max(g[0] for g in gaps):.1e}, "
        f"{sum(g[1] for g in gaps)} status/iteration changes ({base.iterations} iterations), "
        f"{sum(g[2] for g in gaps)} minus_ll off 2^k, "
        f"{sum(g[3] for g in gaps)} KS/ROC/divergence changes",
    )
