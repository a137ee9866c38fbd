import numpy as np
import pytest

from scorecraft.constraints import (
    CenteringPolicy,
    ConstraintCompileError,
    ConstraintSet,
    compile_constraints,
    constraint_residuals,
)
from scorecraft.model import (
    FixedTo,
    GreaterThan,
    LessThan,
    Sample,
    SpecError,
    TiedTo,
    build_design_matrix,
    parse_spec,
)

from text_columns import text_column

HEADER = "char,att,label,kind,lo,hi,categories,constraint\n"


def spec_of(rows):
    return parse_spec(HEADER + rows)


def test_compile_small_spec(small_spec):
    cs = compile_constraints(small_spec)
    q = small_spec.q
    assert cs.q == q and cs.m_e == 3 and cs.m_i == 3

    # Fixed rows pin attributes 1, 5, 8 to zero, one coefficient each.
    expect_eq = np.zeros((3, q))
    expect_eq[0, 1] = 1.0
    expect_eq[1, 5] = 1.0
    expect_eq[2, 8] = 1.0
    assert np.array_equal(cs.aeq, expect_eq)
    assert np.array_equal(cs.beq, np.zeros(3))

    # "> 3" on att 2 means S_2 > S_3, compiled non-strict as S_3 - S_2 <= 0.
    expect_ineq = np.zeros((3, q))
    expect_ineq[0, 3] = 1.0
    expect_ineq[0, 2] = -1.0
    expect_ineq[1, 4] = 1.0
    expect_ineq[1, 3] = -1.0
    # "< 6" on att 7 means S_7 < S_6, compiled as S_7 - S_6 <= 0.
    expect_ineq[2, 7] = 1.0
    expect_ineq[2, 6] = -1.0
    assert np.array_equal(cs.a, expect_ineq)
    assert np.array_equal(cs.b, np.zeros(3))

    # Intercept column is untouched by spec tags.
    assert not cs.aeq[:, 0].any()
    assert not cs.a[:, 0].any()

    assert [r.kind for r in cs.eq_rows] == ["fixed"] * 3
    assert [r.kind for r in cs.ineq_rows] == ["pattern"] * 3
    assert cs.ineq_rows[0].atts == (2, 3)


def test_fixed_value_dedup_and_contradiction():
    rows = (
        "x,1,a,interval,0,1,,= 2 & = 2\n"
        "x,2,b,interval,1,2,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
    )
    cs = compile_constraints(spec_of(rows))
    assert cs.m_e == 1
    assert cs.beq[0] == 2.0

    rows = rows.replace("= 2 & = 2", "= 2 & = 3")
    with pytest.raises(ConstraintCompileError, match="fixed to both"):
        compile_constraints(spec_of(rows))


def test_cross_tie_rows():
    rows = (
        "x,1,a,interval,0,1,,\n"
        "x,2,b,interval,1,2,,\n"
        "x,3,NO INFORMATION,noinfo,,,,\n"
        "y,4,a,interval,0,1,,~ 1\n"
        "y,5,NO INFORMATION,noinfo,,,,\n"
    )
    cs = compile_constraints(spec_of(rows))
    assert cs.m_e == 1 and cs.m_i == 0
    row = np.zeros(6)
    row[4] = 1.0
    row[1] = -1.0
    assert np.array_equal(cs.aeq[0], row)
    assert cs.beq[0] == 0.0
    assert cs.eq_rows[0].kind == "cross"
    assert cs.eq_rows[0].atts == (4, 1)


def test_centering_policy_from_sample(small_spec):
    sample = Sample(
        y=np.array([1, 0, 1]),
        w=np.array([2.0, 1.0, 0.5]),
        records={
            "age": text_column(["25", "55", "25"]),
            "fuel": text_column(["Gas", "Other", "Nope"]),
        },
    ).validate()
    design = build_design_matrix(small_spec, sample)
    policy = CenteringPolicy.weighted_from_sample(design, sample.w)
    counts = np.zeros(8)
    counts[1] = 2.5  # att 2: ages 25 twice, weights 2 + 0.5
    counts[3] = 1.0  # att 4: age 55
    counts[5] = 2.0  # att 6: Gas
    counts[6] = 1.0  # att 7: Other
    counts[7] = 0.5  # att 8: unmatched "Nope"
    assert np.array_equal(policy.attribute_counts, counts)

    cs = compile_constraints(small_spec, policy=policy)
    assert cs.m_e == 3 + 2
    centering = [r for r in cs.eq_rows if r.kind == "centering"]
    assert [r.atts for r in centering] == [(1, 2, 3, 4, 5), (6, 7, 8)]
    age_row = cs.aeq[3]
    assert np.array_equal(age_row[1:6], counts[:5])
    assert not age_row[[0, 6, 7, 8]].any()
    # A weight vector constant on each characteristic block with zero weighted
    # mean satisfies the centering row.
    beta = np.zeros(9)
    beta[1:6] = 1.0
    assert age_row @ beta == pytest.approx(counts[:5].sum())
    with pytest.raises(SpecError, match="length 3"):
        CenteringPolicy.weighted_from_sample(design, np.ones(2))


def test_centering_policy_errors(small_spec):
    with pytest.raises(ConstraintCompileError, match="needs attribute_counts"):
        compile_constraints(small_spec, policy=CenteringPolicy(mode="weighted_sum_zero"))
    with pytest.raises(ConstraintCompileError, match="length 8"):
        compile_constraints(
            small_spec,
            policy=CenteringPolicy(mode="weighted_sum_zero", attribute_counts=np.ones(3)),
        )
    with pytest.raises(ConstraintCompileError, match="unknown centering mode"):
        compile_constraints(small_spec, policy=CenteringPolicy(mode="mean_zero"))


def test_inweight_rows(small_spec):
    cs = compile_constraints(small_spec, inweights=[(1, -2.5), (3, 0.75)])
    assert cs.m_e == 5
    inweight = [i for i, r in enumerate(cs.eq_rows) if r.kind == "inweight"]
    assert inweight == [3, 4]
    # Coefficient 1 is the intercept (column 0); coefficient 3 is attribute 2.
    row = np.zeros(9)
    row[0] = 1.0
    assert np.array_equal(cs.aeq[3], row)
    assert cs.beq[3] == -2.5
    row = np.zeros(9)
    row[2] = 1.0
    assert np.array_equal(cs.aeq[4], row)
    assert cs.beq[4] == 0.75
    assert "intercept" in cs.eq_rows[3].note
    with pytest.raises(ConstraintCompileError, match="outside"):
        compile_constraints(small_spec, inweights=[(10, 0.0)])
    with pytest.raises(ConstraintCompileError, match="outside"):
        compile_constraints(small_spec, inweights=[(0, 0.0)])


def test_row_emission_order(small_spec):
    policy = CenteringPolicy(mode="weighted_sum_zero", attribute_counts=np.ones(8))
    cs = compile_constraints(small_spec, policy=policy, inweights=[(1, 0.0)])
    kinds = [r.kind for r in cs.eq_rows]
    assert kinds == ["fixed"] * 3 + ["centering"] * 2 + ["inweight"]


def test_constraint_residuals_and_feasibility(small_spec):
    cs = compile_constraints(small_spec)
    beta = np.zeros(9)
    beta[2], beta[3], beta[4] = 3.0, 2.0, 1.0
    beta[6], beta[7] = 0.5, -0.5
    res = constraint_residuals(cs, beta)
    assert res.eq_residual == 0.0
    assert res.ineq_violation == 0.0

    # Ties are feasible: the compiled rows are non-strict.
    tied = beta.copy()
    tied[3] = tied[2]
    res = constraint_residuals(cs, tied)
    assert res.eq_residual == 0.0 and res.ineq_violation == 0.0

    # Violating "age 18-<30 > att 3" violates that row alone, by 1.
    bad = beta.copy()
    bad[2], bad[3] = 1.0, 2.0
    res = constraint_residuals(cs, bad)
    assert res.eq_residual == 0.0
    assert res.ineq_violation == pytest.approx(1.0)
    violated = np.flatnonzero(cs.a @ bad - cs.b > 1e-8)
    assert [cs.ineq_rows[i].atts for i in violated] == [(2, 3)]

    # Breaking a pin shows up on the equality side.
    bad = beta.copy()
    bad[1] = 0.1
    res = constraint_residuals(cs, bad)
    assert res.eq_residual == pytest.approx(0.1)
    assert res.ineq_violation == 0.0
    violated = np.flatnonzero(np.abs(cs.aeq @ bad - cs.beq) > 1e-8)
    assert [cs.eq_rows[i].atts for i in violated] == [(1,)]


def test_residuals_require_full_length(small_spec):
    cs = compile_constraints(small_spec)
    with pytest.raises(SpecError, match="length 9"):
        constraint_residuals(cs, np.zeros(8))


def test_empty_constraint_set():
    cs = ConstraintSet.empty(5)
    assert cs.q == 5 and cs.m_e == 0 and cs.m_i == 0
    res = constraint_residuals(cs, np.ones(5))
    assert res.eq_residual == 0.0 and res.ineq_violation == 0.0


@pytest.mark.parametrize(
    "beq,b", [(np.zeros(1), np.zeros(3)), (np.zeros(2), np.zeros(1)), (np.zeros(1), 0.0)]
)
def test_constraint_set_needs_one_bound_per_row(beq, b):
    with pytest.raises(SpecError, match="one entry per row"):
        ConstraintSet(aeq=np.ones((1, 2)), beq=beq, a=np.ones((1, 2)), b=b)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["aeq", "beq", "a", "b"])
def test_constraint_set_rejects_non_finite_entries(name, value):
    arrays = dict(aeq=np.ones((1, 2)), beq=np.zeros(1), a=np.ones((1, 2)), b=np.zeros(1))
    arrays[name].flat[-1] = value
    with pytest.raises(SpecError, match=f"{name} has an entry that is not finite"):
        ConstraintSet(**arrays)


def test_compiled_structure_on_random_specs(random_spec_factory):
    rng = np.random.default_rng(20240819)
    for _ in range(20):
        spec = random_spec_factory(rng)
        cs = compile_constraints(spec)
        q = spec.q
        terms = [(a.att_index, t) for _, a in spec.iter_attributes() for t in a.tag.terms]
        n_order = sum(isinstance(t, (GreaterThan, LessThan)) for _, t in terms)
        fixed = {}
        for att, t in terms:
            if isinstance(t, FixedTo):
                fixed.setdefault(att, t.value)
        n_ties = sum(isinstance(t, TiedTo) for _, t in terms)
        assert cs.m_i == n_order
        assert cs.m_e == len(fixed) + n_ties
        assert cs.aeq.shape == (cs.m_e, q)
        assert cs.a.shape == (cs.m_i, q)
        # Pattern rows are pure differences: one +1, one -1, rhs 0.
        for i in range(cs.m_i):
            row = cs.a[i]
            assert sorted(row[row != 0.0]) == [-1.0, 1.0]
            assert row[0] == 0.0
            assert cs.b[i] == 0.0
        assert not cs.aeq[:, 0].any()
