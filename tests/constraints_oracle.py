"""The constraint compiler as three walks over the tags, one row at a time.

An equivalence oracle for `scorecraft.constraints.compile_constraints`: the
compiler's earlier form, which builds each row as its own zero vector and
walks the spec's tag terms once per row kind.  It shares no row-building
code with the package.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from scorecraft.constraints import (
    CenteringPolicy,
    ConstraintCompileError,
    ConstraintRow,
    ConstraintSet,
)
from scorecraft.model import ScorecardSpec


def compile_constraints(
    spec: ScorecardSpec,
    policy: Optional[CenteringPolicy] = None,
    inweights: Optional[Iterable[tuple[int, float]]] = None,
) -> ConstraintSet:
    """Compile a spec's constraint tags into a ConstraintSet.

    Emits, in order: fixed-value rows, cross ties, centering rows, in-weight
    rows (equalities) and one pattern row per ordering term (inequalities).
    A tag "> k" on attribute a means S_a > S_k and compiles to the non-strict
    row S_k - S_a <= 0; "< k" compiles to S_a - S_k <= 0.  Ties are feasible.

    Parameters
    ----------
    spec : validated ScorecardSpec.
    policy : centering policy, default none.
    inweights : optional (coefficient index, target) pairs with 1-based
        coefficient indices; index 1 pins the intercept.
    """
    policy = policy or CenteringPolicy.none()
    q = spec.q
    eq_data: list[np.ndarray] = []
    eq_rhs: list[float] = []
    eq_rows: list[ConstraintRow] = []
    ineq_data: list[np.ndarray] = []
    ineq_rhs: list[float] = []
    ineq_rows: list[ConstraintRow] = []

    def att_column(att_index: int) -> int:
        if not 1 <= att_index <= q - 1:
            raise ConstraintCompileError(
                f"constraint references out-of-range attribute {att_index}"
            )
        return att_index

    # Fixed-value rows; contradictory values on one attribute are an error.
    fixed_values: dict[int, float] = {}
    for ch, att in spec.iter_attributes():
        for term in att.tag:
            if term.op == "=":
                prior = fixed_values.get(att.att_index)
                if prior is not None:
                    if prior != term.operand:
                        raise ConstraintCompileError(
                            f"attribute {att.att_index} ({ch.name!r}) fixed to both "
                            f"{prior} and {term.operand}"
                        )
                    continue
                fixed_values[att.att_index] = term.operand
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                eq_data.append(row)
                eq_rhs.append(term.operand)
                eq_rows.append(
                    ConstraintRow(
                        kind="fixed",
                        atts=(att.att_index,),
                        note=f"{ch.name}:{att.label} = {term.operand:g}",
                    )
                )

    # Cross ties: S_a - S_k = 0.
    for ch, att in spec.iter_attributes():
        for term in att.tag:
            if term.op == "~":
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                row[att_column(term.operand)] -= 1.0
                eq_data.append(row)
                eq_rhs.append(0.0)
                eq_rows.append(
                    ConstraintRow(
                        kind="cross",
                        atts=(att.att_index, term.operand),
                        note=f"{ch.name}:{att.label} ~ att {term.operand}",
                    )
                )

    # Centering rows: per characteristic, sum of weighted counts times weights.
    if policy.mode == "weighted_sum_zero":
        counts = policy.attribute_counts
        if counts is None:
            raise ConstraintCompileError(
                "weighted_sum_zero centering needs attribute_counts"
            )
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (q - 1,):
            raise ConstraintCompileError(
                f"attribute_counts must have length {q - 1}, got {counts.shape}"
            )
        for ch in spec.characteristics:
            row = np.zeros(q)
            atts = tuple(att.att_index for att in ch.attributes)
            for a in atts:
                row[a] = counts[a - 1]
            eq_data.append(row)
            eq_rhs.append(0.0)
            eq_rows.append(
                ConstraintRow(kind="centering", atts=atts, note=f"{ch.name} centered")
            )
    elif policy.mode != "none":
        raise ConstraintCompileError(f"unknown centering mode {policy.mode!r}")

    # In-weight rows: pin a coefficient (1-based; 1 = intercept) to a target.
    for coef_index, target in inweights or ():
        if not 1 <= coef_index <= q:
            raise ConstraintCompileError(
                f"in-weight coefficient index {coef_index} outside 1..{q}"
            )
        row = np.zeros(q)
        row[coef_index - 1] = 1.0
        eq_data.append(row)
        eq_rhs.append(float(target))
        name = "intercept" if coef_index == 1 else f"att {coef_index - 1}"
        eq_rows.append(
            ConstraintRow(
                kind="inweight",
                atts=(coef_index,),
                note=f"{name} in-weighted to {target:g}",
            )
        )

    # Pattern rows, one per ordering term, in spec order.
    for ch, att in spec.iter_attributes():
        for term in att.tag:
            if term.op == ">":
                row = np.zeros(q)
                row[att_column(term.operand)] = 1.0
                row[att_column(att.att_index)] = -1.0
                note = f"{ch.name}:{att.label} > att {term.operand}"
            elif term.op == "<":
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                row[att_column(term.operand)] = -1.0
                note = f"{ch.name}:{att.label} < att {term.operand}"
            else:
                continue
            ineq_data.append(row)
            ineq_rhs.append(0.0)
            ineq_rows.append(
                ConstraintRow(kind="pattern", atts=(att.att_index, term.operand), note=note)
            )

    return ConstraintSet(
        aeq=np.array(eq_data).reshape(len(eq_data), q),
        beq=np.array(eq_rhs, dtype=float),
        a=np.array(ineq_data).reshape(len(ineq_data), q),
        b=np.array(ineq_rhs, dtype=float),
        eq_rows=tuple(eq_rows),
        ineq_rows=tuple(ineq_rows),
    )
