"""Compiles scorecard constraint tags into linear equality/inequality systems.

Score engineering restricts the coefficient vector beta' = [S0 S'] (intercept
plus attribute weights) through linear rows: fixed values, cross ties,
centering, in-weighting (equalities Aeq beta = beq) and ordering patterns
(inequalities A beta <= b).  Both matrices span all q coefficients; the
intercept column is zero in every row except explicit intercept in-weights.

Column convention: 0-based column 0 is the intercept, attribute a (1-based)
occupies 0-based column a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import (
    DesignMatrix,
    FixedTo,
    GreaterThan,
    LessThan,
    ScorecardSpec,
    SpecError,
    TiedTo,
)

__all__ = [
    "ConstraintCompileError",
    "ConstraintRow",
    "ConstraintSet",
    "CenteringPolicy",
    "ConstraintResiduals",
    "FeasibilityReport",
    "compile_constraints",
    "constraint_residuals",
    "check_feasible",
]


class ConstraintCompileError(SpecError):
    """Raised when constraint tags cannot be compiled into a consistent system."""


@dataclass(frozen=True)
class ConstraintRow:
    """Provenance for one compiled row.

    kind is one of fixed, centering, cross, group, inweight, pattern; atts
    holds the source attribute indices (for inweight rows, the 1-based
    coefficient index, where 1 is the intercept).
    """

    kind: str
    atts: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Equality system (aeq, beq) and inequality system (a, b) over beta."""

    aeq: np.ndarray
    beq: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eq_rows: tuple[ConstraintRow, ...] = ()
    ineq_rows: tuple[ConstraintRow, ...] = ()

    @property
    def q(self) -> int:
        return int(self.aeq.shape[1])

    @property
    def m_e(self) -> int:
        return int(self.aeq.shape[0])

    @property
    def m_i(self) -> int:
        return int(self.a.shape[0])

    @classmethod
    def empty(cls, q: int) -> "ConstraintSet":
        return cls(
            aeq=np.zeros((0, q)),
            beq=np.zeros(0),
            a=np.zeros((0, q)),
            b=np.zeros(0),
        )


@dataclass(frozen=True, eq=False)
class CenteringPolicy:
    """Optional per-characteristic centering equalities.

    mode "none" adds nothing; mode "weighted_sum_zero" adds one equality row
    per characteristic requiring sum_a n_a S_a = 0, with n_a the weighted
    attribute count taken from a development sample.  attribute_counts has
    length q - 1 and is indexed by attribute number minus 1.
    """

    mode: str = "none"
    attribute_counts: Optional[np.ndarray] = None

    @classmethod
    def none(cls) -> "CenteringPolicy":
        return cls(mode="none")

    @classmethod
    def weighted_from_sample(cls, design: DesignMatrix, w: np.ndarray) -> "CenteringPolicy":
        """Centering policy with weighted attribute counts from a binned sample.

        The counts are X'w without its intercept entry: the weight of the
        rows binned to each attribute of the spec-built design.
        """
        w = np.asarray(w, dtype=float)
        if w.shape != (design.n,):
            raise SpecError(f"w must have length {design.n}")
        return cls(mode="weighted_sum_zero", attribute_counts=design.rmatvec(w)[1:])


@dataclass(frozen=True)
class ConstraintResiduals:
    """Max-norm residuals of a candidate beta against a constraint set."""

    eq_residual: float
    ineq_violation: float


@dataclass(frozen=True)
class Violation:
    """One violated row: its side, row index, provenance, and magnitude."""

    side: str  # "eq" or "ineq"
    row_index: int
    row: ConstraintRow
    amount: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    residuals: ConstraintResiduals
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


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
        for term in att.tag.terms:
            if isinstance(term, FixedTo):
                prior = fixed_values.get(att.att_index)
                if prior is not None:
                    if prior != term.value:
                        raise ConstraintCompileError(
                            f"attribute {att.att_index} ({ch.name!r}) fixed to both "
                            f"{prior} and {term.value}"
                        )
                    continue
                fixed_values[att.att_index] = term.value
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                eq_data.append(row)
                eq_rhs.append(term.value)
                eq_rows.append(
                    ConstraintRow(
                        kind="fixed",
                        atts=(att.att_index,),
                        note=f"{ch.name}:{att.label} = {term.value:g}",
                    )
                )

    # Cross ties: S_a - S_k = 0.
    for ch, att in spec.iter_attributes():
        for term in att.tag.terms:
            if isinstance(term, TiedTo):
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                row[att_column(term.att)] -= 1.0
                eq_data.append(row)
                eq_rhs.append(0.0)
                eq_rows.append(
                    ConstraintRow(
                        kind="cross",
                        atts=(att.att_index, term.att),
                        note=f"{ch.name}:{att.label} ~ att {term.att}",
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
        for term in att.tag.terms:
            if isinstance(term, GreaterThan):
                row = np.zeros(q)
                row[att_column(term.att)] = 1.0
                row[att_column(att.att_index)] = -1.0
                note = f"{ch.name}:{att.label} > att {term.att}"
            elif isinstance(term, LessThan):
                row = np.zeros(q)
                row[att_column(att.att_index)] = 1.0
                row[att_column(term.att)] = -1.0
                note = f"{ch.name}:{att.label} < att {term.att}"
            else:
                continue
            ineq_data.append(row)
            ineq_rhs.append(0.0)
            ineq_rows.append(
                ConstraintRow(kind="pattern", atts=(att.att_index, term.att), note=note)
            )

    return ConstraintSet(
        aeq=np.array(eq_data).reshape(len(eq_data), q),
        beq=np.array(eq_rhs, dtype=float),
        a=np.array(ineq_data).reshape(len(ineq_data), q),
        b=np.array(ineq_rhs, dtype=float),
        eq_rows=tuple(eq_rows),
        ineq_rows=tuple(ineq_rows),
    )


def constraint_residuals(cs: ConstraintSet, beta: np.ndarray) -> ConstraintResiduals:
    """Max equality residual and max positive inequality violation at beta."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (cs.q,):
        raise SpecError(f"beta must have length {cs.q}, got {beta.shape}")
    eq = 0.0
    if cs.m_e:
        eq = float(np.abs(cs.aeq @ beta - cs.beq).max())
    ineq = 0.0
    if cs.m_i:
        ineq = float(np.maximum(cs.a @ beta - cs.b, 0.0).max())
    return ConstraintResiduals(eq_residual=eq, ineq_violation=ineq)


def check_feasible(
    cs: ConstraintSet, beta: np.ndarray, tol: float = 1e-8
) -> FeasibilityReport:
    """True plus an empty report when beta satisfies every row within tol."""
    beta = np.asarray(beta, dtype=float)
    residuals = constraint_residuals(cs, beta)
    violations: list[Violation] = []
    if cs.m_e:
        eq_res = np.abs(cs.aeq @ beta - cs.beq)
        for i in np.flatnonzero(eq_res > tol):
            row = cs.eq_rows[i] if i < len(cs.eq_rows) else ConstraintRow("eq", ())
            violations.append(Violation("eq", int(i), row, float(eq_res[i])))
    if cs.m_i:
        ineq_res = cs.a @ beta - cs.b
        for i in np.flatnonzero(ineq_res > tol):
            row = cs.ineq_rows[i] if i < len(cs.ineq_rows) else ConstraintRow("ineq", ())
            violations.append(Violation("ineq", int(i), row, float(ineq_res[i])))
    return FeasibilityReport(
        feasible=not violations,
        residuals=residuals,
        violations=tuple(violations),
    )
