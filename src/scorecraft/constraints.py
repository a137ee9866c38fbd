"""Compiles scorecard constraint tags into linear equality/inequality systems.

Score engineering restricts the coefficient vector beta' = [S0 S'] (intercept
plus attribute weights) through linear rows: fixed values, cross ties,
centering, in-weighting (equalities Aeq beta = beq) and ordering patterns
(inequalities A beta <= b).  Both matrices span all q coefficients; the
intercept column is zero in every row except explicit intercept in-weights.

Column convention: 0-based column 0 is the intercept, attribute a (1-based)
occupies 0-based column a.  Each row is a ({column: coefficient}, rhs,
ConstraintRow) record until one builder stacks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import DesignMatrix, ScorecardSpec, SpecError

__all__ = [
    "ConstraintCompileError",
    "ConstraintRow",
    "ConstraintSet",
    "CenteringPolicy",
    "ConstraintResiduals",
    "compile_constraints",
    "constraint_residuals",
]


class ConstraintCompileError(SpecError):
    """Raised when constraint tags cannot be compiled into a consistent system."""


@dataclass(frozen=True)
class ConstraintRow:
    """Provenance for one compiled row.

    kind is one of fixed, cross, centering, inweight, pattern; atts
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

    def __post_init__(self) -> None:
        for rows, rhs, name in ((self.aeq, self.beq, "beq"), (self.a, self.b, "b")):
            if np.shape(rhs) != (len(rows),):
                raise SpecError(
                    f"constraint set: {name} must have one entry per row ({len(rows)}), "
                    f"got shape {np.shape(rhs)}"
                )
        for name in ("aeq", "beq", "a", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise SpecError(f"constraint set: {name} has an entry that is not finite")

    @property
    def q(self) -> int:
        return int(self.aeq.shape[1])

    @property
    def m_e(self) -> int:
        return int(self.aeq.shape[0])

    @property
    def m_i(self) -> int:
        return int(self.a.shape[0])


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
    A "= v" tag and an in-weight both pin a coefficient, and one table of
    pins refuses a coefficient pinned to two values.

    Parameters
    ----------
    spec : ScorecardSpec, which checked itself when made.
    policy : centering policy, default none.
    inweights : optional (coefficient index, target) pairs with 1-based
        coefficient indices; index 1 pins the intercept.
    """
    policy = policy or CenteringPolicy.none()
    q = spec.q
    # Rows by kind: the equality kinds in their order in Aeq, then pattern.
    kinds = ("fixed", "cross", "centering", "inweight", "pattern")
    rows: dict[str, list] = {kind: [] for kind in kinds}
    pins: dict[int, tuple[float, str]] = {}  # column -> (value, source)

    def add(kind: str, atts: tuple[int, ...], note: str, coefficients: dict, rhs=0.0) -> None:
        rows[kind].append((coefficients, rhs, ConstraintRow(kind, atts, note)))

    def pin(column: int, value: float, source: str) -> None:
        if column not in pins:
            pins[column] = (value, source)
        elif pins[column][0] != value:
            prior, prior_source = pins[column]
            raise ConstraintCompileError(
                f"coefficient {column + 1} fixed to both {prior} ({prior_source}) "
                f"and {value} ({source})"
            )

    for ch, att in spec.iter_attributes():
        a = att.att_index
        where = f"{ch.name}:{att.label}"
        for term in att.tag:
            if term.op == "=":
                if a not in pins:
                    add("fixed", (a,), f"{where} = {term.operand:g}", {a: 1.0}, term.operand)
                pin(a, term.operand, f"tag on {where}")
                continue
            k = term.operand
            kind = "cross" if term.op == "~" else "pattern"
            sign = -1.0 if term.op == ">" else 1.0
            add(kind, (a, k), f"{where} {term.op} att {k}", {a: sign, k: -sign})

    # Centering rows: per characteristic, sum of weighted counts times weights.
    if policy.mode == "weighted_sum_zero":
        counts = np.asarray(policy.attribute_counts, dtype=float)
        if counts.shape != (q - 1,):
            raise ConstraintCompileError(
                f"weighted_sum_zero centering needs attribute_counts of length {q - 1}, "
                f"got shape {counts.shape}"
            )
        for ch in spec.characteristics:
            atts = tuple(att.att_index for att in ch.attributes)
            add("centering", atts, f"{ch.name} centered", {a: counts[a - 1] for a in atts})
    elif policy.mode != "none":
        raise ConstraintCompileError(f"unknown centering mode {policy.mode!r}")

    # In-weight rows: pin a coefficient (1-based; 1 = intercept) to a target.
    for coef, target in inweights or ():
        if not 1 <= coef <= q:
            raise ConstraintCompileError(f"in-weight coefficient index {coef} outside 1..{q}")
        pin(coef - 1, target, "in-weight")
        name = "intercept" if coef == 1 else f"att {coef - 1}"
        add("inweight", (coef,), f"{name} in-weighted to {target:g}", {coef - 1: 1.0}, target)

    aeq, beq, eq_rows = _stack([row for kind in kinds[:-1] for row in rows[kind]], q)
    a, b, ineq_rows = _stack(rows["pattern"], q)
    return ConstraintSet(aeq, beq, a, b, eq_rows, ineq_rows)


def _stack(rows: list, q: int):
    """Records ({column: coefficient}, rhs, ConstraintRow) as (matrix, rhs, provenance)."""
    matrix = np.zeros((len(rows), q))
    entries = [(i, *item) for i, (coefs, _, _) in enumerate(rows) for item in coefs.items()]
    if entries:
        at_row, at_column, values = zip(*entries)
        matrix[at_row, at_column] = values
    rhs = np.array([value for _, value, _ in rows], dtype=float)
    return matrix, rhs, tuple(row for _, _, row in rows)


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

