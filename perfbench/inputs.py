"""Seeded workload inputs on the bundled scorecard spec.

`scorecraft gen` cannot draw from the bundled spec (it tries one midpoint
per attribute and the overlapping `char950` rows claim it), so the
benchmark makes its own inputs:

* For every attribute it searches a grid of candidate raw values, plus the
  edges of the characteristic's other bins, and keeps the candidates that
  the program's public `bin_value` maps to that attribute.  Attributes with
  no such value are unreachable and never drawn.
* The population (attribute probabilities and the true coefficients) is
  fixed; the seed only draws the sample, so runs with different seeds
  differ by sampling noise alone.
* Rows keep their attribute codes, so the benchmark can check the
  program's binning and compute likelihoods without the program.

All randomness comes from Philox streams keyed by (seed, stream), so one
seed gives the same bytes on every platform.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from scorecraft.model import (
    CategoryBin,
    IntervalBin,
    NoInformationBin,
    ScorecardSpec,
    SpecialBin,
    bin_value,
)

# Candidate grid points searched inside each interval bin.
GRID = 256
# Share of rows whose value is missing (NoInformation) in every column.
MISSING_SHARE = 0.04
# Scale on the bundled feasible weights, and the intercept, of the true model.
BETA_SCALE = 0.5
INTERCEPT = 4.5
# Key of the fixed population stream and of fixed corpora; other samples are
# keyed by the seed.
POPULATION_KEY = 20200302

STREAM_FIT = 1
STREAM_HOLDOUT = 2
STREAM_MODEL = 3


def _text(value: float) -> str:
    """Short decimal text of a value rounded to 0.01."""
    s = f"{round(value, 2) + 0.0:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _edges(ch) -> list[float]:
    out = []
    for att in ch.attributes:
        if isinstance(att.bin, IntervalBin):
            out.extend(e for e in (att.bin.lo, att.bin.hi) if math.isfinite(e))
        elif isinstance(att.bin, SpecialBin):
            out.append(att.bin.value)
    return out


def _candidates(ch, att) -> list[str]:
    """Every searched raw text that `bin_value` maps to `att`, sorted by value."""
    rule = att.bin
    if isinstance(rule, NoInformationBin):
        return [""]
    if isinstance(rule, SpecialBin):
        texts = [_text(rule.value)]
    elif isinstance(rule, CategoryBin):
        texts = sorted(rule.labels)
    else:
        finite = [e for e in (rule.lo, rule.hi) if math.isfinite(e)]
        span = max([10.0] + [abs(e) for e in finite])
        lo = rule.lo if math.isfinite(rule.lo) else (rule.hi if finite else 0.0) - span
        hi = rule.hi if math.isfinite(rule.hi) else lo + span
        points = list(lo + (hi - lo) * (np.arange(GRID) + 0.5) / GRID)
        for e in [lo] + _edges(ch):
            if lo <= e < hi:
                points.extend((e, e + 0.01))
        texts = sorted({_text(v) for v in points}, key=float)
    return [t for t in texts if bin_value(ch, t) == att.att_index]


@dataclass(frozen=True, eq=False)
class Population:
    """The fixed distribution every workload sample is drawn from.

    pools[c][k] lists the raw texts of attribute k of characteristic c;
    probs[c] is the attribute distribution (zero on unreachable attributes);
    beta is the true coefficient vector (index 0 is the intercept).
    """

    spec: ScorecardSpec
    pools: tuple[tuple[tuple[str, ...], ...], ...]
    probs: tuple[np.ndarray, ...]
    beta: np.ndarray
    unreached: tuple[int, ...]


def _bundled_weights(spec_path: str, q: int) -> np.ndarray:
    path = os.path.join(os.path.dirname(spec_path), "maxdiv_weights.csv")
    beta = np.zeros(q)
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            att, weight = line.strip().split(",")
            beta[int(att)] = float(weight)
    return beta


def population(spec: ScorecardSpec, spec_path: str) -> Population:
    """Search every attribute's raw values and fix the attribute probabilities.

    The true weights are the bundled feasible weight vector, which satisfies
    every compiled constraint, so the fitted model is near an interior point
    of the constraint orderings it respects and on the boundary of the rest.
    """
    rng = np.random.Generator(np.random.Philox(POPULATION_KEY))
    pools, probs, unreached = [], [], []
    for ch in spec.characteristics:
        ch_pools = tuple(tuple(_candidates(ch, att)) for att in ch.attributes)
        reach = np.array([bool(p) for p in ch_pools])
        informative = np.array(
            [not isinstance(att.bin, NoInformationBin) for att in ch.attributes]
        )
        # Dirichlet(2) weights over the informative reachable attributes.
        g = -np.log(rng.random((len(ch.attributes), 2))).sum(axis=1)
        p = np.where(reach & informative, g, 0.0)
        p = (1.0 - MISSING_SHARE) * p / p.sum() + MISSING_SHARE * ~informative
        pools.append(ch_pools)
        probs.append(p)
        unreached.extend(
            att.att_index for att, ok in zip(ch.attributes, reach) if not ok
        )
    beta = BETA_SCALE * _bundled_weights(spec_path, spec.q)
    beta[0] = INTERCEPT
    return Population(
        spec=spec,
        pools=tuple(pools),
        probs=tuple(probs),
        beta=beta,
        unreached=tuple(unreached),
    )


@dataclass(frozen=True, eq=False)
class Inputs:
    """A drawn sample with its ground truth.

    codes[i, c] is the global attribute index row i bins to in characteristic
    c; text[c] is the raw text column as written to the CSV.
    """

    codes: np.ndarray
    text: tuple[np.ndarray, ...]
    y: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return int(self.y.shape[0])


def _rng(seed: int, stream: int, part: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream, part])))


def draw(
    pop: Population,
    n: int,
    seed: int,
    stream: int,
    part: int = 0,
    profiles: int = 0,
) -> Inputs:
    """Draw sample `part` of a stream: n rows, or n rows resampled from profiles.

    Continuous rows draw each value uniformly from its attribute's pool.
    Profile rows use one raw value per attribute (the middle of its pool),
    so the columns have few distinct values and many rows repeat.
    """
    rng = _rng(seed, stream, part)
    m = profiles or n
    codes = np.empty((m, len(pop.pools)), dtype=np.int64)
    text = []
    for c, (ch, pools) in enumerate(zip(pop.spec.characteristics, pop.pools)):
        cum = np.cumsum(pop.probs[c])
        k = np.searchsorted(cum, rng.random(m) * cum[-1], side="right")
        sizes = np.array([len(p) for p in pools])
        if profiles:
            pick = (sizes[k] - 1) // 2
        else:
            pick = np.minimum((rng.random(m) * sizes[k]).astype(np.int64), sizes[k] - 1)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        flat = np.array([t for p in pools for t in p], dtype=object)
        codes[:, c] = np.array([att.att_index for att in ch.attributes])[k]
        text.append(flat[offsets[k] + pick])
    if profiles:
        rows = np.minimum((rng.random(n) * profiles).astype(np.int64), profiles - 1)
        codes = codes[rows]
        text = [col[rows] for col in text]
    eta = pop.beta[0] + pop.beta[codes].sum(axis=1)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Inputs(codes=codes, text=tuple(text), y=y, w=np.ones(n))


def shuffled(inputs: Inputs, seed: int, stream: int, part: int) -> Inputs:
    """The same rows in an order drawn from the seed."""
    order = np.argsort(_rng(seed, stream, part).random(inputs.n), kind="stable")
    return Inputs(
        codes=inputs.codes[order],
        text=tuple(col[order] for col in inputs.text),
        y=inputs.y[order],
        w=inputs.w[order],
    )


def csv_text(pop: Population, inputs: Inputs) -> str:
    """The sample as a scorecraft data CSV (header y,w,<characteristics>)."""
    names = [ch.name for ch in pop.spec.characteristics]
    ys = np.where(inputs.y == 1.0, "1", "0")
    lines = [",".join(["y", "w"] + names)]
    lines.extend(f"{y},1," + ",".join(row) for y, row in zip(ys, zip(*inputs.text)))
    return "\n".join(lines) + "\n"


def scores(beta: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Scores theta = intercept + the matched weights, from the codes."""
    return beta[0] + beta[codes].sum(axis=1)


def minus_ll(theta: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Minus Bernoulli log likelihood sum_i w_i (log(1 + e^theta_i) - y_i theta_i)."""
    return float(w @ (np.logaddexp(0.0, theta) - y * theta))


def divergence(theta: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """(mu_G - mu_B)^2 / ((var_G + var_B) / 2) with population variances."""
    moments = []
    for mass in (w * y, w * (1.0 - y)):
        mean = float(mass @ theta / mass.sum())
        moments.append((mean, float(mass @ (theta - mean) ** 2 / mass.sum())))
    (mu_g, var_g), (mu_b, var_b) = moments
    return (mu_g - mu_b) ** 2 / (0.5 * (var_g + var_b))


def attribute_counts(q: int, codes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted count of rows per attribute, indexed by attribute number - 1."""
    counts = np.zeros(q - 1)
    for c in range(codes.shape[1]):
        counts += np.bincount(codes[:, c] - 1, weights=w, minlength=q - 1)
    return counts


def properties(inputs: Inputs, theta: np.ndarray) -> dict[str, float]:
    """Input properties a claim that depends on repetition can cite."""
    return {
        "input.distinct_row_share": len(set(zip(*inputs.text))) / inputs.n,
        "input.raw_values_per_col": float(
            np.median([len(set(col.tolist())) for col in inputs.text])
        ),
        "input.distinct_score_share": np.unique(theta).size / inputs.n,
    }
