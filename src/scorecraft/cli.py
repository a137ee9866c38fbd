"""Command line surface: compile, fit, eval, compare, gen.

Exit codes: 0 success, 1 validation/usage errors, 2 numerical failures
(infeasible constraints, unmet solver or fit tolerances).

The SCORECRAFT_THREADS environment variable (default 1) caps the BLAS
thread pools; it is applied before numpy is first imported, which is why
this module defers all package imports into the command handlers.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Optional

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads() -> Optional[str]:
    """Apply SCORECRAFT_THREADS to the BLAS pools; error text on bad value."""
    value = os.environ.get("SCORECRAFT_THREADS", "1").strip() or "1"
    try:
        count = int(value)
    except ValueError:
        return f"SCORECRAFT_THREADS must be a positive integer, got {value!r}"
    if count < 1:
        return f"SCORECRAFT_THREADS must be a positive integer, got {value!r}"
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(count))
    return None


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 (not 2) on usage errors."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="scorecraft",
        description="Fit and evaluate score-engineered logistic regression scorecards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_constraint_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--centering",
            choices=("none", "weighted"),
            default="none",
            help="add per-characteristic weighted-sum-zero equality rows",
        )
        p.add_argument(
            "--inweight",
            action="append",
            default=[],
            metavar="COEF=VALUE",
            help="pin coefficient COEF (1 = intercept) to VALUE; repeatable",
        )

    p = sub.add_parser("compile", help="compile a spec's constraints and print them")
    p.add_argument("--spec", required=True, help="scorecard spec CSV")
    p.add_argument("--data", help="data CSV (required for --centering weighted)")
    add_constraint_flags(p)

    p = sub.add_parser("fit", help="fit the constrained logistic scorecard")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="ridge penalty weight on the scorecard part (default 0)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="outer convergence threshold on max|delta beta|")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--out", help="write the fitted model JSON here")
    p.add_argument("--report", help="write the attribute/weight report here")
    p.add_argument("--name", default="logistic", help="model column name in reports")
    p.add_argument("--init-model", help="model JSON whose beta seeds the fit")
    add_constraint_flags(p)

    p = sub.add_parser("eval", help="score a sample with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dump-cdfs", help="write a plot-ready score/CDF table here")

    p = sub.add_parser("compare", help="compare score columns on one sample")
    p.add_argument("--data", required=True)
    p.add_argument("--score", action="append", default=[], metavar="NAME=PATH",
                   help="score CSV (header `score`); repeatable")
    p.add_argument("--model", action="append", default=[], metavar="NAME=PATH",
                   help="fitted model JSON to score the sample with; repeatable")

    p = sub.add_parser("gen", help="generate a deterministic synthetic sample")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-good", type=int, required=True)
    p.add_argument("--n-bad", type=int, required=True)
    p.add_argument("--probs",
                   help="JSON {char: {good: [...], bad: [...]}}; default uniform "
                        "over each characteristic's reachable informative attributes")

    return parser


def _same_file(a: str, b: str) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False  # one of them does not exist


def _check_outputs(outputs: list[tuple[str, Optional[str]]],
                   others: list[tuple[str, Optional[str]]]) -> None:
    """Fail before any work on an output path a write could not, or must not, replace.

    outputs and others are (what, path) pairs; a None path is left out.
    The directory of the file the path names (a symbolic link resolved)
    must exist and the path must not be a directory (the error reads as
    the write's own would), and it must name no output before it and none
    of others: the files the command reads, or outputs checked apart.
    """
    outputs = [(what, path) for what, path in outputs if path is not None]
    others = [(what, path) for what, path in others if path is not None]
    for i, (what, path) in enumerate(outputs):
        directory = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(directory):
            code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            for other, named in outputs[:i] + others:
                if _same_file(path, named):
                    raise ValueError(f"{path}: {what} names the same file as {other}")
            continue
        raise OSError(f"{path}: {os.strerror(code)}")


def _parse_pairs(pairs: list[str], what: str) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"{what} must look like NAME=PATH, got {pair!r}")
        out.append((name, path))
    return out


def _parse_inweights(pairs: list[str]) -> list[tuple[int, float]]:
    import math

    out = []
    for pair in pairs:
        coef, _, value = pair.partition("=")
        try:
            coef, value = int(coef), float(value)
            if not math.isfinite(value):
                raise ValueError(value)
        except ValueError:
            raise ValueError(
                f"--inweight needs COEF=VALUE, an integer and a finite number, got {pair!r}"
            ) from None
        out.append((coef, value))
    return out


def _compiled(args, spec, sample, design=None):
    """The spec's constraints; `design` is the sample's, if already binned."""
    from .constraints import CenteringPolicy, compile_constraints
    from .model import build_design_matrix

    policy = None
    if args.centering == "weighted":
        if sample is None:
            raise ValueError("--centering weighted needs --data")
        if design is None:
            design = build_design_matrix(spec, sample)
        policy = CenteringPolicy.weighted_from_sample(design, sample.w)
    return compile_constraints(spec, policy, _parse_inweights(args.inweight))


def _cmd_compile(args) -> int:
    from .model import parse_spec, read_text

    spec = parse_spec(read_text(args.spec))
    sample = None
    if args.data is not None:
        from .data_io import load_sample

        sample = load_sample(args.data)
    cs = _compiled(args, spec, sample)
    print(f"coefficients: {cs.q} (1 intercept + {cs.q - 1} attributes)")
    print(f"equality rows: {cs.m_e}")
    print(f"inequality rows: {cs.m_i}")
    if cs.eq_rows or cs.ineq_rows:
        print("rows:")
        for side, rows in (("eq", cs.eq_rows), ("ineq", cs.ineq_rows)):
            for i, row in enumerate(rows):
                print(f"  {side:<4} {i:>4}  {row.kind:<9} {row.note}")
    return 0


def _cmd_fit(args) -> int:
    twin = args.report + ".csv" if args.report is not None else None
    reads = [("--spec", args.spec), ("--data", args.data)]
    # --out may name --init-model, which is read before the fit; the report may not.
    _check_outputs([("--out", args.out)], reads)
    _check_outputs(
        [("--report", args.report), ("the --report CSV twin", twin)],
        [("--out", args.out), ("--init-model", args.init_model), *reads],
    )
    from .data_io import ModelFile, load_model, load_sample, save_model
    from .model import build_design_matrix, parse_spec, read_text
    from .sqp import FitConfig, PenaltySpec, fit

    pen = PenaltySpec(lam=args.lam)
    spec_text = read_text(args.spec)
    spec = parse_spec(spec_text)
    sample = load_sample(args.data)
    design = build_design_matrix(spec, sample)
    cs = _compiled(args, spec, sample, design)
    y, w = sample.y, sample.w
    del sample  # the design holds the binned columns; keep only y and w
    beta0 = None if args.init_model is None else load_model(args.init_model).fit.beta
    config = FitConfig(tol=args.tol, max_outer_iters=args.max_iters, beta0=beta0)

    result = fit(design, y, w, pen, cs, config)

    for rec in result.trajectory:
        print(
            f"iter {rec.iteration:>3}  max_delta {rec.max_delta:.6e}  "
            f"minus_ll {rec.minus_ll:.6f}"
        )
    print(f"status: {result.status}" + (f" ({result.note})" if result.note else ""))
    print(f"intercept: {result.beta[0]:.6f}")
    print(
        f"kkt: stationarity {result.kkt.stationarity:.3e}  "
        f"eq {result.residuals.eq_residual:.3e}  "
        f"ineq {result.residuals.ineq_violation:.3e}"
    )

    if args.out is not None:
        save_model(args.out, ModelFile(result, pen.lam, spec_text))
        print(f"wrote model to {args.out}")
    if args.report is not None:
        from .metrics import score_cdfs, score_metrics
        from .report import write_report

        metrics = score_metrics(score_cdfs(design.scores(result.beta), y, w))
        write_report(spec, args.name, result.beta, metrics, args.report)
        print(f"wrote report to {args.report} (csv twin {args.report}.csv)")
    return 0 if result.status == "converged" else 2


def _cmd_eval(args) -> int:
    _check_outputs(
        [("--dump-cdfs", args.dump_cdfs)], [("--model", args.model), ("--data", args.data)]
    )
    from .data_io import atomic_write_text, load_model, load_sample
    from .metrics import score_cdfs, score_metrics
    from .model import build_design_matrix

    model = load_model(args.model)
    sample = load_sample(args.data)
    design = build_design_matrix(model.spec, sample)
    y, w = sample.y, sample.w
    del sample  # the design holds the binned columns; keep only y and w
    theta = design.scores(model.fit.beta)
    del design
    cdfs = score_cdfs(theta, y, w)
    m = score_metrics(cdfs)
    print(f"divergence {m.divergence:.4f}")
    print(f"minus_ll {m.minus_ll:.4f}")
    print(f"ks {m.ks:.4f}")
    print(f"roc_area {m.roc_area:.4f}")
    if args.dump_cdfs is not None:
        atomic_write_text(args.dump_cdfs, _cdf_table(cdfs))
        print(f"wrote cdf dump to {args.dump_cdfs}")
    return 0


# Rows of the --dump-cdfs table formatted in one go.
_DUMP_ROWS = 1 << 14


def _cdf_table(cdfs):
    """The --dump-cdfs text: its header, then a line per record of score, goods and bads CDFs.

    Each value is Python's shortest round-trip repr, made by numpy in blocks
    of _DUMP_ROWS lines (floatrepr.repr_lines).  The columns are nondecreasing,
    so equal values are adjacent and each is formatted once per run.
    """
    from .floatrepr import repr_lines

    columns = (cdfs.sorted_score, cdfs.goods_cdf, cdfs.bads_cdf)
    yield "# score goods_cdf bads_cdf\n"
    for a in range(0, len(columns[0]), _DUMP_ROWS):
        yield repr_lines([column[a : a + _DUMP_ROWS] for column in columns])


def _cmd_compare(args) -> int:
    from .data_io import load_model, load_sample, load_score_csv
    from .metrics import compare_scores
    from .model import build_design_matrix

    models = [(name, load_model(path)) for name, path in _parse_pairs(args.model, "--model")]
    sample = load_sample(args.data)
    scores = [
        (name, build_design_matrix(model.spec, sample).scores(model.fit.beta))
        for name, model in models
    ]
    for name, path in _parse_pairs(args.score, "--score"):
        column = load_score_csv(path)
        if column.shape[0] != sample.n:
            raise ValueError(
                f"score {name!r} has {column.shape[0]} rows, data has {sample.n}"
            )
        scores.append((name, column))
    if not scores:
        raise ValueError("compare needs at least one --model or --score")
    print(compare_scores(scores, sample.y, sample.w).to_text())
    return 0


def _default_probs(spec):
    """Uniform over each characteristic's informative attributes that a value reaches."""
    import numpy as np

    from .data_io import representatives
    from .model import NoInformationBin

    good = {}
    for ch in spec.characteristics:
        reps = representatives(ch)
        informative = np.array(
            [float(k in reps and not isinstance(att.bin, NoInformationBin))
             for k, att in enumerate(ch.attributes)]
        )
        good[ch.name] = informative / informative.sum()
    return good, dict(good)


def _read_probs(path: str) -> tuple[dict, dict]:
    """The good and the bad probabilities a `--probs` JSON file gives each name.

    The file maps each name to {"good": [numbers], "bad": [numbers]}; a
    ValueError names the file, and the key where one is faulty.
    """
    import numpy as np

    from .model import read_text

    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object that maps names to probabilities")
    probs = ({}, {})
    for name, entry in raw.items():
        lists = [entry.get(kind) for kind in ("good", "bad")] if isinstance(entry, dict) else [None]
        if not all(isinstance(v, list) and all(type(x) in (int, float) for x in v) for v in lists):
            raise ValueError(f'{path}: key {name!r}: expected {{"good": [numbers], "bad": [numbers]}}')
        for side, values in zip(probs, lists):
            side[name] = np.asarray(values, dtype=float)
    return probs


def _cmd_gen(args) -> int:
    _check_outputs([("--out", args.out)], [("--spec", args.spec), ("--probs", args.probs)])
    from .data_io import DataError, SyntheticConfig, gen_synthetic
    from .model import parse_spec, read_text

    spec = parse_spec(read_text(args.spec))
    good, bad = _read_probs(args.probs) if args.probs is not None else _default_probs(spec)
    cfg = SyntheticConfig(
        seed=args.seed,
        n_good=args.n_good,
        n_bad=args.n_bad,
        spec=spec,
        good_probs=good,
        bad_probs=bad,
    )
    if args.probs is not None:
        try:
            cfg.check_probs()
        except DataError as exc:
            raise DataError(f"{args.probs}: {exc}") from None
    sample = gen_synthetic(cfg, args.out)
    print(f"wrote {sample.n} rows to {args.out} (seed {args.seed})")
    return 0


# The options that name a file: an empty one is refused, not taken as not given.
_PATHS = ("spec", "data", "model", "out", "report", "init_model", "dump_cdfs", "probs")

_HANDLERS = {
    "compile": _cmd_compile,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "gen": _cmd_gen,
}


def main(argv: Optional[list[str]] = None) -> int:
    thread_error = _cap_threads()
    if thread_error:
        print(f"scorecraft: error: {thread_error}", file=sys.stderr)
        return 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from .model import StepError

    try:
        for name in _PATHS:
            if getattr(args, name, None) == "":
                raise ValueError(f"--{name.replace('_', '-')}: empty path")
        return _HANDLERS[args.command](args)
    except StepError as exc:
        print(f"scorecraft {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"scorecraft {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
