"""Benchmark of the scorecraft CLI on the bundled 172-coefficient spec.

    python3 perfbench/run.py --workload fit-100k --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it runs the program from `src/` there.
Set-up draws the seeded inputs (see inputs.py) and is not timed.  Then each
workload runs one `scorecraft` command in a closed loop with one client: a
fresh process with SCORECRAFT_THREADS=1 starts when the previous one exits,
until --seconds have passed.  Every run's outputs are checked against the
inputs' ground truth; a run that exits non-zero or fails a check counts as
failed.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics.  With --trace 1 the same closed loop runs, then one more run of the
command in this process with spans around the program's public functions
(spans.py); the JSON then holds the per-layer metrics, and the spans go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# Same BLAS cap the CLI applies, set before numpy loads, for the traced run.
os.environ["SCORECRAFT_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = SRC / "scorecraft" / "fixtures" / "scorecard_spec.csv"

LAMBDA = "0.5"
# Rows of the sample the eval workload's model is fitted on during set-up.
MODEL_ROWS = 20_000
# Program start-ups timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 150.0
RESIDUAL_TOL = 1e-8
AGREE_RTOL = 1e-9
# The CLI prints eval metrics with four decimals.
PRINTED_HALF_ULP = 0.5e-4


@dataclass(frozen=True)
class Workload:
    n: int
    command: str
    why: str
    # Distinct samples the closed loop cycles through, one per run.
    samples: int
    profiles: int = 0
    centering: bool = False
    # The samples are a fixed corpus drawn from the population, and the seed
    # only orders their rows.  Set where the program's effort swings with
    # the sample more than the host's speed does.
    fixed: bool = False


WORKLOADS = {
    "fit-100k": Workload(
        n=100_000,
        command="fit",
        samples=3,
        why="large fit on 100k distinct rows: binning, design and logistic_terms dominate; "
            "the QP is a few percent",
    ),
    # ADMM iterations per fit range from ~1k to ~30k between samples of
    # the same population, so samples drawn per seed would swamp wall_s.
    "fit-centered-20k": Workload(
        n=20_000,
        command="fit",
        samples=4,
        profiles=2_000,
        centering=True,
        fixed=True,
        why="centered fit on rows repeated from 2,000 profiles: centering rows, QP effort "
            "and duplicate rows show here",
    ),
    "eval-100k": Workload(
        n=100_000,
        command="eval",
        samples=3,
        why="read path on 100k held-out rows: binning and scoring, no SQP or QP",
    ),
}

# (name, unit, better).  The end-to-end metrics are printed with --trace 0.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("mll_per_row", "nats", "lower"),
]

# The per-layer metrics are printed with --trace 1; a layer that does not
# run on a workload reports 0.
PER_LAYER = [
    ("data_io.load_sample.s", "s", "lower"),
    ("model.build_design_matrix.s", "s", "lower"),
    ("model.design_mb", "MB", "lower"),
    ("model.score_vector.s", "s", "lower"),
    ("constraints.centering_counts.s", "s", "lower"),
    ("constraints.compile_constraints.s", "s", "lower"),
    ("constraints.rows_eq", "count", "lower"),
    ("constraints.rows_ineq", "count", "lower"),
    ("sqp.fit.s", "s", "lower"),
    ("sqp.fit.self_s", "s", "lower"),
    ("sqp.outer_iters", "count", "lower"),
    ("sqp.logistic_terms.calls", "count", "lower"),
    ("sqp.logistic_terms.s", "s", "lower"),
    ("qp.solve_qp.calls", "count", "lower"),
    ("qp.solve_qp.s", "s", "lower"),
    ("qp.iters", "count", "lower"),
    ("qp.lu_factor.calls", "count", "lower"),
    ("metrics.score_metrics.s", "s", "lower"),
    ("metrics.score_cdfs.s", "s", "lower"),
    ("report.write_report.s", "s", "lower"),
    ("data_io.save_model.s", "s", "lower"),
    ("metrics.ks", "1", "higher"),
    ("metrics.roc_area", "1", "higher"),
    ("input.distinct_row_share", "1", "higher"),
    ("input.raw_values_per_col", "count", "higher"),
    ("input.distinct_score_share", "1", "higher"),
    ("input.unreached_attributes", "count", "lower"),
    ("src.loc", "lines", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.span_coverage", "1", "higher"),
]

# Spans whose return values the traced run keeps for its checks and counts.
KEPT = frozenset({
    "model.build_design_matrix",
    "constraints.compile_constraints",
    "constraints.centering_counts",
    "sqp.fit",
    "qp.solve_qp",
    "metrics.score_metrics",
})


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    problems: list[str] = field(default_factory=list)


@dataclass(eq=False)
class Case:
    """One drawn sample, its data file, and what a run on it must produce.

    beta is the fitted model's: for fit, from the first run that passed its
    checks; for eval, the model fitted during set-up.
    """

    sample: object
    data: Path
    counts: object
    cs: object
    beta: object = None


class Bench:
    """One workload at one seed: its samples, the command, and the output checks."""

    def __init__(self, name: str, seed: int, work: Path,
                 wl: Workload | None = None, model_rows: int = MODEL_ROWS):
        import numpy as np

        import inputs
        from scorecraft.model import parse_spec

        self.np, self.inputs = np, inputs
        self.name, self.seed, self.work = name, seed, work
        self.wl = wl or WORKLOADS[name]
        self.spec = parse_spec(SPEC.read_text(encoding="utf-8"))
        self.pop = inputs.population(self.spec, str(SPEC))
        self.model = work / "model.json"
        self.cdfs = work / "cdfs.txt"
        self.report = work / "report.txt"
        stream = inputs.STREAM_HOLDOUT if self.wl.command == "eval" else inputs.STREAM_FIT
        self.cases = [self._case(stream, part) for part in range(self.wl.samples)]
        if self.wl.command == "eval":
            beta = self._fit_eval_model(model_rows)
            for case in self.cases:
                case.beta = beta

    def _case(self, stream: int, part: int, rows: int = 0) -> Case:
        """Sample `part` of a stream: the workload's rows, or `rows` continuous ones."""
        from scorecraft.constraints import CenteringPolicy, compile_constraints

        inputs, wl = self.inputs, self.wl
        if rows:
            sample = inputs.draw(self.pop, rows, self.seed, stream, part)
        elif wl.fixed:
            sample = inputs.shuffled(
                inputs.draw(self.pop, wl.n, inputs.POPULATION_KEY, stream, part, wl.profiles),
                self.seed, stream, part,
            )
        else:
            sample = inputs.draw(self.pop, wl.n, self.seed, stream, part, wl.profiles)
        data = self.work / f"data-{stream}-{part}.csv"
        data.write_text(inputs.csv_text(self.pop, sample), encoding="utf-8")
        counts = inputs.attribute_counts(self.spec.q, sample.codes, sample.w)
        policy = CenteringPolicy.none()
        if wl.centering:
            policy = CenteringPolicy(mode="weighted_sum_zero", attribute_counts=counts)
        return Case(sample, data, counts, compile_constraints(self.spec, policy))

    def _fit_eval_model(self, rows: int):
        """Fit the model the eval workload scores with, on a sample of its own."""
        case = self._case(self.inputs.STREAM_MODEL, 0, rows=rows)
        run = run_cli(["fit", "--spec", str(SPEC), "--data", str(case.data),
                       "--lambda", LAMBDA, "--out", str(self.model)], self.work)
        beta, problems = self.check_model(case) if run.code == 0 else (None, run.problems)
        if run.code != 0 or problems:
            raise RuntimeError(f"set-up fit of the eval model failed: {problems}")
        return beta

    def argv(self, case: Case) -> list[str]:
        if self.wl.command == "eval":
            return ["eval", "--model", str(self.model), "--data", str(case.data),
                    "--dump-cdfs", str(self.cdfs)]
        argv = ["fit", "--spec", str(SPEC), "--data", str(case.data),
                "--lambda", LAMBDA, "--out", str(self.model)]
        if self.wl.centering:
            return argv + ["--centering", "weighted"]
        return argv + ["--report", str(self.report)]

    # -- checks -------------------------------------------------------------

    def check_model(self, case: Case):
        """The written model: converged, feasible, and its minus_ll is the data's."""
        inputs, s = self.inputs, case.sample
        payload = json.loads(self.model.read_text(encoding="utf-8"))
        beta = self.np.asarray(payload["beta"], dtype=float)
        problems = []
        if payload["status"] != "converged":
            problems.append(f"status {payload['status']}")
        if beta.shape != (self.spec.q,):
            return beta, problems + [f"beta has shape {beta.shape}"]
        res = check_residuals(case.cs, beta)
        if res > RESIDUAL_TOL:
            problems.append(f"constraint residual {res:.3e}")
        own = inputs.minus_ll(inputs.scores(beta, s.codes), s.y, s.w)
        if not close(payload["minus_ll"], own, AGREE_RTOL):
            problems.append(f"minus_ll {payload['minus_ll']!r} but the data give {own!r}")
        return beta, problems

    def own_metrics(self, case: Case, beta) -> tuple[float, float]:
        """minus_ll and divergence of the scores at beta, from the sample's codes."""
        inputs, s = self.inputs, case.sample
        theta = inputs.scores(beta, s.codes)
        return inputs.minus_ll(theta, s.y, s.w), inputs.divergence(theta, s.y, s.w)

    def check_run(self, case: Case, stdout: str) -> list[str]:
        if self.wl.command == "fit":
            beta, problems = self.check_model(case)
            if not self.wl.centering and not self.report.stat().st_size:
                problems.append("empty report")
            if case.beta is None and not problems:
                case.beta = beta
            return problems
        printed = dict(
            line.split(" ", 1) for line in stdout.splitlines()
            if line.startswith(("divergence ", "minus_ll "))
        )
        problems = []
        for key, own in zip(("minus_ll", "divergence"), self.own_metrics(case, case.beta)):
            value = float(printed.get(key, "nan"))
            if not abs(value - own) <= PRINTED_HALF_ULP + AGREE_RTOL * abs(own):
                problems.append(f"printed {key} {value!r}, the data give {own!r}")
        with open(self.cdfs, encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        if lines != case.sample.n + 1:
            problems.append(f"cdf dump has {lines} lines for {case.sample.n} rows")
        return problems

    def clean_outputs(self) -> None:
        outputs = [self.cdfs] if self.wl.command == "eval" else [self.model, self.report]
        for path in outputs:
            path.unlink(missing_ok=True)

    # -- runs ---------------------------------------------------------------

    def closed_loop(self, seconds: float) -> list[Run]:
        """Run the command back to back, one sample after the next, for `seconds`."""
        runs = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            case = self.cases[len(runs) % len(self.cases)]
            self.clean_outputs()
            run = run_cli(self.argv(case), self.work)
            if run.code != 0:
                run.problems.append(f"exit code {run.code}")
            else:
                try:
                    run.problems += self.check_run(case, run.stdout)
                except (OSError, ValueError, KeyError) as exc:
                    run.problems.append(f"unreadable output: {exc!r}")
            runs.append(run)
        return runs

    def mll_per_row(self) -> float:
        """Median over the samples run of minus_ll per row at the model's beta."""
        values = [
            self.own_metrics(case, case.beta)[0] / case.sample.n
            for case in self.cases if case.beta is not None
        ]
        return statistics.median(values) if values else float("nan")

    def traced(self, untraced_wall: float) -> tuple[dict, list[str]]:
        """One in-process run on the first sample with spans; per-layer metrics."""
        import spans
        from scorecraft import cli

        case = self.cases[0]
        self.clean_outputs()
        tracer = spans.Tracer(f"{self.name}-seed{self.seed}", KEPT)
        tracer.install()
        out = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv(case))
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        problems = [f"exit code {code}"] if code else self.check_run(case, out.getvalue())
        problems += self.check_traced(case, tracer.results)
        trace_dir = ROOT / ".perfbench_out"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(str(trace_dir / f"spans-{self.name}-seed{self.seed}.json"))
        return self.layer_metrics(case, tracer, wall, untraced_wall), problems

    def check_traced(self, case: Case, results: dict) -> list[str]:
        """The program's binning, counts and full-precision metrics match the inputs."""
        problems = []
        for design in results["model.build_design_matrix"]:
            for c, (_, start, stop) in enumerate(design.blocks):
                block = design.x[:, start:stop]
                codes = start + block.argmax(axis=1)
                if not (block.sum(axis=1) == 1).all() \
                        or not (codes == case.sample.codes[:, c]).all():
                    problems.append(f"binning of column {c} differs from the inputs")
        for policy in results["constraints.centering_counts"]:
            if not self.np.array_equal(policy.attribute_counts, case.counts):
                problems.append("centering counts differ from the inputs")
        fits = results["sqp.fit"]
        beta = fits[-1].beta if fits else case.beta
        for m in results["metrics.score_metrics"]:
            mll, div = self.own_metrics(case, beta)
            if not (close(m.minus_ll, mll, AGREE_RTOL) and close(m.divergence, div, AGREE_RTOL)):
                problems.append(f"score_metrics {m} disagree with {mll!r}, {div!r}")
        return problems

    def layer_metrics(self, case: Case, tracer, wall: float, untraced_wall: float) -> dict:
        r = tracer.results
        values = {
            name: tracer.total(name[:-len(".s")]) for name, _, _ in PER_LAYER
            if name.endswith(".s")
        }
        values.update({
            name: tracer.calls(name[:-len(".calls")]) for name, _, _ in PER_LAYER
            if name.endswith(".calls")
        })
        compiled, fits, metrics = (
            r["constraints.compile_constraints"], r["sqp.fit"], r["metrics.score_metrics"]
        )
        beta = fits[-1].beta if fits else case.beta
        values.update({
            "model.design_mb": sum(d.x.nbytes for d in r["model.build_design_matrix"]) / 1e6,
            "constraints.rows_eq": compiled[-1].m_e if compiled else 0,
            "constraints.rows_ineq": compiled[-1].m_i if compiled else 0,
            "sqp.fit.self_s": tracer.self_time("sqp.fit"),
            "sqp.outer_iters": fits[-1].iterations if fits else 0,
            "qp.iters": sum(s.iterations for s in r["qp.solve_qp"]),
            "metrics.ks": metrics[-1].ks if metrics else 0.0,
            "metrics.roc_area": metrics[-1].roc_area if metrics else 0.0,
            "input.unreached_attributes": len(self.pop.unreached),
            "src.loc": source_lines(),
            "trace.wall_s": wall,
            "trace.overhead_s": wall - untraced_wall,
            "trace.span_coverage": tracer.root_seconds() / wall,
        })
        values.update(self.inputs.properties(
            case.sample, self.inputs.scores(beta, case.sample.codes)
        ))
        return values


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_residuals(cs, beta) -> float:
    from scorecraft.constraints import constraint_residuals

    res = constraint_residuals(cs, beta)
    return max(res.eq_residual, res.ineq_violation)


def source_lines() -> int:
    """Non-blank lines of the program's Python source."""
    return sum(
        1
        for path in sorted((SRC / "scorecraft").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def run_cli(argv: list[str], work: Path) -> Run:
    """Run one `scorecraft` command in a fresh process; time it to its exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC), SCORECRAFT_THREADS="1")
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "scorecraft.cli", *argv],
            stdout=out, stderr=err, env=env, cwd=work,
        )
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run = Run(wall, usage.ru_maxrss * 1024 / 1e6, code, out_path.read_text(encoding="utf-8"))
    if code:
        run.problems.append(err_path.read_text(encoding="utf-8").strip()[-300:])
    return run


def setup_seconds(work: Path) -> float:
    """Median wall time of `scorecraft compile` on the bundled spec, no data."""
    times = []
    for _ in range(SETUP_REPEATS):
        run = run_cli(["compile", "--spec", str(SPEC)], work)
        if run.code:
            raise RuntimeError(f"compile failed: {run.problems}")
        times.append(run.wall_s)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scorecraft" / "cli.py").is_file():
        print(f"perfbench: no scorecraft source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench_out"))
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_s = None if args.trace else setup_seconds(work)
        runs = bench.closed_loop(args.seconds)
        wall = statistics.median(r.wall_s for r in runs)
        problems = [p for r in runs for p in r.problems]
        attempted, failed = len(runs), sum(bool(r.problems) for r in runs)
        if args.trace:
            values, traced_problems = bench.traced(wall)
            attempted += 1
            failed += bool(traced_problems)
            problems += traced_problems
            metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
        else:
            values = {
                "wall_s": wall,
                "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
                "setup_s": setup_s,
                "mll_per_row": bench.mll_per_row(),
            }
            metrics = {name: metric(values[name], unit) for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(runs)} runs, "
        f"run walls {[round(r.wall_s, 3) for r in runs]}, src.loc {source_lines()}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
