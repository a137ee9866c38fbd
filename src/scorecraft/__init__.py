"""Score-engineered logistic regression scorecards.

scorecraft fits additive scorecard models under business constraints (fixed
weights, monotone patterns, centering, in-weighting) by minimizing penalized
minus log likelihood with a sequential quadratic programming loop.  A small
dense QP solver with KKT certification does the per-iteration work.

Outcome convention: ``y = 1`` means Good everywhere in this package, and the
fitted probabilities model ``Pr{y = 1}``.  Fraud and collections scores often
use the opposite convention; flip ``y`` before loading if needed.

Submodules are imported lazily so the command-line entry point can cap BLAS
thread pools before numpy is first loaded.
"""

_EXPORTS = {
    # model
    "SpecError": "model",
    "DataError": "model",
    "StepError": "model",
    "SpecialBin": "model",
    "IntervalBin": "model",
    "CategoryBin": "model",
    "NoInformationBin": "model",
    "FixedTo": "model",
    "GreaterThan": "model",
    "LessThan": "model",
    "TiedTo": "model",
    "ConstraintTag": "model",
    "Attribute": "model",
    "Characteristic": "model",
    "ScorecardSpec": "model",
    "Column": "model",
    "Sample": "model",
    "DesignMatrix": "model",
    "parse_spec": "model",
    "bin_value": "model",
    "build_design_matrix": "model",
    "score_vector": "model",
    # constraints
    "ConstraintCompileError": "constraints",
    "ConstraintRow": "constraints",
    "ConstraintSet": "constraints",
    "CenteringPolicy": "constraints",
    "ConstraintResiduals": "constraints",
    "compile_constraints": "constraints",
    "constraint_residuals": "constraints",
    # qp
    "QpProblem": "qp",
    "QpSolution": "qp",
    "KktResiduals": "qp",
    "solve_qp": "qp",
    "kkt_residuals": "qp",
    # sqp
    "LogisticTerms": "sqp",
    "PenaltySpec": "sqp",
    "FitConfig": "sqp",
    "FitResult": "sqp",
    "logistic_terms": "sqp",
    "score_minus_log_likelihood": "sqp",
    "assemble_qp": "sqp",
    "initial_beta": "sqp",
    "fit": "sqp",
    # metrics
    "MetricsError": "metrics",
    "ScoreCdfs": "metrics",
    "RocStats": "metrics",
    "ScoreMetrics": "metrics",
    "ComparisonTable": "metrics",
    "score_cdfs": "metrics",
    "roc": "metrics",
    "divergence": "metrics",
    "score_metrics": "metrics",
    "compare_scores": "metrics",
    # data_io
    "SyntheticConfig": "data_io",
    "ModelFile": "data_io",
    "load_sample": "data_io",
    "representatives": "data_io",
    "gen_synthetic": "data_io",
    "save_model": "data_io",
    "load_model": "data_io",
    "load_score_csv": "data_io",
    # report
    "write_report": "report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
