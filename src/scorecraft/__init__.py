"""Score-engineered logistic regression scorecards.

scorecraft fits additive scorecard models under business constraints (fixed
weights, monotone patterns, centering, in-weighting) by minimizing penalized
minus log likelihood with a sequential quadratic programming loop.  A small
dense QP solver with KKT certification does the per-iteration work.

Outcome convention: ``y = 1`` means Good everywhere in this package, and the
fitted probabilities model ``Pr{y = 1}``.  Fraud and collections scores often
use the opposite convention; flip ``y`` before loading if needed.

The package exports every name that the ``__all__`` of one of the modules
below declares, and ``__all__`` is their sorted union.  A name is looked up
in the modules in this order, each imported only when the lookup reaches it,
so the command-line entry point can cap BLAS thread pools before numpy is
first loaded.  A private or submodule name is never looked up.
"""

_MODULES = ("model", "constraints", "qp", "sqp", "metrics", "data_io", "report")


def _modules():
    from importlib import import_module

    return (import_module(f".{name}", __name__) for name in _MODULES)


def __getattr__(name):
    if name == "__all__":
        globals()[name] = value = sorted({n for module in _modules() for n in module.__all__})
        return value
    if not name.startswith("_") and name not in ("cli", "floatrepr", *_MODULES):
        for module in _modules():
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
