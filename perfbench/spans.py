"""Spans around scorecraft's public functions, installed from outside the program.

`Tracer.install` replaces every public function of the program's layer
modules, wherever a module holds a reference to it, with a wrapper that
records a span (name, start, end, parent, run id).  It also wraps
`CenteringPolicy.weighted_from_sample` and `scipy.linalg.lu_factor`, which
the QP calls for each KKT refactorization.  `uninstall` restores the
originals, so only the traced run pays for the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass

LAYERS = ("data_io", "model", "constraints", "sqp", "qp", "metrics", "report")
# bin_value runs once per cell (millions of calls per run); a span on it
# would cost more than the work it measures.  Its callers carry the time.
UNTRACED = frozenset({"model.bin_value"})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `keep` names the spans whose results are kept."""

    def __init__(self, run: str, keep: frozenset[str] = frozenset()):
        self.run = run
        self.keep = keep
        self.spans: list[Span] = []
        self.results: dict[str, list] = {name: [] for name in keep}
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.run)
            if name in self.results:
                self.results[name].append(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.linalg

        modules = [importlib.import_module(f"scorecraft.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                        and name not in UNTRACED:
                    wrappers[fn] = self._wrap(fn, name)
        for module in modules + [importlib.import_module("scorecraft.cli")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        policy = importlib.import_module("scorecraft.constraints").CenteringPolicy
        counts = policy.__dict__["weighted_from_sample"].__func__
        self._patch(
            policy,
            "weighted_from_sample",
            classmethod(self._wrap(counts, "constraints.centering_counts")),
        )
        self._patch(scipy.linalg, "lu_factor", self._wrap(scipy.linalg.lu_factor, "qp.lu_factor"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus the time their children cover."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.seconds for s in self.spans if s.parent in own)
        return self.total(name) - children

    def root_seconds(self) -> float:
        """Time covered by top-level spans (they never overlap: one thread)."""
        return sum(s.seconds for s in self.spans if s.parent == -1)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
