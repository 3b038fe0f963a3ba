"""Spans around flowshape's layer boundaries, recorded from outside the program.

The modules bind names with ``from .x import y``, so wrapping a function where
it is defined misses every call made through another module's binding.
:meth:`Tracer.installed` therefore rebinds every public function of the
layers in every ``flowshape`` module that holds it, plus ``Spaces.build``,
the optimizer's diagnostics and ``scipy.sparse.linalg.splu``.  A
factorization is attributed to the module that called ``splu``, and its
triangular solves to the same module.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("meshgen", "lagrangian", "kkt", "flow", "optimize")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return asdict(self)


def _layer(module_name: str) -> str:
    prefix = "flowshape."
    return (module_name[len(prefix):] if module_name.startswith(prefix)
            else module_name)


class _TracedLU:
    """A SuperLU factorization whose solves are recorded as spans."""

    def __init__(self, lu, tracer: "Tracer", name: str):
        self._lu, self._tracer, self._name = lu, tracer, name

    def solve(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Records nested spans; ``run`` labels the spans opened from now on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._stack[-1] if self._stack else None,
                 name, self.run, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        except Exception as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            # read outside the span, so the span times only the call
            if name == "kkt.kkt_matrix":
                s.attrs["nnz"] = int(out.nnz)
            elif name == "kkt.solve_kkt" and isinstance(out, tuple):
                s.attrs["steps"] = len(out[1]) - 1
            return out
        return traced

    def _wrap_splu(self, splu):
        @functools.wraps(splu)
        def traced(*args, **kwargs):
            layer = _layer(sys._getframe(1).f_globals.get("__name__", "?"))
            with self.span(f"{layer}.splu") as s:
                lu = splu(*args, **kwargs)
            s.attrs["fill_nnz"] = int(lu.nnz)
            return _TracedLU(lu, self, f"{layer}.lu_solve")
        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        import scipy.sparse.linalg as spla

        from flowshape import lagrangian, optimize

        names = {}
        for layer in LAYERS:
            mod = sys.modules[f"flowshape.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    names[obj] = f"{layer}.{attr}"
        names[optimize._diagnostics] = "optimize.diagnostics"

        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "flowshape" or key.startswith("flowshape.")]
        wrapped = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patch(mod, attr, wrapped[obj])
        build = lagrangian.Spaces.__dict__["build"].__func__
        patch(lagrangian.Spaces, "build",
              classmethod(self._wrap(build, "lagrangian.Spaces.build")))
        patch(spla, "splu", self._wrap_splu(spla.splu))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)


def summarize(spans: list[Span], run: str) -> dict:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    mine = [s for s in spans if s.run == run]
    child_s = defaultdict(float)
    for s in mine:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in mine:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.seconds
        row["self_s"] += s.seconds - child_s[s.id]
    return dict(out)


def newton_steps(spans: list[Span], run: str) -> list[dict]:
    """Newton steps of every ``solve_kkt`` call, with line-search trials.

    One iteration of ``solve_kkt`` evaluates the residual at the iterate,
    assembles the matrix once, then evaluates the residual at each trial
    point.  So between two assemblies there are the trials of the first step
    plus the residual at the next iterate, and after the last assembly there
    are its trials plus, on success, the residual that meets the tolerance.
    """
    mine = [s for s in spans if s.run == run]
    children = defaultdict(list)
    for s in mine:
        children[s.parent].append(s)
    steps = []
    for solve in (s for s in mine if s.name == "kkt.solve_kkt"):
        failed = "error" in solve.attrs
        calls = [c.name for c in children[solve.id]
                 if c.name in ("kkt.kkt_residual", "kkt.kkt_matrix")]
        segments = []
        for name in calls:
            if name == "kkt.kkt_matrix":
                segments.append(0)
            elif segments:
                segments[-1] += 1
        for i, n in enumerate(segments):
            last = i == len(segments) - 1
            trials = n if (last and failed) else n - 1
            steps.append({"solve": solve.id, "trials": trials,
                          "full": trials == 1 and not (last and failed)})
    return steps
