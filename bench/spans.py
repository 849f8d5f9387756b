"""Spans around finred's layer boundaries, recorded from outside the package.

The tracer replaces every binding of a public finred function (or method
of a public system class) with a wrapper that records a span: name,
start, end, parent span, round and operation.  Spans stay in memory and
are aggregated (and optionally written out) when the run ends.  Nothing
in ``src/finred`` is modified; ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of its direct
children, so self times of all spans in a round add up to the round's
traced wall time.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from functools import wraps

perf = time.perf_counter

# (id, parent, round, op, name, start, end, attrs)
ID, PARENT, ROUND, OP, NAME, START, END, ATTRS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.round = -1  # -1 while setting up
        self.op = -1
        self.plan = None  # (coefficient count, refine span name) of the solve in progress

    # -- recording ----------------------------------------------------------
    def _enter(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, perf()

    def _exit(self, sid, parent, start, name, attrs):
        end = perf()
        self._stack.pop()
        self.spans.append((sid, parent, self.round, self.op, name, start, end, attrs))

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(sid, parent, start, name, None)

    def wrap(self, fn, name, attrs_of=None, name_of=None):
        """Wrapper recording one span per call; attrs_of(result, args) -> dict."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            sid, parent, start = tracer._enter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result, args, kwargs)
                return result
            finally:
                tracer._exit(sid, parent, start, span_name, attrs)

        return traced

    # -- patching -------------------------------------------------------------
    def patch_function(self, fn, name, **kw):
        """Rebind every finred module attribute that is ``fn`` to a traced wrapper."""
        self._rebind(fn, self.wrap(fn, name, **kw))

    def _rebind(self, fn, replacement):
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "finred" or modname.startswith("finred.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"no finred binding of {fn!r} to trace")

    def patch_method(self, cls, attr, name, **kw):
        fn = vars(cls)[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(fn, name, **kw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def trace_potential(self, pot):
        """Same potential with V' and V'' wrapped; counts points evaluated."""
        def points(result, args, kwargs):
            return {"points": math.prod(getattr(args[0], "shape", ())[:-1])}

        return dataclasses.replace(
            pot,
            grad=self.wrap(pot.grad, "potentials.grad", attrs_of=points),
            hess=self.wrap(pot.hess, "potentials.hess", attrs_of=points))

    def install(self):
        """Trace finred's layers; import finred before calling."""
        from finred import cli, config, core, dirichlet, fourier, morse, potentials, reduction

        tracer = self

        def constructor(fn, name):
            def build(*args, **kwargs):
                with tracer.span(name) if name else nullcontext():
                    pot = fn(*args, **kwargs)
                return tracer.trace_potential(pot)
            return build

        for fn, name in ((potentials.builtin_potential, None),
                         (potentials.parse_potential, "potentials.parse")):
            self._rebind(fn, constructor(fn, name))

        self.patch_function(reduction.solve_reduced, "reduction.solve",
                            name_of=self._solve_name("reduction", lambda a: a[1].M * a[0].n))
        self.patch_function(dirichlet.solve_dirichlet, "dirichlet.solve",
                            name_of=self._solve_name("dirichlet", lambda a: len(a[2].modes)))
        cap = inspect.signature(core.reduced_newton).parameters["max_iter"].default

        def newton_attrs(result, args, kwargs):
            # a stall is an unconverged solve that stopped before the iteration cap
            return {"iterations": result.iterations, "converged": bool(result.converged),
                    "outer": len(result.head_history),
                    "stalls": not result.converged
                    and result.iterations < kwargs.get("max_iter", cap)}

        self.patch_function(core.reduced_newton, "core.newton",
                            attrs_of=newton_attrs, name_of=self._newton_name)
        self.patch_function(core.solve_tail, "core.tail", attrs_of=_tail_attrs)
        self.patch_function(core.schur_matrix, "core.schur")
        self.patch_function(core.dedup_roots, "core.dedup", attrs_of=_dedup_attrs)
        self.patch_function(fourier.dst, "fourier.dst")
        self.patch_function(fourier.affine_coeffs, "fourier.affine_coeffs")
        self.patch_function(morse.index_schur, "morse.schur")
        self.patch_function(morse.index_full, "morse.full")
        self.patch_function(morse.index_jacobi, "morse.jacobi")
        self.patch_function(reduction.make_plan, "reduction.plan")
        self.patch_function(dirichlet.dirichlet_plan, "dirichlet.plan")
        self.patch_function(dirichlet.enumerate_modes, "dirichlet.enumerate_modes")
        self.patch_function(config.load_config, "config.load")
        self.patch_function(cli.main, "cli.main")
        self.patch_function(cli.cmd_solve, "cli.solve")
        self.patch_function(cli.cmd_index, "cli.index")
        for cls, prefix in ((core.MechanicalSystem, "core"),
                            (dirichlet.DirichletSystem, "dirichlet")):
            self.patch_method(cls, "nonlinear_coeffs", f"{prefix}.residual")
            self.patch_method(cls, "curvature_matrix", f"{prefix}.curvature")
            self.patch_method(cls, "action", "functional.action")

    def _solve_name(self, module, dim_of):
        # remembers the plan's size, so Newton solves on finer systems count as refinement
        def name_of(args, kwargs):
            self.plan = (dim_of(args), f"{module}.refine")
            return f"{module}.solve"
        return name_of

    def _newton_name(self, args, kwargs):
        if self.plan is not None and len(args[0].eigenvalues) > self.plan[0]:
            return self.plan[1]
        return "core.newton"

    # -- output -----------------------------------------------------------------
    def write(self, path):
        """Gzipped JSON lines (id, parent, round, op, name, start, end, attrs) of
        set-up and the first op set; later op sets repeat the same ops."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                if s[ROUND] <= 0:
                    fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _tail_attrs(result, args, kwargs):
    stats = result[1]
    return {"iterations": stats.iterations, "fallbacks": stats.fallbacks}


def _dedup_attrs(result, args, kwargs):
    return {"kept": len(result), "converged": sum(1 for r in args[0] if r.converged)}


# ---------------------------------------------------------------------------
# aggregation

def round_summary(spans: list[tuple], round_index: int) -> dict:
    """Calls, self time and attribute sums per span name for one round."""
    mine = [s for s in spans if s[ROUND] == round_index]
    child_time: dict[int, float] = defaultdict(float)
    tail_children: dict[int, int] = defaultdict(int)
    for s in mine:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            if s[NAME] == "core.tail":
                tail_children[s[PARENT]] += 1
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    for s in mine:
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] += 1
        total_s[name] += dur
        self_s[name] += dur - child_time[s[ID]]
        a = s[ATTRS]
        if a:
            for key, value in a.items():
                attrs[f"{name}.{key}"] += value
        if name == "core.newton":
            # each accepted step costs one line-search tail solve plus one at
            # the new iterate; every other tail solve is a halving
            outer = a["outer"]
            attrs["core.newton.halvings"] += tail_children[s[ID]] - 2 * outer + 1
    return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
            "attrs": dict(attrs)}
