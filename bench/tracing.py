"""Span tracing of plapvar's public functions, installed from outside the package.

Modules bind each other's functions by name (``from .assembly import
lp_integral``), so a wrapper is placed on every attribute of every loaded
``plapvar`` module that holds the function, not only on its home module.
Each call records a span ``[name, start, end, parent, note]`` in memory;
``write_spans`` saves them after the run and ``layer_metrics`` reduces them
to the per-layer figures.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

ASSEMBLY_KERNELS = ("dirichlet_energy", "plap_residual", "lp_integral",
                    "lp_residual", "load_vector", "values_at_quad",
                    "stiffness_matrix")
NONLINEARITY = ("eval_f", "eval_F", "eval_G")
SOLVER_TIMED = ("minimize_phi", "verify_weak_solution", "estimate_lambda_u",
                "potential_integral", "nonlinear_load")
CHECKERS = ("check_f0", "check_sign_theorem", "check_comparison_theorem",
            "check_landesman_lazer_theorem", "check_superlinear_negativity",
            "incomparability_suite")

#: module -> public functions wrapped in a traced run; span name "<module>.<fn>"
TRACED = {
    "meshing": ("build_interval_mesh", "build_rectangle_mesh"),
    "assembly": ASSEMBLY_KERNELS,
    "eigen": ("first_eigenpair", "rayleigh_quotient"),
    "solver": SOLVER_TIMED + ("assemble_phi",),
    "nonlinearity": NONLINEARITY,
    "conditions": CHECKERS,
    "cli": ("main", "run"),
}


def _mesh_elements(args, kwargs, result):
    return args[0].n_elements


def _points(args, kwargs, result):
    """x-points evaluated: x rows broadcast against the shape of s."""
    x, s = args[1], args[2]
    rows = np.shape(x)[0] if np.ndim(x) >= 2 else 1
    return math.prod(np.broadcast_shapes((rows,), np.shape(s)))


def _eigen_steps(args, kwargs, result):
    return result.iterations


def _solve_counts(args, kwargs, result):
    return (result.iterations, result.backtracks, result.starts)


def _f0_key(signature):
    """Identity of a check_f0 call; the bound arguments ride along so that
    no id() is reused while the trace is alive."""
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple((k, v if isinstance(v, (int, float, str)) else id(v))
                    for k, v in bound.arguments.items())
        return key, bound.arguments
    return note


def _notes():
    from plapvar import conditions
    notes = {f"assembly.{k}": _mesh_elements for k in ASSEMBLY_KERNELS}
    notes.update({f"nonlinearity.{k}": _points for k in NONLINEARITY})
    notes["eigen.first_eigenpair"] = _eigen_steps
    notes["solver.minimize_phi"] = _solve_counts
    notes["conditions.check_f0"] = _f0_key(inspect.signature(conditions.check_f0))
    return notes


class Tracer:
    """In-memory span recorder for one pipeline run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function wherever a plapvar module binds it.

        A function missing from the package is skipped and reads as zero calls.
        """
        import scipy.sparse.linalg

        notes = _notes()
        targets = [("factor.splu", scipy.sparse.linalg.splu)]
        for module, names in TRACED.items():
            mod = importlib.import_module(f"plapvar.{module}")
            targets += [(f"{module}.{fn}", getattr(mod, fn)) for fn in names
                        if hasattr(mod, fn)]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "plapvar" or n.startswith("plapvar.")]
        for name, original in targets:
            wrapped = self._wrap(name, original, notes.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def function_table(spans):
    """name -> {"calls", "self_s", "incl_s", "notes"} over all spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                      "notes": []})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child[i]
        if note is not None:
            row["notes"].append(note)
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer figures of one traced pipeline run: name -> (value, unit).

    Derived counts:
      eigen.trials   Rayleigh quotients evaluated minus, per first_eigenpair
                     call, one at the start, one per accepted step and one
                     in the final polish; what is left are line-search
                     trials (a stall restart would add one more).
      solver.trials  assemble_phi calls minus one start energy per descent
                     start; equals solver.steps + solver.backtracks.
      s_per_trial    inclusive solver time / trials, so that
                     steps x (trials / steps) x s_per_trial = solver time.
    """
    t = function_table(spans)

    def row(name):
        return t.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "notes": []})

    m = {}
    m["meshing.build.self_s"] = (row("meshing.build_interval_mesh")["self_s"]
                                 + row("meshing.build_rectangle_mesh")["self_s"], "s")
    elements = 0
    assembly_self = 0.0
    for k in ASSEMBLY_KERNELS:
        r = row(f"assembly.{k}")
        m[f"assembly.{k}.calls"] = (r["calls"], "count")
        m[f"assembly.{k}.self_s"] = (r["self_s"], "s")
        elements += sum(r["notes"])
        assembly_self += r["self_s"]
    m["assembly.elements_per_s"] = (_ratio(elements, assembly_self), "1/s")

    r = row("factor.splu")
    m["factor.splu.calls"] = (r["calls"], "count")
    m["factor.splu.self_s"] = (r["self_s"], "s")

    eig = row("eigen.first_eigenpair")
    steps = sum(eig["notes"])
    trials = max(row("eigen.rayleigh_quotient")["calls"] - steps - 2 * len(eig["notes"]), 0)
    m["eigen.calls"] = (eig["calls"], "count")
    m["eigen.steps"] = (steps, "count")
    m["eigen.trials"] = (trials, "count")
    m["eigen.accept_ratio"] = (_ratio(steps, trials), "ratio")
    m["eigen.s_per_trial"] = (_ratio(eig["incl_s"], trials), "s")
    m["eigen.self_s"] = (eig["self_s"] + row("eigen.rayleigh_quotient")["self_s"], "s")

    sol = row("solver.minimize_phi")
    m["solver.steps"] = (sum(n[0] for n in sol["notes"]), "count")
    m["solver.backtracks"] = (sum(n[1] for n in sol["notes"]), "count")
    s_trials = max(row("solver.assemble_phi")["calls"] - sum(n[2] for n in sol["notes"]), 0)
    m["solver.trials"] = (s_trials, "count")
    m["solver.s_per_trial"] = (_ratio(sol["incl_s"], s_trials), "s")
    for k in SOLVER_TIMED:
        m[f"solver.{k}.self_s"] = (row(f"solver.{k}")["self_s"], "s")

    for k in NONLINEARITY:
        r = row(f"nonlinearity.{k}")
        m[f"nonlinearity.{k}.calls"] = (r["calls"], "count")
        m[f"nonlinearity.{k}.points"] = (sum(r["notes"]), "count")
        m[f"nonlinearity.{k}.self_s"] = (r["self_s"], "s")

    for k in CHECKERS:
        m[f"conditions.{k}.self_s"] = (row(f"conditions.{k}")["self_s"], "s")
    f0 = row("conditions.check_f0")
    seen = set()
    repeats = 0
    for key, _ in f0["notes"]:
        repeats += key in seen
        seen.add(key)
    m["conditions.check_f0.calls"] = (f0["calls"], "count")
    m["conditions.check_f0.repeat_share"] = (_ratio(repeats, f0["calls"]), "ratio")

    m["cli.run.self_s"] = (row("cli.main")["self_s"] + row("cli.run")["self_s"], "s")
    return m
