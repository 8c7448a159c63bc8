"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``camchoi`` module from the
outside: module-level functions are replaced in every ``camchoi`` module that
imported them, and methods are replaced on their class.  Nothing under
``src/`` is edited.  Spans are kept in memory as tuples

    (span_id, name, start, end, parent_id, thread_id, info)

with parents tracked per thread, because ``paper-suite`` runs its cases on a
thread pool.  ``layer_metrics`` turns the spans of one or more passes into
the per-layer table.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int, int, object]

MODULES = (
    "expr", "jet", "symmetry", "reduction", "odes", "svgplot",
    "modelfile", "library", "report", "cli",
)

# Expr operators counted as kernel operations (expr.ops).
EXPR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__pow__", "__truediv__", "__rtruediv__",
    "diff", "subst", "subst_func", "collect",
)

# Public module-level functions wrapped per layer.
FUNCTIONS = {
    "jet": ("total_derivative", "on_manifold", "expand_pde"),
    "symmetry": ("prolong", "apply_prolonged", "check_symmetry", "determining_equations",
                 "commutator", "field_lincomb", "decompose_field", "closure_table",
                 "solve_linear_exprs"),
    "reduction": ("pullback", "compare_reduced", "check_first_integral", "verify_closed_form",
                  "invariants_for", "compose_ansatz", "jacobian_rank_ok"),
    "odes": ("compile_rhs", "integrate", "write_csv", "read_csv"),
    "svgplot": ("write_svg",),
    "modelfile": ("parse_model", "print_model", "tokenize"),
    "library": ("load_builtin", "fig1_trajectory"),
    "cli": ("main",),
}


def _expr_size(result) -> int:
    """Largest term count of an operator's result (a dict of them for collect)."""
    if isinstance(result, dict):
        return max((len(v.terms) for v in result.values()), default=0)
    return len(getattr(result, "terms", ()))


# Extra facts recorded with a span, taken from the call's result.
_INFO = {
    ("symmetry", "determining_equations"): lambda r: len(r.equations),
    ("odes", "integrate"): lambda r: (r.accepted, r.rejected),
}

# Public methods wrapped besides the Expr operators: (layer, class, method).
METHODS = {
    ("symmetry", "DeterminingSystem", "substitute_solution"): None,
    ("report", "Report", "machine_text"): lambda r: len(r.encode("utf-8")),
    ("report", "Report", "human_text"): None,
}


class Tracer:
    """Records spans around the public camchoi API while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._rhs_evals: Dict[int, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn: Callable, name: str, info: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, get_ident(), extra))

        traced.__wrapped__ = fn
        return traced

    def rhs_evals(self) -> int:
        return sum(self._rhs_evals.values())

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        del self.spans[:]
        return out

    # -- installing -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            return
        mods = {m: importlib.import_module("camchoi." + m) for m in MODULES}
        pkg = importlib.import_module("camchoi")
        expr = mods["expr"]
        for op in EXPR_OPS:
            self._set(expr.Expr, op, self.wrap(getattr(expr.Expr, op), "expr." + op.strip("_"),
                                               _expr_size))

        replaced = {}
        for layer, names in FUNCTIONS.items():
            for nm in names:
                orig = getattr(mods[layer], nm)
                replaced[id(orig)] = (orig, self.wrap(orig, "%s.%s" % (layer, nm),
                                                      _INFO.get((layer, nm))))
        # "from .x import f" binds f into the importing module as well
        for mod in list(mods.values()) + [pkg]:
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

        for (layer, cls, meth), info in METHODS.items():
            owner = getattr(mods[layer], cls)
            self._set(owner, meth, self.wrap(getattr(owner, meth), "%s.%s" % (layer, meth), info))
        self._install_compiled(mods["odes"].OdeSystem)
        self._install_cases(mods, pkg)

    def _install_compiled(self, ode_system) -> None:
        """Count right-hand-side evaluations and time code generation."""
        orig = ode_system.compiled
        counts = self._rhs_evals
        codegen = self.wrap(orig, "odes.codegen")

        def compiled(sys_):
            fn = codegen(sys_) if sys_._fn is None else orig(sys_)

            def counted(*args):
                counts[threading.get_ident()] += 1
                return fn(*args)

            return counted

        self._set(ode_system, "compiled", compiled)

    def _install_cases(self, mods, pkg) -> None:
        """Give each built-in case its own span, labelled with the case name."""
        library = mods["library"]
        orig = library.build_cases
        wrap = self.wrap

        def build_cases():
            cases = orig()
            for case in cases:
                case.run = wrap(case.run, "library.case:" + case.label, lambda r: r.verdict)
            return cases

        for mod in list(mods.values()) + [pkg]:
            if getattr(mod, "build_cases", None) is orig:
                self._set(mod, "build_cases", build_cases)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# -- aggregation ------------------------------------------------------------------

# The per-layer table in report order: (name, unit, better).  Times and
# counts are per pass; modelfile.* is per process set-up.
PER_LAYER = [(name, unit, better) for names, unit, better in (
    (["expr.ops"], "count", "lower"),
    (["expr.self_s"], "s", "lower"),
    (["expr.max_terms"], "count", "lower"),
    (["jet.total_derivative_calls"], "count", "lower"),
    (["jet.total_derivative_s", "jet.on_manifold_s", "jet.self_s"], "s", "lower"),
    (["symmetry.prolong_s", "symmetry.check_symmetry_s", "symmetry.determining_s"], "s", "lower"),
    (["symmetry.determining_eqs"], "count", "lower"),
    (["symmetry.commutator_s", "symmetry.closure_s", "symmetry.self_s"], "s", "lower"),
    (["reduction.pullback_s", "reduction.compare_s", "reduction.first_integral_s",
      "reduction.closed_form_s", "reduction.self_s"], "s", "lower"),
    (["odes.compile_s", "odes.integrate_s", "odes.self_s"], "s", "lower"),
    (["odes.rhs_evals", "odes.steps_accepted", "odes.steps_rejected"], "count", "lower"),
    (["odes.accept_ratio"], "ratio", "higher"),
    (["odes.steps_per_s"], "1/s", "higher"),
    (["modelfile.parse_s", "modelfile.print_s", "modelfile.self_s"], "s", "lower"),
    (["library.case_sum_s", "library.case_s.sec3-determining", "library.case_s.fig-1",
      "library.self_s"], "s", "lower"),
    (["library.cases_failed"], "count", "lower"),
    (["cli.suite_s"], "s", "lower"),
    (["cli.pool_efficiency"], "ratio", "higher"),
    (["report.render_s"], "s", "lower"),
    (["report.bytes"], "B", "lower"),
    (["svgplot.write_s"], "s", "lower"),
    (["trace.overhead_s"], "s", "lower"),
    (["trace.overhead_ratio"], "ratio", "lower"),
    (["trace.spans"], "count", "lower"),
) for name in names]

# metric name -> span name whose outermost calls are summed
INCLUSIVE = {
    "jet.total_derivative_s": "jet.total_derivative",
    "jet.on_manifold_s": "jet.on_manifold",
    "symmetry.prolong_s": "symmetry.prolong",
    "symmetry.check_symmetry_s": "symmetry.check_symmetry",
    "symmetry.determining_s": "symmetry.determining_equations",
    "symmetry.commutator_s": "symmetry.commutator",
    "symmetry.closure_s": "symmetry.closure_table",
    "reduction.pullback_s": "reduction.pullback",
    "reduction.compare_s": "reduction.compare_reduced",
    "reduction.first_integral_s": "reduction.check_first_integral",
    "reduction.closed_form_s": "reduction.verify_closed_form",
    "odes.codegen_s": "odes.codegen",
    "odes.integrate_all_s": "odes.integrate",
    "odes.compile_rhs_s": "odes.compile_rhs",
    "modelfile.parse_s": "modelfile.parse_model",
    "modelfile.print_s": "modelfile.print_model",
    "library.case_sum_s": "library.case",
    "report.render_s": "report.",
    "svgplot.write_s": "svgplot.write_svg",
}

CASES_REPORTED = ("sec3-determining", "fig-1")


def _outermost(by_name: Dict[str, List[Span]], prefix: str, by_id: Dict[int, Span]) -> float:
    """Summed duration of spans named ``prefix*`` that have no such ancestor."""
    total = 0.0
    matching = [sp for name, group in by_name.items() if name.startswith(prefix) for sp in group]
    for sp in matching:
        p = sp[4]
        nested = False
        while p >= 0:
            anc = by_id[p]
            if anc[1].startswith(prefix):
                nested = True
                break
            p = anc[4]
        if not nested:
            total += sp[3] - sp[2]
    return total


def layer_metrics(passes: Sequence[Sequence[Span]], rhs_evals: int) -> Dict[str, float]:
    """Per-pass means of every per-layer metric over the given passes.

    Counts are exact sums divided by the number of passes; ratios are taken
    from the summed numerators and denominators.
    """
    npass = max(1, len(passes))
    tot: Dict[str, float] = defaultdict(float)
    max_terms = 0
    for spans in passes:
        by_id = {sp[0]: sp for sp in spans}
        by_name: Dict[str, List[Span]] = defaultdict(list)
        child = defaultdict(float)
        for sp in spans:
            by_name[sp[1]].append(sp)
            if sp[4] >= 0:
                child[sp[4]] += sp[3] - sp[2]
        case_start, case_end = None, None
        for sp in spans:
            sid, name, start, end, _parent, _tid, info = sp
            layer = name.split(".", 1)[0]
            tot[layer + ".self_s"] += (end - start) - child[sid]
            if layer == "expr":
                tot["expr.ops"] += 1
                max_terms = max(max_terms, info or 0)
            elif name == "jet.total_derivative":
                tot["jet.total_derivative_calls"] += 1
            elif name.startswith("library.case:"):
                # info is the verdict, or None when the case raised
                if info not in ("pass", "mismatch-recorded", "unsupported"):
                    tot["library.cases_failed"] += 1
                label = name.split(":", 1)[1]
                if label in CASES_REPORTED:
                    tot["library.case_s." + label] += end - start
                case_start = start if case_start is None else min(case_start, start)
                case_end = end if case_end is None else max(case_end, end)
            elif info is None:
                continue
            elif name == "symmetry.determining_equations":
                tot["symmetry.determining_eqs"] += info
            elif name == "odes.integrate":
                tot["odes.steps_accepted"] += info[0]
                tot["odes.steps_rejected"] += info[1]
            elif name == "report.machine_text":
                tot["report.bytes"] += info
        for metric, prefix in INCLUSIVE.items():
            tot[metric] += _outermost(by_name, prefix, by_id)
        if case_start is not None:
            tot["cli.suite_s"] += case_end - case_start

    out = {k: v / npass for k, v in tot.items()}
    out["expr.max_terms"] = float(max_terms)
    out["odes.rhs_evals"] = rhs_evals / npass
    # compile = symbolic solve plus code generation; integrate = stepping only
    out["odes.compile_s"] = out.get("odes.compile_rhs_s", 0.0) + out.get("odes.codegen_s", 0.0)
    out["odes.integrate_s"] = out.get("odes.integrate_all_s", 0.0) - out.get("odes.codegen_s", 0.0)
    steps = tot["odes.steps_accepted"] + tot["odes.steps_rejected"]
    out["odes.accept_ratio"] = tot["odes.steps_accepted"] / steps if steps else 0.0
    stepping = out["odes.integrate_s"] * npass
    out["odes.steps_per_s"] = tot["odes.steps_accepted"] / stepping if stepping > 0 else 0.0
    suite = tot["cli.suite_s"]
    out["cli.pool_efficiency"] = tot["library.case_sum_s"] / suite if suite > 0 else 0.0
    return out
