"""Command-line surface: symmetry checks, commutators, closure, determining
systems, reductions, first integrals, solution checks, integration, the
three-curve figure, and the consolidated verification suite."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .expr import ExprError
from .library import (
    CaseResult,
    FIG1_RUNS,
    LedgerEntry,
    build_cases,
    fig1_trajectory,
    load_builtin,
    observe_closed_form,
    observe_first_integral,
    observe_reduction,
    observe_symmetry,
    run_case,
)
from .modelfile import FieldBlock, ModelDocument, ModelLookupError, OdeBlock, PdeBlock, ParseError, parse_model
from .odes import METHODS, IntegratorConfig, compile_rhs, integrate, write_csv
from .report import Report
from .svgplot import write_svg
from .symmetry import closure_table, commutator, determining_equations


def _load_model(spec: str) -> ModelDocument:
    """The built-in catalogue or the model file at spec; a byte that is not
    UTF-8 is reported at its line and column, as a parse error is."""
    if spec == "builtin":
        return load_builtin()
    with open(spec, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start]
        col = len(head[head.rfind(b"\n") + 1 :].decode("utf-8")) + 1
        raise UsageError("%s: %s" % (spec, ParseError("not UTF-8", head.count(b"\n") + 1, col))) from None
    return parse_model(text)


class UsageError(Exception):
    """A malformed command-line item, reported on one line with exit 2."""


def _declared(doc: ModelDocument, name: str):
    if name not in doc.params:
        raise ValueError("%r is not a declared parameter" % name)
    return doc.params[name]


def _assignments(doc: ModelDocument, items, option: str, value) -> list:
    """(declared parameter, value(text)) for each NAME=TEXT item of option;
    a name may be given once."""
    out = []
    for item in items or []:
        name, eq, text = (s.strip() for s in item.partition("="))
        try:
            if not eq:
                raise ValueError("expected NAME=VALUE")
            p = _declared(doc, name)
            if any(p is q for q, _v in out):
                raise ValueError("%s given twice" % name)
            out.append((p, value(text)))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError("%s %s: %s" % (option, item, e)) from None
    return out


def _report(args, results, extra: str = "") -> int:
    """Print the report of results, then extra, and write it to --json;
    exit 1 when a result fails.  The --json file is opened first, so a path
    that cannot be written prints nothing to stdout."""
    rep = Report(args.command)
    for r in results:
        rep.add(r)
    with open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext() as fh:
        sys.stdout.write(rep.human_text() + extra)
        if fh:
            fh.write(rep.machine_text())
    return 1 if rep.failed else 0


def _cmd_check_symmetry(args) -> int:
    label = "%s on %s" % (args.field, args.pde)
    result = observe_symmetry(_load_model(args.model), label, [(args.field, args.pde)])
    residual = result.detail["residuals"][label]
    return _report(args, [result], "" if result.verdict == "pass" else "residual: %s\n" % residual)


def _cmd_commutators(args) -> int:
    if len(args.fields) < 2:
        raise UsageError("commutators needs at least two fields")
    doc = _load_model(args.model)
    named = [(nm, doc.block(FieldBlock, nm).vf) for nm in args.fields]
    return _report(args, [CaseResult("[%s,%s]" % (a, b), "commutators", "pass", {"bracket": str(commutator(X, Y))})
                          for (a, X), (b, Y) in itertools.combinations(named, 2)])


def _cmd_closure(args) -> int:
    doc = _load_model(args.model)
    table = closure_table([doc.block(FieldBlock, nm).vf for nm in args.fields])
    detail = {}
    for (i, j), (Z, dec) in sorted(table.table.items()):
        key = "[%s,%s]" % (args.fields[i], args.fields[j])
        detail[key] = dec.coefficient_strings() if dec.ok else "not decomposable: " + str(Z)
    ledger = [LedgerEntry("[%s,%s]" % (args.fields[i], args.fields[j]), "", str(Z), "", "outside the span")
              for i, j, Z in table.witnesses]
    return _report(args, [CaseResult("closure", "closure", "pass" if table.closed else "mismatch-recorded",
                                     {"closed": table.closed, "table": detail}, ledger)])


def _cmd_determining(args) -> int:
    doc = _load_model(args.model)
    equations = [str(e) for e in determining_equations(doc.block(PdeBlock, args.pde).pde).equations]
    return _report(args, [CaseResult(args.pde, "determining", "pass", {"equations": equations})],
                   "".join("  %s = 0\n" % e for e in equations))


def _cmd_reduce(args) -> int:
    if args.identify and not args.printed:
        raise UsageError("--identify needs --printed")
    doc = _load_model(args.model)
    identify = [(a.name, b.name) for a, b in
                _assignments(doc, args.identify, "--identify", lambda s: _declared(doc, s))]
    result = observe_reduction(doc, "%s under %s" % (args.pde, args.ansatz), args.pde, args.ansatz,
                               args.printed, identify)
    extra = "reduced: %s\n" % result.detail["derived"]
    if args.printed:
        extra += "verdict vs %s: %s\n" % (args.printed, result.detail["verdict vs printed"])
    return _report(args, [result], extra)


def _cmd_first_integral(args) -> int:
    label = "%s integrates %s" % (args.candidate, args.equation)
    return _report(args, [observe_first_integral(_load_model(args.model), label, args.equation, args.candidate)])


def _cmd_solution_check(args) -> int:
    label = "%s into %s" % (args.solution, args.equation)
    return _report(args, [observe_closed_form(_load_model(args.model), label, args.equation, args.solution)])


def _cmd_integrate(args) -> int:
    doc = _load_model(args.model)
    blk = doc.block(OdeBlock, args.ode)
    params = dict(_assignments(doc, args.param, "--param", Fraction))
    sys_ = compile_rhs(blk.ctx, blk.lhs, params, name=args.ode)
    cfg = IntegratorConfig(
        method=args.method,
        abs_tol=args.tol,
        rel_tol=args.tol,
        step=args.step,
        span=(args.span[0], args.span[1]),
    )
    traj = integrate(sys_, args.ic, cfg)
    names = [blk.ctx.independents[0].name, blk.ctx.dependent.name]
    for k in range(1, sys_.order):
        names.append(blk.ctx.dependent.name + "p" * k)
    if args.csv:
        write_csv(traj, args.csv, names)
    if args.svg:
        write_svg([traj], ["red"], args.svg, labels=[args.ode])
    sys.stdout.write(_endpoint_line(args.ode, traj))
    return 1 if traj.flag else 0


def _endpoint_line(name: str, traj) -> str:
    t, y = traj.endpoint()
    flag = " [%s]" % traj.flag if traj.flag else ""
    return "%s: %d samples, endpoint %g -> %s%s\n" % (name, traj.count, t, ", ".join("%.12g" % v for v in y), flag)


def _cmd_fig1(args) -> int:
    doc = _load_model("builtin")
    os.makedirs(args.out, exist_ok=True)
    trajs = []
    colors = []
    labels = []
    for rn in FIG1_RUNS:
        span = tuple(args.span) if args.span else None
        sys_, traj, color = fig1_trajectory(doc, rn, grouping=args.grouping, span=span)
        trajs.append(traj)
        colors.append(color)
        labels.append(rn.replace("fig1", ""))
        names = [sys_.ctx.independents[0].name, sys_.ctx.dependent.name, sys_.ctx.dependent.name + "p"]
        write_csv(traj, os.path.join(args.out, "fig1_%s.csv" % rn[-2:]), names)
    svg_path = os.path.join(args.out, "fig1.svg")
    write_svg(trajs, colors, svg_path, labels=labels,
              description="damping-factor grouping: %s" % args.grouping)
    flagged = [_endpoint_line(rn, traj) for rn, traj in zip(FIG1_RUNS, trajs) if traj.flag]
    sys.stdout.write("wrote %s and %d CSV files (grouping: %s)\n" % (svg_path, len(trajs), args.grouping)
                     + "".join(flagged))
    return 1 if flagged else 0


def _cmd_paper_suite(args) -> int:
    doc = _load_model("builtin")
    return _report(args, [run_case(c, doc) for c in build_cases()])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="camchoi",
        description="Symbolic verification and reduction toolkit for the "
        "Camassa-Choi equation and its power-law generalization.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, report=True, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        if report:
            sp.add_argument("--json", help="write the machine-readable report here")
        return sp

    sp = add("check-symmetry", _cmd_check_symmetry, help="symmetry residual of a field on a pde")
    sp.add_argument("model")
    sp.add_argument("field")
    sp.add_argument("pde")

    sp = add("commutators", _cmd_commutators, help="pairwise commutators of fields")
    sp.add_argument("model")
    sp.add_argument("fields", nargs="+")

    sp = add("closure", _cmd_closure, help="closure analysis over a basis of fields")
    sp.add_argument("model")
    sp.add_argument("fields", nargs="+")

    sp = add("determining", _cmd_determining, help="determining equations of a pde")
    sp.add_argument("model")
    sp.add_argument("pde")

    sp = add("reduce", _cmd_reduce, help="pull a pde back under an ansatz")
    sp.add_argument("model")
    sp.add_argument("pde")
    sp.add_argument("ansatz")
    sp.add_argument("--printed", help="compare against this catalogued equation")
    sp.add_argument("--identify", action="append", metavar="A=B",
                    help="parameter identification applied before comparing")

    sp = add("first-integral", _cmd_first_integral, help="check a quadrature candidate")
    sp.add_argument("model")
    sp.add_argument("equation")
    sp.add_argument("candidate")

    sp = add("solution-check", _cmd_solution_check, help="substitute a closed form")
    sp.add_argument("model")
    sp.add_argument("equation")
    sp.add_argument("solution")

    sp = add("integrate", _cmd_integrate, report=False, help="integrate an ode block")
    sp.add_argument("model")
    sp.add_argument("ode")
    sp.add_argument("--ic", type=float, nargs="+", required=True)
    sp.add_argument("--span", type=float, nargs=2, required=True)
    sp.add_argument("--method", default="adaptive-rk45", choices=METHODS)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--csv")
    sp.add_argument("--svg")

    sp = add("fig1", _cmd_fig1, report=False, help="reproduce the three-curve figure")
    sp.add_argument("--out", default="fig1-out")
    sp.add_argument("--grouping", default="default", choices=["default", "alt"])
    sp.add_argument("--span", type=float, nargs=2)

    add("paper-suite", _cmd_paper_suite,
        help="run every built-in check and write one consolidated report")

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    # JetError, OdeError and ReductionError are ExprErrors
    except (ParseError, ModelLookupError, UsageError, OSError, ExprError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
