"""Command-line surface: symmetry checks, commutators, closure, determining
systems, reductions, first integrals, solution checks, integration, the
three-curve figure, and the consolidated verification suite."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import List, Optional

from .expr import Expr, ExprError
from .library import (
    CaseResult,
    FIG1_RUNS,
    LedgerEntry,
    build_cases,
    fig1_trajectory,
    load_builtin,
    run_case,
)
from .modelfile import (
    AnsatzBlock,
    FieldBlock,
    IntegralBlock,
    ModelDocument,
    OdeBlock,
    PdeBlock,
    ParseError,
    SolutionBlock,
    parse_model,
)
from .odes import IntegratorConfig, OdeError, compile_rhs, integrate, write_csv
from .report import Report
from .reduction import (
    ReductionError,
    check_first_integral,
    compare_reduced,
    pullback,
    verify_closed_form,
)
from .svgplot import write_svg
from .symmetry import check_symmetry, closure_table, commutator, determining_equations


def _load_model(spec: str) -> ModelDocument:
    if spec == "builtin":
        return load_builtin()
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _print_report(rep: Report, json_path: Optional[str]) -> int:
    sys.stdout.write(rep.human_text())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(rep.machine_text())
    return 1 if rep.failed else 0


def _cmd_check_symmetry(args) -> int:
    doc = _load_model(args.model)
    field = doc.block(FieldBlock, args.field).vf
    pde = doc.block(PdeBlock, args.pde).pde
    residual = check_symmetry(field, pde)
    rep = Report("check-symmetry")
    verdict = "pass" if residual.is_zero else "fail"
    rep.add(CaseResult("%s on %s" % (args.field, args.pde), "symmetry", verdict,
                       {"residual": str(residual)}))
    code = _print_report(rep, args.json)
    if not residual.is_zero:
        sys.stdout.write("residual: %s\n" % residual)
    return code


def _cmd_commutators(args) -> int:
    doc = _load_model(args.model)
    fields = [doc.block(FieldBlock, nm).vf for nm in args.fields]
    rep = Report("commutators")
    for i, X in enumerate(fields):
        for j, Y in enumerate(fields):
            if j <= i:
                continue
            Z = commutator(X, Y)
            rep.add(CaseResult("[%s,%s]" % (args.fields[i], args.fields[j]), "commutators",
                               "pass", {"bracket": str(Z)}))
    return _print_report(rep, args.json)


def _cmd_closure(args) -> int:
    doc = _load_model(args.model)
    fields = [doc.block(FieldBlock, nm).vf for nm in args.fields]
    table = closure_table(fields)
    rep = Report("closure")
    detail = {}
    for (i, j), (Z, dec) in sorted(table.table.items()):
        key = "[%s,%s]" % (args.fields[i], args.fields[j])
        if dec.ok:
            detail[key] = dec.coefficient_strings()
        else:
            detail[key] = "not decomposable: " + str(Z)
    ledger = [LedgerEntry("closure", "[%s,%s]" % (args.fields[i], args.fields[j]),
                          "", str(Z), "", "outside the span")
              for i, j, Z in table.witnesses]
    rep.add(CaseResult("closure", "closure", "pass" if table.closed else "mismatch-recorded",
                       {"closed": table.closed, "table": detail}, ledger))
    return _print_report(rep, args.json)


def _cmd_determining(args) -> int:
    doc = _load_model(args.model)
    pde = doc.block(PdeBlock, args.pde).pde
    det = determining_equations(pde)
    rep = Report("determining")
    rep.add(CaseResult(args.pde, "determining", "pass",
                       {"equations": [str(e) for e in det.equations]}))
    code = _print_report(rep, args.json)
    for e in det.equations:
        sys.stdout.write("  %s = 0\n" % e)
    return code


def _cmd_reduce(args) -> int:
    doc = _load_model(args.model)
    pde = doc.block(PdeBlock, args.pde).pde
    ansatz = doc.block(AnsatzBlock, args.ansatz).ansatz
    red = pullback(pde, ansatz)
    rep = Report("reduce")
    detail = {"reduced": str(red.lhs)}
    ledger = []
    verdict = "pass"
    if args.printed:
        printed = doc.equation_of(doc.find(args.printed))
        subs = []
        for item in args.identify or []:
            lhs_name, _, rhs_name = item.partition("=")
            subs.append((doc.params[lhs_name.strip()], Expr.atom(doc.params[rhs_name.strip()])))
        cmp_rep = compare_reduced(red, printed, substitutions=subs or None)
        detail["verdict vs %s" % args.printed] = cmp_rep.verdict
        if cmp_rep.verdict == "mismatch":
            verdict = "mismatch-recorded"
            ledger.append(LedgerEntry("reduce", "%s under %s" % (args.pde, args.ansatz),
                                      str(printed.lhs), str(red.lhs), str(cmp_rep.residual), ""))
    rep.add(CaseResult("%s under %s" % (args.pde, args.ansatz), "reduction", verdict, detail, ledger))
    code = _print_report(rep, args.json)
    for key, val in detail.items():
        sys.stdout.write("%s: %s\n" % (key, val))
    return code


def _cmd_first_integral(args) -> int:
    doc = _load_model(args.model)
    eq = doc.equation_of(doc.find(args.equation))
    fi = doc.block(IntegralBlock, args.candidate).candidate
    residual = check_first_integral(eq, fi)
    rep = Report("first-integral")
    if residual.is_zero:
        rep.add(CaseResult("%s integrates %s" % (args.candidate, args.equation),
                           "first-integral", "pass", {"residual": "0"}))
    else:
        entry = LedgerEntry("first-integral", "d(%s) against %s" % (args.candidate, args.equation),
                            args.candidate, args.equation, str(residual), "")
        rep.add(CaseResult("%s integrates %s" % (args.candidate, args.equation),
                           "first-integral", "mismatch-recorded",
                           {"residual": str(residual)}, [entry]))
    return _print_report(rep, args.json)


def _cmd_solution_check(args) -> int:
    doc = _load_model(args.model)
    eq = doc.equation_of(doc.find(args.equation))
    blk = doc.block(SolutionBlock, args.solution)
    residual, constraints = verify_closed_form(eq, blk.sol, blk.rules, blk.bindings)
    rep = Report("solution-check")
    detail = {"residual": str(residual)}
    if constraints and not residual.is_zero:
        detail["constraints"] = {str(k): str(v) for k, v in constraints.items()}
    verdict = "pass" if residual.is_zero else "mismatch-recorded"
    rep.add(CaseResult("%s into %s" % (args.solution, args.equation), "solution", verdict, detail))
    return _print_report(rep, args.json)


def _cmd_integrate(args) -> int:
    doc = _load_model(args.model)
    blk = doc.block(OdeBlock, args.ode)
    params = {}
    for item in args.param or []:
        name, _, val = item.partition("=")
        params[doc.params[name.strip()]] = Fraction(val.strip())
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
    for k in range(1, sys_.dimension):
        names.append(blk.ctx.dependent.name + "p" * k)
    if args.csv:
        write_csv(traj, args.csv, names)
    if args.svg:
        write_svg([traj], ["red"], args.svg, labels=[args.ode])
    end = traj.endpoint()
    sys.stdout.write("%s: %d samples, endpoint %s -> %s%s\n" % (
        args.ode, len(traj.samples), "%g" % end[0],
        ", ".join("%.12g" % v for v in end[1]),
        " [%s]" % traj.flag if traj.flag else "",
    ))
    return 1 if traj.flag else 0


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
    sys.stdout.write("wrote %s and %d CSV files (grouping: %s)\n" % (svg_path, len(trajs), args.grouping))
    return 0


def _cmd_paper_suite(args) -> int:
    doc = _load_model("builtin")
    cases = build_cases()
    rep = Report("paper-suite")
    if args.serial:
        results = [run_case(c, doc) for c in cases]
    else:
        with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
            results = list(pool.map(lambda c: run_case(c, doc), cases))
    for r in results:
        rep.add(r)
    return _print_report(rep, args.json)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="camchoi",
        description="Symbolic verification and reduction toolkit for the "
        "Camassa-Choi equation and its power-law generalization.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
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

    sp = add("integrate", _cmd_integrate, help="integrate an ode block")
    sp.add_argument("model")
    sp.add_argument("ode")
    sp.add_argument("--ic", type=float, nargs="+", required=True)
    sp.add_argument("--span", type=float, nargs=2, required=True)
    sp.add_argument("--method", default="adaptive-rk45",
                    choices=["adaptive-rk45", "fixed-rk4"])
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--csv")
    sp.add_argument("--svg")

    sp = add("fig1", _cmd_fig1, help="reproduce the three-curve figure")
    sp.add_argument("--out", default="fig1-out")
    sp.add_argument("--grouping", default="default", choices=["default", "alt"])
    sp.add_argument("--span", type=float, nargs=2)

    sp = add("paper-suite", _cmd_paper_suite,
             help="run every built-in check and write one consolidated report")
    sp.add_argument("--serial", action="store_true", help="disable the thread pool")

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, KeyError, FileNotFoundError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except (ExprError, OdeError, ReductionError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
