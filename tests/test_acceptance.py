"""Acceptance criteria, one test per criterion, each printing a PASS line.

Symbolic checks are exact (structural zero); numeric checks carry the stated
tolerances.  Catalogued-formula discrepancies are recorded findings and must
appear in the discrepancy ledger, never as failures.
"""

import json
import time
from fractions import Fraction

from camchoi.cli import main
from camchoi.expr import EXP_N, Exponent, Expr, Func, N_SYMBOL, ONE
from camchoi.library import FIG1_RUNS, fig1_trajectory
from camchoi.modelfile import AnsatzBlock, FieldBlock, IntegralBlock, PdeBlock, SolutionBlock
from camchoi.odes import IntegratorConfig, compile_rhs, integrate
from camchoi.reduction import check_first_integral, compare_reduced, pullback, verify_closed_form
from camchoi.symmetry import check_symmetry, closure_table, determining_equations


def _announce(num, title, ok):
    print("CRITERION %d (%s): %s" % (num, title, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_symmetry_verification(doc):
    started = time.time()
    checks = [
        ("X1", "cc"), ("X2", "cc"), ("X3", "cc"), ("X4", "cc"),
        ("X1p", "cc"), ("X2p", "cc"), ("X3p", "cc"), ("X4p", "cc"),
        ("X5p", "cc"), ("X6p", "cc"), ("X5", "cc"),
        ("Z1", "cc19"), ("Z2", "cc19"), ("Z3", "cc19"), ("Z4", "cc19"),
        ("Zb1", "eq33"), ("Zb2", "eq33"),
        ("Zb1d", "eq33d"), ("Zb2d", "eq33d"), ("Zb3", "eq33d"),
    ]
    ok = True
    for fname, pname in checks:
        pde = doc.block(PdeBlock, pname).pde
        ok = ok and check_symmetry(doc.block(FieldBlock, fname).vf, pde).is_zero
    gcc = doc.block(PdeBlock, "gcc").pde
    gcc0 = gcc.with_parameter(doc.params["alpha"], 0)
    for fname in ("Y1f", "Y2f", "Y3f", "Y4f", "Y5f"):
        ok = ok and check_symmetry(doc.block(FieldBlock, fname).vf, gcc0).is_zero
    for fname in ("Y1f", "Yb2f", "Y3f", "Y4f", "Y5f"):
        ok = ok and check_symmetry(doc.block(FieldBlock, fname).vf, gcc).is_zero
    elapsed = time.time() - started
    ok = ok and elapsed < 5.0
    _announce(1, "symmetry verification, exact zeros in %.2fs" % elapsed, ok)


def test_criterion_2_commutator_tables(doc, case_results):
    table_labels = ["cc.05", "cc.06", "cc.07", "cc.09", "cc.10",
                    "cc.12", "cc.13", "cc.14", "table-1", "table-2"]
    ok = True
    for label in table_labels:
        r = case_results[label]
        ok = ok and r.verdict in ("pass", "mismatch-recorded")
    # the catalogued anomalies land in the ledger, pinned here
    anomalies = {label: [e.subject for e in case_results[label].ledger]
                 for label in table_labels if case_results[label].ledger}
    expected = {
        "cc.06": ["[X2,X4]"],
        "cc.10": ["[X2p,X4p]"],
        "cc.12": ["[X1p,X6p_printed]", "[X2p,X5p]"],
        "cc.14": ["[X4p,X6p]"],
        "table-1": ["[X2p,X4p]", "[X4p,X2p]"],
    }
    ok = ok and {k: sorted(v) for k, v in anomalies.items()} == expected
    ok = ok and case_results["table-2"].verdict == "pass"
    _announce(2, "commutator tables with recorded anomalies", ok)


def test_criterion_3_closure(doc):
    started = time.time()
    five = closure_table([doc.block(FieldBlock, nm).vf for nm in ("X1", "X2", "X3p", "X4p", "X5")])
    rational = all(
        (num.is_zero or num.is_rational()) and den.is_rational()
        for (_z, dec) in five.table.values()
        for num, den in (dec.coefficients or [])
    )
    six_names = ("X1p", "X2p", "X3p", "X4p", "X5p", "X6p")
    six = closure_table([doc.block(FieldBlock, nm).vf for nm in six_names])
    witnesses = {(six_names[i], six_names[j]) for i, j, _ in six.witnesses}
    elapsed = time.time() - started
    ok = five.closed and rational and (not six.closed) and ("X2p", "X5p") in witnesses
    ok = ok and elapsed < 1.0
    _announce(3, "closure analysis in %.2fs" % elapsed, ok)


def test_criterion_4_determining_equations(doc):
    started = time.time()
    cc = doc.block(PdeBlock, "cc").pde
    det = determining_equations(cc)
    ctx = cc.ctx
    t, x, y = ctx.independents
    u = ctx.dependent
    T, X_, Y_ = (Expr.atom(s) for s in (t, x, y))
    A = Expr.atom(doc.params["alpha"])
    C1, C2, C3, C4 = (Expr.atom(doc.params["c%d" % i]) for i in (1, 2, 3, 4))
    half = Expr.rational(Fraction(1, 2))
    phi = Expr.atom(Func("phi", (t,)))
    psi = Expr.atom(Func("psi", (t,)))
    rules = {
        "xi_t": C1 + 2 * C2 * T,
        "xi_x": C2 * X_ + C3 * phi - half * C4 * psi.diff(t) * Y_,
        "xi_y": Expr.rational(Fraction(3, 2)) * C2 * Y_ + C4 * psi,
        "eta": C2 * (A - Expr.atom(u)) - C3 * phi.diff(t) + half * C4 * psi.diff(t).diff(t) * Y_,
    }
    annihilated = all(v.is_zero for v in det.substitute_solution(rules))
    args = tuple(ctx.independents) + (u,)
    xtu = Expr.atom(Func("xi_t", args, (0, 0, 0, 1))).content_normalized()
    has_xtu = any(eq.content_normalized() == xtu for eq in det.equations)
    elapsed = time.time() - started
    ok = annihilated and has_xtu and elapsed < 10.0
    _announce(4, "determining equations in %.2fs" % elapsed, ok)


def test_criterion_5_reductions(doc, case_results):
    # hand-derived oracles, constructed independently of the pullback engine
    red19 = pullback(doc.block(PdeBlock, "cc").pde, doc.block(AnsatzBlock, "cc18").ansatz)
    r = red19.ctx
    U = Expr.atom(r.dependent)
    alpha = Expr.atom(doc.params["alpha"])
    hand19 = (r.jet_expr((0, 3)) + r.jet_expr((1, 1)) + r.jet_expr((0, 1)) ** 2
              + (U - 1 - alpha) * r.jet_expr((0, 2)))
    ok = red19.lhs == hand19.content_normalized()

    red33 = pullback(doc.block(PdeBlock, "gcc").pde, doc.block(AnsatzBlock, "gccw").ansatz)
    g = red33.ctx
    Ug = Expr.atom(g.dependent)
    beta = Expr.atom(doc.params["beta"])
    n = Expr.atom(N_SYMBOL)
    hand33 = (beta * g.jet_expr((0, 3)) + g.jet_expr((1, 1))
              - n * Ug.pow_exponent(Exponent(-2, 1)) * g.jet_expr((0, 1)) ** 2
              + (1 + alpha - Ug.pow_exponent(EXP_N)) * g.jet_expr((0, 2)))
    ok = ok and red33.lhs == hand33.content_normalized()

    # comparisons against the catalogued reduced equations emit verdicts
    cmp19 = compare_reduced(red19, doc.equation_of(doc.find("cc19")),
                            substitutions=[(doc.params["h0"], alpha)])
    cmp33 = compare_reduced(red33, doc.equation_of(doc.find("eq33")),
                            substitutions=[(doc.params["h0"], alpha)])
    ok = ok and cmp19.verdict == "under-substitution"
    ok = ok and cmp33.verdict == "mismatch" and not cmp33.residual.is_zero
    ok = ok and case_results["cc.19"].verdict == "pass"
    ok = ok and bool(case_results["cc.19"].ledger)
    ok = ok and case_results["eq.33"].verdict == "mismatch-recorded"
    ok = ok and bool(case_results["eq.33"].ledger)

    # chained travel-wave reduction equals the direct one
    ok = ok and case_results["chain"].verdict == "pass"
    _announce(5, "reductions against hand oracles and catalogued forms", ok)


def test_criterion_6_first_integrals_and_closed_forms(doc, case_results):
    import random

    from camchoi.expr import DEPENDENT, PARAMETER, Sym, VARIABLE
    from camchoi.jet import Context, total_derivative
    from camchoi.reduction import ReducedEquation

    # property: synthetically differentiated pairs certify, 100 instances
    rng = random.Random(61)
    w = Sym("w", VARIABLE)
    Y = Sym("Y", DEPENDENT)
    c0 = Sym("c0", PARAMETER)
    rctx = Context((w,), Y, (c0,))
    W, YY, C = Expr.atom(w), Expr.atom(Y), Expr.atom(c0)
    Yw = rctx.jet_expr((1,))
    basis = [ONE, W, YY, C, YY ** 2, W * YY, Yw * YY]
    count = 0
    ok = True
    while count < 100:
        fi_lhs = Yw
        for _k in range(rng.randint(1, 4)):
            fi_lhs = fi_lhs + Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * rng.choice(basis)
        eq = ReducedEquation(rctx, total_derivative(fi_lhs, w, rctx), "syn")
        if eq.lhs.max_jet_order() != 2:
            continue
        count += 1
        fi = ReducedEquation(rctx, fi_lhs, "fi")
        ok = ok and check_first_integral(eq, fi).is_zero

    # catalogued pairs: residuals pinned as golden values, recorded in ledgers
    golden = {
        "cc.26": "Y^2*Y[w] + Y0*Y",
        "cc.31": "2*Y^3 + sigma^2*Y - sigma^2*Y0 - 3*sigma*Y^2 + 2*sigma*Y0*Y - 4*Y^2 "
                 "+ 2*Y1*Y + 2*sigma*Y - sigma*Y1",
    }
    for label, expected in golden.items():
        r = case_results[label]
        ok = ok and r.verdict == "mismatch-recorded"
        ok = ok and r.detail["residual"] == expected
        ok = ok and bool(r.ledger)
    eq35 = case_results["eq.35"]
    n = Expr.atom(N_SYMBOL)
    A = Expr.atom(doc.params["A"])
    alpha = Expr.atom(doc.params["alpha"])
    fi35 = doc.block(IntegralBlock, "eq35")
    want35 = ((n + 1) * (A + alpha + 4) * fi35.ctx.jet_expr((2,))).content_normalized()
    ok = ok and eq35.verdict == "mismatch-recorded" and eq35.detail["residual"] == str(want35)
    eq38 = case_results["eq.38"]
    ok = ok and eq38.verdict == "mismatch-recorded"
    ok = ok and eq38.detail["eq38"] != "0" and eq38.detail["eq38alt"] != "0"

    # closed forms: the rational-drift solution certifies exactly and the
    # tanh family forces amplitude = 1/c
    ok = ok and case_results["cc.24"].verdict == "pass"
    blk = doc.block(SolutionBlock, "cc27")
    target = doc.equation_of(doc.find(blk.on))
    res_free, _cons = verify_closed_form(target, blk.sol)
    constrained = blk.sol.subst(doc.params["A"], ONE / Expr.atom(doc.params["c"]))
    res_fixed, _ = verify_closed_form(target, constrained)
    ok = ok and (not res_free.is_zero) and res_fixed.is_zero
    _announce(6, "first integrals and closed forms", ok)


def test_criterion_7_numerics(doc):
    started = time.time()
    ok = True
    for rn in FIG1_RUNS:
        _s, tra, _c = fig1_trajectory(doc, rn)
        _s, trf, _c = fig1_trajectory(doc, rn, method="fixed-rk4", step=1e-4)
        assert tra.endpoint()[0] == 10.0 and trf.endpoint()[0] == 10.0
        diff = max(abs(a - b) for a, b in zip(tra.endpoint()[1], trf.endpoint()[1]))
        ok = ok and diff < 1e-6 and not tra.flag and not trf.flag

    # order of convergence for the fixed-step path
    import math

    from camchoi.expr import DEPENDENT, PARAMETER, Sym, VARIABLE
    from camchoi.jet import Context

    z = Sym("z", VARIABLE)
    Yd = Sym("Y", DEPENDENT)
    ctx = Context((z,), Yd, ())
    sys_ = compile_rhs(ctx, ctx.jet_expr((1,)) - Expr.atom(Yd), {})
    errs = []
    for h in (0.01, 0.005):
        cfg = IntegratorConfig(method="fixed-rk4", step=h, span=(0.0, 1.0))
        errs.append(abs(integrate(sys_, [1.0], cfg).endpoint()[1][0] - math.e))
    ratio = errs[0] / errs[1]
    ok = ok and 12.0 <= ratio <= 20.0

    # pinned regression values from the cross-method oracle
    pins = {
        "fig1n2": (5.498589497144, 0.498257058497),
        "fig1n3": (-0.527191522595, -0.037095175742),
        "fig1n5": (-0.849816666544, -0.022968517021),
    }
    for rn, end in pins.items():
        _s, tr, _c = fig1_trajectory(doc, rn)
        ok = ok and abs(tr.endpoint()[1][0] - end[0]) < 1e-6
        ok = ok and abs(tr.endpoint()[1][1] - end[1]) < 1e-6
    elapsed = time.time() - started
    ok = ok and elapsed < 5.0
    _announce(7, "figure reproduction and integrator checks in %.2fs" % elapsed, ok)


def test_criterion_8_kernel_properties(eager_eta_table):
    # the randomized property suites are the evidence; re-run them here so the
    # acceptance module is self-contained
    from test_properties import (
        test_jacobi_identity,
        test_leibniz_rule,
        test_mixed_partials_commute,
        test_normalize_idempotent_and_order_independent,
        test_parser_round_trip_random,
        test_prolongation_decomposition_independence,
    )

    test_normalize_idempotent_and_order_independent()
    test_leibniz_rule()
    test_mixed_partials_commute()
    test_jacobi_identity()
    test_prolongation_decomposition_independence(eager_eta_table)
    test_parser_round_trip_random()
    _announce(8, "randomized kernel properties, 100+ instances each", True)


def test_paper_suite_green(tmp_path):
    import os

    path = os.path.join(tmp_path, "report.json")
    code = main(["paper-suite", "--json", path])
    data = json.loads(open(path).read())
    assert code == 0
    assert data["summary"]["fail"] == 0
    print("paper-suite: %(total)d cases, %(pass)d pass, %(fail)d fail, "
          "%(mismatch_recorded)d recorded, %(unsupported)d unsupported" % data["summary"])
