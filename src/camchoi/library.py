"""Built-in case library: loads the packaged model file and exposes runnable
verification cases keyed by stable labels (cc.NN, eq.NN, table-N, fig-1)."""

from __future__ import annotations

import importlib.resources as resources
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .expr import Expr, Func, Sym, ONE, ZERO, app
from .jet import Pde
from .modelfile import (
    AnsatzBlock,
    FieldBlock,
    IntegralBlock,
    ModelDocument,
    OdeBlock,
    PdeBlock,
    RunBlock,
    SolutionBlock,
    parse_model,
)
from .odes import IntegratorConfig, compile_rhs, integrate
from .reduction import (
    check_first_integral,
    compare_reduced,
    compose_ansatz,
    invariants_for,
    pullback,
    verify_closed_form,
)
from .symmetry import VectorField, check_symmetry, closure_table, commutator, determining_equations, field_lincomb


def builtin_text() -> str:
    return resources.files("camchoi").joinpath("data/builtin.model").read_text(encoding="utf-8")


_DOC: Optional[ModelDocument] = None


def load_builtin() -> ModelDocument:
    global _DOC
    if _DOC is None:
        _DOC = parse_model(builtin_text())
    return _DOC


@dataclass
class LedgerEntry:
    label: str
    subject: str
    printed: str
    computed: str
    residual: str
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "subject": self.subject,
            "printed": self.printed,
            "computed": self.computed,
            "residual": self.residual,
            "note": self.note,
        }


@dataclass
class CaseResult:
    label: str
    kind: str
    verdict: str  # pass | fail | mismatch-recorded | unsupported
    detail: Dict[str, object] = field(default_factory=dict)
    ledger: List[LedgerEntry] = field(default_factory=list)


@dataclass
class Case:
    label: str
    kind: str
    title: str
    run: Callable[[ModelDocument], CaseResult]


def run_case(case: Case, doc: ModelDocument) -> CaseResult:
    """Run one case; an exception becomes a ``fail`` verdict instead of
    aborting the suite, with ``detail.error`` naming its type and message.
    The traceback goes to standard error, never into the report."""
    try:
        return case.run(doc)
    except Exception as exc:
        traceback.print_exc()
        return CaseResult(case.label, case.kind, "fail", {"error": "%s: %s" % (type(exc).__name__, exc)})


# -- shared helpers -------------------------------------------------------------


def _vf(doc: ModelDocument, name: str) -> VectorField:
    return doc.block(FieldBlock, name).vf


def _pde(doc: ModelDocument, name: str) -> Pde:
    return doc.block(PdeBlock, name).pde


def x3_of(doc: ModelDocument, arg: Expr) -> VectorField:
    cc = doc.block(PdeBlock, "cc")
    ctx = cc.ctx
    t = ctx.independents[0]
    x = ctx.independents[1]
    return VectorField(ctx, {x: arg}, -arg.diff(t), name="X3(arg)")

def x4_of(doc: ModelDocument, arg: Expr) -> VectorField:
    cc = doc.block(PdeBlock, "cc")
    ctx = cc.ctx
    t, x, y = ctx.independents
    Y = Expr.atom(y)
    dt = arg.diff(t)
    return VectorField(
        ctx,
        {y: arg, x: Expr.rational(Fraction(-1, 2)) * dt * Y},
        Expr.rational(Fraction(1, 2)) * dt.diff(t) * Y,
        name="X4(arg)",
    )


def compare_fields(computed: VectorField, printed: VectorField) -> str:
    if computed == printed:
        return "match"
    neg = field_lincomb([(Expr.rational(-1), printed)], printed.ctx)
    if computed == neg:
        return "sign-flip"
    return "mismatch"


def _sym_case(label: str, title: str, pairs: List[Tuple[str, str]], alpha_zero: bool = False):
    def run(doc: ModelDocument) -> CaseResult:
        residuals = {}
        ok = True
        for fname, pname in pairs:
            pde = _pde(doc, pname)
            if alpha_zero:
                pde = pde.with_parameter(doc.params["alpha"], 0)
            r = check_symmetry(_vf(doc, fname), pde)
            residuals["%s on %s" % (fname, pname)] = str(r)
            ok = ok and r.is_zero
        return CaseResult(label, "symmetry", "pass" if ok else "fail", {"residuals": residuals})

    return Case(label, "symmetry", title, run)


# -- commutator relation machinery ----------------------------------------------


@dataclass
class Relation:
    subject: str
    left: str
    right: str
    printed: Callable[[ModelDocument], VectorField]
    expected: str  # match | sign-flip | mismatch


def _relation_case(label: str, title: str, relations: List[Relation]):
    def run(doc: ModelDocument) -> CaseResult:
        detail = {}
        ledger: List[LedgerEntry] = []
        ok = True
        for rel in relations:
            Z = commutator(_vf(doc, rel.left), _vf(doc, rel.right))
            printed = rel.printed(doc)
            verdict = compare_fields(Z, printed)
            detail[rel.subject] = verdict
            if verdict != rel.expected:
                ok = False
            if verdict == "mismatch":
                ledger.append(
                    LedgerEntry(label, rel.subject, str(printed), str(Z), "", "printed relation does not reproduce")
                )
        verdict = "pass" if ok and not ledger else ("mismatch-recorded" if ok else "fail")
        return CaseResult(label, "commutators", verdict, detail, ledger)

    return Case(label, "commutators", title, run)


def _zero_field(doc: ModelDocument) -> VectorField:
    ctx = doc.block(PdeBlock, "cc").ctx
    return VectorField(ctx, {}, ZERO, name="0")


def _combo(doc: ModelDocument, pairs: List[Tuple[object, str]]) -> VectorField:
    ctx = _vf(doc, pairs[0][1]).ctx if pairs else doc.block(PdeBlock, "cc").ctx
    terms = []
    for coeff, fname in pairs:
        if isinstance(coeff, str):
            coeff = Expr.atom(doc.params[coeff])
        elif not isinstance(coeff, Expr):
            coeff = Expr.rational(coeff)
        terms.append((coeff, _vf(doc, fname)))
    return field_lincomb(terms, ctx)


# -- the case registry -----------------------------------------------------------


def _table_case(label: str, title: str, basis_names: List[str], printed_entries, expected_anomalies):
    """Compare computed [row, col] against a printed commutator table."""

    def run(doc: ModelDocument) -> CaseResult:
        fields = [_vf(doc, nm) for nm in basis_names]
        detail = {}
        ledger: List[LedgerEntry] = []
        ok = True
        for (i, j), combo in printed_entries.items():
            Z = commutator(fields[i], fields[j])
            printed = _combo(doc, combo) if combo else _zero_field(doc)
            verdict = compare_fields(Z, printed)
            key = "[%s,%s]" % (basis_names[i], basis_names[j])
            detail[key] = verdict
            expected = "mismatch" if (i, j) in expected_anomalies else None
            if expected == "mismatch":
                if verdict != "mismatch":
                    ok = False
                ledger.append(
                    LedgerEntry(
                        label,
                        key,
                        str(printed),
                        str(Z),
                        "",
                        "table entry is internally inconsistent with the computed commutator",
                    )
                )
            elif verdict == "mismatch":
                ok = False
        verdict = "pass" if ok and not ledger else ("mismatch-recorded" if ok else "fail")
        return CaseResult(label, "commutators", verdict, detail, ledger)

    return Case(label, "commutators", title, run)


def build_cases() -> List[Case]:
    cases: List[Case] = []
    add = cases.append

    # symmetry verification
    add(_sym_case("cc.03", "time translation and scaling on cc", [("X1", "cc"), ("X2", "cc")]))
    add(_sym_case("cc.04", "function-parametrized generators on cc", [("X3", "cc"), ("X4", "cc")]))
    add(_sym_case("cc.08", "constant-coefficient family on cc",
                  [("X1p", "cc"), ("X2p", "cc"), ("X3p", "cc"), ("X4p", "cc")]))
    add(_sym_case("cc.11", "exponential family on cc", [("X5p", "cc"), ("X6p", "cc")]))
    add(Case("cc.11-printed", "symmetry", "catalogued X6p variant", _run_x6p_printed))
    add(_sym_case("proposition", "five-field subalgebra members on cc", [("X5", "cc")]))
    add(_sym_case("sec4.y", "generalized equation with alpha = 0",
                  [("Y1f", "gcc"), ("Y2f", "gcc"), ("Y3f", "gcc"), ("Y4f", "gcc"), ("Y5f", "gcc")],
                  alpha_zero=True))
    add(_sym_case("sec4.ybar", "generalized equation with free alpha",
                  [("Y1f", "gcc"), ("Yb2f", "gcc"), ("Y3f", "gcc"), ("Y4f", "gcc"), ("Y5f", "gcc")]))
    add(_sym_case("cc.20", "translations and scaling of the reduced equation",
                  [("Z1", "cc19"), ("Z2", "cc19")]))
    add(_sym_case("cc.21", "projective symmetry of the reduced equation", [("Z3", "cc19")]))
    add(_sym_case("cc.23", "function-parametrized symmetry of the reduced equation", [("Z4", "cc19")]))
    add(_sym_case("sec4.1", "reduced generalized equation",
                  [("Zb1", "eq33"), ("Zb2", "eq33"), ("Zb1d", "eq33d"), ("Zb2d", "eq33d"), ("Zb3", "eq33d")]))
    add(Case("sec4.1-printed", "symmetry", "catalogued Zb3 variant", _run_zb3_printed))

    # commutator relations
    add(_relation_case("cc.05", "first commutator row", [
        Relation("[X1,X2]", "X1", "X2", lambda d: _combo(d, [(2, "X1")]), "match"),
        Relation("[X1,X3]", "X1", "X3", lambda d: x3_of(d, _phi(d).diff(_t(d))), "match"),
        Relation("[X1,X4]", "X1", "X4", lambda d: x4_of(d, _psi(d).diff(_t(d))), "match"),
    ]))
    add(_relation_case("cc.06", "scaling against the function family", [
        Relation("[X2,X3]", "X2", "X3",
                 lambda d: x3_of(d, _phi(d) - 2 * Expr.atom(_t(d)) * _phi(d).diff(_t(d))), "sign-flip"),
        Relation("[X2,X4]", "X2", "X4",
                 lambda d: x4_of(d, Expr.rational(Fraction(3, 4)) * _psi(d)
                                 - 2 * Expr.atom(_t(d)) * _psi(d).diff(_t(d))), "mismatch"),
        Relation("[X3,X4]", "X3", "X4", lambda d: _zero_field(d), "match"),
    ]))
    add(_relation_case("cc.07", "function family among itself", [
        Relation("[X3(phi),X3(chi)]", "X3", "X3chi", lambda d: _zero_field(d), "match"),
        Relation("[X4(psi),X4(chi)]", "X4", "X4chi",
                 lambda d: x3_of(d, Expr.rational(Fraction(1, 2))
                                 * (_chi(d) * _psi(d).diff(_t(d)) - _psi(d) * _chi(d).diff(_t(d)))), "match"),
    ]))
    add(_relation_case("cc.09", "constant family, first row", [
        Relation("[X1p,X2p]", "X1p", "X2p", lambda d: _combo(d, [(2, "X1p")]), "match"),
        Relation("[X1p,X3p]", "X1p", "X3p", lambda d: _zero_field(d), "match"),
        Relation("[X1p,X4p]", "X1p", "X4p", lambda d: _zero_field(d), "match"),
    ]))
    add(_relation_case("cc.10", "constant family, second row", [
        Relation("[X2p,X3p]", "X2p", "X3p", lambda d: _combo(d, [(1, "X3p")]), "sign-flip"),
        Relation("[X2p,X4p]", "X2p", "X4p", lambda d: _combo(d, [(Fraction(3, 2), "X3p")]), "mismatch"),
        Relation("[X3p,X4p]", "X3p", "X4p", lambda d: _zero_field(d), "match"),
    ]))
    add(_relation_case("cc.12", "exponential family, first row", [
        Relation("[X1p,X5p]", "X1p", "X5p", lambda d: _combo(d, [("omega1", "X5p")]), "match"),
        Relation("[X1p,X6p]", "X1p", "X6p", lambda d: _combo(d, [("omega2", "X6p")]), "match"),
        Relation("[X1p,X6p_printed]", "X1p", "X6p_printed",
                 lambda d: _combo(d, [("omega2", "X6p_printed")]), "mismatch"),
        Relation("[X2p,X5p]", "X2p", "X5p", _cc12_printed_x2x5, "mismatch"),
    ]))
    add(_relation_case("cc.13", "exponential family, scaling row", [
        Relation("[X2p,X6p]", "X2p", "X6p", _cc13_printed, "sign-flip"),
    ]))
    add(_relation_case("cc.14", "exponential family, translation row", [
        Relation("[X3p,X5p]", "X3p", "X5p", lambda d: _zero_field(d), "match"),
        Relation("[X3p,X6p]", "X3p", "X6p", lambda d: _zero_field(d), "match"),
        Relation("[X4p,X6p]", "X4p", "X6p", _cc14_printed, "mismatch"),
    ]))

    # printed commutator tables
    table1 = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            table1[(i, j)] = []
    table1[(0, 1)] = [(2, "X1p")]
    table1[(1, 0)] = [(2, "X1p")]
    table1[(1, 2)] = [(1, "X3p")]
    table1[(2, 1)] = [(-1, "X3p")]
    table1[(1, 3)] = [(Fraction(3, 2), "X3p")]
    table1[(3, 1)] = [(Fraction(-3, 2), "X3p")]
    add(_table_case("table-1", "printed commutator table of the constant family",
                    ["X1p", "X2p", "X3p", "X4p"], table1,
                    expected_anomalies={(1, 3), (3, 1)}))

    table2 = {}
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            table2[(i, j)] = []
    table2[(0, 1)] = [(2, "Y1f"), ("alpha", "Y3f")]
    table2[(1, 0)] = [(-2, "Y1f"), (("alpha_neg"), "Y3f")]
    table2[(0, 4)] = [(2, "Y4f")]
    table2[(4, 0)] = [(-2, "Y4f")]
    table2[(1, 2)] = [(-1, "Y3f")]
    table2[(2, 1)] = [(1, "Y3f")]
    table2[(1, 3)] = [(Fraction(-3, 2), "Y4f")]
    table2[(3, 1)] = [(Fraction(3, 2), "Y4f")]
    table2[(1, 4)] = [(Fraction(1, 2), "Y5f")]
    table2[(4, 1)] = [(Fraction(-1, 2), "Y5f")]
    table2[(3, 4)] = [(-1, "Y3f")]
    table2[(4, 3)] = [(1, "Y3f")]
    add(Case("table-2", "commutators", "printed commutator table of the generalized family",
             lambda doc: _run_table2(doc, table2)))

    # closure analysis
    add(Case("proposition-closure", "closure", "five-field subalgebra closes", _run_prop_closure))
    add(Case("cc.11-closure", "closure", "six-field set does not close", _run_six_closure))
    add(Case("table-2-closure", "closure", "generalized family closes", _run_table2_closure))
    add(Case("cc.22", "closure", "sl(2,R) triple of the reduced equation", _run_sl2_closure))
    add(Case("cc.15", "closure", "closure constraints select constant translation speeds", _run_cc15))
    add(Case("cc.16", "closure", "closure constraints select an affine drift", _run_cc16))
    add(Case("cc.17", "closure", "cross constraints keep the mixed bracket decomposable", _run_cc17))

    # determining equations
    add(Case("sec3-determining", "determining", "determining system of cc", _run_determining))

    # reductions
    add(Case("cc.18", "reduction", "invariants of the diagonal translation", _run_cc18_invariants))
    add(Case("cc.19", "reduction", "reduction of cc under cc18", _run_red_cc19))
    add(Case("eq.33", "reduction", "reduction of gcc under w = x - y", _run_red_eq33))
    add(Case("chain", "reduction", "two-step reduction equals the composed one", _run_chain))
    add(Case("cc.25", "reduction", "static reduction of the reduced equation", _run_red_cc25))
    add(Case("cc.29", "reduction", "scaling reduction of the reduced equation", _run_red_cc29))
    add(Case("cc.32", "reduction", "projective reduction recorded", _run_red_cc32))
    add(Case("eq.34", "reduction", "travel-wave reduction of the generalized equation", _run_red_eq34))
    add(Case("eq.36", "reduction", "scaling substitution recorded", _run_eq36))

    # first integrals
    add(Case("cc.26", "first-integral", "quadrature of the static reduction", _fi_case("cc25", "cc26", False)))
    add(Case("cc.31", "first-integral", "quadrature of the scaling reduction", _fi_case("cc30", "cc31", False)))
    add(Case("eq.35", "first-integral", "quadrature of the travel-wave reduction", _fi_case("eq34", "eq35", False)))
    add(Case("eq.38", "first-integral", "quadrature of the scaling reduction, both groupings", _run_fi_eq38))
    add(Case("cc.30", "first-integral", "second-order quadrature of the scaling reduction", _fi_case("cc29", "cc30", False)))

    # closed forms
    add(Case("cc.24", "solution", "rational-drift similarity solution", _sol_case("cc24", True)))
    add(Case("cc.27", "solution", "tanh front with amplitude constraint", _run_cc27))
    add(Case("cc.28", "solution", "first-order form compiles to a numeric system", _run_cc28))
    add(Case("cc.33", "solution", "projective first-order form compiles and certifies", _run_cc33))

    # numerics
    add(Case("fig-1", "numerics", "three-curve figure reproduction, cross-method agreement", _run_fig1_agreement))

    return cases


# -- helpers bound to the builtin document ---------------------------------------


def _t(doc: ModelDocument) -> Sym:
    return doc.block(PdeBlock, "cc").ctx.independents[0]


def _phi(doc: ModelDocument) -> Expr:
    return Expr.atom(Func("phi", (_t(doc),)))


def _psi(doc: ModelDocument) -> Expr:
    return Expr.atom(Func("psi", (_t(doc),)))


def _chi(doc: ModelDocument) -> Expr:
    return Expr.atom(Func("chi", (_t(doc),)))


def _cc12_printed_x2x5(doc: ModelDocument) -> VectorField:
    ctx = doc.block(PdeBlock, "cc").ctx
    t, x, y = ctx.independents
    o1 = Expr.atom(doc.params["omega1"])
    E = app("exp", o1 * Expr.atom(t))
    return VectorField(
        ctx,
        {x: E * (1 - o1 * Expr.atom(t))},
        E * o1 * (1 + 2 * o1 * Expr.atom(t)),
        name="printed",
    )


def _cc13_printed(doc: ModelDocument) -> VectorField:
    ctx = doc.block(PdeBlock, "cc").ctx
    t, x, y = ctx.independents
    o2 = Expr.atom(doc.params["omega2"])
    T = Expr.atom(t)
    Y = Expr.atom(y)
    E = app("exp", o2 * T)
    half = Expr.rational(Fraction(1, 2))
    quarter = Expr.rational(Fraction(1, 4))
    return VectorField(
        ctx,
        {
            y: E * half * (3 - 4 * o2 * T),
            x: E * quarter * (1 + 4 * o2 * T) * o2 * Y,
        },
        -E * quarter * (5 + 4 * o2 * T) * o2 * o2 * Y,
        name="printed",
    )


def _cc14_printed(doc: ModelDocument) -> VectorField:
    ctx = doc.block(PdeBlock, "cc").ctx
    t, x, y = ctx.independents
    o2 = Expr.atom(doc.params["omega2"])
    E = app("exp", o2 * Expr.atom(t))
    half = Expr.rational(Fraction(1, 2))
    return VectorField(ctx, {t: half * o2 * E}, -half * o2 * o2 * E, name="printed")


def _run_x6p_printed(doc: ModelDocument) -> CaseResult:
    r = check_symmetry(_vf(doc, "X6p_printed"), _pde(doc, "cc"))
    entry = LedgerEntry(
        "cc.11-printed",
        "X6p_printed on cc",
        str(_vf(doc, "X6p_printed")),
        str(_vf(doc, "X6p")),
        str(r),
        "the catalogued exp(omega1*t) prefix does not give a symmetry; the library uses exp(omega2*t)",
    )
    verdict = "mismatch-recorded" if not r.is_zero else "fail"
    return CaseResult("cc.11-printed", "symmetry", verdict, {"residual": str(r)}, [entry])


def _run_zb3_printed(doc: ModelDocument) -> CaseResult:
    r_printed = check_symmetry(_vf(doc, "Zb3_printed"), _pde(doc, "eq33"))
    r_on_derived = check_symmetry(
        VectorField(_pde(doc, "eq33d").ctx, _vf(doc, "Zb3_printed").xi, _vf(doc, "Zb3_printed").eta),
        _pde(doc, "eq33d"),
    )
    entry = LedgerEntry(
        "sec4.1-printed",
        "Zb3_printed",
        str(_vf(doc, "Zb3_printed")),
        str(_vf(doc, "Zb3")),
        str(r_printed),
        "the catalogued scaling generator annihilates neither the catalogued nor the computed reduction",
    )
    ok = (not r_printed.is_zero) and (not r_on_derived.is_zero)
    return CaseResult(
        "sec4.1-printed",
        "symmetry",
        "mismatch-recorded" if ok else "fail",
        {"residual on eq33": str(r_printed), "residual on eq33d": str(r_on_derived)},
        [entry],
    )


def _run_table2(doc: ModelDocument, table2) -> CaseResult:
    basis_names = ["Y1f", "Yb2f", "Y3f", "Y4f", "Y5f"]
    fields = [_vf(doc, nm) for nm in basis_names]
    detail = {}
    ok = True
    for (i, j), combo in table2.items():
        Z = commutator(fields[i], fields[j])
        pairs = []
        for coeff, fname in combo:
            if coeff == "alpha_neg":
                pairs.append((-Expr.atom(doc.params["alpha"]), fname))
            else:
                pairs.append((coeff, fname))
        printed = _combo(doc, pairs) if pairs else _zero_field(doc)
        verdict = compare_fields(Z, printed)
        detail["[%s,%s]" % (basis_names[i], basis_names[j])] = verdict
        ok = ok and verdict == "match"
    return CaseResult("table-2", "commutators", "pass" if ok else "fail", detail)


def _run_prop_closure(doc: ModelDocument) -> CaseResult:
    rep = closure_table([_vf(doc, nm) for nm in ("X1", "X2", "X3p", "X4p", "X5")])
    rational_only = True
    for (_i, _j), (_Z, dec) in rep.table.items():
        for num, den in dec.coefficients or []:
            if not (num.is_zero or num.is_rational()) or not den.is_rational():
                rational_only = False
    ok = rep.closed and rational_only
    return CaseResult(
        "proposition-closure",
        "closure",
        "pass" if ok else "fail",
        {"closed": rep.closed, "rational structure constants": rational_only},
    )


def _run_six_closure(doc: ModelDocument) -> CaseResult:
    names = ["X1p", "X2p", "X3p", "X4p", "X5p", "X6p"]
    rep = closure_table([_vf(doc, nm) for nm in names])
    witnesses = ["[%s,%s]" % (names[i], names[j]) for i, j, _ in rep.witnesses]
    ok = (not rep.closed) and "[X2p,X5p]" in witnesses
    ledger = [
        LedgerEntry("cc.11-closure", w, "", "", "", "commutator leaves the six-field span")
        for w in witnesses
    ]
    return CaseResult(
        "cc.11-closure",
        "closure",
        "pass" if ok else "fail",
        {"closed": rep.closed, "witnesses": witnesses},
        ledger,
    )


def _run_table2_closure(doc: ModelDocument) -> CaseResult:
    rep = closure_table([_vf(doc, nm) for nm in ("Y1f", "Yb2f", "Y3f", "Y4f", "Y5f")])
    return CaseResult(
        "table-2-closure", "closure", "pass" if rep.closed else "fail", {"closed": rep.closed}
    )


def _run_sl2_closure(doc: ModelDocument) -> CaseResult:
    rep = closure_table([_vf(doc, nm) for nm in ("Z1", "Z2", "Z3")])
    return CaseResult("cc.22", "closure", "pass" if rep.closed else "fail", {"closed": rep.closed})


def _run_cc15(doc: ModelDocument) -> CaseResult:
    # with phi constant the translation bracket [X1, X3(1)] vanishes
    Z = commutator(_vf(doc, "X1"), _vf(doc, "X3p"))
    ok = Z.is_zero_field()
    return CaseResult("cc.15", "closure", "pass" if ok else "fail", {"[X1,X3(1)]": str(Z)})


def _run_cc16(doc: ModelDocument) -> CaseResult:
    # psi affine in t keeps the scaling bracket inside the span {X4(1), X4(t)}
    ctx = doc.block(PdeBlock, "cc").ctx
    t = ctx.independents[0]
    X4t = x4_of(doc, Expr.atom(t))
    Z = commutator(_vf(doc, "X2"), X4t)
    from .symmetry import decompose_field

    dec = decompose_field(Z, [_vf(doc, "X4p"), X4t, _vf(doc, "X3p")])
    return CaseResult("cc.16", "closure", "pass" if dec.ok else "fail",
                      {"decomposed": dec.ok, "coefficients": dec.coefficient_strings()})


def _run_cc17(doc: ModelDocument) -> CaseResult:
    # [X4(1), X4(t)] = -(1/2) X3(1) stays in the five-field span
    ctx = doc.block(PdeBlock, "cc").ctx
    t = ctx.independents[0]
    Z = commutator(_vf(doc, "X4p"), x4_of(doc, Expr.atom(t)))
    expected = _combo(doc, [(Fraction(-1, 2), "X3p")])
    ok = Z == expected
    return CaseResult("cc.17", "closure", "pass" if ok else "fail", {"bracket": str(Z)})


def _run_determining(doc: ModelDocument) -> CaseResult:
    det = determining_equations(_pde(doc, "cc"))
    ctx = _pde(doc, "cc").ctx
    t, x, y = ctx.independents
    u = ctx.dependent
    T, X_, Y_ = (Expr.atom(s) for s in (t, x, y))
    A = Expr.atom(doc.params["alpha"])
    C1, C2, C3, C4 = (Expr.atom(doc.params["c%d" % i]) for i in (1, 2, 3, 4))
    half = Expr.rational(Fraction(1, 2))
    rules = {
        "xi_t": C1 + 2 * C2 * T,
        "xi_x": C2 * X_ + C3 * _phi(doc) - half * C4 * _psi(doc).diff(t) * Y_,
        "xi_y": Expr.rational(Fraction(3, 2)) * C2 * Y_ + C4 * _psi(doc),
        "eta": C2 * (A - Expr.atom(u)) - C3 * _phi(doc).diff(t) + half * C4 * _psi(doc).diff(t).diff(t) * Y_,
    }
    vals = det.substitute_solution(rules)
    annihilated = all(v.is_zero for v in vals)
    args = tuple(ctx.independents) + (u,)
    xtu = Expr.atom(Func("xi_t", args, (0, 0, 0, 1))).content_normalized()
    has_xtu = any(eq.content_normalized() == xtu for eq in det.equations)
    ok = annihilated and has_xtu
    return CaseResult(
        "sec3-determining",
        "determining",
        "pass" if ok else "fail",
        {"equations": len(det.equations), "generic solution annihilates": annihilated,
         "contains d(xi_t)/du = 0": has_xtu},
    )


def _run_cc18_invariants(doc: ModelDocument) -> CaseResult:
    ctx = doc.block(PdeBlock, "cc").ctx
    t, x, y = ctx.independents
    X34 = VectorField(ctx, {x: ONE, y: ONE}, ZERO, "X3p+X4p")
    a = invariants_for(X34, names=["w"], dep_name="U")
    blk = doc.block(AnsatzBlock, "cc18").ansatz
    same = [e1 == e2 for (_v1, e1), (_v2, e2) in zip(a.new_independent, blk.new_independent)]
    ok = all(same) and a.dependent_rule == blk.dependent_rule
    annihilates = all(X34.apply_to(inv).is_zero for inv in a.invariant_exprs())
    return CaseResult("cc.18", "reduction", "pass" if ok and annihilates else "fail",
                      {"invariants": [str(e) for _v, e in a.new_independent],
                       "generator annihilates invariants": annihilates})


def _red_compare(doc, label, pde_name, ansatz_name, derived_name, printed_name, subs, expected_verdict):
    pde = _pde(doc, pde_name)
    a = doc.block(AnsatzBlock, ansatz_name).ansatz
    red = pullback(pde, a)
    oracle = doc.equation_of(doc.find(derived_name)) if derived_name else None
    printed = doc.equation_of(doc.find(printed_name))
    detail = {"derived": str(red.lhs)}
    ok = True
    if oracle is not None:
        ok = red.lhs == oracle.normalized()
        detail["matches hand-derived oracle"] = ok
    rep = compare_reduced(red, printed, substitutions=subs)
    detail["verdict vs printed"] = rep.verdict
    # every comparison against a catalogued form is recorded, matched or not
    if rep.verdict == "mismatch":
        note = "printed reduced equation differs from the computed reduction"
    elif rep.verdict == "under-substitution":
        note = "matches under the identification " + ", ".join(
            "%s = %s" % (s.name, v) for s, v in (subs or []))
    else:
        note = "matches the computed reduction (%s)" % rep.verdict
    ledger = [LedgerEntry(label, "%s under %s" % (pde_name, ansatz_name),
                          str(printed.lhs), str(red.lhs), str(rep.residual), note)]
    ok = ok and (rep.verdict == expected_verdict)
    verdict = "fail" if not ok else ("mismatch-recorded" if rep.verdict == "mismatch" else "pass")
    return CaseResult(label, "reduction", verdict, detail, ledger)


def _run_red_cc19(doc: ModelDocument) -> CaseResult:
    subs = [(doc.params["h0"], Expr.atom(doc.params["alpha"]))]
    return _red_compare(doc, "cc.19", "cc", "cc18", "cc19d", "cc19", subs, "under-substitution")


def _run_red_eq33(doc: ModelDocument) -> CaseResult:
    subs = [(doc.params["h0"], Expr.atom(doc.params["alpha"]))]
    return _red_compare(doc, "eq.33", "gcc", "gccw", "eq33d", "eq33", subs, "mismatch")


def _run_red_cc25(doc: ModelDocument) -> CaseResult:
    return _red_compare(doc, "cc.25", "cc19", "z1red", None, "cc25", None, "mismatch")


def _run_red_cc29(doc: ModelDocument) -> CaseResult:
    return _red_compare(doc, "cc.29", "cc19", "z2red", None, "cc29", None, "mismatch")


def _run_red_eq34(doc: ModelDocument) -> CaseResult:
    return _red_compare(doc, "eq.34", "eq33", "eq34red", None, "eq34", None, "mismatch")


def _run_red_cc32(doc: ModelDocument) -> CaseResult:
    pde = _pde(doc, "cc19")
    a = doc.block(AnsatzBlock, "z3red").ansatz
    red = pullback(pde, a)
    return CaseResult("cc.32", "reduction", "pass", {"derived": str(red.lhs)})


def _run_chain(doc: ModelDocument) -> CaseResult:
    cc = _pde(doc, "cc")
    a1 = doc.block(AnsatzBlock, "cc18").ansatz
    mid = pullback(cc, a1).to_pde()
    alpha = Expr.atom(doc.params["alpha"])
    s = Sym("s", "reduced")
    fY = Func("Y", (s,))
    from .reduction import Ansatz

    w = a1.new_independent[1][0]
    t = a1.new_independent[0][0]
    a2 = Ansatz(mid.ctx, [(s, Expr.atom(w) - Expr.atom(t))], Sym("Y", "dependent"), fY,
                Expr.atom(fY) + 1 + alpha, name="travel")
    two_step = pullback(mid, a2)
    composed = pullback(cc, compose_ansatz(a1, a2))
    ctx = cc.ctx
    tt, xx, yy = ctx.independents
    direct_a = Ansatz(ctx, [(s, Expr.atom(yy) - Expr.atom(xx) - Expr.atom(tt))],
                      Sym("Y", "dependent"), fY, Expr.atom(fY) + 1 + alpha, name="direct")
    direct = pullback(cc, direct_a)
    ok = two_step.lhs == direct.lhs == composed.lhs
    return CaseResult("chain", "reduction", "pass" if ok else "fail",
                      {"travel-wave equation": str(direct.lhs)})


def _run_eq36(doc: ModelDocument) -> CaseResult:
    blk = doc.block(AnsatzBlock, "eq36")
    return CaseResult("eq.36", "reduction", "unsupported",
                      {"invariant": str(blk.ansatz.new_independent[0][1]), "note": blk.ansatz.note})


def _fi_case(eq_name: str, fi_name: str, expect_zero: bool):
    def run(doc: ModelDocument) -> CaseResult:
        label = fi_name[:2] + "." + fi_name[2:]
        eq = doc.equation_of(doc.find(eq_name))
        fi = doc.block(IntegralBlock, fi_name).candidate
        r = check_first_integral(eq, fi)
        detail = {"residual": str(r)}
        if expect_zero:
            return CaseResult(label, "first-integral", "pass" if r.is_zero else "fail", detail)
        if r.is_zero:
            return CaseResult(label, "first-integral", "fail", detail)
        entry = LedgerEntry(label, "d(%s) against %s" % (fi_name, eq_name), fi_name, eq_name,
                            str(r), "printed quadrature pair leaves a nonzero residual")
        return CaseResult(label, "first-integral", "mismatch-recorded", detail, [entry])

    return run


def _run_fi_eq38(doc: ModelDocument) -> CaseResult:
    eq = doc.equation_of(doc.find("eq37"))
    out = {}
    ledger = []
    for nm in ("eq38", "eq38alt"):
        fi = doc.block(IntegralBlock, nm).candidate
        r = check_first_integral(eq, fi)
        out[nm] = str(r)
        if not r.is_zero:
            ledger.append(LedgerEntry("eq.38", "d(%s) against eq37" % nm, nm, "eq37", str(r),
                                      "grouping leaves a nonzero residual"))
    verdict = "mismatch-recorded" if ledger else "pass"
    return CaseResult("eq.38", "first-integral", verdict, out, ledger)


def _sol_case(name: str, expect_zero: bool):
    def run(doc: ModelDocument) -> CaseResult:
        label = name[:2] + "." + name[2:]
        blk = doc.block(SolutionBlock, name)
        target = doc.equation_of(doc.find(blk.on))
        res, cons = verify_closed_form(target, blk.sol, blk.rules, blk.bindings)
        ok = res.is_zero == expect_zero
        return CaseResult(label, "solution", "pass" if ok else "fail",
                          {"residual": str(res)})

    return run


def _run_cc27(doc: ModelDocument) -> CaseResult:
    blk = doc.block(SolutionBlock, "cc27")
    target = doc.equation_of(doc.find(blk.on))
    res, cons = verify_closed_form(target, blk.sol, blk.rules, blk.bindings)
    a_sym = doc.params["A"]
    c_sym = doc.params["c"]
    constrained = blk.sol.subst(a_sym, ONE / Expr.atom(c_sym))
    res2, _ = verify_closed_form(target, constrained)
    ok = (not res.is_zero) and res2.is_zero
    detail = {
        "free-amplitude residual": str(res),
        "constraints": {str(k): str(v) for k, v in cons.items()},
        "residual with amplitude 1/c": str(res2),
    }
    return CaseResult("cc.27", "solution", "pass" if ok else "fail", detail)


def _run_cc28(doc: ModelDocument) -> CaseResult:
    blk = doc.block(OdeBlock, "cc28ode")
    sys = compile_rhs(blk.ctx, blk.lhs, {doc.params["Y0"]: 1.0, doc.params["Y1"]: 0.0})
    traj = integrate(sys, [0.0], IntegratorConfig(span=(0.0, 1.0)))
    ok = sys.dimension == 1 and traj.samples[0][1] == (0.0,) and not traj.flag
    return CaseResult("cc.28", "solution", "pass" if ok else "fail",
                      {"dimension": sys.dimension, "samples": len(traj.samples)})


def _run_cc33(doc: ModelDocument) -> CaseResult:
    blk = doc.block(OdeBlock, "cc33ode")
    sys = compile_rhs(blk.ctx, blk.lhs, {doc.params["Y0"]: 1.0, doc.params["Y1"]: 0.0})
    traj = integrate(sys, [0.5], IntegratorConfig(span=(0.0, 1.0)))
    sol_blk = doc.block(SolutionBlock, "cc32")
    target = doc.equation_of(doc.find(sol_blk.on))
    res, _ = verify_closed_form(target, sol_blk.sol, sol_blk.rules, sol_blk.bindings)
    ok = sys.dimension == 1 and res.is_zero and not traj.flag
    return CaseResult("cc.33", "solution", "pass" if ok else "fail",
                      {"dimension": sys.dimension, "similarity solution residual": str(res)})


FIG1_RUNS = ("fig1n2", "fig1n3", "fig1n5")


def fig1_trajectory(doc: ModelDocument, run_name: str, grouping: str = "default",
                    span=None, method: Optional[str] = None, step: float = 1e-4):
    rb = doc.block(RunBlock, run_name)
    ode_name = rb.ode if grouping == "default" else rb.ode + "_alt"
    ob = doc.block(OdeBlock, ode_name)
    params = {}
    for pname, val in rb.settings:
        params[doc.params[pname]] = val
    sys = compile_rhs(ob.ctx, ob.lhs, params, name=run_name)
    cfg = IntegratorConfig(
        method=method or rb.method,
        abs_tol=float(rb.tol),
        rel_tol=float(rb.tol),
        step=step,
        span=tuple(float(v) for v in (span or rb.span)),
        dense=[1.0],
    )
    return sys, integrate(sys, [float(v) for v in rb.ic], cfg), rb.color


def _run_fig1_agreement(doc: ModelDocument) -> CaseResult:
    detail = {}
    ok = True
    for rn in FIG1_RUNS:
        _s, tra, _c = fig1_trajectory(doc, rn)
        _s, trf, _c = fig1_trajectory(doc, rn, method="fixed-rk4", step=1e-3)
        d = max(abs(a - b) for a, b in zip(tra.endpoint()[1], trf.endpoint()[1]))
        detail[rn] = {"difference": "%.3e" % d, "endpoint": ["%.12g" % v for v in tra.endpoint()[1]]}
        ok = ok and d < 1e-6 and not tra.flag and not trf.flag
    return CaseResult("fig-1", "numerics", "pass" if ok else "fail", detail)


# -- coverage manifest ------------------------------------------------------------

# one built-in per catalogued label; values name the backing case or block
MANIFEST: Dict[str, str] = {
    "cc.01": "block:cc",
    "cc.02": "block:gcc",
    "cc.03": "case:cc.03",
    "cc.04": "case:cc.04",
    "cc.05": "case:cc.05",
    "cc.06": "case:cc.06",
    "cc.07": "case:cc.07",
    "cc.08": "case:cc.08",
    "cc.09": "case:cc.09",
    "cc.10": "case:cc.10",
    "cc.11": "case:cc.11",
    "cc.12": "case:cc.12",
    "cc.13": "case:cc.13",
    "cc.14": "case:cc.14",
    "cc.15": "case:cc.15",
    "cc.16": "case:cc.16",
    "cc.17": "case:cc.17",
    "cc.18": "case:cc.18",
    "cc.19": "case:cc.19",
    "cc.20": "case:cc.20",
    "cc.21": "case:cc.21",
    "cc.22": "case:cc.22",
    "cc.23": "case:cc.23",
    "cc.24": "case:cc.24",
    "cc.25": "case:cc.25",
    "cc.26": "case:cc.26",
    "cc.27": "case:cc.27",
    "cc.28": "case:cc.28",
    "cc.29": "case:cc.29",
    "cc.30": "case:cc.30",
    "cc.31": "case:cc.31",
    "cc.32": "case:cc.32",
    "cc.33": "case:cc.33",
    "table-1": "case:table-1",
    "table-2": "case:table-2",
    "eq.33": "case:eq.33",
    "eq.34": "case:eq.34",
    "eq.35": "case:eq.35",
    "eq.36": "case:eq.36",
    "eq.37": "block:eq37",
    "eq.38": "case:eq.38",
    "fig-1": "case:fig-1",
}


def manifest_resolves(doc: Optional[ModelDocument] = None) -> bool:
    doc = doc or load_builtin()
    labels = {c.label for c in build_cases()}
    for label, ref in MANIFEST.items():
        kind, _, name = ref.partition(":")
        if kind == "case":
            if name not in labels:
                return False
        else:
            doc.find(name)
    return True
