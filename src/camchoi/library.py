"""Built-in case library: loads the packaged model file and exposes runnable
verification cases keyed by stable labels (cc.NN, eq.NN, table-N, fig-1)."""

from __future__ import annotations

import importlib.resources as resources
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .expr import Expr, Func, Sym, VARIABLE, ZERO
from .jet import Context, Pde
from .modelfile import (
    AnsatzBlock,
    FieldBlock,
    IntegralBlock,
    ModelDocument,
    OdeBlock,
    PdeBlock,
    RunBlock,
    SolutionBlock,
    parse_expression,
    parse_model,
)
from .odes import IntegratorConfig, compile_rhs, integrate
from .reduction import (
    Ansatz,
    ReductionError,
    check_first_integral,
    compare_reduced,
    compose_ansatz,
    invariants_for,
    pullback,
    verify_closed_form,
)
from .symmetry import (
    VectorField,
    check_symmetry,
    closure_table,
    commutator,
    decompose_field,
    determining_equations,
    field_lincomb,
)


def builtin_text() -> str:
    return resources.files("camchoi").joinpath("data/builtin.model").read_text(encoding="utf-8")


_DOC: Optional[ModelDocument] = None


def load_builtin() -> ModelDocument:
    global _DOC
    if _DOC is None:
        _DOC = parse_model(builtin_text())
    return _DOC


class LedgerEntry:
    def __init__(self, subject: str, printed: str, computed: str, residual: str, note: str = ""):
        self.subject = subject
        self.printed = printed
        self.computed = computed
        self.residual = residual
        self.note = note


class CaseResult:
    def __init__(self, label: str, kind: str, verdict: str, detail: Optional[Dict[str, object]] = None,
                 ledger: Optional[List[LedgerEntry]] = None):
        self.label = label
        self.kind = kind
        self.verdict = verdict  # pass | fail | mismatch-recorded | unsupported
        self.detail = {} if detail is None else detail
        self.ledger = [] if ledger is None else ledger


class Case:
    def __init__(self, label: str, kind: str, title: str, run: Callable[[ModelDocument], CaseResult]):
        self.label = label
        self.kind = kind
        self.title = title
        self.run = run


def run_case(case: Case, doc: ModelDocument) -> CaseResult:
    """Run one case; an exception becomes a ``fail`` verdict instead of
    aborting the suite, with ``detail.error`` naming its type and message.
    The traceback goes to standard error, never into the report."""
    try:
        return case.run(doc)
    except Exception as exc:
        import traceback  # only a failing case pays for importing it

        traceback.print_exc()
        return CaseResult(case.label, case.kind, "fail", {"error": "%s: %s" % (type(exc).__name__, exc)})


# -- shared helpers -------------------------------------------------------------


def _vf(doc: ModelDocument, name: str) -> VectorField:
    return doc.block(FieldBlock, name).vf


def _pde(doc: ModelDocument, name: str) -> Pde:
    return doc.block(PdeBlock, name).pde


def _cc(doc: ModelDocument) -> Context:
    return doc.block(PdeBlock, "cc").ctx


def _expr(doc: ModelDocument, text: str) -> Expr:
    """A printed formula in the cc context, read as the model file reads it."""
    return parse_expression(doc, _cc(doc), text)


def _field(doc: ModelDocument, eta: str = "0", **xi: str) -> VectorField:
    """A printed generator on cc, each coefficient a formula keyed by its variable."""
    ctx = _cc(doc)
    return VectorField(ctx, {v: _expr(doc, xi[v.name]) for v in ctx.independents if v.name in xi},
                       _expr(doc, eta), name="printed")


def x3_of(doc: ModelDocument, arg: Expr) -> VectorField:
    ctx = _cc(doc)
    t, x = ctx.independents[:2]
    return VectorField(ctx, {x: arg}, -arg.diff(t), name="X3(arg)")


def x4_of(doc: ModelDocument, arg: Expr) -> VectorField:
    ctx = _cc(doc)
    t, x, y = ctx.independents
    dt, Y = arg.diff(t), Expr.atom(y)
    return VectorField(ctx, {y: arg, x: -dt * Y / 2}, dt.diff(t) * Y / 2, name="X4(arg)")


def compare_fields(computed: VectorField, printed: VectorField) -> str:
    if computed == printed:
        return "match"
    neg = field_lincomb([(-1, printed)], printed.ctx)
    if computed == neg:
        return "sign-flip"
    return "mismatch"


def _combo(doc: ModelDocument, pairs: List[Tuple[object, str]]) -> VectorField:
    """sum(coeff * field); a coefficient is a rational or a formula such as
    "-alpha".  No pairs give the zero field."""
    terms = [(_expr(doc, c) if isinstance(c, str) else c, _vf(doc, fname)) for c, fname in pairs]
    return field_lincomb(terms, terms[0][1].ctx if terms else _cc(doc))


# -- observations: one per check kind, shared with the subcommands ------------------
#
# An observation's verdict is what the computation found: pass when the check
# comes out clean, otherwise the kind's discrepancy verdict, which is fail for
# a symmetry residual and mismatch-recorded, with a ledger entry, for the rest.


def observe_symmetry(doc: ModelDocument, label: str, pairs: List[Tuple[str, str]]) -> CaseResult:
    """Symmetry residual of each (field, pde) pair of block names."""
    residuals = {"%s on %s" % (f, p): check_symmetry(_vf(doc, f), _pde(doc, p)) for f, p in pairs}
    ok = all(r.is_zero for r in residuals.values())
    return CaseResult(label, "symmetry", "pass" if ok else "fail",
                      {"residuals": {k: str(r) for k, r in residuals.items()}})


def observe_reduction(doc: ModelDocument, label: str, pde_name: str, ansatz_name: str,
                      printed_name: Optional[str] = None, identify=()) -> CaseResult:
    """Pull pde_name back under ansatz_name.  With printed_name the result is
    compared with that catalogued equation, after the parameter
    identifications (pairs of names) in identify, and the comparison goes to
    the ledger."""
    red = pullback(_pde(doc, pde_name), doc.block(AnsatzBlock, ansatz_name).ansatz)
    detail = {"derived": str(red.lhs)}
    if printed_name is None:
        return CaseResult(label, "reduction", "pass", detail)
    printed = doc.equation_of(doc.find(printed_name))
    subs = [(doc.params[a], Expr.atom(doc.params[b])) for a, b in identify]
    rep = compare_reduced(red, printed, substitutions=subs or None)
    detail["verdict vs printed"] = rep.verdict
    if rep.verdict == "mismatch":
        note = "printed reduced equation differs from the computed reduction"
    elif rep.verdict == "under-substitution":
        note = "matches under the identification " + ", ".join("%s = %s" % (s.name, v) for s, v in subs)
    else:
        note = "matches the computed reduction (%s)" % rep.verdict
    ledger = [LedgerEntry("%s under %s" % (pde_name, ansatz_name), str(printed.lhs), str(red.lhs),
                          str(rep.residual), note)]
    verdict = "mismatch-recorded" if rep.verdict == "mismatch" else "pass"
    return CaseResult(label, "reduction", verdict, detail, ledger)


def observe_first_integral(doc: ModelDocument, label: str, eq_name: str, fi_name: str) -> CaseResult:
    """Residual of the quadrature candidate fi_name against equation eq_name."""
    eq = doc.equation_of(doc.find(eq_name))
    r = check_first_integral(eq, doc.block(IntegralBlock, fi_name))
    detail = {"residual": str(r)}
    if r.is_zero:
        return CaseResult(label, "first-integral", "pass", detail)
    entry = LedgerEntry("d(%s) against %s" % (fi_name, eq_name), fi_name, eq_name,
                        str(r), "printed quadrature pair leaves a nonzero residual")
    return CaseResult(label, "first-integral", "mismatch-recorded", detail, [entry])


def observe_closed_form(doc: ModelDocument, label: str, eq_name: str, sol_name: str) -> CaseResult:
    """Residual of closed form sol_name substituted into equation eq_name;
    a nonzero one comes with its constraints, the coefficients that must
    vanish."""
    eq = doc.equation_of(doc.find(eq_name))
    blk = doc.block(SolutionBlock, sol_name)
    eq.ctx.check_same_space(doc.equation_of(doc.find(blk.on)).ctx, ReductionError,
                            "equation " + eq.name, "solution " + sol_name)
    res, cons = verify_closed_form(eq, blk.sol, blk.rules, blk.bindings)
    detail = {"residual": str(res)}
    if res.is_zero:
        return CaseResult(label, "solution", "pass", detail)
    detail["constraints"] = cons = {str(k): str(v) for k, v in cons.items()}
    note = "closed form leaves a nonzero residual; constraints: " + ", ".join(
        "%s = 0" % v for _k, v in sorted(cons.items()))
    entry = LedgerEntry("%s into %s" % (sol_name, eq_name), str(blk.sol), "", str(res), note)
    return CaseResult(label, "solution", "mismatch-recorded", detail, [entry])


# -- case builders: an observation and what the case expects of it -------------------


def _expect(result: CaseResult, ok: bool) -> CaseResult:
    """The suite's verdict: the observation when ok (it is what the case
    expects), fail otherwise."""
    if not ok:
        result.verdict = "fail"
    return result


def _at_alpha_zero(doc: ModelDocument) -> ModelDocument:
    """A new doc with alpha = 0 substituted into every pde block, each block's
    solved form expanded again; doc itself is left as it is."""
    alpha = doc.params["alpha"]
    return ModelDocument(doc.declarations,
                         [PdeBlock(b.name, b.ctx, b.lhs.subst(alpha, ZERO), b.note, b.constants)
                          if isinstance(b, PdeBlock) else b for b in doc.blocks],
                         doc.params, doc.funcs)


def _sym_case(label: str, title: str, pairs: List[Tuple[str, str]], alpha_zero: bool = False) -> Case:
    """Each pair is expected to be a symmetry, which is the pass observation."""
    def run(doc: ModelDocument) -> CaseResult:
        return observe_symmetry(_at_alpha_zero(doc) if alpha_zero else doc, label, pairs)

    return Case(label, "symmetry", title, run)


def _bracket_case(label: str, title: str, relations, note: str) -> Case:
    """Compare computed commutators with printed ones.  A relation is
    (subject, left, right, printed, expected): printed is a field builder or a
    _combo list, expected is match, sign-flip or mismatch.  A verdict other
    than expected fails the case; every mismatch goes to the ledger."""

    def run(doc: ModelDocument) -> CaseResult:
        detail = {}
        ledger: List[LedgerEntry] = []
        ok = True
        for subject, left, right, printed, expected in relations:
            Z = commutator(_vf(doc, left), _vf(doc, right))
            P = printed(doc) if callable(printed) else _combo(doc, printed)
            detail[subject] = verdict = compare_fields(Z, P)
            ok = ok and verdict == expected
            if verdict == "mismatch":
                ledger.append(LedgerEntry(subject, str(P), str(Z), "", note))
        verdict = "pass" if ok and not ledger else ("mismatch-recorded" if ok else "fail")
        return CaseResult(label, "commutators", verdict, detail, ledger)

    return Case(label, "commutators", title, run)


def _table(names: List[str], printed: dict, expected: dict) -> list:
    """The relations of a printed commutator table, one per ordered pair;
    pairs missing from printed commute, pairs missing from expected match."""
    return [("[%s,%s]" % (a, b), a, b, printed.get((a, b), []), expected.get((a, b), "match"))
            for a in names for b in names if a != b]


def _closure_case(label: str, title: str, names: List[str]) -> Case:
    def run(doc: ModelDocument) -> CaseResult:
        rep = closure_table([_vf(doc, nm) for nm in names])
        return CaseResult(label, "closure", "pass" if rep.closed else "fail", {"closed": rep.closed})

    return Case(label, "closure", title, run)


def _red_case(label: str, title: str, pde_name: str, ansatz_name: str, printed_name: Optional[str] = None,
              expected: str = "", derived_name: Optional[str] = None, identify=()) -> Case:
    """A reduction whose comparison with printed_name is expected to give the
    compare verdict expected, and whose derived equation, with derived_name,
    is expected to equal that hand-derived oracle."""

    def run(doc: ModelDocument) -> CaseResult:
        result = observe_reduction(doc, label, pde_name, ansatz_name, printed_name, identify)
        ok = result.detail.get("verdict vs printed", "") == expected
        if derived_name:
            # printed forms are canonical, so equal strings are equal equations
            oracle = str(doc.equation_of(doc.find(derived_name)).normalized())
            result.detail["matches hand-derived oracle"] = same = result.detail["derived"] == oracle
            ok = ok and same
        return _expect(result, ok)

    return Case(label, "reduction", title, run)


def _fi_case(title: str, eq_name: str, fi_name: str) -> Case:
    """A printed quadrature pair that is expected to leave a nonzero residual."""
    label = fi_name[:2] + "." + fi_name[2:]

    def run(doc: ModelDocument) -> CaseResult:
        result = observe_first_integral(doc, label, eq_name, fi_name)
        return _expect(result, result.verdict == "mismatch-recorded")

    return Case(label, "first-integral", title, run)


def _sol_case(title: str, name: str) -> Case:
    """A closed-form solution that is expected to leave a zero residual."""
    label = name[:2] + "." + name[2:]

    def run(doc: ModelDocument) -> CaseResult:
        result = observe_closed_form(doc, label, doc.block(SolutionBlock, name).on, name)
        return _expect(result, result.verdict == "pass")

    return Case(label, "solution", title, run)


# -- the case registry -----------------------------------------------------------

_RELATION_NOTE = "printed relation does not reproduce"
_TABLE_NOTE = "table entry is internally inconsistent with the computed commutator"


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
    add(_bracket_case("cc.05", "first commutator row", [
        ("[X1,X2]", "X1", "X2", [(2, "X1")], "match"),
        ("[X1,X3]", "X1", "X3", lambda d: x3_of(d, _expr(d, "D(phi;t)")), "match"),
        ("[X1,X4]", "X1", "X4", lambda d: x4_of(d, _expr(d, "D(psi;t)")), "match"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.06", "scaling against the function family", [
        ("[X2,X3]", "X2", "X3", lambda d: x3_of(d, _expr(d, "phi(t) - 2*t*D(phi;t)")), "sign-flip"),
        ("[X2,X4]", "X2", "X4", lambda d: x4_of(d, _expr(d, "(3/4)*psi(t) - 2*t*D(psi;t)")), "mismatch"),
        ("[X3,X4]", "X3", "X4", [], "match"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.07", "function family among itself", [
        ("[X3(phi),X3(chi)]", "X3", "X3chi", [], "match"),
        ("[X4(psi),X4(chi)]", "X4", "X4chi",
         lambda d: x3_of(d, _expr(d, "(1/2)*(chi(t)*D(psi;t) - psi(t)*D(chi;t))")), "match"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.09", "constant family, first row", [
        ("[X1p,X2p]", "X1p", "X2p", [(2, "X1p")], "match"),
        ("[X1p,X3p]", "X1p", "X3p", [], "match"),
        ("[X1p,X4p]", "X1p", "X4p", [], "match"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.10", "constant family, second row", [
        ("[X2p,X3p]", "X2p", "X3p", [(1, "X3p")], "sign-flip"),
        ("[X2p,X4p]", "X2p", "X4p", [(Fraction(3, 2), "X3p")], "mismatch"),
        ("[X3p,X4p]", "X3p", "X4p", [], "match"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.12", "exponential family, first row", [
        ("[X1p,X5p]", "X1p", "X5p", [("omega1", "X5p")], "match"),
        ("[X1p,X6p]", "X1p", "X6p", [("omega2", "X6p")], "match"),
        ("[X1p,X6p_printed]", "X1p", "X6p_printed", [("omega2", "X6p_printed")], "mismatch"),
        ("[X2p,X5p]", "X2p", "X5p", lambda d: _field(d, x="exp(omega1*t)*(1 - omega1*t)",
                                                     eta="exp(omega1*t)*omega1*(1 + 2*omega1*t)"), "mismatch"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.13", "exponential family, scaling row", [
        ("[X2p,X6p]", "X2p", "X6p", lambda d: _field(
            d, y="exp(omega2*t)*(1/2)*(3 - 4*omega2*t)", x="exp(omega2*t)*(1/4)*(1 + 4*omega2*t)*omega2*y",
            eta="-exp(omega2*t)*(1/4)*(5 + 4*omega2*t)*omega2^2*y"), "sign-flip"),
    ], _RELATION_NOTE))
    add(_bracket_case("cc.14", "exponential family, translation row", [
        ("[X3p,X5p]", "X3p", "X5p", [], "match"),
        ("[X3p,X6p]", "X3p", "X6p", [], "match"),
        ("[X4p,X6p]", "X4p", "X6p",
         lambda d: _field(d, t="(1/2)*omega2*exp(omega2*t)", eta="-(1/2)*omega2^2*exp(omega2*t)"), "mismatch"),
    ], _RELATION_NOTE))

    # printed commutator tables
    add(_bracket_case("table-1", "printed commutator table of the constant family", _table(
        ["X1p", "X2p", "X3p", "X4p"],
        {("X1p", "X2p"): [(2, "X1p")], ("X2p", "X1p"): [(2, "X1p")],
         ("X2p", "X3p"): [(1, "X3p")], ("X3p", "X2p"): [(-1, "X3p")],
         ("X2p", "X4p"): [(Fraction(3, 2), "X3p")], ("X4p", "X2p"): [(Fraction(-3, 2), "X3p")]},
        {("X2p", "X1p"): "sign-flip", ("X2p", "X3p"): "sign-flip", ("X3p", "X2p"): "sign-flip",
         ("X2p", "X4p"): "mismatch", ("X4p", "X2p"): "mismatch"}), _TABLE_NOTE))
    add(_bracket_case("table-2", "printed commutator table of the generalized family", _table(
        ["Y1f", "Yb2f", "Y3f", "Y4f", "Y5f"],
        {("Y1f", "Yb2f"): [(2, "Y1f"), ("alpha", "Y3f")], ("Yb2f", "Y1f"): [(-2, "Y1f"), ("-alpha", "Y3f")],
         ("Y1f", "Y5f"): [(2, "Y4f")], ("Y5f", "Y1f"): [(-2, "Y4f")],
         ("Yb2f", "Y3f"): [(-1, "Y3f")], ("Y3f", "Yb2f"): [(1, "Y3f")],
         ("Yb2f", "Y4f"): [(Fraction(-3, 2), "Y4f")], ("Y4f", "Yb2f"): [(Fraction(3, 2), "Y4f")],
         ("Yb2f", "Y5f"): [(Fraction(1, 2), "Y5f")], ("Y5f", "Yb2f"): [(Fraction(-1, 2), "Y5f")],
         ("Y4f", "Y5f"): [(-1, "Y3f")], ("Y5f", "Y4f"): [(1, "Y3f")]}, {}), _TABLE_NOTE))

    # closure analysis
    add(Case("proposition-closure", "closure", "five-field subalgebra closes", _run_prop_closure))
    add(Case("cc.11-closure", "closure", "six-field set does not close", _run_six_closure))
    add(_closure_case("table-2-closure", "generalized family closes", ["Y1f", "Yb2f", "Y3f", "Y4f", "Y5f"]))
    add(_closure_case("cc.22", "sl(2,R) triple of the reduced equation", ["Z1", "Z2", "Z3"]))
    add(Case("cc.15", "closure", "closure constraints select constant translation speeds", _run_cc15))
    add(Case("cc.16", "closure", "closure constraints select an affine drift", _run_cc16))
    add(Case("cc.17", "closure", "cross constraints keep the mixed bracket decomposable", _run_cc17))

    # determining equations
    add(Case("sec3-determining", "determining", "determining system of cc", _run_determining))

    # reductions
    h0_is_alpha = [("h0", "alpha")]
    add(Case("cc.18", "reduction", "invariants of the diagonal translation", _run_cc18_invariants))
    add(_red_case("cc.19", "reduction of cc under cc18", "cc", "cc18", "cc19", "under-substitution",
                  "cc19d", h0_is_alpha))
    add(_red_case("eq.33", "reduction of gcc under w = x - y", "gcc", "gccw", "eq33", "mismatch",
                  "eq33d", h0_is_alpha))
    add(Case("chain", "reduction", "two-step reduction equals the composed one", _run_chain))
    add(_red_case("cc.25", "static reduction of the reduced equation", "cc19", "z1red", "cc25", "mismatch"))
    add(_red_case("cc.29", "scaling reduction of the reduced equation", "cc19", "z2red", "cc29", "mismatch"))
    add(_red_case("cc.32", "projective reduction recorded", "cc19", "z3red"))
    add(_red_case("eq.34", "travel-wave reduction of the generalized equation", "eq33", "eq34red", "eq34",
                  "mismatch"))
    add(Case("eq.36", "reduction", "scaling substitution recorded", _run_eq36))

    # first integrals
    add(_fi_case("quadrature of the static reduction", "cc25", "cc26"))
    add(_fi_case("quadrature of the scaling reduction", "cc30", "cc31"))
    add(_fi_case("quadrature of the travel-wave reduction", "eq34", "eq35"))
    add(Case("eq.38", "first-integral", "quadrature of the scaling reduction, both groupings", _run_fi_eq38))
    add(_fi_case("second-order quadrature of the scaling reduction", "cc29", "cc30"))

    # closed forms
    add(_sol_case("rational-drift similarity solution", "cc24"))
    add(Case("cc.27", "solution", "tanh front with amplitude constraint", _run_cc27))
    add(Case("cc.28", "solution", "first-order form compiles to a numeric system", _run_cc28))
    add(Case("cc.33", "solution", "projective first-order form compiles and certifies", _run_cc33))

    # numerics
    add(Case("fig-1", "numerics", "three-curve figure reproduction, cross-method agreement", _run_fig1_agreement))

    return cases


# -- one-off cases bound to the builtin document ----------------------------------


def _run_x6p_printed(doc: ModelDocument) -> CaseResult:
    r = check_symmetry(_vf(doc, "X6p_printed"), _pde(doc, "cc"))
    entry = LedgerEntry(
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
    ledger = [LedgerEntry(w, "", "", "", "commutator leaves the six-field span") for w in witnesses]
    return CaseResult(
        "cc.11-closure",
        "closure",
        "pass" if ok else "fail",
        {"closed": rep.closed, "witnesses": witnesses},
        ledger,
    )


def _run_cc15(doc: ModelDocument) -> CaseResult:
    # with phi constant the translation bracket [X1, X3(1)] vanishes
    Z = commutator(_vf(doc, "X1"), _vf(doc, "X3p"))
    ok = Z.is_zero_field()
    return CaseResult("cc.15", "closure", "pass" if ok else "fail", {"[X1,X3(1)]": str(Z)})


def _run_cc16(doc: ModelDocument) -> CaseResult:
    # psi affine in t keeps the scaling bracket inside the span {X4(1), X4(t)}
    Z = commutator(_vf(doc, "X2"), _vf(doc, "X5"))
    dec = decompose_field(Z, [_vf(doc, "X4p"), _vf(doc, "X5"), _vf(doc, "X3p")])
    return CaseResult("cc.16", "closure", "pass" if dec.ok else "fail",
                      {"decomposed": dec.ok, "coefficients": dec.coefficient_strings()})


def _run_cc17(doc: ModelDocument) -> CaseResult:
    # [X4(1), X4(t)] = -(1/2) X3(1) stays in the five-field span
    Z = commutator(_vf(doc, "X4p"), _vf(doc, "X5"))
    ok = Z == _combo(doc, [(Fraction(-1, 2), "X3p")])
    return CaseResult("cc.17", "closure", "pass" if ok else "fail", {"bracket": str(Z)})


def _run_determining(doc: ModelDocument) -> CaseResult:
    det = determining_equations(_pde(doc, "cc"))
    ctx = _cc(doc)
    rules = {
        "xi_t": "c1 + 2*c2*t",
        "xi_x": "c2*x + c3*phi(t) - (1/2)*c4*D(psi;t)*y",
        "xi_y": "(3/2)*c2*y + c4*psi(t)",
        "eta": "c2*(alpha - u) - c3*D(phi;t) + (1/2)*c4*D(psi;t,t)*y",
    }
    vals = det.substitute_solution({k: _expr(doc, v) for k, v in rules.items()})
    annihilated = all(v.is_zero for v in vals)
    args = tuple(ctx.independents) + (ctx.dependent,)
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
    X34 = _combo(doc, [(1, "X3p"), (1, "X4p")])
    a = invariants_for(X34, names=["w"], dep_name="U")
    blk = doc.block(AnsatzBlock, "cc18").ansatz
    same = [e1 == e2 for (_v1, e1), (_v2, e2) in zip(a.new_independent, blk.new_independent)]
    ok = all(same) and a.dependent_rule == blk.dependent_rule
    annihilates = all(X34.apply_to(inv).is_zero for inv in a.invariant_exprs())
    return CaseResult("cc.18", "reduction", "pass" if ok and annihilates else "fail",
                      {"invariants": [str(e) for _v, e in a.new_independent],
                       "generator annihilates invariants": annihilates})


def _run_chain(doc: ModelDocument) -> CaseResult:
    cc = _pde(doc, "cc")
    a1 = doc.block(AnsatzBlock, "cc18").ansatz
    mid = pullback(cc, a1).to_pde()
    alpha = Expr.atom(doc.params["alpha"])
    s = Sym("s", VARIABLE)
    fY = Func("Y", (s,))
    w = a1.new_independent[1][0]
    t = a1.new_independent[0][0]
    a2 = Ansatz(mid.ctx, [(s, Expr.atom(w) - Expr.atom(t))], fY, Expr.atom(fY) + 1 + alpha, name="travel")
    two_step = pullback(mid, a2)
    composed = pullback(cc, compose_ansatz(a1, a2))
    ctx = cc.ctx
    tt, xx, yy = ctx.independents
    direct_a = Ansatz(ctx, [(s, Expr.atom(yy) - Expr.atom(xx) - Expr.atom(tt))], fY, Expr.atom(fY) + 1 + alpha,
                      name="direct")
    direct = pullback(cc, direct_a)
    ok = two_step.lhs == direct.lhs == composed.lhs
    return CaseResult("chain", "reduction", "pass" if ok else "fail",
                      {"travel-wave equation": str(direct.lhs)})


def _run_eq36(doc: ModelDocument) -> CaseResult:
    blk = doc.block(AnsatzBlock, "eq36")
    return CaseResult("eq.36", "reduction", "unsupported",
                      {"invariant": str(blk.ansatz.new_independent[0][1]), "note": blk.note})


def _run_fi_eq38(doc: ModelDocument) -> CaseResult:
    eq = doc.equation_of(doc.find("eq37"))
    out = {}
    ledger = []
    for nm in ("eq38", "eq38alt"):
        r = check_first_integral(eq, doc.block(IntegralBlock, nm))
        out[nm] = str(r)
        if not r.is_zero:
            ledger.append(LedgerEntry("d(%s) against eq37" % nm, nm, "eq37", str(r),
                                      "grouping leaves a nonzero residual"))
    verdict = "mismatch-recorded" if ledger else "pass"
    return CaseResult("eq.38", "first-integral", verdict, out, ledger)


def _run_cc27(doc: ModelDocument) -> CaseResult:
    blk = doc.block(SolutionBlock, "cc27")
    target = doc.equation_of(doc.find(blk.on))
    res, cons = verify_closed_form(target, blk.sol, blk.rules, blk.bindings)
    constrained = blk.sol.subst(doc.params["A"], _expr(doc, "1/c"))
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
    ok = sys.order == 1 and traj.samples[0][1] == (0.0,) and not traj.flag
    return CaseResult("cc.28", "solution", "pass" if ok else "fail",
                      {"dimension": sys.order, "samples": len(traj.samples)})


def _run_cc33(doc: ModelDocument) -> CaseResult:
    blk = doc.block(OdeBlock, "cc33ode")
    sys = compile_rhs(blk.ctx, blk.lhs, {doc.params["Y0"]: 1.0, doc.params["Y1"]: 0.0})
    traj = integrate(sys, [0.5], IntegratorConfig(span=(0.0, 1.0)))
    sol_blk = doc.block(SolutionBlock, "cc32")
    target = doc.equation_of(doc.find(sol_blk.on))
    res, _ = verify_closed_form(target, sol_blk.sol, sol_blk.rules, sol_blk.bindings)
    ok = sys.order == 1 and res.is_zero and not traj.flag
    return CaseResult("cc.33", "solution", "pass" if ok else "fail",
                      {"dimension": sys.order, "similarity solution residual": str(res)})


FIG1_RUNS = ("fig1n2", "fig1n3", "fig1n5")


def fig1_trajectory(doc: ModelDocument, run_name: str, grouping: str = "default",
                    span=None, method: Optional[str] = None, step: Optional[float] = None):
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
        step=float(rb.step) if step is None else step,
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
