"""Change-of-variables engine: invariants of generators, pullback of equations
under a similarity ansatz, printed-form comparison, first integrals, and
closed-form solution checks."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import (
    App,
    DEPENDENT,
    Exponent,
    Expr,
    ExprError,
    Func,
    Jet,
    Sym,
    VARIABLE,
    ONE,
    ZERO,
    derivative_table,
)
from .jet import Context, JetError, Pde, Record, _introduce, expand_pde, on_manifold, total_derivative
from .symmetry import VectorField, eliminate


class ReductionError(ExprError):
    pass


class UnsupportedField(ReductionError):
    """Raised by invariants_for when the generator shape is out of scope."""


class Ansatz(Record):
    """New independent variables as expressions of the old, plus a dependent rule.

    ``dependent_rule`` expresses the old dependent variable through a new
    function symbol ``func`` applied to the new variables; the new dependent
    variable is the symbol of func's name.  Both may be None for catalogued
    substitutions that fall outside the representable fragment; such an
    ansatz cannot be pulled back.
    """

    def __init__(self, src: Context, new_independent: List[Tuple[Sym, Expr]], func: Optional[Func],
                 dependent_rule: Optional[Expr], inverse_hints: Optional[List[Tuple[Sym, Expr]]] = None,
                 name: str = ""):
        self.src = src
        self.new_independent = new_independent
        self.func = func
        self.dependent_rule = dependent_rule
        self.inverse_hints = [] if inverse_hints is None else inverse_hints
        self.name = name

    def new_context(self) -> Context:
        if self.func is None:
            raise ReductionError("ansatz %s has no dependent rule" % self.name)
        return Context(
            tuple(v for v, _ in self.new_independent),
            Sym(self.func.name, DEPENDENT),
            self.src.parameters,
        )

    def invariant_exprs(self) -> List[Expr]:
        out = [e for _, e in self.new_independent]
        if self.dependent_rule is not None:
            out.append(self.dependent_expression())
        return out

    def dependent_expression(self) -> Expr:
        """The dependent invariant F solved from u = rule(F), when rule is affine in F."""
        if self.dependent_rule is None:
            raise ReductionError("ansatz %s has no dependent rule" % self.name)
        split = self.dependent_rule.affine_in(self.func)
        if split is None:
            raise ReductionError("dependent rule is not affine in the new function")
        coeff, rest = split
        if coeff.is_zero:
            raise ReductionError("dependent rule does not involve the new function")
        return (Expr.atom(self.src.dependent) - rest) / coeff


def jacobian_rank_ok(a: Ansatz) -> bool:
    """Full row rank of d(new)/d(old), by exact elimination; an ansatz with no
    new variable reduces nothing and fails."""
    rows = [{j: d for j, d in enumerate(map(e.diff, a.src.independents)) if d.terms} for _, e in a.new_independent]
    return 0 < len(rows) == len(eliminate(rows, len(a.src.independents)))


class ReducedEquation(Record):
    """lhs = 0 in the jet context ctx."""

    def __init__(self, ctx: Context, lhs: Expr, name: str = ""):
        self.ctx = ctx
        self.lhs = lhs
        self.name = name

    def normalized(self) -> Expr:
        return self.lhs.content_normalized()

    def to_pde(self) -> Pde:
        return expand_pde(self.ctx, self.lhs, name=self.name)


# -- invariants of translation and scaling generators -------------------------


def invariants_for(
    X: VectorField,
    names: Optional[List[str]] = None,
    dep_name: str = "F",
) -> Ansatz:
    """Zeroth-order invariants for diagonal affine generators.

    Each moving coordinate z moves as z' = a*z + b, with a zero for every base
    variable (a translation) or for none (a scaling).  ``flow(a, b)`` gives
    (shift, k) with z = shift + w*s^k and w invariant; s is the pivot (the
    first moving variable) shifted to vanish where a scaling fixes it.  Raises
    UnsupportedField for anything else (projective coefficients, mixed
    translation and scaling, exponents outside the half-integer lattice, a
    power the kernel cannot take of a shifted pivot): supply the ansatz by hand.
    Raises ReductionError for too few names, or for a new name or dep_name
    that is already a name of ctx or of an earlier new variable.
    """
    ctx = X.ctx
    lin = {v: _affine_parts(X.coefficient(v), v, ctx) for v in ctx.independents}
    e_coeff, f_coeff = _affine_parts(X.eta, ctx.dependent, ctx)

    moving = [v for v in ctx.independents if not (lin[v][0].is_zero and lin[v][1].is_zero)]
    if not moving:
        raise UnsupportedField("unsupported field shape: zero base motion")
    scaling = [v for v in moving if not lin[v][0].is_zero]
    if scaling and len(scaling) != len(moving):
        raise UnsupportedField("unsupported field shape: mixed translation and scaling")
    pivot = moving[0]
    ap, bp = lin[pivot]
    if not scaling and not bp.is_monomial():
        raise UnsupportedField("unsupported field shape: non-monomial translation speed")
    if not all(lin[v][0].is_rational() for v in moving):
        raise UnsupportedField("unsupported field shape: non-rational scaling weight")
    s = Expr.atom(pivot) + (bp / ap if scaling else ZERO)

    def flow(a: Expr, b: Expr, shown: int) -> Tuple[Expr, Exponent]:
        if not scaling:
            return (b / bp) * Expr.atom(pivot), Exponent(0, 0)
        k = a.as_rational() / ap.as_rational()
        if (2 * k).denominator != 1:  # reported with the sign it takes in the formula built
            raise UnsupportedField(
                "unsupported field shape: exponent %s outside the half-integer lattice" % (shown * k))
        return -(b / a), Exponent(int(2 * k), 0)

    def power(k: Exponent) -> Expr:
        try:
            return s.pow_exponent(k)
        except ExprError:
            raise UnsupportedField("unsupported field shape: power %s of the non-monomial %s" % (k, s)) from None

    if names is None:
        names = ["w%d" % i for i in range(1, len(ctx.independents))]
    name_iter = iter(names)
    new_vars: List[Tuple[Sym, Expr]] = []
    hints: List[Tuple[Sym, Expr]] = []
    for v in ctx.independents:
        if v not in moving:
            new_vars.append((v, Expr.atom(v)))
            continue
        if v == pivot:
            continue
        shift, k = flow(*lin[v], -1)
        name = next(name_iter, None)
        if name is None:
            raise ReductionError("invariants_for needs %d names for the new variables, got %d"
                                 % (len(moving) - 1, len(names)))
        w = Sym(name, VARIABLE)
        new_vars.append((w, (Expr.atom(v) - shift) * power(k.neg())))
        if s.is_monomial():
            hints.append((v, Expr.atom(w) * power(k) + shift))
    if not scaling and not e_coeff.is_zero:
        raise UnsupportedField("unsupported field shape: dependent scaling under translation")
    if scaling and e_coeff.is_zero and not f_coeff.is_zero:
        raise UnsupportedField("unsupported field shape: dependent translation under scaling")
    if not e_coeff.is_rational():
        raise UnsupportedField("unsupported field shape: non-rational dependent weight")

    shift, scale = ZERO, ONE
    if not X.eta.is_zero:
        shift, k = flow(e_coeff, f_coeff, 1)
        scale = power(k)
    # the shape is supported; the names come last
    taken = {s.name: s for s in ctx.independents + ctx.parameters + (ctx.dependent,)}
    for name in names[:len(moving) - 1]:
        _introduce(taken, name, Sym(name, VARIABLE), "new variable", ReductionError)
    _introduce(taken, dep_name, Sym(dep_name, DEPENDENT), "dep_name", ReductionError)
    fn = Func(dep_name, tuple(v for v, _ in new_vars))
    return Ansatz(ctx, new_vars, fn, shift + Expr.atom(fn) * scale, hints,
                  name="invariants(%s)" % (X.name or "X"))


def _affine_parts(e: Expr, v: Sym, ctx: Context) -> Tuple[Expr, Expr]:
    """Split e = a*v + b; reject any other dependence on context variables."""
    split = e.affine_in(v)
    if split is None:
        raise UnsupportedField("unsupported field shape: %s is not affine in %s" % (e, v.name))
    a, b = split
    banned = set(ctx.independents) | {ctx.dependent}
    for piece in (a, b):
        for atom in piece.atoms():
            if isinstance(atom, Sym) and atom in banned:
                raise UnsupportedField("unsupported field shape: off-diagonal coefficient %s" % e)
            if isinstance(atom, (Jet, Func)):
                raise UnsupportedField("unsupported field shape: non-affine coefficient %s" % e)
    return a, b


# -- pullback ------------------------------------------------------------------


def _refuse_unknown(dep: Sym, named: List[Tuple[str, Expr]]) -> None:
    """Refuse a (role, expression) pair that holds dep, a jet of dep or a function of dep:
    an ansatz writes u through functions of the base variables alone (Olver, section 3.1)."""
    for role, e in named:
        for a in e.atoms():
            if a is dep or (a.__class__ is Jet and a.dep is dep) or (a.__class__ is Func and dep in a.args):
                raise ReductionError("%s %s holds %s" % (role, e, Expr.atom(a)))


def _substitute_dependent(lhs: Expr, ctx: Context, value: Expr, links: List[Tuple[Sym, Expr]],
                          value_role: str, link_role: str, name: str = "") -> Expr:
    """Substitute u = value, and each jet of u by the matching derivative of value,
    in the lhs of the equation called name.

    ``value`` may use symbols w linked to the context variables by the
    (w, expression) pairs in ``links``; derivatives apply the chain rule
    through them.  A variable linked to itself passes through unchanged.
    Neither may hold u, so no replacement holds a target and one pass is exact.
    The lhs may hold u and its jets but no function of u: a Func takes
    variables, so G(u) cannot become G(value).
    """
    _refuse_unknown(ctx.dependent, [(value_role, value)]
                    + [("%s %s =" % (link_role, w.name), e) for w, e in links])
    for a in lhs.atoms():
        if a.__class__ is Func and ctx.dependent in a.args:
            raise ReductionError("equation %s holds %s, a function of the unknown %s"
                                 % (name, Expr.atom(a), ctx.dependent.name))

    def chain_derivative(e: Expr, v: Sym) -> Expr:
        # a pass-through variable w == v is covered by the direct term
        dws = {w: wexpr.diff(v) for w, wexpr in links if w != v}
        return e.derive(lambda a: ONE if a == v else dws.get(a, ZERO))

    get = derivative_table(value, lambda e, i, _prev: chain_derivative(e, ctx.independents[i]))
    rules = {a: get(a.counts) for a in set(lhs.atoms()) if a.__class__ is Jet and a.dep is ctx.dependent}
    rules[ctx.dependent] = value
    return lhs.subst(rules)


def pullback(pde: Pde, a: Ansatz) -> ReducedEquation:
    """Rewrite pde.lhs under the ansatz and cancel the overall monomial factor."""
    pde.ctx.check_same_space(a.src, ReductionError, "pde " + pde.name, "ansatz " + a.name)
    if a.dependent_rule is None:
        raise ReductionError("ansatz %s has no dependent rule; cannot pull back" % a.name)
    if not jacobian_rank_ok(a):
        raise ReductionError("ansatz %s has a rank-deficient Jacobian" % a.name)
    ctx = pde.ctx
    _refuse_unknown(ctx.dependent, [("inverse hint %s =" % v.name, hint) for v, hint in a.inverse_hints])
    out = _substitute_dependent(pde.lhs, ctx, a.dependent_rule, a.new_independent, "dependent rule", "new variable",
                                pde.name)
    for v, hint in a.inverse_hints:
        out = out.subst(v, hint)

    new_ctx = a.new_context()
    out = _funcs_to_jets(out, a, new_ctx)
    out = _cancel_common_monomial(out)

    old_vars = set(ctx.independents) - {v for v, _ in a.new_independent}
    for atom in out.atoms():
        if atom in old_vars:
            raise ReductionError("residual old variable %s in the reduced equation" % atom.name)
    return ReducedEquation(new_ctx, out.content_normalized(), name="%s|%s" % (pde.name, a.name))


def _funcs_to_jets(e: Expr, a: Ansatz, new_ctx: Context) -> Expr:
    fn = a.func
    return e.subst({at: new_ctx.jet_expr(at.orders) for at in set(e.atoms())
                    if at.__class__ is Func and at.name == fn.name and at.args == fn.args})


def _cancel_common_monomial(e: Expr) -> Expr:
    """Divide out each variable's lowest power over all terms.

    A variable absent from a term has power 0 there; one whose powers differ
    in their n part is left alone.  Only a variable is cancelled: a common
    jet, function or parameter factor is part of the equation.
    """
    powers: Dict[Sym, List[Exponent]] = {}
    for mono, _c in e.terms:
        for a, x in mono:
            if a.__class__ is Sym and a.kind == VARIABLE:
                powers.setdefault(a, []).append(x)
    factor = ONE
    for atom, xs in powers.items():
        xs += [Exponent(0, 0)] * (len(e.terms) - len(xs))
        if len({x.n for x in xs}) == 1:
            factor = factor * Expr.atom(atom, min(xs, key=lambda x: x.num2))
    return e if factor is ONE else e / factor


def compose_ansatz(a1: Ansatz, a2: Ansatz, name: str = "") -> Ansatz:
    """Composite change of variables for successive reductions."""
    if a1.dependent_rule is None or a2.dependent_rule is None:
        raise ReductionError("cannot compose partial ansatz records")
    to_old = dict(a1.new_independent)
    new_independent = [(w, wexpr.subst(to_old)) for w, wexpr in a2.new_independent]
    rule = a1.dependent_rule.subst_func(a1.func.name, a1.func.args, a2.dependent_rule).subst(to_old)
    return Ansatz(
        a1.src,
        new_independent,
        a2.func,
        rule,
        [],
        name=name or "%s*%s" % (a1.name, a2.name),
    )


# -- comparison against printed forms -----------------------------------------


class CompareReport:
    def __init__(self, verdict: str, residual: Expr):
        self.verdict = verdict  # exact | constant-multiple | under-substitution | mismatch
        self.residual = residual


def compare_reduced(
    derived: ReducedEquation,
    printed: ReducedEquation,
    substitutions: Optional[List[Tuple[Sym, Expr]]] = None,
) -> CompareReport:
    derived.ctx.check_same_space(printed.ctx, ReductionError, "reduction " + derived.name, "equation " + printed.name)
    if derived.lhs == printed.lhs:
        return CompareReport("exact", ZERO)
    d = derived.normalized()
    p = printed.normalized()
    if d == p:
        return CompareReport("constant-multiple", ZERO)
    if substitutions:
        ps = printed.lhs
        for s, val in substitutions:
            ps = ps.subst(s, val)
        ps = ps.content_normalized()
        if d == ps:
            return CompareReport("under-substitution", ZERO)
        residual = d - ps
    else:
        residual = d - p
    return CompareReport("mismatch", residual.content_normalized())


# -- first integrals -----------------------------------------------------------


def _single_var(ctx: Context) -> Sym:
    if len(ctx.independents) != 1:
        raise ReductionError("first-integral checks need a single reduced variable")
    return ctx.independents[0]


def _top_jet_coeff(e: Expr, ctx: Context, order: int) -> Expr:
    split = e.affine_in(ctx.jet((order,)))
    if split is None:
        raise ReductionError("nonlinear top derivative in %s" % e)
    return split[0]


def check_first_integral(eq: ReducedEquation, fi: ReducedEquation) -> Expr:
    """Residual certifying fi as a first integral of eq (zero when it is one).

    The candidate is differentiated down to the order of the equation, the
    top derivative is cancelled by cross multiplication with the equation's
    top coefficient, and the remainder is reduced modulo fi itself, solved
    for its leading derivative by ``fi.to_pde()`` unless expand_pde refuses it.
    """
    eq.ctx.check_same_space(fi.ctx, ReductionError, "equation " + eq.name, "candidate " + fi.name)
    ctx = fi.ctx
    var = _single_var(ctx)
    eq_lhs = eq.lhs
    eq_order = eq_lhs.max_jet_order()
    fi_order = fi.lhs.max_jet_order()
    k = eq_order - fi_order
    if k not in (1, 2):
        raise ReductionError("order gap %d outside {1, 2}" % k)
    r = fi.lhs
    for _ in range(k):
        r = total_derivative(r, var, ctx)
    c_eq = _top_jet_coeff(eq_lhs, ctx, eq_order)
    c_r = _top_jet_coeff(r, ctx, eq_order)
    raw = c_eq * r - c_r * eq_lhs
    try:
        raw = on_manifold(raw, fi.to_pde())
    except JetError:  # nonlinear in its own top derivative: left unreduced
        pass
    return raw.content_normalized()


# -- closed-form verification ---------------------------------------------------


class SolutionRule(Record):
    """Defining relation for an opaque helper: D^orders f = expr."""

    def __init__(self, func: Func, expr: Expr):
        self.func = func  # carries the base derivative orders
        self.expr = expr


def verify_closed_form(
    target,
    sol: Expr,
    rules: Tuple[SolutionRule, ...] = (),
    bindings: Optional[List[Tuple[Sym, Expr]]] = None,
) -> Tuple[Expr, Dict[Expr, Expr]]:
    """Substitute a candidate solution into an equation.

    ``bindings`` declare composite inner variables (new symbol -> expression
    in the context variables) so chain rules apply through opaque functions
    of a similarity variable.  ``rules`` are defining relations applied
    repeatedly until no matching derivative atoms remain.  Returns the
    residual and, when nonzero, its coefficients collected over elementary
    function monomials (the constraint equations on the free constants).
    """
    _refuse_unknown(target.ctx.dependent, [("solution rule %s =" % Expr.atom(rule.func), rule.expr) for rule in rules])
    out = _substitute_dependent(target.lhs, target.ctx, sol, bindings or [], "closed form", "binding", target.name)
    for _ in range(12):
        before = out
        for rule in rules:
            out = out.subst_func(rule.func.name, rule.func.args, rule.expr, rule.func.orders)
        if out == before:
            break
    else:
        raise ReductionError("solution rules did not stabilize")

    residual = out
    constraints: Dict[Expr, Expr] = {}
    if not residual.is_zero:
        apps = {a for a in residual.atoms() if a.__class__ is App}
        if apps:
            constraints = residual.collect(apps)
        else:
            constraints = {ONE: residual}
    return residual, constraints
