"""Change-of-variables engine: invariants of generators, pullback of equations
under a similarity ansatz, printed-form comparison, first integrals, and
closed-form solution checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import (
    DEPENDENT,
    Exponent,
    Expr,
    ExprError,
    Func,
    INDEPENDENT,
    Jet,
    REDUCED,
    Sym,
    ONE,
    ZERO,
    derivative_table,
)
from .jet import Context, Pde, expand_pde, total_derivative
from .symmetry import VectorField, eliminate


class ReductionError(ExprError):
    pass


class UnsupportedField(ReductionError):
    """Raised by invariants_for when the generator shape is out of scope."""


@dataclass
class Ansatz:
    """New independent variables as expressions of the old, plus a dependent rule.

    ``dependent_rule`` expresses the old dependent variable through a new
    function symbol applied to the new variables.  It may be None for
    catalogued substitutions that fall outside the representable fragment;
    such an ansatz cannot be pulled back.
    """

    src: Context
    new_independent: List[Tuple[Sym, Expr]]
    new_dep: Optional[Sym]
    func: Optional[Func]
    dependent_rule: Optional[Expr]
    inverse_hints: List[Tuple[Sym, Expr]] = field(default_factory=list)
    name: str = ""
    note: str = ""

    def new_context(self) -> Context:
        if self.new_dep is None:
            raise ReductionError("ansatz %s has no dependent rule" % self.name)
        return Context(
            tuple(v for v, _ in self.new_independent),
            self.new_dep,
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
    rows = [[e.diff(v) for v in a.src.independents] for _, e in a.new_independent]
    return 0 < len(rows) == len(eliminate(rows, len(a.src.independents)))


@dataclass
class ReducedEquation:
    ctx: Context
    lhs: Expr
    name: str = ""

    def normalized(self) -> Expr:
        return self.lhs.content_normalized()

    def to_pde(self) -> Pde:
        return expand_pde(self.ctx, self.lhs, name=self.name)


@dataclass
class FirstIntegralCandidate:
    ctx: Context
    lhs: Expr
    constants: Tuple[Sym, ...] = ()
    name: str = ""


# -- invariants of translation and scaling generators -------------------------


def invariants_for(
    X: VectorField,
    names: Optional[List[str]] = None,
    dep_name: str = "F",
) -> Ansatz:
    """Zeroth-order invariants for diagonal affine generators.

    Supports pure translations and scalings with constant shifts.  Raises
    UnsupportedField for anything else (projective coefficients, mixed
    translation and scaling across variables, exponents outside the
    half-integer lattice), in which case the ansatz must be supplied by hand.
    """
    ctx = X.ctx
    lin: Dict[Sym, Tuple[Expr, Expr]] = {}
    for v in ctx.independents:
        a, b = _affine_parts(X.coefficient(v), v, ctx)
        lin[v] = (a, b)
    e_coeff, f_coeff = _affine_parts(X.eta, ctx.dependent, ctx)

    moving = [v for v in ctx.independents if not (lin[v][0].is_zero and lin[v][1].is_zero)]
    if not moving:
        raise UnsupportedField("unsupported field shape: zero base motion")
    scaling = [v for v in moving if not lin[v][0].is_zero]
    if scaling and len(scaling) != len(moving):
        raise UnsupportedField("unsupported field shape: mixed translation and scaling")

    if names is None:
        names = ["w%d" % i for i in range(1, len(ctx.independents))]
    new_vars: List[Tuple[Sym, Expr]] = []
    hints: List[Tuple[Sym, Expr]] = []
    name_iter = iter(names)

    if not scaling:
        pivot = moving[0]
        bp = lin[pivot][1]
        if not bp.is_monomial():
            raise UnsupportedField("unsupported field shape: non-monomial translation speed")
        for v in ctx.independents:
            if v == pivot:
                continue
            if v not in moving:
                new_vars.append((v, Expr.atom(v)))
            else:
                w = Sym(next(name_iter), REDUCED)
                expr = Expr.atom(v) - (lin[v][1] / bp) * Expr.atom(pivot)
                new_vars.append((w, expr))
                hints.append((v, Expr.atom(w) + (lin[v][1] / bp) * Expr.atom(pivot)))
        if not e_coeff.is_zero:
            raise UnsupportedField("unsupported field shape: dependent scaling under translation")
        if f_coeff.is_zero:
            rule_shift = ZERO
        else:
            rule_shift = (f_coeff / bp) * Expr.atom(pivot)
    else:
        pivot = scaling[0]
        ap = lin[pivot][0]
        if not ap.is_rational():
            raise UnsupportedField("unsupported field shape: non-rational scaling weight")
        apq = ap.as_rational()
        shifted: Dict[Sym, Expr] = {}
        for v in moving:
            a, b = lin[v]
            if not a.is_rational():
                raise UnsupportedField("unsupported field shape: non-rational scaling weight")
            shifted[v] = Expr.atom(v) + b / a
        for v in ctx.independents:
            if v == pivot:
                continue
            if v not in moving:
                new_vars.append((v, Expr.atom(v)))
                continue
            r = lin[v][0].as_rational() / apq
            ex = Fraction(-r)
            if (2 * ex).denominator != 1:
                raise UnsupportedField(
                    "unsupported field shape: exponent %s outside the half-integer lattice" % ex
                )
            w = Sym(next(name_iter), REDUCED)
            expo = Exponent(int(2 * ex), 0)
            new_vars.append((w, shifted[v] * shifted[pivot].pow_exponent(expo)))
            if lin[pivot][1].is_zero:
                back = Expr.atom(w) * Expr.atom(pivot).pow_exponent(expo.neg()) - lin[v][1] / lin[v][0]
                hints.append((v, back))
        if e_coeff.is_zero and not f_coeff.is_zero:
            raise UnsupportedField("unsupported field shape: dependent translation under scaling")
        if e_coeff.is_zero:
            rule_shift = ZERO
            dep_scale = None
        else:
            if not e_coeff.is_rational():
                raise UnsupportedField("unsupported field shape: non-rational dependent weight")
            r = e_coeff.as_rational() / apq
            if (2 * Fraction(r)).denominator != 1:
                raise UnsupportedField(
                    "unsupported field shape: exponent %s outside the half-integer lattice" % r
                )
            dep_scale = Exponent(int(2 * Fraction(r)), 0)

    dep = Sym(dep_name, DEPENDENT)
    fn = Func(dep_name, tuple(v for v, _ in new_vars))
    f_atom = Expr.atom(fn)
    if not scaling:
        rule = f_atom + rule_shift
    else:
        if e_coeff.is_zero:
            rule = f_atom
        else:
            shift = -(f_coeff / e_coeff)
            rule = shift + f_atom * shifted[pivot].pow_exponent(dep_scale)
    return Ansatz(ctx, new_vars, dep, fn, rule, hints, name="invariants(%s)" % (X.name or "X"))


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


def _substitute_dependent(lhs: Expr, ctx: Context, value: Expr,
                          links: List[Tuple[Sym, Expr]]) -> Expr:
    """Substitute u = value, and each jet of u by the matching derivative of value.

    ``value`` may use symbols w linked to the context variables by the
    (w, expression) pairs in ``links``; derivatives apply the chain rule
    through them.  A variable linked to itself passes through unchanged.
    """

    def chain_derivative(e: Expr, v: Sym) -> Expr:
        # a pass-through variable w == v is covered by the direct term
        dws = {w: wexpr.diff(v) for w, wexpr in links if w != v}
        return e.derive(lambda a: ONE if a == v else dws.get(a, ZERO))

    get = derivative_table(value, lambda e, i, _prev: chain_derivative(e, ctx.independents[i]))
    out = lhs
    jets = [a for a in set(lhs.atoms()) if isinstance(a, Jet) and a.dep == ctx.dependent]
    jets.sort(key=lambda a: a.sort_key())
    for a in jets:
        out = out.subst(a, get(a.counts))
    if out.contains(ctx.dependent):
        out = out.subst(ctx.dependent, value)
    return out


def pullback(pde: Pde, a: Ansatz) -> ReducedEquation:
    """Rewrite pde.lhs under the ansatz and cancel the overall monomial factor."""
    pde.ctx.check_same_space(a.src, ReductionError, "pde " + pde.name, "ansatz " + a.name)
    if a.dependent_rule is None:
        raise ReductionError("ansatz %s has no dependent rule; cannot pull back" % a.name)
    if not jacobian_rank_ok(a):
        raise ReductionError("ansatz %s has a rank-deficient Jacobian" % a.name)
    ctx = pde.ctx
    out = _substitute_dependent(pde.lhs, ctx, a.dependent_rule, a.new_independent)
    for v, hint in a.inverse_hints:
        out = out.subst(v, hint)

    new_ctx = a.new_context()
    out = _funcs_to_jets(out, a, new_ctx)
    out = _cancel_common_monomial(out)

    passthrough = {v for v, _ in a.new_independent}
    for atom in out.atoms():
        if isinstance(atom, Sym) and atom in set(ctx.independents) and atom not in passthrough:
            raise ReductionError("residual old variable %s in the reduced equation" % atom.name)
        if atom == ctx.dependent and atom != new_ctx.dependent:
            raise ReductionError("residual old variable %s in the reduced equation" % atom.name)
    return ReducedEquation(new_ctx, out.content_normalized(), name="%s|%s" % (pde.name, a.name))


def _funcs_to_jets(e: Expr, a: Ansatz, new_ctx: Context) -> Expr:
    fn = a.func
    return e.subst({at: new_ctx.jet_expr(at.orders) for at in set(e.atoms())
                    if at.__class__ is Func and at.name == fn.name and at.args == fn.args})


def _cancel_common_monomial(e: Expr) -> Expr:
    """Divide out the powers of variables common to every term.

    Only a Sym of independent or reduced kind is cancelled: a common jet,
    function or parameter factor is part of the equation.
    """
    if e.is_zero:
        return e
    common: Dict[object, Exponent] = {}
    first = True
    for mono, _c in e.terms:
        exps = {a: x for a, x in mono if a.__class__ is Sym and a.kind in (INDEPENDENT, REDUCED)}
        if first:
            common = dict(exps)
            first = False
        else:
            for atom in list(common):
                if atom in exps and exps[atom].n == common[atom].n:
                    if exps[atom].num2 < common[atom].num2:
                        common[atom] = exps[atom]
                elif common[atom].n == 0:
                    common[atom] = Exponent(min(0, common[atom].num2), 0)
                else:
                    del common[atom]
    common = {a: x for a, x in common.items() if not x.is_zero()}
    if not common:
        return e
    factor = ONE
    for atom, x in common.items():
        factor = factor * Expr.atom(atom, x)
    return e / factor


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
        a2.new_dep,
        a2.func,
        rule,
        [],
        name=name or "%s*%s" % (a1.name, a2.name),
    )


# -- comparison against printed forms -----------------------------------------


@dataclass
class CompareReport:
    verdict: str  # exact | constant-multiple | under-substitution | mismatch
    residual: Expr
    substitution: Optional[List[Tuple[Sym, Expr]]] = None


def compare_reduced(
    derived: ReducedEquation,
    printed: ReducedEquation,
    substitutions: Optional[List[Tuple[Sym, Expr]]] = None,
) -> CompareReport:
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
        if d == ps.content_normalized():
            return CompareReport("under-substitution", ZERO, substitutions)
        residual = (d - ps.content_normalized())
    else:
        residual = d - p
    return CompareReport("mismatch", residual.content_normalized(), substitutions)


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


def _solve_for_top(fi: FirstIntegralCandidate) -> Optional[Tuple[Jet, Expr]]:
    order = fi.lhs.max_jet_order()
    if order == 0:
        return None
    jet = fi.ctx.jet((order,))
    split = fi.lhs.affine_in(jet)
    if split is None or split[0].is_zero or not split[0].is_monomial():
        return None  # nonlinear in its own top derivative; skip elimination
    coeff, rest = split
    return jet, (-rest) / coeff


def check_first_integral(eq, fi: FirstIntegralCandidate) -> Expr:
    """Residual certifying fi as a first integral of eq (zero when it is one).

    The candidate is differentiated down to the order of the equation, the
    top derivative is cancelled by cross multiplication with the equation's
    top coefficient, and the remainder is reduced modulo fi itself.
    """
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
    solved = _solve_for_top(fi)
    if solved is not None:
        raw = raw.subst(*solved)  # the solved form is free of the top jet it replaces
    return raw.content_normalized()


# -- closed-form verification ---------------------------------------------------


@dataclass
class SolutionRule:
    """Defining relation for an opaque helper: D^orders f = expr."""

    func: Func  # carries the base derivative orders
    expr: Expr


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
    out = _substitute_dependent(target.lhs, target.ctx, sol, bindings or [])
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
        apps = {a for a in residual.atoms() if a.__class__.__name__ == "App"}
        if apps:
            constraints = residual.collect(apps)
        else:
            constraints = {ONE: residual}
    return residual, constraints
