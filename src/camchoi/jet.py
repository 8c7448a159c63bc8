"""Jet coordinates, the total-derivative operator, and PDE solution manifolds."""

from __future__ import annotations

from .expr import (
    DEPENDENT,
    Expr,
    ExprError,
    Jet,
    ONE,
    PARAMETER,
    Sym,
    VARIABLE,
    ZERO,
    as_expr,
)

MAX_JET_ORDER = 4  # third-order equations plus one total-derivative margin


class JetError(ExprError):
    pass


# what a name already is, for the message that refuses it again
_MEANING = {VARIABLE: "a variable", PARAMETER: "a parameter", DEPENDENT: "the dependent variable"}


def _introduce(names: dict, name: str, entry, role: str, error):
    """Add name to the name table names, which maps a name to its Sym or to a
    function's argument names, and return entry; raise error, worded from
    what the name already is, if the table has it."""
    if name in names:
        old = names[name]
        what = "a function" if isinstance(old, tuple) else _MEANING[old.kind]
        raise error("%s %r declared twice" % (role, name) if what == "a " + role
                    else "%s %r is already %s" % (role, name, what))
    names[name] = entry
    return entry


class Record:
    """Equal to another record when both are of one class and every field is
    equal.  A record holds no cache among its fields."""

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and vars(self) == vars(other)


class Context(Record):
    """One dependent variable over an ordered tuple of base variables.

    Immutable and hashable, so it can key a table.
    """

    def __init__(self, independents: tuple, dependent: Sym, parameters: tuple = ()):
        names = [v.name for v in independents] + [dependent.name]
        if len(set(names)) != len(names):
            raise JetError("variable names must be unique within a context")
        self.__dict__.update(independents=independents, dependent=dependent, parameters=parameters)

    def __setattr__(self, name, value):
        raise AttributeError("Context is immutable")

    def __delattr__(self, name):
        raise AttributeError("Context is immutable")

    def __hash__(self) -> int:
        return hash((self.independents, self.dependent, self.parameters))

    def __str__(self) -> str:
        return "(%s; %s)" % (", ".join(v.name for v in self.independents), self.dependent.name)

    def same_space(self, other: "Context") -> bool:
        """Same independents and dependent, so the same jet space; parameters may differ."""
        return self.independents == other.independents and self.dependent == other.dependent

    def check_same_space(self, other: "Context", error, mine: str, theirs: str) -> None:
        """Raise error naming both sides unless other is the same jet space."""
        if not self.same_space(other):
            raise error("%s is on %s but %s is on %s" % (mine, self, theirs, other))

    def jet(self, counts) -> object:
        counts = tuple(counts)
        if len(counts) != len(self.independents):
            raise JetError("jet index does not match the context")
        if sum(counts) == 0:
            return self.dependent
        if sum(counts) > MAX_JET_ORDER:
            raise JetError("jet order beyond the internal cap of %d" % MAX_JET_ORDER)
        return Jet(self.dependent, self.independents, counts)

    def jet_expr(self, counts) -> Expr:
        return Expr.atom(self.jet(counts))

    def var_index(self, v: Sym) -> int:
        for i, w in enumerate(self.independents):
            if w == v:
                return i
        raise JetError("%s is not an independent variable of the context" % v.name)

    def unit(self, v: Sym) -> tuple:
        i = self.var_index(v)
        return tuple(1 if j == i else 0 for j in range(len(self.independents)))


# (independents, dependent, v) -> {atom: D_v atom} for v, u and every other
# Sym or Jet met so far; the atoms are interned, so no entry can go stale.
# A jet past the order cap raises and is not stored.
_SHIFTS: dict = {}


def total_derivative(e: Expr, v: Sym, ctx: Context) -> Expr:
    """D_v e = d_v e + sum over u and the jets u_J of ctx.dependent of u_{J+v} * d e / d u_J.

    One ``Expr.derive`` pass: v goes to 1, u to u_v and u_J to u_{J+v}; every
    other Sym or Jet is constant.
    """
    key = (ctx.independents, ctx.dependent, v)
    shift = _SHIFTS.get(key)
    if shift is None:
        shift = _SHIFTS[key] = {v: ONE, ctx.dependent: ctx.jet_expr(ctx.unit(v))}

    def d(a):
        r = shift.get(a)
        if r is None:
            r = shift[a] = (ctx.jet_expr(tuple(c + k for c, k in zip(a.counts, ctx.unit(v))))
                            if a.__class__ is Jet and a.dep == ctx.dependent else ZERO)
        return r

    return as_expr(e).derive(d)


class Pde(Record):
    """lhs = 0 with a designated leading derivative solved as leading = leading_rhs."""

    def __init__(self, ctx: Context, lhs: Expr, leading: Jet, leading_rhs: Expr, name: str = ""):
        self.ctx = ctx
        self.lhs = lhs
        self.leading = leading
        self.leading_rhs = leading_rhs
        self.name = name

    def with_parameter(self, p: Sym, value) -> "Pde":
        return expand_pde(self.ctx, self.lhs.subst(p, as_expr(value)), name=self.name)


def expand_pde(ctx: Context, lhs: Expr, name: str = "") -> Pde:
    """Select the leading derivative of an expanded lhs and solve for it: the
    one solve behind pde blocks, ``ReducedEquation.to_pde``, ODE compilation
    and first-integral checks.

    The leading jet is the one of highest order, ties broken by the variable
    word under the context order, and must occur linearly with a monomial
    coefficient (a pde block also wants a parameter monomial).
    """
    lhs = as_expr(lhs)
    jets = [a for a in set(lhs.atoms()) if isinstance(a, Jet) and a.dep == ctx.dependent]
    if not jets:
        raise JetError("no jet variables in the equation")
    leading = max(jets, key=lambda a: (a.order, a.word()))
    split = lhs.affine_in(leading)
    if split is None:
        raise JetError("nonlinear in leading derivative: %s appears with a power other than 1"
                       % Expr.atom(leading))
    coeff, rest = split
    if not coeff.is_monomial():
        raise JetError("nonlinear in leading derivative: coefficient %s of %s" % (coeff, Expr.atom(leading)))
    return Pde(ctx, lhs, leading, (-rest) / coeff, name=name)


def on_manifold(e: Expr, pde: Pde) -> Expr:
    """Replace the leading derivative by its solved form.

    One substitution suffices: expand_pde takes the solved form from
    affine_in, so it never holds the leading derivative.
    """
    return as_expr(e).subst(pde.leading, pde.leading_rhs)
