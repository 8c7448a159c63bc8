"""Vector fields, prolongation, symmetry residuals, determining equations,
commutators, and Lie-algebra closure analysis."""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .expr import (
    Expr,
    ExprError,
    Func,
    Jet,
    PARAMETER,
    Sym,
    ZERO,
    ONE,
    _mono_sort_key,
    _primitive,
    _split_terms,
    _substitute,
    as_expr,
    derivative_table,
)
from .jet import Context, Pde, total_derivative


class SymmetryError(ExprError):
    pass


class VectorField:
    """Infinitesimal generator xi^i d_i + eta d_u on a base context.

    ``xi`` keeps only the nonzero coefficients of ctx's independents.
    """

    def __init__(self, ctx: Context, xi: Dict[Sym, Expr], eta: Expr, name: str = ""):
        self.ctx = ctx
        self.eta = eta = as_expr(eta)
        clean = {}
        for v in ctx.independents:
            e = as_expr(xi.get(v, ZERO))
            if not e.is_zero:
                clean[v] = e
        self.xi = clean
        self.name = name
        for e in list(clean.values()) + [eta]:
            if any(isinstance(a, Jet) for a in e.atoms()):
                raise SymmetryError("point-symmetry coefficients must be jet free")

    def coefficient(self, v: Sym) -> Expr:
        return self.xi.get(v, ZERO)

    def components(self) -> List[Tuple[object, Expr]]:
        out = [(v, self.coefficient(v)) for v in self.ctx.independents]
        out.append((self.ctx.dependent, self.eta))
        return out

    def apply_to(self, f: Expr) -> Expr:
        """Act as a first-order operator on a base-space function: one ``Expr.derive`` pass."""
        dep = self.ctx.dependent
        return as_expr(f).derive(lambda a: self.eta if a == dep else self.xi.get(a, ZERO))

    def is_zero_field(self) -> bool:
        return self.eta.is_zero and all(c.is_zero for c in self.xi.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return (
            self.ctx.same_space(other.ctx)
            and self.eta == other.eta
            and all(self.coefficient(v) == other.coefficient(v) for v in self.ctx.independents)
        )

    def __str__(self) -> str:
        parts = []
        for v, c in self.components():
            if not c.is_zero:
                parts.append("(%s) d_%s" % (c, v.name))
        return " + ".join(parts) if parts else "0"


def field_lincomb(pairs, ctx: Context, name: str = "") -> VectorField:
    """Rational or expression combination sum(c * X) of fields."""
    xi: Dict[Sym, Expr] = {}
    eta = ZERO
    for c, X in pairs:
        c = as_expr(c)
        for v, e in X.xi.items():
            xi[v] = xi.get(v, ZERO) + c * e
        eta = eta + c * X.eta
    return VectorField(ctx, xi, eta, name=name)


MAX_PROLONG_ORDER = 3


class ProlongedField:
    """The prolongation of a point generator up to MAX_PROLONG_ORDER, built on demand.

    ``eta(J)`` computes eta^[J] through the shared ``derivative_table``
    recursion, eta^[J+i] = D_i eta^[J] - sum_j u_{J+j} D_i xi^j, peeling off
    the last variable of J; the D_i xi^j are memoised per variable i.  The
    result does not depend on the decomposition of J.
    """

    def __init__(self, base: VectorField):
        self.base = base
        ctx = base.ctx
        dxi: Dict[int, List[Expr]] = {}

        def step(eta: Expr, i: int, prev: tuple) -> Expr:
            vi = ctx.independents[i]
            if i not in dxi:
                dxi[i] = [total_derivative(base.coefficient(vj), vi, ctx) for vj in ctx.independents]
            e = total_derivative(eta, vi, ctx)
            for j, d in enumerate(dxi[i]):
                if not d.is_zero:
                    e = e - ctx.jet_expr(prev[:j] + (prev[j] + 1,) + prev[j + 1 :]) * d
            return e

        self.eta = derivative_table(base.eta, step)


def prolong(X: VectorField) -> ProlongedField:
    """Extend a point generator to jet space; see ProlongedField."""
    return ProlongedField(X)


def _derivation(P: ProlongedField):
    """The ``Expr.derive`` rule of pr X: u to eta, x^i to xi^i and u_J to
    eta^[J]; a jet of another space is constant here."""
    X, ctx = P.base, P.base.ctx

    def d(a):
        if a.__class__ is not Jet:
            return X.eta if a == ctx.dependent else X.xi.get(a, ZERO)
        if a.dep != ctx.dependent or a.ivars != ctx.independents:
            return ZERO
        if a.order > MAX_PROLONG_ORDER:
            raise SymmetryError("%s is of order %d, beyond the prolongation order %d"
                                % (Expr.atom(a), a.order, MAX_PROLONG_ORDER))
        return P.eta(a.counts)

    return d


def apply_prolonged(P: ProlongedField, e: Expr) -> Expr:
    """eta d_u e + xi^i d_i e + sum_J eta^[J] d e / d u_J over the jets u_J of e:
    one ``Expr.derive`` pass."""
    return as_expr(e).derive(_derivation(P))


def _residual_terms(P: ProlongedField, pde: Pde) -> dict:
    """pr X (lhs) on the solution manifold as a raw {monomial: coefficient}
    map, zero sums kept, for a pde of order at most MAX_PROLONG_ORDER: one
    ``derive_terms`` pass, then the one substitution pass with the rule
    u_L -> leading_rhs.  This is ``on_manifold(apply_prolonged(P, lhs), pde)``
    without the two canonical sums in between.
    """
    order = pde.lhs.max_jet_order()
    if order > MAX_PROLONG_ORDER:
        raise SymmetryError("pde %s is of order %d; prolongation is implemented up to order %d"
                            % (pde.name, order, MAX_PROLONG_ORDER))
    m = pde.lhs.derive_terms(_derivation(P))
    leading, rhs = pde.leading, pde.leading_rhs
    on = _substitute(m.items(), lambda a, e: rhs.pow_exponent(e) if a is leading else None, (leading,))
    return m if on is None else on


def check_symmetry(X: VectorField, pde: Pde) -> Expr:
    """Symmetry residual on the solution manifold; zero certifies a symmetry."""
    X.ctx.check_same_space(pde.ctx, SymmetryError, "field " + X.name, "pde " + pde.name)
    return Expr._from_map(_residual_terms(prolong(X), pde))


class DeterminingSystem:
    def __init__(self, unknowns: List[Func], equations: List[Expr]):
        self.unknowns = unknowns
        self.equations = equations

    def substitute_solution(self, rules: Dict[str, Expr]) -> List[Expr]:
        """Substitute concrete coefficient expressions for the unknown functions:
        one map substitution per equation, from one derivative table per
        unknown shared by all equations."""
        tables = {(fn.name, fn.args): derivative_table(rules[fn.name],
                                                       lambda e, i, _p, args=fn.args: e.diff(args[i]))
                  for fn in self.unknowns if fn.name in rules}
        return [eq.subst({a: tables[a.name, a.args](a.orders) for a in set(eq.atoms())
                          if a.__class__ is Func and (a.name, a.args) in tables})
                for eq in self.equations]


# the generic generator's prolongation per jet space (independents, dependent);
# its unknowns are interned Funcs and its eta^[J] fill on demand, so every
# determining system on a space shares each eta^[J] once it is computed
_GENERIC_PROLONGATIONS: Dict[tuple, ProlongedField] = {}


def determining_equations(pde: Pde) -> DeterminingSystem:
    """Split the symmetry condition for opaque coefficients by jet monomials.

    The residual terms go straight into one coefficient map per jet monomial;
    a term whose exp/tanh argument holds a jet cannot be split and is refused.
    Each map is normalised in one pass: its terms sorted by monomial key and
    divided by their content, and the equation's ``key()`` read off the
    monomial keys already at hand.  Equal equations count once, and the
    system is sorted by ``key()``.
    """
    ctx = pde.ctx
    args = tuple(ctx.independents) + (ctx.dependent,)
    unknowns = [Func("xi_%s" % v.name, args) for v in ctx.independents] + [Func("eta", args)]
    space = (ctx.independents, ctx.dependent)
    P = _GENERIC_PROLONGATIONS.get(space)
    if P is None:
        X = VectorField(ctx, {v: Expr.atom(f) for v, f in zip(ctx.independents, unknowns)},
                        Expr.atom(unknowns[-1]), name="generic")
        P = _GENERIC_PROLONGATIONS[space] = prolong(X)
    keys = {}  # the terms of each distinct equation -> its key()
    for g in _split_terms(_residual_terms(P, pde).items(), lambda a: a.__class__ is Jet).values():
        items = sorted([(_mono_sort_key(mono), mono, c) for mono, c in g.items()],
                       key=itemgetter(0), reverse=True)
        terms = _primitive([item[1:] for item in items])
        if terms not in keys:
            keys[terms] = tuple([(item[0][2], c, 1) for item, (_mono, c) in zip(items, terms)])
    return DeterminingSystem(unknowns, [Expr(terms) for terms in sorted(keys, key=keys.__getitem__)])


def commutator(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] acting componentwise as first-order operators on the base space."""
    X.ctx.check_same_space(Y.ctx, SymmetryError, "field " + X.name, "field " + Y.name)
    ctx = X.ctx
    xi = {}
    for v in ctx.independents:
        xi[v] = X.apply_to(Y.coefficient(v)) - Y.apply_to(X.coefficient(v))
    eta = X.apply_to(Y.eta) - Y.apply_to(X.eta)
    return VectorField(ctx, xi, eta, name="[%s,%s]" % (X.name or "X", Y.name or "Y"))


# -- exact linear algebra over the expression ring -----------------------------


def eliminate(a: List[Dict[int, Expr]], ncols: int) -> List[int]:
    """Gauss-Jordan elimination on columns 0 .. ncols-1 of the rows a (dicts
    from column to nonzero entry), in place and without division; returns the
    pivot columns, pivot i in row i, the first row left that holds it.

    Each row update is piv * row - entry * pivot_row over both rows' columns
    but the pivot column, zeros dropped.  The ring is an integral domain, so
    the pivots and the rank are those of elimination over fractions.  Rows
    past the pivots hold no column below ncols; later columns ride along.
    """
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((rr for rr in range(r, len(a)) if c in a[rr]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        for rr, row in enumerate(a):
            e = row.get(c)
            if rr != r and e is not None:
                new = {k: piv * x for k, x in row.items() if k not in prow}
                for k, y in prow.items():
                    if k != c:
                        x = piv * row[k] - e * y if k in row else -(e * y)
                        if x.terms:
                            new[k] = x
                a[rr] = new
        pivots.append(c)
    return pivots


def solve_linear_exprs(rows: List[Dict[int, Expr]], ncols: int) -> Optional[List[Tuple[Expr, Expr]]]:
    """Solve A c = b exactly for the rows of [A | b], b in column ncols;
    returns (num, den) pairs or None when inconsistent.

    Free unknowns are set to zero.  Works over the fraction field of the
    expression domain, so no divisibility assumptions are needed.
    """
    a = list(rows)
    pivots = eliminate(a, ncols)
    if any(ncols in row for row in a[len(pivots):]):
        return None
    sol: List[Tuple[Expr, Expr]] = [(ZERO, ONE)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = (a[r].get(ncols, ZERO), a[r][c])
    return sol


class Decomposition:
    def __init__(self, ok: bool, coefficients: Optional[List[Tuple[Expr, Expr]]] = None):
        self.ok = ok
        self.coefficients = coefficients

    def coefficient_strings(self) -> List[str]:
        out = []
        for num, den in self.coefficients or []:
            if num.is_zero:
                out.append("0")
            elif den.is_monomial():
                out.append(str(num / den))
            else:
                # a monomial quotient is the ratio of the leading terms
                m = Expr(num.terms[:1]) / Expr(den.terms[:1])
                out.append(str(m) if num == m * den else "(%s)/(%s)" % (num, den))
        return out


def _component_rows(fields: List[VectorField], target: VectorField) -> List[Dict[int, Expr]]:
    """Rows of [A | b] matching monomials in everything except parameters:
    field j in column j, the target in column len(fields)."""
    rows: List[Dict[int, Expr]] = []
    for column in zip(*(f.components() for f in list(fields) + [target])):
        splits = [{key: Expr._from_map(rest) for key, rest in _split_terms(e.terms, _not_a_parameter).items()}
                  for _slot, e in column]
        keys = sorted(set().union(*splits), key=lambda kk: _mono_sort_key(kk)[2])
        rows.extend({j: split[key] for j, split in enumerate(splits) if key in split} for key in keys)
    return rows


def _not_a_parameter(a) -> bool:
    return not (a.__class__ is Sym and a.kind == PARAMETER)


def decompose_field(target: VectorField, basis: List[VectorField]) -> Decomposition:
    """Write target as a constant combination of the basis, parameters allowed.

    The rows match every non-parameter monomial of every component, so
    ``eliminate``'s consistency check is the whole test of equality.
    """
    for f in basis:
        target.ctx.check_same_space(f.ctx, SymmetryError, "field " + target.name, "field " + f.name)
    sol = solve_linear_exprs(_component_rows(basis, target), len(basis))
    return Decomposition(False) if sol is None else Decomposition(True, sol)


class ClosureReport:
    def __init__(self, table: Dict[Tuple[int, int], Tuple[VectorField, Decomposition]],
                 witnesses: List[Tuple[int, int, VectorField]]):
        self.table = table
        self.witnesses = witnesses

    @property
    def closed(self) -> bool:
        return not self.witnesses


def closure_table(fields: List[VectorField]) -> ClosureReport:
    """Pairwise commutators decomposed over the given basis."""
    if not fields:
        raise SymmetryError("closure analysis needs at least one field")
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            if fields[i] == fields[j]:
                raise SymmetryError(
                    "underdetermined decomposition: duplicate basis fields %d and %d" % (i, j)
                )
    table = {}
    witnesses = []
    for i, X in enumerate(fields):
        for j, Y in enumerate(fields):
            if j <= i:
                continue
            Z = commutator(X, Y)
            if Z.is_zero_field():
                dec = Decomposition(True, [(ZERO, ONE)] * len(fields))
            else:
                dec = decompose_field(Z, fields)
            table[(i, j)] = (Z, dec)
            if not dec.ok:
                witnesses.append((i, j, Z))
    return ClosureReport(table, witnesses)
