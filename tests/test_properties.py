"""Randomized properties of the kernel and the symmetry machinery.

Each property runs on at least 100 seeded random instances.
"""

import itertools
import random
import re
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

import pytest

from camchoi.expr import (
    App,
    DEPENDENT,
    EXP_ONE,
    EXP_N,
    Exponent,
    Expr,
    ExprError,
    Func,
    Jet,
    N_SYMBOL,
    PARAMETER,
    RatPow,
    Sym,
    VARIABLE,
    ONE,
    ZERO,
    _MONO_KEYS,
    _exponent_expr,
    _mono_sort_key,
    _power_of,
    _substitute,
    app,
    as_expr,
)
from camchoi.jet import MAX_JET_ORDER, Context, JetError, on_manifold, total_derivative
from camchoi.library import load_builtin
from camchoi.modelfile import PdeBlock, parse_expression
from camchoi.reduction import (
    Ansatz,
    ReducedEquation,
    ReductionError,
    UnsupportedField,
    _affine_parts,
    _substitute_dependent,
    check_first_integral,
)
from camchoi.symmetry import (
    MAX_PROLONG_ORDER,
    SymmetryError,
    VectorField,
    apply_prolonged,
    commutator,
    field_lincomb,
    prolong,
)

t = Sym("t", VARIABLE)
x = Sym("x", VARIABLE)
u = Sym("u", DEPENDENT)
a = Sym("a", PARAMETER)
ctx2 = Context((t, x), u, (a,))

ATOM_POOL = [
    t,
    x,
    u,
    a,
    Jet(u, (t, x), (1, 0)),
    Jet(u, (t, x), (0, 1)),
    Jet(u, (t, x), (0, 2)),
    Func("phi", (t,)),
    Func("phi", (t,), (1,)),
]


# The pool without u and its jets: what an ansatz may write u through.
U_FREE_POOL = [at for at in ATOM_POOL if at is not u and not isinstance(at, Jet)]


def random_expr(rng, depth=3, apps=True, pool=ATOM_POOL):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.3:
            return Expr.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        atom = rng.choice(pool)
        return Expr.atom(atom, EXP_ONE if rng.random() < 0.8 else Exponent(4, 0))
    op = rng.random()
    if op < 0.45:
        return random_expr(rng, depth - 1, apps, pool) + random_expr(rng, depth - 1, apps, pool)
    if op < 0.85:
        return random_expr(rng, depth - 1, apps, pool) * random_expr(rng, depth - 1, apps, pool)
    if op < 0.95 or not apps:
        return random_expr(rng, depth - 1, apps, pool) ** rng.randint(0, 2)
    return app(rng.choice(["exp", "tanh"]), random_expr(rng, 1, False, pool))


def test_normalize_idempotent_and_order_independent():
    rng = random.Random(7)
    for _ in range(120):
        pieces = [random_expr(rng, 2) for _ in range(4)]
        total1 = ZERO
        for p in pieces:
            total1 = total1 + p
        shuffled = pieces[:]
        rng.shuffle(shuffled)
        total2 = ZERO
        for p in shuffled:
            total2 = total2 + p
        assert total1 == total2
        # canonical forms are fixed points of re-normalization
        assert total1 + ZERO == total1
        assert total1 * ONE == total1


def _reference_mono_sort_key(mono):
    """A monomial's canonical key built from its factors, bypassing the table."""
    return (
        sum([e.n for _, e in mono]),
        sum([e.num2 for _, e in mono]),
        tuple([(atom.sort_key(), e.key()) for atom, e in mono]),
    )


def _reference_sum(e, f):
    """Sum built the slow way: accumulate, drop zeros, stable sort descending."""
    m = {}
    for mono, c in e.terms + f.terms:
        m[mono] = m.get(mono, Fraction(0)) + c
    items = [(mono, c) for mono, c in m.items() if c != 0]
    items.sort(key=lambda term: _reference_mono_sort_key(term[0]), reverse=True)
    return tuple(items)


def _assert_canonical(e):
    keys = [_reference_mono_sort_key(mono) for mono, _ in e.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(c != 0 for _, c in e.terms)
    assert [_mono_sort_key(mono) for mono, _ in e.terms] == keys
    for mono, _ in e.terms:
        akeys = [atom.sort_key() for atom, _ in mono]
        assert all(k1 < k2 for k1, k2 in zip(akeys, akeys[1:]))
        assert not any(isinstance(atom, RatPow) and x.is_integer() for atom, x in mono)
    for atom in e.atoms():
        if hasattr(atom, "arg"):
            _assert_canonical(atom.arg)


def test_sum_matches_reference_accumulation():
    rng = random.Random(53)
    for _ in range(150):
        e = random_expr(rng, 3)
        f = random_expr(rng, 3)
        if rng.random() < 0.2:
            f = f - e  # force cancellations
        q = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))])
        assert (e + f).terms == _reference_sum(e, f)
        assert (f + e).terms == _reference_sum(f, e)
        assert (e - f).terms == _reference_sum(e, -f)
        assert (f - e).terms == _reference_sum(f, -e)
        assert (q - e).terms == _reference_sum(Expr.rational(q), -e)


def test_monomial_key_table_matches_a_fresh_construction():
    rng = random.Random(67)
    targets = [t, x, u, Jet(u, (t, x), (0, 1))]
    for _ in range(120):
        e, f = random_expr(rng, 3), random_expr(rng, 3)
        s = rng.choice(targets)
        for r in (e + f, e * f, e.diff(s), e.subst(s, f)):
            for mono, c in r.terms:
                assert _mono_sort_key(mono) == _reference_mono_sort_key(mono)
            assert r.key() == tuple((tuple([(atom.sort_key(), ex.key()) for atom, ex in mono]),
                                     c.numerator, c.denominator) for mono, c in r.terms)
    assert len(_MONO_KEYS) > 100
    for mono, key in list(_MONO_KEYS.items()):
        assert key == _reference_mono_sort_key(mono)
    # equal applications are distinct objects, and their monomials share one entry
    arg = Expr.atom(t) * Expr.atom(a) + Expr.rational(Fraction(-1, 3)) * Expr.atom(x)
    first, second = App("exp", arg), App("exp", Expr(arg.terms))
    assert first is not second and first == second
    m1, m2 = ((u, EXP_ONE), (first, EXP_ONE)), ((u, EXP_ONE), (second, EXP_ONE))
    assert _mono_sort_key(m2) is _mono_sort_key(m1) == _reference_mono_sort_key(m2)


def test_results_are_strictly_descending_without_zeros():
    rng = random.Random(59)
    targets = [t, x, u, Jet(u, (t, x), (0, 1))]
    for _ in range(120):
        e = random_expr(rng, 3)
        f = random_expr(rng, 3)
        s = rng.choice(targets)
        for r in (e, e + f, e - f, e - e, -e, e * f, e ** 2, e.diff(s), e.subst(s, f)):
            _assert_canonical(r)


# Atoms whose names coincide and whose kinds differ: an independent x and a
# parameter x, and jets and function symbols over each.
xp = Sym("x", PARAMETER)
RANK_TIED_POOL = [
    x,
    xp,
    Jet(u, (x,), (1,)),
    Jet(u, (xp,), (1,)),
    Func("f", (x,)),
    Func("f", (xp,)),
    RatPow(2),
]


def test_products_and_sums_over_rank_tied_atoms():
    rng = random.Random(61)

    def factor():
        atom = rng.choice(RANK_TIED_POOL)
        return Expr.atom(atom, EXP_N if isinstance(atom, RatPow) else Exponent(2 * rng.randint(1, 2)))

    for _ in range(150):
        fs = [factor() for _ in range(rng.randint(2, 5))]
        left = fs[0]
        for f in fs[1:]:
            left = left * f
        right = fs[-1]
        for f in reversed(fs[:-1]):
            right = f * right
        shuffled = fs[:]
        rng.shuffle(shuffled)
        other = ONE
        for f in shuffled:
            other = other * f
        assert left == right == other
        _assert_canonical(left)
        e = left + fs[0] - fs[-1]
        assert e == fs[0] + left - fs[-1] == -fs[-1] + fs[0] + left
        _assert_canonical(e)
        assert e - fs[0] - left + fs[-1] == ZERO


def test_leibniz_rule():
    rng = random.Random(11)
    targets = [t, x, u, Jet(u, (t, x), (0, 1))]
    for _ in range(120):
        e = random_expr(rng, 2)
        f = random_expr(rng, 2)
        s = rng.choice(targets)
        lhs = (e * f).diff(s)
        rhs = e.diff(s) * f + e * f.diff(s)
        assert (lhs - rhs).is_zero


def test_mixed_partials_commute():
    rng = random.Random(13)
    targets = [t, x, u, Jet(u, (t, x), (0, 1)), Jet(u, (t, x), (1, 0))]
    for _ in range(120):
        e = random_expr(rng, 3)
        s1, s2 = rng.choice(targets), rng.choice(targets)
        assert e.diff(s1).diff(s2) == e.diff(s2).diff(s1)


def test_total_derivatives_commute():
    rng = random.Random(17)
    for _ in range(100):
        e = random_expr(rng, 2)
        d1 = total_derivative(total_derivative(e, t, ctx2), x, ctx2)
        d2 = total_derivative(total_derivative(e, x, ctx2), t, ctx2)
        assert d1 == d2


def test_substitute_self_is_identity():
    rng = random.Random(19)
    targets = [t, x, u]
    for _ in range(100):
        e = random_expr(rng, 3)
        s = rng.choice(targets)
        assert e.subst(s, Expr.atom(s)) == e


# The factor-wise substitution that the one pass in expr._substitute
# replaced: every monomial rebuilt factor by factor with full Expr
# multiplications, the binding of n and the function-symbol substitution as
# separate copies of the loop.
def _reference_subst(e, target, repl):
    repl = as_expr(repl)
    if target is N_SYMBOL and any(x.n for mono, _ in e.terms for _, x in mono):
        return _reference_subst_exponent_param(e, repl)
    out = ZERO
    for mono, coeff in e.terms:
        factor = Expr.rational(coeff)
        for a, x in mono:
            if a == target:
                factor = factor * _power_of(repl, x)
                continue
            if isinstance(a, App) and a.arg.contains(target):
                factor = factor * _power_of(app(a.fn, _reference_subst(a.arg, target, repl)), x)
                continue
            factor = factor * Expr.atom(a, x)
        out = out + factor
    return out


def _reference_subst_exponent_param(e, repl):
    if not repl.is_rational():
        raise ExprError("exponent parameter must bind to an integer")
    q = repl.as_rational()
    if q.denominator != 1:
        raise ExprError("exponent parameter must bind to an integer")
    k = q.numerator
    out = ZERO
    for mono, coeff in e.terms:
        factor = Expr.rational(coeff)
        for a, x in mono:
            x2 = Exponent(x.num2 + 2 * k * x.n, 0)
            if a == N_SYMBOL:
                factor = factor * _power_of(Expr.rational(k), x2)
            elif isinstance(a, RatPow):
                factor = factor * _power_of(Expr.rational(a.base), x2)
            elif isinstance(a, App) and a.arg.contains(N_SYMBOL):
                factor = factor * _power_of(app(a.fn, _reference_subst(a.arg, N_SYMBOL, repl)), x2)
            else:
                if x2.is_zero():
                    continue
                factor = factor * Expr.atom(a, x2)
        out = out + factor
    return out


def _reference_subst_func(e, name, args, rule, base_orders=None):
    if base_orders is None:
        base_orders = tuple(0 for _ in args)
    cache = {}

    def value_for(orders):
        if orders in cache:
            return cache[orders]
        delta = tuple(o - b for o, b in zip(orders, base_orders))
        v = rule
        for arg, d in zip(args, delta):
            for _ in range(d):
                v = v.diff(arg)
        cache[orders] = v
        return v

    out = ZERO
    for mono, coeff in e.terms:
        factor = Expr.rational(coeff)
        for a, x in mono:
            if (
                isinstance(a, Func)
                and a.name == name
                and len(a.args) == len(args)
                and all(p == q for p, q in zip(a.args, args))
                and all(o >= b for o, b in zip(a.orders, base_orders))
            ):
                factor = factor * _power_of(value_for(a.orders), x)
            elif isinstance(a, App):
                factor = factor * _power_of(app(a.fn, _reference_subst_func(a.arg, name, args, rule, base_orders)), x)
            else:
                factor = factor * Expr.atom(a, x)
        out = out + factor
    return out


# the rotation t -> x, x -> -t: it takes t^2 + x^2 to the raw sum 2*t*x - 2*x*t
def _rotation(a):
    return Expr.atom(x) if a is t else -Expr.atom(t) if a is x else ZERO


def test_substitution_matches_the_factorwise_reference():
    rng = random.Random(67)
    in_app = zero_sums = shared = 0
    for _ in range(150):
        target = rng.choice(ATOM_POOL)
        e = random_expr(rng, 3)
        if rng.random() < 0.3:
            e = e + app(rng.choice(["exp", "tanh"]), random_expr(rng, 1, apps=False) * Expr.atom(target))
        repl = random_expr(rng, 2)
        got = e.subst(target, repl)
        assert got == _reference_subst(e, target, repl)
        _assert_canonical(got)
        in_app += any(isinstance(at, App) and at.arg.contains(target) for at in e.atoms())
        # the pass on a raw derive_terms map, zero sums kept
        raw = ((Expr.atom(t) ** 2 + Expr.atom(x) ** 2) * e).derive_terms(_rotation)
        got = _substitute(raw.items(), lambda a, f: _power_of(repl, f) if a is target else None)
        assert Expr._from_map(raw if got is None else got) == _reference_subst(Expr._from_map(raw), target, repl)
        zero_sums += any(c == 0 for c in raw.values())
        shared += sum(any(a is target for a, _f in mono) for mono in raw) >= 2
    assert in_app >= 30 and zero_sums >= 100 and shared >= 50


# Factors carrying the exponent parameter n: as an atom, in exponents, under
# a rational power and inside exp/tanh arguments.
N_FACTORS = [
    Expr.atom(N_SYMBOL),
    Expr.atom(RatPow(2), EXP_N),
    Expr.atom(RatPow(Fraction(1, 3)), Exponent(2, 1)),
    Expr.atom(t, EXP_N),
    Expr.atom(Jet(u, (t, x), (0, 1)), Exponent(-2, 1)),
    Expr.atom(u, Exponent(4, 2)),
    Expr.atom(Func("phi", (t,)), Exponent(0, -1)),
    app("exp", Expr.atom(N_SYMBOL) * Expr.atom(x)),
    app("tanh", Expr.atom(N_SYMBOL) + Expr.atom(t)).pow_exponent(EXP_N),
]


def test_exponent_parameter_binding_matches_the_factorwise_reference():
    rng = random.Random(71)
    for _ in range(150):
        e = random_expr(rng, 2)
        for _k in range(rng.randint(1, 3)):
            e = e + random_expr(rng, 1) * rng.choice(N_FACTORS) * rng.choice(N_FACTORS)
        k = rng.randint(-2, 3)
        got = e.subst(N_SYMBOL, k)
        assert got == _reference_subst(e, N_SYMBOL, k)
        _assert_canonical(got)
        assert not got.contains(N_SYMBOL) and not any(
            isinstance(at, RatPow) or any(f.n for _a, f in mono)
            for mono, _c in got.terms for at, _f in mono)


def test_exponent_parameter_inside_an_application_is_bound():
    # the factor-wise reference left n unbound here: the argument holds n only in an exponent
    e = app("exp", Expr.atom(t, EXP_N)) + Expr.atom(x, EXP_N)
    assert e.subst(N_SYMBOL, 2) == app("exp", Expr.atom(t) ** 2) + Expr.atom(x) ** 2


def test_function_substitution_matches_the_factorwise_reference():
    rng = random.Random(73)
    for _ in range(150):
        e = random_expr(rng, 3)
        base = rng.choice([(0,), (1,)])
        rule = random_expr(rng, 2, apps=False)
        got = e.subst_func("phi", (t,), rule, base)
        assert got == _reference_subst_func(e, "phi", (t,), rule, base)
        _assert_canonical(got)


def test_substitution_without_a_target_returns_the_expression():
    rng = random.Random(79)
    for _ in range(100):
        e = random_expr(rng, 3, apps=rng.random() < 0.5)
        assert e.subst(Sym("absent", PARAMETER), random_expr(rng, 1)) is e
        assert e.subst_func("absent", (t,), ONE) is e
        assert e.subst(N_SYMBOL, 2) is e


def test_on_manifold_eliminates_the_leading_derivative():
    rng = random.Random(83)
    doc = load_builtin()
    pdes = [b.pde for b in doc.blocks if isinstance(b, PdeBlock)]
    assert len(pdes) >= 4
    for pde in pdes:
        ctx = pde.ctx
        nvars = len(ctx.independents)
        jets = [pde.leading] + [ctx.jet(J) for J in itertools.product(range(4), repeat=nvars) if 0 < sum(J) <= 3]
        pool = [Expr.atom(a) for a in jets + list(ctx.independents) + [ctx.dependent]]
        for _ in range(25):
            e = ZERO
            for _term in range(rng.randint(1, 4)):
                m = Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for _f in range(rng.randint(1, 3)):
                    m = m * rng.choice(pool)
                e = e + m * Expr.atom(pde.leading) ** rng.randint(0, 2)
            assert not on_manifold(e, pde).contains(pde.leading)


def test_collect_reexpansion():
    rng = random.Random(23)
    for _ in range(100):
        e = random_expr(rng, 3, apps=False)
        atoms = [at for at in {x, u, Jet(u, (t, x), (0, 1))} if e.contains(at)]
        if not atoms:
            continue
        total = ZERO
        for key, val in e.collect(atoms).items():
            total = total + key * val
        assert total == e


def test_numerical_shadow_exact_evaluation():
    rng = random.Random(29)

    def app_value(fn, arg):
        if fn == "exp" and arg == 0:
            return Fraction(1)
        if fn == "tanh" and arg == 0:
            return Fraction(0)
        h = hash((fn, arg)) % 1000
        return Fraction(h + 1, 997)

    for _ in range(100):
        pieces = [random_expr(rng, 2) for _ in range(3)]
        env = {atom: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for atom in ATOM_POOL}
        total = ZERO
        acc = Fraction(0)
        for p in pieces:
            total = total + p
            acc += p.eval_fraction(env, app_value)
        assert total.eval_fraction(env, app_value) == acc


def _random_poly_field(rng, ctx):
    basis = [ONE] + [Expr.atom(s) for s in ctx.independents] + [Expr.atom(ctx.dependent)]
    def poly():
        e = ZERO
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-3, 3))
            m = rng.choice(basis) * rng.choice(basis)
            e = e + Expr.rational(c) * m
        return e

    xi = {v: poly() for v in ctx.independents if rng.random() < 0.8}
    return VectorField(ctx, xi, poly())


def test_commutator_antisymmetry():
    rng = random.Random(31)
    for _ in range(100):
        X = _random_poly_field(rng, ctx2)
        Y = _random_poly_field(rng, ctx2)
        Zxy = commutator(X, Y)
        Zyx = commutator(Y, X)
        neg = field_lincomb([(Expr.rational(-1), Zyx)], ctx2)
        assert Zxy == neg


def test_jacobi_identity():
    rng = random.Random(37)
    for _ in range(100):
        X = _random_poly_field(rng, ctx2)
        Y = _random_poly_field(rng, ctx2)
        Z = _random_poly_field(rng, ctx2)
        total = field_lincomb(
            [
                (ONE, commutator(commutator(X, Y), Z)),
                (ONE, commutator(commutator(Y, Z), X)),
                (ONE, commutator(commutator(Z, X), Y)),
            ],
            ctx2,
        )
        assert total.is_zero_field()


def test_prolongation_decomposition_independence(eager_eta_table):
    rng = random.Random(41)
    for _ in range(100):
        X = _random_poly_field(rng, ctx2)
        P = prolong(X)
        for direction in ("last", "first"):
            table = eager_eta_table(X, 3, direction)
            assert {J: P.eta(J) for J in table} == table


def test_parser_round_trip_random():
    doc = load_builtin()
    ctx = doc.block(PdeBlock, "cc").ctx
    rng = random.Random(43)
    tt, xx, yy = ctx.independents
    pool = [
        tt,
        xx,
        yy,
        ctx.dependent,
        doc.params["alpha"],
        Jet(ctx.dependent, ctx.independents, (0, 1, 0)),
        Jet(ctx.dependent, ctx.independents, (1, 0, 2)),
        Func("phi", (tt,)),
        Func("phi", (tt,), (2,)),
    ]

    def rand(depth):
        if depth == 0 or rng.random() < 0.35:
            if rng.random() < 0.3:
                return Expr.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            return Expr.atom(rng.choice(pool), rng.choice([EXP_ONE, Exponent(4, 0), Exponent(0, 1), Exponent(-1, 0)]))
        r = rng.random()
        if r < 0.45:
            return rand(depth - 1) + rand(depth - 1)
        if r < 0.9:
            return rand(depth - 1) * rand(depth - 1)
        return app("tanh", rand(0))

    for _ in range(120):
        e = rand(3)
        assert parse_expression(doc, ctx, str(e)) == e


def test_synthetic_first_integrals_certify():
    rng = random.Random(47)
    w = Sym("w", VARIABLE)
    Y = Sym("Y", DEPENDENT)
    c0 = Sym("c0", PARAMETER)
    rctx = Context((w,), Y, (c0,))
    W, YY, C = Expr.atom(w), Expr.atom(Y), Expr.atom(c0)
    Yw = rctx.jet_expr((1,))
    basis = [ONE, W, YY, C, YY ** 2, W * YY, Yw * YY, Yw ** 2]
    for _ in range(100):
        fi_lhs = Yw
        for _k in range(rng.randint(1, 4)):
            fi_lhs = fi_lhs + Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * rng.choice(basis)
        eq = ReducedEquation(rctx, total_derivative(fi_lhs, w, rctx), "syn")
        if eq.lhs.max_jet_order() != 2:
            continue
        fi = ReducedEquation(rctx, fi_lhs, "fi")
        assert check_first_integral(eq, fi).is_zero


# The product-rule code that the one derivation pass Expr.derive replaced:
# `diff` rebuilt every term with full Expr products, `total_derivative`
# walked the expression once for v, once for u and once per jet,
# the pullback chain rule called `diff` once for v and once per link, and the
# prolonged field and `VectorField.apply_to` summed one `diff` per component.
def _reference_diff(e, s):
    if s == N_SYMBOL:
        for mono, _ in e.terms:
            if any(x.n for _, x in mono):
                raise ExprError("cannot differentiate by the exponent parameter")
    out = ZERO
    for mono, coeff in e.terms:
        for i, (a, x) in enumerate(mono):
            da = _reference_atom_diff(a, s)
            if da.is_zero:
                continue
            rest = mono[:i] + mono[i + 1 :]
            down = x.minus_int(1)
            piece = Expr(((rest, coeff),)) * _exponent_expr(x) * da
            if not down.is_zero():
                piece = piece * Expr.atom(a, down)
            out = out + piece
    return out


def _reference_atom_diff(a, s):
    if isinstance(a, (Sym, Jet)):
        return ONE if a == s else ZERO
    if isinstance(a, Func):
        if isinstance(s, Sym) and any(v == s for v in a.args):
            return Expr.atom(a.bump(s))
        return ZERO
    if isinstance(a, App):
        inner = _reference_diff(a.arg, s)
        if inner.is_zero:
            return ZERO
        if a.fn == "exp":
            return Expr.atom(a) * inner
        return (ONE - Expr.atom(a, Exponent(4, 0))) * inner
    return ZERO


def _reference_jets_present(ctx, e):
    seen, dep_used = [], False
    for a in e.atoms():
        if isinstance(a, Jet) and a.dep == ctx.dependent and a not in seen:
            seen.append(a)
        elif a == ctx.dependent or (isinstance(a, Func) and ctx.dependent in a.args):
            dep_used = True
    return seen, dep_used


def _reference_total_derivative(e, v, ctx):
    out = _reference_diff(e, v)
    jets, dep_used = _reference_jets_present(ctx, e)
    unit = ctx.unit(v)
    if dep_used:
        d = _reference_diff(e, ctx.dependent)
        if not d.is_zero:
            out = out + ctx.jet_expr(unit) * d
    for a in jets:
        d = _reference_diff(e, a)
        if not d.is_zero:
            out = out + ctx.jet_expr(tuple(c + k for c, k in zip(a.counts, unit))) * d
    return out


def _reference_substitute_dependent(lhs, ctx, value, links):
    def chain_derivative(e, v):
        out = _reference_diff(e, v)
        for w, wexpr in links:
            if w == v:
                continue
            dw = _reference_diff(wexpr, v)
            if dw.is_zero:
                continue
            d = _reference_diff(e, w)
            if not d.is_zero:
                out = out + d * dw
        return out

    express = {tuple(0 for _ in ctx.independents): value}

    def get(counts):
        if counts not in express:
            i = max(k for k, c in enumerate(counts) if c > 0)
            prev = tuple(c - (k == i) for k, c in enumerate(counts))
            express[counts] = chain_derivative(get(prev), ctx.independents[i])
        return express[counts]

    out = lhs
    jets = sorted({a for a in lhs.atoms() if isinstance(a, Jet) and a.dep == ctx.dependent},
                  key=lambda a: a.sort_key())
    for a in jets:
        out = out.subst(a, get(a.counts))
    if out.contains(ctx.dependent):
        out = out.subst(ctx.dependent, value)
    return out


def _reference_apply_prolonged(P, e):
    ctx = P.base.ctx
    out = P.base.eta * _reference_diff(e, ctx.dependent)
    for v in ctx.independents:
        c = P.base.coefficient(v)
        if not c.is_zero:
            out = out + c * _reference_diff(e, v)
    for a in _reference_jets_present(ctx, e)[0]:
        if a.ivars != ctx.independents:
            continue
        if a.order > MAX_PROLONG_ORDER:
            raise SymmetryError("beyond the prolongation order")
        d = _reference_diff(e, a)
        if not d.is_zero:
            out = out + P.eta(a.counts) * d
    return out


def _reference_apply_to(X, f):
    out = ZERO
    for v, c in X.xi.items():
        out = out + c * _reference_diff(f, v)
    return out + X.eta * _reference_diff(f, X.ctx.dependent)


# Factors that exercise every branch of the derivation: function symbols over
# the dependent, exp/tanh applications, n-exponents, half-integer exponents,
# and a second dependent w with its jets, which D_t and D_x treat as constants.
w2 = Sym("w", DEPENDENT)
DERIVE_FACTORS = N_FACTORS + [
    Expr.atom(Func("F", (t, u))),
    Expr.atom(Func("F", (t, u), (1, 2)), Exponent(-2, 0)),
    Expr.atom(Func("G", (u,)), Exponent(3, 0)),
    Expr.atom(u, Exponent(-1, 0)),
    Expr.atom(x, Exponent(3, 0)),
    Expr.atom(Jet(u, (t, x), (1, 0)), Exponent(1, 1)),
    Expr.atom(Jet(u, (t, x), (1, 2))),
    Expr.atom(w2, Exponent(4, 0)),
    Expr.atom(Jet(w2, (t, x), (0, 1))),
    app("exp", Expr.atom(u) * Expr.atom(x) + Expr.atom(Func("F", (t, u)))),
    app("tanh", Expr.atom(Jet(u, (t, x), (0, 1))) - Expr.atom(w2)),
    app("exp", Expr.atom(t, Exponent(1, 0))).pow_exponent(Exponent(-3, 0)),
]


def _derivation_input(rng):
    e = random_expr(rng, 2)
    for _k in range(rng.randint(1, 3)):
        e = e + random_expr(rng, 1) * rng.choice(DERIVE_FACTORS) * rng.choice(DERIVE_FACTORS)
    return e


def test_diff_matches_the_termwise_reference():
    rng = random.Random(89)
    targets = [t, x, u, a, w2, N_SYMBOL, Jet(u, (t, x), (0, 1)), Jet(w2, (t, x), (0, 1)),
               Func("F", (t, u))]
    n_raised = 0
    for _ in range(150):
        e = _derivation_input(rng)
        s = rng.choice(targets)
        try:
            want = _reference_diff(e, s)
        except ExprError as exc:
            n_raised += 1
            with pytest.raises(ExprError, match=str(exc)):
                e.diff(s)
            continue
        got = e.diff(s)
        assert got.terms == want.terms
        _assert_canonical(got)
    assert n_raised >= 5


def test_exponent_parameter_derivative_still_raises_inside_an_application():
    e = Expr.atom(t) + app("tanh", Expr.atom(x, EXP_N))
    for f in (e, e * Expr.atom(N_SYMBOL)):
        with pytest.raises(ExprError, match="exponent parameter"):
            _reference_diff(f, N_SYMBOL)
        with pytest.raises(ExprError, match="exponent parameter"):
            f.diff(N_SYMBOL)


def test_total_derivative_matches_the_per_jet_reference():
    rng = random.Random(97)
    for _ in range(150):
        e = _derivation_input(rng)
        v = rng.choice([t, x])
        got = total_derivative(e, v, ctx2)
        assert got.terms == _reference_total_derivative(e, v, ctx2).terms
        _assert_canonical(got)


def test_total_derivative_past_the_jet_cap_still_raises():
    top = Expr.atom(Jet(u, (t, x), (1, MAX_JET_ORDER - 1)))
    for e in (top, app("exp", top) + Expr.atom(t), Expr.atom(x) * top ** 2):
        for fn in (total_derivative, _reference_total_derivative):
            with pytest.raises(JetError, match="cap"):
                fn(e, x, ctx2)


def test_pullback_chain_rule_matches_the_multi_diff_reference():
    # A value holding u or a jet of u is refused; every other draw matches the
    # sequential reference, which is the oracle wherever both orders agree.
    # Draws 60-99 take their value from the pool without u and its jets.
    rng = random.Random(101)
    s1, s2 = Sym("s1", VARIABLE), Sym("s2", VARIABLE)
    S1, S2, T, X = (Expr.atom(v) for v in (s1, s2, t, x))
    link_choices = [
        [(s1, X - 2 * T), (t, T)],
        [(s1, X * Expr.atom(t, Exponent(-1, 0))), (s2, T)],
        [(s1, X + T ** 2), (s2, T * X)],
    ]
    lhs_pool = [Jet(u, (t, x), (1, 0)), Jet(u, (t, x), (0, 1)), Jet(u, (t, x), (1, 1)),
                Jet(u, (t, x), (0, 3)), u, t, a]
    compared = refused = 0
    for draw in range(100):
        links = rng.choice(link_choices)
        ws = [w for w, _e in links]
        fn = Expr.atom(Func("V", tuple(ws)))
        pool = ATOM_POOL if draw < 60 else U_FREE_POOL
        value = fn * random_expr(rng, 1, False, pool).subst(x, Expr.atom(ws[0])) + Expr.atom(ws[0], Exponent(1, 0))
        lhs = ZERO
        for _term in range(rng.randint(1, 3)):
            m = Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _f in range(rng.randint(1, 3)):
                m = m * Expr.atom(rng.choice(lhs_pool))
            lhs = lhs + m
        if any(at is u or isinstance(at, Jet) for at in value.atoms()):
            with pytest.raises(ReductionError, match="^value .* holds u"):
                _substitute_dependent(lhs, ctx2, value, links, "value", "link")
            refused += 1
            continue
        got = _substitute_dependent(lhs, ctx2, value, links, "value", "link")
        assert got.terms == _reference_substitute_dependent(lhs, ctx2, value, links).terms
        _assert_canonical(got)
        compared += 1
    assert (refused, compared) == (32, 68)


def test_prolonged_field_and_apply_to_match_the_per_component_reference():
    rng = random.Random(103)
    for _ in range(80):
        X = _random_poly_field(rng, ctx2)
        e = _derivation_input(rng)
        if rng.random() < 0.3:
            e = e + Expr.atom(Jet(u, (x,), (2,)))  # a jet of another space: constant here
        P = prolong(X)
        got = apply_prolonged(P, e)
        assert got.terms == _reference_apply_prolonged(P, e).terms
        assert X.apply_to(e).terms == _reference_apply_to(X, e).terms
    past = Expr.atom(Jet(u, (t, x), (2, 2)))
    for fn in (apply_prolonged, _reference_apply_prolonged):
        with pytest.raises(SymmetryError, match="beyond the prolongation order"):
            fn(prolong(_random_poly_field(rng, ctx2)), past)


# A coefficient is an int or a Fraction; equal values compare and hash equal,
# so the type never shows in a key, a string, a hash or the term order.
def _with_coefficients(e, integral_as_int):
    def conv(c):
        c = Fraction(c)
        return c.numerator if integral_as_int and c.denominator == 1 else c

    terms = []
    for mono, c in e.terms:
        mono = tuple((App(at.fn, _with_coefficients(at.arg, integral_as_int)) if isinstance(at, App) else at, x)
                     for at, x in mono)
        terms.append((mono, conv(c)))
    return Expr(tuple(terms))


def _coefficients(e):
    for mono, c in e.terms:
        yield c
        for at, _x in mono:
            if isinstance(at, App):
                yield from _coefficients(at.arg)


def _same_form(p, q):
    assert p == q
    assert p.key() == q.key() and hash(p) == hash(q) and str(p) == str(q)
    assert [mono for mono, _ in p.terms] == [mono for mono, _ in q.terms]


def test_int_and_fraction_coefficients_are_indistinguishable():
    rng = random.Random(107)
    mixed = 0
    for _ in range(150):
        e, f = _derivation_input(rng), random_expr(rng, 3)
        ef, ff = _with_coefficients(e, False), _with_coefficients(f, False)
        ei, fi = _with_coefficients(e, True), _with_coefficients(f, True)
        assert all(type(c) is Fraction for c in _coefficients(ef))
        mixed += any(type(c) is int for c in _coefficients(ei))
        v = rng.choice([t, x])
        for build in (lambda p, q: p, lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
                      lambda p, q: p.diff(v), lambda p, q: total_derivative(p, v, ctx2),
                      lambda p, q: p.subst(a, q), lambda p, q: p.content_normalized()):
            want = build(ef, ff)
            for got in (build(ei, fi), build(ei, ff), build(ef, fi)):
                _same_form(got, want)
    assert mixed >= 100


def _assert_exact_coefficients(e):
    """Every coefficient an int or a Fraction, and an int wherever it is integral."""
    for c in _coefficients(e):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (type(c), c, e)


def _random_monomial(rng, coefficients=(Fraction(-3, 2), Fraction(2, 3), -2, -1, 1, 3)):
    return Expr.rational(rng.choice(coefficients)) * Expr.atom(rng.choice(ATOM_POOL))


# A base coefficient and an exponent whose constant part folds it into an
# integral rational, e.g. (1/2)^(n-1) = 2*(1/2)^n.
POW_EXPONENT_CASES = [
    (1, EXP_N), (1, Exponent(1, 0)), (1, Exponent(-3, 1)), (2, Exponent(4, 1)),
    (Fraction(1, 2), Exponent(-2, 1)), (Fraction(1, 3), Exponent(-4, -1)), (Fraction(3, 2), Exponent(2, 1)),
]


def test_arithmetic_leaves_an_int_wherever_a_coefficient_is_integral():
    rng = random.Random(113)
    fractional = 0
    for _ in range(150):
        e, f = _derivation_input(rng), random_expr(rng, 3)
        m, m2 = _random_monomial(rng), _random_monomial(rng)
        for given in (e, f, m, m2):
            _assert_exact_coefficients(given)
        fractional += any(type(c) is Fraction for c in _coefficients(e))
        v = rng.choice([t, x])
        base, exp = rng.choice(POW_EXPONENT_CASES)
        results = [e + f, e - f, -e, e * f, e * m, m * m2, e / m, m / m2, 3 / m, f ** rng.randint(0, 3),
                   m ** -rng.randint(1, 3), (Expr.rational(base) * Expr.atom(t)).pow_exponent(exp),
                   e.diff(v), total_derivative(e, v, ctx2), e.subst(a, f), e.subst(a, m),
                   e.content_normalized()]
        for r in results:
            _assert_exact_coefficients(r)
    assert fractional >= 50


def test_every_builtin_leading_rhs_holds_only_int_coefficients():
    pdes = [blk.pde for blk in load_builtin().blocks if isinstance(blk, PdeBlock)]
    assert len(pdes) >= 6
    for pde in pdes:
        assert all(type(c) is int for c in _coefficients(pde.leading_rhs)), pde.name


def test_determining_systems_and_suite_residuals_hold_only_exact_coefficients(monkeypatch):
    import camchoi.library as library
    from camchoi.symmetry import determining_equations

    doc = load_builtin()
    seen = []
    for blk in doc.blocks:
        if isinstance(blk, PdeBlock):
            system = determining_equations(blk.pde)
            seen.extend(system.equations)

    def record(fn, pick):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.extend(pick(out))
            return out
        monkeypatch.setattr(library, fn.__name__, wrapped)

    record(library.check_symmetry, lambda r: [r])
    record(library.check_first_integral, lambda r: [r])
    record(library.verify_closed_form, lambda r: [r[0]] + list(r[1].values()))
    record(library.compare_reduced, lambda r: [r.residual])
    record(library.pullback, lambda r: [r.lhs])
    record(library.determining_equations, lambda r: r.equations)
    for case in library.build_cases():
        assert library.run_case(case, doc).verdict != "fail"
    assert len(seen) >= 200
    for e in seen:
        _assert_exact_coefficients(e)


# -- one derivative table, one substitution map, one consistency check ---------


def test_map_substitution_matches_sequential_single_atom_substitution():
    rng = random.Random(109)
    pool = ATOM_POOL + [Func("psi", (t, x)), Func("psi", (t, x), (1, 2))]
    several = 0
    for _ in range(150):
        targets = rng.sample(pool, rng.randint(1, 3))
        e = random_expr(rng, 3)
        if rng.random() < 0.3:
            e = e + app("exp", random_expr(rng, 1, apps=False) * Expr.atom(targets[0]))
        rules = {}
        for target in targets:
            repl = random_expr(rng, 2)
            while any(repl.contains(s) for s in targets):  # no replacement holds a target
                repl = random_expr(rng, 2)
            rules[target] = repl
        want = e
        for target, repl in rules.items():
            want = want.subst(target, repl)
        got = e.subst(rules)
        assert got.terms == want.terms
        _assert_canonical(got)
        several += len(rules) > 1 and got != e
    assert several >= 50


def test_map_substitution_binds_the_exponent_parameter_only_on_its_own():
    e = Expr.atom(t, EXP_N) + Expr.atom(N_SYMBOL) * Expr.atom(x)
    assert e.subst({N_SYMBOL: 2}) == e.subst(N_SYMBOL, 2) == Expr.atom(t) ** 2 + 2 * Expr.atom(x)
    with pytest.raises(ExprError, match="on its own"):
        e.subst({N_SYMBOL: 2, x: ONE})
    # without n in an exponent, n is an atom like any other
    assert (Expr.atom(N_SYMBOL) * Expr.atom(x)).subst({N_SYMBOL: Expr.atom(t), x: ONE}) == Expr.atom(t)


def test_multi_argument_function_substitution_matches_the_factorwise_reference():
    rng = random.Random(113)
    psi = [Func("psi", (t, x), orders) for orders in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 3), (2, 2))]
    other = Func("psi", (x, t), (1, 0))  # same name, other arguments: never replaced
    replaced = 0
    for _ in range(150):
        e = random_expr(rng, 2)
        for _k in range(rng.randint(1, 3)):
            f = Expr.atom(rng.choice(psi + [other]), rng.choice([EXP_ONE, Exponent(4, 0)]))
            e = e + random_expr(rng, 1) * f
        if rng.random() < 0.3:
            e = e + app("tanh", Expr.atom(rng.choice(psi)) * Expr.atom(t))
        base = rng.choice([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)])
        rule = random_expr(rng, 2, apps=False) * Expr.atom(x) + Expr.atom(t) ** 2 * Expr.atom(x, Exponent(-1, 0))
        got = e.subst_func("psi", (t, x), rule, base)
        assert got == _reference_subst_func(e, "psi", (t, x), rule, base)
        _assert_canonical(got)
        replaced += got != e
    assert replaced >= 100


def _reference_substitute_solution(system, rules):
    """The per-unknown sequence of ``subst_func`` calls, one table per call."""
    out = []
    for eq in system.equations:
        for fn in system.unknowns:
            if fn.name in rules:
                eq = eq.subst_func(fn.name, fn.args, rules[fn.name])
        out.append(eq)
    return out


def _seeded_rules(rng, system, pde):
    args = system.unknowns[0].args
    ts = args[0]
    pool = [Expr.atom(s) for s in args] + [Expr.atom(p) for p in pde.ctx.parameters]
    pool += [Expr.atom(Func("phi", (ts,))), Expr.atom(Func("phi", (ts,), (2,)))]
    rules = {}
    for fn in system.unknowns:
        if rng.random() < 0.8:
            e = Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3)):
                e = e + Expr.rational(rng.randint(-3, 3)) * rng.choice(pool) * rng.choice(pool) ** rng.randint(0, 2)
            rules[fn.name] = e
    return rules


def test_substitute_solution_matches_the_per_unknown_sequence():
    from camchoi.modelfile import FieldBlock
    from camchoi.symmetry import determining_equations

    doc = load_builtin()
    rng = random.Random(127)
    nonzero = 0
    for name in ("cc", "gcc", "cc19", "eq33"):
        pde = doc.block(PdeBlock, name).pde
        system = determining_equations(pde)
        catalogued = []
        for blk in doc.blocks:
            if isinstance(blk, FieldBlock) and blk.on == name:
                vf = blk.vf
                rules = {"xi_" + v.name: vf.coefficient(v) for v in vf.ctx.independents}
                rules["eta"] = vf.eta
                catalogued.append(rules)
        assert catalogued
        for rules in catalogued + [_seeded_rules(rng, system, pde) for _ in range(6)]:
            got = system.substitute_solution(rules)
            want = _reference_substitute_solution(system, rules)
            assert [e.terms for e in got] == [e.terms for e in want]
            nonzero += sum(not e.is_zero for e in got)
    assert nonzero >= 100


def _reference_decomposition_holds(target, basis, sol):
    """The cross-multiplied identity sum(num_i/den_i * basis_i) == target, which
    ``decompose_field`` checked after elimination until elimination's
    consistency check was shown to settle it."""
    total_den = ONE
    for _num, den in sol:
        total_den = total_den * den
    for k, (_slot, tcomp) in enumerate(target.components()):
        lhs = ZERO
        for i, ((num, _den), f) in enumerate(zip(sol, basis)):
            comp_den = ONE
            for j, (_n, d) in enumerate(sol):
                if j != i:
                    comp_den = comp_den * d
            lhs = lhs + num * comp_den * f.components()[k][1]
        if not (lhs - total_den * tcomp).is_zero:
            return False
    return True


def test_decompositions_satisfy_the_cross_multiplied_identity():
    from camchoi.library import x4_of
    from camchoi.modelfile import FieldBlock
    from camchoi.symmetry import closure_table, decompose_field

    doc = load_builtin()
    fields = [blk.vf for blk in doc.blocks if isinstance(blk, FieldBlock)]
    spaces = {}
    for vf in fields:
        group = spaces.setdefault((vf.ctx.independents, vf.ctx.dependent), [])
        if vf not in group:  # a duplicate basis field is refused before any decomposition
            group.append(vf)
    rng = random.Random(131)
    checked = refused = 0
    for group in spaces.values():
        if len(group) < 2:
            continue
        subsets = [tuple(rng.sample(group, rng.randint(2, min(4, len(group))))) for _ in range(40)]
        for subset in subsets:
            for (i, j), (Z, dec) in closure_table(list(subset)).table.items():
                if Z.is_zero_field():
                    continue
                if dec.ok:
                    assert _reference_decomposition_holds(Z, subset, dec.coefficients)
                    checked += 1
                else:
                    refused += 1
    # the cc.16 case: [X2, X4(t)] over {X4(1), X4(t), X3(1)}
    vf = {blk.name: blk.vf for blk in doc.blocks if isinstance(blk, FieldBlock)}
    X4t = x4_of(doc, Expr.atom(vf["X2"].ctx.independents[0]))
    basis = [vf["X4p"], X4t, vf["X3p"]]
    Z = commutator(vf["X2"], X4t)
    dec = decompose_field(Z, basis)
    assert dec.ok and _reference_decomposition_holds(Z, basis, dec.coefficients)
    (num, den), *rest = dec.coefficients
    assert not _reference_decomposition_holds(Z, basis, [(num + den, den)] + rest)
    assert checked >= 50 and refused >= 50


# -- one flow formula behind invariants_for -------------------------------------


# The two-branch invariants_for that the one flow formula replaced: the
# translation and the scaling branch each built the new variables, the inverse
# hints and the dependent rule.
def _reference_invariants_for(
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
                w = Sym(next(name_iter), VARIABLE)
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
            w = Sym(next(name_iter), VARIABLE)
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
    return Ansatz(ctx, new_vars, fn, rule, hints, name="invariants(%s)" % (X.name or "X"))


def _invariants_outcome(fn, X, names, dep_name):
    try:
        a = fn(X, names=names, dep_name=dep_name)
    except (ExprError, StopIteration) as exc:
        return type(exc), str(exc)
    return (a.new_independent, a.dependent_rule, a.inverse_hints, a.func, a.name)


def _random_diagonal_field(rng, ctx, doc):
    pool = [0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
            Expr.atom(doc.params["alpha"]), Expr.atom(doc.params["h0"]) + 1]
    translation = rng.random() < 0.4

    def affine(v):
        a = 0 if translation and rng.random() < 0.95 else rng.choice(pool)
        b = rng.choice(pool)
        if rng.random() < 0.02:  # off-diagonal or non-affine
            b = Expr.atom(rng.choice(ctx.independents + (ctx.dependent,))) * (Expr.atom(v) if rng.random() < 0.5 else 1)
        return as_expr(a) * Expr.atom(v) + as_expr(b)

    xi = {v: affine(v) for v in ctx.independents if rng.random() < 0.8}
    return VectorField(ctx, xi, affine(ctx.dependent), "X%d" % rng.randint(1, 9))


def test_invariants_for_matches_the_two_branch_reference():
    from camchoi.reduction import ReductionError, invariants_for

    doc = load_builtin()
    ctxs = [doc.block(PdeBlock, name).pde.ctx for name in ("cc", "cc19", "eq33")]
    rng = random.Random(137)
    seen = {"ansatz": 0, "hints": 0, "unsupported": 0, "power": 0, "names": 0}
    reused = 0
    for _ in range(1200):
        ctx = rng.choice(ctxs)
        X = _random_diagonal_field(rng, ctx, doc)
        names = None if rng.random() < 0.5 else ["w", "sigma", "zeta"][:rng.randint(0, 2)]
        dep_name = rng.choice(["F", "V"])
        got = _invariants_outcome(invariants_for, X, names, dep_name)
        want = _invariants_outcome(_reference_invariants_for, X, names, dep_name)
        # the names the reference gave its new variables and dependent, and the names of ctx
        new_names = [v.name for v, e in want[0] if e != Expr.atom(v)] + [want[3].name] if len(want) > 2 else []
        old_names = {s.name for s in ctx.independents + ctx.parameters + (ctx.dependent,)}
        if want[0] is ExprError:  # the kernel's refusal of a power of a shifted pivot
            assert got[0] is UnsupportedField and got[1].startswith("unsupported field shape: power ")
            seen["power"] += 1
        elif want[0] is StopIteration:  # too few names
            assert got[0] is ReductionError and "names" in got[1]
            seen["names"] += 1
        elif old_names & set(new_names) or len(set(new_names)) < len(new_names):  # a name reused
            assert got[0] is ReductionError and " is already " in got[1]
            reused += 1
        else:
            assert got == want
            if want[0] is UnsupportedField:
                seen["unsupported"] += 1
            else:
                seen["ansatz"] += 1
                seen["hints"] += bool(want[2])
    assert min(seen.values()) >= 30 and reused >= 20, (seen, reused)


# -- one-pass collect, integer content ------------------------------------------


def _reference_collect(expr, atoms):
    """Two scans per monomial; each group starts from 0 + coeff."""
    atomset = set(atoms)
    if not atomset:
        raise ExprError("collect needs a non-empty atom set")
    groups: dict = {}
    for mono, coeff in expr.terms:
        keypart = tuple((a, e) for a, e in mono if a in atomset)
        rest = tuple((a, e) for a, e in mono if a not in atomset)
        for a, _e in rest:
            inner = [b for b in a.arg.atoms() if b in atomset] if isinstance(a, App) else []
            if inner:
                raise ExprError("%s occurs inside %s and cannot be split off" % (Expr.atom(inner[0]), Expr.atom(a)))
        g = groups.setdefault(keypart, {})
        g[rest] = g.get(rest, 0) + coeff
    out = {}
    for keypart, restmap in groups.items():
        keyexpr = Expr(((keypart, 1),))
        val = Expr._from_map(restmap)
        if not val.is_zero:
            out[keyexpr] = val
    return out


def _reference_content_normalized(e):
    """A Fraction content, one Fraction division per term."""
    if e.is_zero:
        return e
    num = 0
    den = 1
    for _, c in e.terms:
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den) if num else Fraction(1)
    if e.terms[0][1] < 0:
        content = -content
    terms = []
    for mono, c in e.terms:
        q = c / content
        terms.append((mono, q.numerator if q.denominator == 1 else q))
    return Expr(tuple(terms))


def _same_typed_terms(p, q):
    assert p.terms == q.terms
    assert [type(c) for _m, c in p.terms] == [type(c) for _m, c in q.terms]


def _split_inputs(rng):
    """A seeded expression as int and as Fraction coefficients, and negated."""
    e = _derivation_input(rng) * random_expr(rng, 1)
    if rng.random() < 0.5:
        e = e * Expr.rational(Fraction(rng.choice([-6, -4, 3, 9]), rng.choice([1, 2, 5])))
    for f in (_with_coefficients(e, True), _with_coefficients(e, False)):
        yield f
        yield -f


COLLECT_ATOMS = [t, x, u, a, w2, N_SYMBOL, Jet(u, (t, x), (0, 1)), Jet(u, (t, x), (1, 0)),
                 Func("F", (t, u)), Func("phi", (t,))]


def test_collect_matches_the_two_scan_reference():
    rng = random.Random(131)
    n_raised = n_fraction_values = 0
    for _ in range(150):
        atoms = rng.sample(COLLECT_ATOMS, rng.randint(1, 3))
        for e in _split_inputs(rng):
            try:
                want = _reference_collect(e, atoms)
            except ExprError as exc:
                n_raised += 1
                with pytest.raises(ExprError, match="^%s$" % re.escape(str(exc))):
                    e.collect(atoms)
                continue
            got = e.collect(atoms)
            assert list(got) == list(want)
            for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
                assert gk.terms == wk.terms and type(gk.terms[0][1]) is int
                _same_typed_terms(gv, wv)
                _assert_canonical(gv)
                n_fraction_values += any(type(c) is Fraction for _m, c in gv.terms)
    assert n_raised >= 10 and n_fraction_values >= 100


def test_content_normalized_matches_the_fraction_reference():
    rng = random.Random(137)
    n_negative = 0
    for _ in range(150):
        for e in _split_inputs(rng):
            want = _reference_content_normalized(e)
            got = e.content_normalized()
            _same_typed_terms(got, want)
            _assert_canonical(got)
            n_negative += bool(e.terms) and e.terms[0][1] < 0
            if got.terms:
                # the docstring's rule: an int where the value is integral;
                # dividing by the content leaves coprime integers
                assert all(type(c) is int for _m, c in got.terms)
                assert got.terms[0][1] > 0 and gcd(*[c for _m, c in got.terms]) == 1
    assert n_negative >= 100
