"""Randomized properties of the kernel and the symmetry machinery.

Each property runs on at least 100 seeded random instances.
"""

import random
from fractions import Fraction

from camchoi.expr import (
    DEPENDENT,
    EXP_ONE,
    EXP_N,
    Exponent,
    Expr,
    Func,
    INDEPENDENT,
    Jet,
    PARAMETER,
    RatPow,
    Sym,
    ONE,
    ZERO,
    _mono_sort_key,
    app,
)
from camchoi.jet import Context, total_derivative
from camchoi.library import load_builtin
from camchoi.modelfile import PdeBlock, parse_expression
from camchoi.reduction import FirstIntegralCandidate, ReducedEquation, check_first_integral
from camchoi.symmetry import VectorField, commutator, field_lincomb, prolong

t = Sym("t", INDEPENDENT)
x = Sym("x", INDEPENDENT)
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


def random_expr(rng, depth=3, apps=True):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.3:
            return Expr.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        atom = rng.choice(ATOM_POOL)
        return Expr.atom(atom, EXP_ONE if rng.random() < 0.8 else Exponent(4, 0))
    op = rng.random()
    if op < 0.45:
        return random_expr(rng, depth - 1, apps) + random_expr(rng, depth - 1, apps)
    if op < 0.85:
        return random_expr(rng, depth - 1, apps) * random_expr(rng, depth - 1, apps)
    if op < 0.95 or not apps:
        return random_expr(rng, depth - 1, apps) ** rng.randint(0, 2)
    return app(rng.choice(["exp", "tanh"]), random_expr(rng, 1, apps=False))


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


def _reference_sum(e, f):
    """Sum built the slow way: accumulate, drop zeros, stable sort descending."""
    m = {}
    for mono, c in e.terms + f.terms:
        m[mono] = m.get(mono, Fraction(0)) + c
    items = [(mono, c) for mono, c in m.items() if c != 0]
    items.sort(key=lambda term: _mono_sort_key(term[0]), reverse=True)
    return tuple(items)


def _assert_canonical(e):
    keys = [_mono_sort_key(mono) for mono, _ in e.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(c != 0 for _, c in e.terms)
    assert e._mono_keys() == keys
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
        assert (e + f).terms == _reference_sum(e, f)
        assert (f + e).terms == _reference_sum(f, e)


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


def test_prolongation_decomposition_independence():
    rng = random.Random(41)
    for _ in range(100):
        X = _random_poly_field(rng, ctx2)
        last = prolong(X, 3, direction="last")
        first = prolong(X, 3, direction="first")
        assert last.eta_ext == first.eta_ext


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
    w = Sym("w", "reduced")
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
        fi = FirstIntegralCandidate(rctx, fi_lhs, (c0,), "fi")
        assert check_first_integral(eq, fi).is_zero
