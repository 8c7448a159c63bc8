import sys
import threading
from fractions import Fraction

import pytest

from camchoi.expr import (
    DEPENDENT,
    EXP_N,
    EXP_ONE,
    Exponent,
    Expr,
    ExprError,
    Func,
    INDEPENDENT,
    Jet,
    N_SYMBOL,
    PARAMETER,
    REDUCED,
    RatPow,
    Sym,
    ONE,
    ZERO,
    app,
    normalize,
)

t = Sym("t", INDEPENDENT)
x = Sym("x", INDEPENDENT)
u = Sym("u", DEPENDENT)
a = Sym("a")
b = Sym("b")
z = Sym("z")
X = Expr.atom(x)
T = Expr.atom(t)
U = Expr.atom(u)


def jet(counts):
    return Jet(u, (t, x), counts)


def test_equal_atoms_are_one_object():
    assert Sym("x", INDEPENDENT) is Sym("x", REDUCED) is x
    assert Sym("x", PARAMETER) is not x
    assert Jet(u, (t, x), (1, 0)) is Jet(Sym("u", DEPENDENT), [t, Sym("x", REDUCED)], [1, 0])
    assert Func("phi", (t,)) is Func("phi", (t,), (0,))
    assert Func("phi", (t,)).bump(t) is Func("phi", (t,), (1,))
    assert RatPow(Fraction(4, 2)) is RatPow(2)
    assert Exponent(2) is Exponent(2, 0) is EXP_ONE
    assert Exponent(1, 1).plus(Exponent(1, -1)) is EXP_ONE


def _fresh_atoms(tag):
    out = []
    for i in range(200):
        s = Sym("%s%d" % (tag, i), INDEPENDENT)
        out += [s, Jet(u, (s,), (2,)), Func("f" + tag, (s,), (i % 3,)),
                RatPow(Fraction(i + 1, 7919)), Exponent(1000 + i, 7)]
    return out


def test_interning_holds_across_threads():
    workers = 4
    barrier = threading.Barrier(workers, timeout=10)
    built = [None] * workers

    def build(k):
        barrier.wait()
        built[k] = _fresh_atoms("race")

    threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(len(atoms) == 1000 for atoms in built)
    assert all(p is q for atoms in built[1:] for p, q in zip(built[0], atoms))


def test_atoms_differing_only_in_rank_have_distinct_keys():
    xp = Sym("x", PARAMETER)
    jx, jp = Jet(u, (x,), (1,)), Jet(u, (xp,), (1,))
    fx, fp = Func("f", (x,)), Func("f", (xp,))
    assert jx.sort_key() != jp.sort_key() and fx.sort_key() != fp.sort_key()
    for p, q in ((jx, jp), (fx, fp)):
        P, Q = Expr.atom(p), Expr.atom(q)
        assert P + Q == Q + P
        assert (P + Q) - Q == P
        assert P * (Q * P) == P ** 2 * Q == (P * Q) * P
        assert P * (Q * P) - P ** 2 * Q == ZERO


def test_integer_power_of_rational_base_folds():
    two = RatPow(2)
    assert Expr.atom(two) == 2
    assert Expr.atom(two) * ONE == 2
    assert Expr.atom(two, Exponent(-4)) == Fraction(1, 4)
    assert Expr.atom(two, EXP_N) * Expr.atom(two) == 2 * Expr.atom(two, EXP_N)


def test_copies_of_interned_atoms_are_the_same_object():
    import copy
    import pickle

    for obj in (x, Sym("x", PARAMETER), jet((1, 2)), Func("phi", (t,), (1,)),
                RatPow(Fraction(3, 2)), Exponent(-1, 1)):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
    e = (X + U.pow_exponent(EXP_N)) * Expr.atom(jet((0, 1)))
    assert pickle.loads(pickle.dumps(e)) == e
    assert copy.deepcopy(e) == e


def test_like_terms_merge():
    assert X + X == 2 * X
    assert str(X + X) == "2*x"


def test_symbolic_exponent_merge():
    assert U * U.pow_exponent(Exponent(-2, 1)) == U.pow_exponent(EXP_N)
    assert str(U.pow_exponent(Exponent(-2, 1))) == "u^(n-1)"


def test_tanh_square_cancellation():
    th = app("tanh", Expr.atom(z))
    assert th * th + (ONE - th * th) == ONE
    # numeric cross-check of the identity used by the rewrite rule
    import math

    v = math.tanh(0.3)
    assert abs(v * v + (1 - v * v) - 1.0) < 1e-15


def test_diff_power_rule():
    assert (X ** 2).diff(x) == 2 * X


def test_diff_opaque_function():
    phi = Expr.atom(Func("phi", (t,)))
    assert (phi * X).diff(t) == Expr.atom(Func("phi", (t,), (1,))) * X


def test_diff_symbolic_power():
    d = U.pow_exponent(EXP_N).diff(u)
    assert d == Expr.atom(N_SYMBOL) * U.pow_exponent(Exponent(-2, 1))


def test_diff_chain_rule_against_expansion():
    # d/du of u^(n+1) agrees with (n+1) u^n term by term
    d = U.pow_exponent(Exponent(2, 1)).diff(u)
    assert d == (Expr.atom(N_SYMBOL) + 1) * U.pow_exponent(EXP_N)


def test_substitute_jet_to_zero():
    ux = jet((0, 1))
    assert (Expr.atom(ux) ** 2).subst(ux, ZERO).is_zero


def test_substitute_rational_base_under_symbolic_power():
    e = U.pow_exponent(EXP_N).subst(u, Expr.rational(2))
    assert e == Expr.atom(RatPow(Fraction(2)), EXP_N)
    assert str(e) == "2^n"
    assert e.subst(N_SYMBOL, Expr.rational(3)) == Expr.rational(8)


def test_symbolic_power_of_sum_is_rejected():
    with pytest.raises(ExprError, match="symbolic-power substitution"):
        U.pow_exponent(EXP_N).subst(u, X + 1)


def test_collect_simple():
    ux = jet((0, 1))
    e = Expr.atom(a) * Expr.atom(ux) + Expr.atom(b) * Expr.atom(ux) ** 2
    groups = e.collect([ux])
    assert groups == {
        Expr.atom(ux): Expr.atom(a),
        Expr.atom(ux) ** 2: Expr.atom(b),
    }


def test_collect_zero_is_empty():
    assert ZERO.collect([x]) == {}


def test_collect_reexpands(doc):
    e = 3 * X ** 2 * T - X + 5 * T + Fraction(1, 2)
    groups = e.collect([x])
    total = ZERO
    for key, val in groups.items():
        total = total + key * val
    assert total == e


def test_is_zero():
    assert (X - X).is_zero
    th = app("tanh", Expr.atom(z))
    assert ((ONE - th * th) - (ONE - th * th)).is_zero
    assert not (X + 1).is_zero


def test_non_monomial_divisor_rejected():
    with pytest.raises(ExprError, match="non-monomial divisor"):
        ONE / (X + 1)


def test_monomial_division():
    c = Sym("c")
    e = ONE / (2 * Expr.atom(c))
    assert e == Expr.rational(Fraction(1, 2)) * Expr.atom(c, Exponent(-2, 0))


def test_half_integer_powers():
    half = T.pow_exponent(Exponent(1, 0))
    assert half * half == T
    assert half.diff(t) == Expr.rational(Fraction(1, 2)) * T.pow_exponent(Exponent(-1, 0))
    assert str(T.pow_exponent(Exponent(-1, 0))) == "t^(-1/2)"


def test_exp_and_tanh_derivatives():
    E = app("exp", 2 * T)
    assert E.diff(t) == 2 * E
    th = app("tanh", Expr.atom(z))
    assert th.diff(z) == ONE - th * th


def test_app_folds():
    assert app("exp", ZERO) == ONE
    assert app("tanh", ZERO) == ZERO


def test_exponent_parameter_binding_folds_ratpow():
    e = Expr.atom(RatPow(Fraction(2)), Exponent(0, 2))  # 2^(2n)
    assert e.subst(N_SYMBOL, Expr.rational(2)) == Expr.rational(16)


def test_cannot_differentiate_by_exponent_parameter():
    with pytest.raises(ExprError, match="exponent parameter"):
        U.pow_exponent(EXP_N).diff(N_SYMBOL)


def test_normalize_is_identity_on_canonical():
    e = 3 * X * T - U ** 2
    assert normalize(e) == e


def test_content_normalized():
    e = 4 * X - 2 * T
    n = e.content_normalized()
    assert n == 2 * X - T
    assert (-e).content_normalized() == n


def test_print_parse_simple_forms():
    assert str(2 * X) == "2*x"
    assert str(U.pow_exponent(EXP_N)) == "u^n"
    assert str(-Expr.atom(jet((0, 2)))) == "-u[x,x]"
