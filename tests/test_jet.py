import pytest

from camchoi.expr import (
    DEPENDENT,
    EXP_N,
    Exponent,
    Expr,
    Func,
    N_SYMBOL,
    PARAMETER,
    Sym,
    VARIABLE,
)
from camchoi.jet import MAX_JET_ORDER, Context, JetError, expand_pde, on_manifold, total_derivative

t = Sym("t", VARIABLE)
x = Sym("x", VARIABLE)
y = Sym("y", VARIABLE)
u = Sym("u", DEPENDENT)
alpha = Sym("alpha", PARAMETER)
beta = Sym("beta", PARAMETER)
ctx = Context((t, x, y), u, (alpha, beta, N_SYMBOL))
T, X, Y, U, A = (Expr.atom(s) for s in (t, x, y, u, alpha))


def jv(counts):
    return ctx.jet_expr(counts)


def cc_pde():
    inner = jv((1, 0, 0)) + A * jv((0, 1, 0)) - U * jv((0, 1, 0)) + jv((0, 2, 0))
    return expand_pde(ctx, total_derivative(inner, x, ctx) + jv((0, 0, 2)), name="cc")


def gcc_pde():
    inner = (
        jv((1, 0, 0))
        + A * jv((0, 1, 0))
        - U.pow_exponent(EXP_N) * jv((0, 1, 0))
        + Expr.atom(beta) * jv((0, 2, 0))
    )
    return expand_pde(ctx, total_derivative(inner, x, ctx) + jv((0, 0, 2)), name="gcc")


def test_total_derivative_of_dependent():
    assert total_derivative(U, x, ctx) == jv((0, 1, 0))


def test_total_derivative_of_time_function():
    phi = Expr.atom(Func("phi", (t,)))
    assert total_derivative(phi, x, ctx).is_zero


def test_total_derivative_product():
    d = total_derivative(U * jv((0, 1, 0)), x, ctx)
    assert d == jv((0, 1, 0)) ** 2 + U * jv((0, 2, 0))


def test_cc_expansion_matches_hand_form():
    pde = cc_pde()
    hand = (
        jv((1, 1, 0))
        + A * jv((0, 2, 0))
        - jv((0, 1, 0)) ** 2
        - U * jv((0, 2, 0))
        + jv((0, 3, 0))
        + jv((0, 0, 2))
    )
    assert pde.lhs == hand
    assert str(pde.lhs) == "-u[x]^2 - u*u[x,x] + alpha*u[x,x] + u[x,x,x] + u[t,x] + u[y,y]"


def test_cc_leading_and_rhs():
    pde = cc_pde()
    assert pde.leading == ctx.jet((0, 3, 0))
    hand_rhs = -(jv((1, 1, 0)) + A * jv((0, 2, 0)) - jv((0, 1, 0)) ** 2 - U * jv((0, 2, 0)) + jv((0, 0, 2)))
    assert pde.leading_rhs == hand_rhs


def test_gcc_leading_with_parameter_coefficient():
    pde = gcc_pde()
    assert pde.leading == ctx.jet((0, 3, 0))
    # the coefficient beta of the leading derivative is folded into the solved form
    assert pde.lhs == Expr.atom(beta) * (Expr.atom(pde.leading) - pde.leading_rhs)
    # the solved form carries the power-law product term
    term = Expr.atom(N_SYMBOL) * U.pow_exponent(Exponent(-2, 1)) * jv((0, 1, 0)) ** 2 / Expr.atom(beta)
    assert pde.leading_rhs.collect([ctx.jet((0, 1, 0))]).get(jv((0, 1, 0)) ** 2) is not None


def test_on_manifold_examples():
    pde = cc_pde()
    assert on_manifold(jv((0, 3, 0)), pde) == pde.leading_rhs
    assert on_manifold(jv((0, 0, 2)), pde) == jv((0, 0, 2))
    assert on_manifold(pde.lhs, pde).is_zero


def test_on_manifold_power_expansion():
    pde = cc_pde()
    e = jv((0, 3, 0)) ** 2
    r = on_manifold(e, pde)
    assert not r.contains(pde.leading)
    assert r == pde.leading_rhs ** 2


def test_renesting_reproduces_lhs():
    pde = cc_pde()
    inner = jv((1, 0, 0)) + A * jv((0, 1, 0)) - U * jv((0, 1, 0)) + jv((0, 2, 0))
    assert total_derivative(inner, x, ctx) + jv((0, 0, 2)) == pde.lhs


def test_nonlinear_leading_rejected():
    bad = jv((0, 3, 0)) ** 2 + jv((0, 1, 0))
    with pytest.raises(JetError, match="nonlinear in leading"):
        expand_pde(ctx, bad)


def test_expand_pde_takes_any_monomial_leading_coefficient():
    # a pde block still refuses t*u[t] + u (test_model); built in code it is solved
    tctx = Context((t,), u, ())
    pde = expand_pde(tctx, T * tctx.jet_expr((1,)) + U)
    assert (pde.leading, pde.leading_rhs) == (tctx.jet((1,)), -U / T)
    with pytest.raises(JetError, match=r"^nonlinear in leading derivative: coefficient u \+ 1 of u\[t\]$"):
        expand_pde(tctx, (1 + U) * tctx.jet_expr((1,)))


def test_eq37_is_solved_for_its_third_derivative(doc):
    eq37 = doc.find("eq37")
    pde = eq37.to_pde()
    assert pde.leading == eq37.ctx.jet((3,))
    assert on_manifold(eq37.lhs, pde).is_zero


def test_jet_order_cap():
    with pytest.raises(JetError, match="cap"):
        ctx.jet((0, MAX_JET_ORDER + 1, 0))


def test_reduced_equation_leading():
    # the reduced third-order equation selects the triple derivative
    w = Sym("w", VARIABLE)
    Ud = Sym("U", DEPENDENT)
    h0 = Sym("h0", PARAMETER)
    rctx = Context((t, w), Ud, (h0,))
    rj = rctx.jet_expr
    UU, H0 = Expr.atom(Ud), Expr.atom(h0)
    lhs = rj((0, 3)) + rj((0, 1)) ** 2 - (1 - UU + H0) * rj((0, 2)) + rj((1, 1))
    pde = expand_pde(rctx, lhs)
    assert pde.leading == rctx.jet((0, 3))


def test_on_manifold_annihilates_every_builtin_pde(doc):
    from camchoi.modelfile import PdeBlock

    for block in doc.blocks:
        if isinstance(block, PdeBlock):
            assert on_manifold(block.pde.lhs, block.pde).is_zero, block.name
