import itertools
import random
import re
from fractions import Fraction

import pytest

from camchoi.expr import (
    DEPENDENT,
    EXP_N,
    Exponent,
    Expr,
    Func,
    N_SYMBOL,
    Sym,
    VARIABLE,
    ONE,
    ZERO,
)
from camchoi.jet import Context, total_derivative
from camchoi.modelfile import AnsatzBlock, IntegralBlock, PdeBlock, SolutionBlock
from camchoi.reduction import (
    Ansatz,
    ReducedEquation,
    ReductionError,
    SolutionRule,
    UnsupportedField,
    check_first_integral,
    compare_reduced,
    compose_ansatz,
    invariants_for,
    jacobian_rank_ok,
    pullback,
    verify_closed_form,
)
from camchoi.symmetry import VectorField


def pde(doc, name):
    return doc.block(PdeBlock, name).pde


def ansatz(doc, name):
    return doc.block(AnsatzBlock, name).ansatz


# -- invariants_for ----------------------------------------------------------


def test_invariants_of_x_translation(doc):
    ctx = pde(doc, "cc").ctx
    t, x, y = ctx.independents
    a = invariants_for(VectorField(ctx, {x: ONE}, ZERO, "X3p"), dep_name="V")
    names = [v.name for v, _ in a.new_independent]
    assert names == ["t", "y"]
    assert a.dependent_rule == Expr.atom(Func("V", (t, y)))


def test_invariants_of_diagonal_translation_match_catalogued_ansatz(doc, case_results):
    assert case_results["cc.18"].verdict == "pass"


def test_invariants_of_scaling_z2(doc):
    ctx = pde(doc, "cc19").ctx
    t, w = ctx.independents
    U = Expr.atom(ctx.dependent)
    h0 = Expr.atom(doc.params["h0"])
    Z2 = VectorField(ctx, {t: 2 * Expr.atom(t), w: Expr.atom(w)}, h0 + 1 - U, "Z2")
    a = invariants_for(Z2, names=["sigma"], dep_name="Y")
    blk = ansatz(doc, "z2red")
    assert [e for _v, e in a.new_independent] == [e for _v, e in blk.new_independent]
    assert a.dependent_rule == blk.dependent_rule
    for inv in a.invariant_exprs():
        assert Z2.apply_to(inv).is_zero


def test_invariants_unsupported_projective(doc):
    ctx = pde(doc, "cc19").ctx
    t, w = ctx.independents
    U = Expr.atom(ctx.dependent)
    h0 = Expr.atom(doc.params["h0"])
    Z3 = VectorField(
        ctx,
        {t: Expr.atom(t) ** 2, w: Expr.atom(t) * Expr.atom(w)},
        (h0 + 1 - U) * Expr.atom(t) + Expr.atom(w),
        "Z3",
    )
    with pytest.raises(UnsupportedField, match="unsupported field shape"):
        invariants_for(Z3)


@pytest.mark.parametrize("xi, with_u, exponent", [
    ({"t": 3, "x": 1}, False, "-1/3"),
    ({"t": 3, "x": 1}, True, "-1/3"),
    ({"t": 3}, True, "1/3"),  # the dependent weight, not a base variable, leaves the lattice
])
def test_invariants_name_an_exact_exponent_off_the_lattice(doc, xi, with_u, exponent):
    # the weights are int coefficients; their quotient must stay a Fraction, never a float
    ctx = pde(doc, "cc").ctx
    names = {v.name: v for v in ctx.independents}
    X = VectorField(ctx, {names[k]: c * Expr.atom(names[k]) for k, c in xi.items()},
                    Expr.atom(ctx.dependent) if with_u else ZERO)
    with pytest.raises(UnsupportedField) as err:
        invariants_for(X)
    assert str(err.value) == "unsupported field shape: exponent %s outside the half-integer lattice" % exponent


def test_invariants_name_the_power_a_shifted_pivot_cannot_take(doc):
    # (2t + 1) d_t + x d_x moves t about t = -1/2: s = t + 1/2, and w = x*s^(-1/2)
    ctx = pde(doc, "cc").ctx
    t, x, _y = ctx.independents
    T, X = Expr.atom(t), Expr.atom(x)
    for xi, message in [
        ({t: 2 * T + 1, x: X}, "power -1/2 of the non-monomial t + 1/2"),
        ({t: 2 * T + 2, x: 2 * X}, "power -1 of the non-monomial t + 1"),
    ]:
        with pytest.raises(UnsupportedField) as err:
            invariants_for(VectorField(ctx, xi, ZERO))
        assert str(err.value) == "unsupported field shape: " + message
    # a positive integer power of s is taken; s is no monomial, so no inverse hint
    a = invariants_for(VectorField(ctx, {t: 2 * T + 1, x: -2 * X}, ZERO))
    assert a.new_independent[0][1] == (T + Fraction(1, 2)) * X and a.inverse_hints == []


def test_invariants_need_a_name_per_moving_variable(doc):
    ctx = pde(doc, "cc").ctx
    X = VectorField(ctx, {v: ONE for v in ctx.independents}, ZERO)
    with pytest.raises(ReductionError, match="needs 2 names for the new variables, got 1"):
        invariants_for(X, names=["w"])
    assert [v.name for v, _ in invariants_for(X, names=["w", "z"]).new_independent] == ["w", "z"]


def test_invariants_refuse_a_name_already_taken(doc):
    ctx = pde(doc, "cc").ctx
    t, x, y = ctx.independents
    for xi, kw, message in [
        ((t, x), dict(names=["y"]), "new variable 'y' is already a variable"),
        ((x, y), dict(names=["alpha"]), "new variable 'alpha' is already a parameter"),
        ((x,), dict(dep_name="u"), "dep_name 'u' is already the dependent variable"),
        ((x, y), dict(names=["w"], dep_name="w"), "dep_name 'w' is already a variable"),
    ]:
        with pytest.raises(ReductionError) as err:
            invariants_for(VectorField(ctx, {v: ONE for v in xi}, ZERO), **kw)
        assert str(err.value) == message


# -- pullback -----------------------------------------------------------------


def test_pullback_cc_matches_hand_oracle(doc):
    red = pullback(pde(doc, "cc"), ansatz(doc, "cc18"))
    rctx = red.ctx
    rj = rctx.jet_expr
    U = Expr.atom(rctx.dependent)
    alpha = Expr.atom(doc.params["alpha"])
    hand = rj((0, 3)) + rj((1, 1)) + rj((0, 1)) ** 2 + (U - 1 - alpha) * rj((0, 2))
    assert red.lhs == hand.content_normalized()


def test_pullback_gcc_matches_hand_oracle(doc):
    red = pullback(pde(doc, "gcc"), ansatz(doc, "gccw"))
    rctx = red.ctx
    rj = rctx.jet_expr
    U = Expr.atom(rctx.dependent)
    alpha = Expr.atom(doc.params["alpha"])
    beta = Expr.atom(doc.params["beta"])
    n = Expr.atom(N_SYMBOL)
    hand = (
        beta * rj((0, 3))
        + rj((1, 1))
        - n * U.pow_exponent(Exponent(-2, 1)) * rj((0, 1)) ** 2
        + (1 + alpha - U.pow_exponent(EXP_N)) * rj((0, 2))
    )
    assert red.lhs == hand.content_normalized()


def test_pullback_identity_ansatz(doc):
    cc = pde(doc, "cc")
    ctx = cc.ctx
    t, x, y = ctx.independents
    fn = Func("u", (t, x, y))
    ida = Ansatz(
        ctx,
        [(t, Expr.atom(t)), (x, Expr.atom(x)), (y, Expr.atom(y))],
        fn,
        Expr.atom(fn),
        name="identity",
    )
    assert pullback(cc, ida).lhs == cc.lhs.content_normalized()


def test_pullback_scaling_ansatz_z2(doc):
    red = pullback(pde(doc, "cc19"), ansatz(doc, "z2red"))
    sctx = red.ctx
    sj = sctx.jet_expr
    Y = Expr.atom(sctx.dependent)
    sigma = Expr.atom(sctx.independents[0])
    hand = 2 * sj((3,)) + 2 * sj((1,)) ** 2 + 2 * Y * sj((2,)) - sigma * sj((2,)) - 2 * sj((1,))
    assert red.lhs == hand.content_normalized()


def test_pullback_rank_deficient_rejected(doc):
    cc = pde(doc, "cc")
    ctx = cc.ctx
    t, x, y = ctx.independents
    w1 = Sym("w1", VARIABLE)
    w2 = Sym("w2", VARIABLE)
    fn = Func("F", (w1, w2))
    bad = Ansatz(
        ctx,
        [(w1, Expr.atom(x) + Expr.atom(y)), (w2, 2 * Expr.atom(x) + 2 * Expr.atom(y))],
        fn,
        Expr.atom(fn),
        name="bad",
    )
    with pytest.raises(ReductionError, match="Jacobian"):
        pullback(cc, bad)


def _det(mat):
    """Cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    out = ZERO
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        out = out + (-1) ** j * mat[0][j] * _det(minor)
    return out


def _rank_ok_by_minors(a):
    """The reference rank test: some maximal minor of d(new)/d(old) is nonzero."""
    rows = [[e.diff(v) for v in a.src.independents] for _, e in a.new_independent]
    k = len(a.src.independents)
    return len(rows) <= k and any(not _det([[row[j] for j in cols] for row in rows]).is_zero
                                  for cols in itertools.combinations(range(k), len(rows)))


def _random_poly(rng, atoms):
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        term = Expr.rational(rng.choice([-2, -1, 1, 3]))
        for s in atoms:
            term = term * Expr.atom(s) ** rng.randint(0, 2)
        out = out + term
    return out


def test_jacobian_rank_ok_matches_cofactor_minors(doc):
    ctx = pde(doc, "cc").ctx
    alpha = doc.params["alpha"]
    atoms = list(ctx.independents) + [alpha]
    rng = random.Random(1729)
    seen = {True: 0, False: 0}
    for _ in range(150):
        exprs = []
        for _ in range(rng.randint(1, 4)):
            if exprs and rng.random() < 0.3:
                # a function of an earlier variable: its gradient is parallel
                g = rng.choice(exprs)
                exprs.append(Expr.rational(rng.choice([-1, 2])) * g * g + Expr.atom(alpha) * g)
            else:
                exprs.append(_random_poly(rng, atoms))
        ws = [Sym("w%d" % i, VARIABLE) for i in range(len(exprs))]
        fn = Func("F", tuple(ws))
        a = Ansatz(ctx, list(zip(ws, exprs)), fn, Expr.atom(fn))
        expected = _rank_ok_by_minors(a)
        assert jacobian_rank_ok(a) == expected
        seen[expected] += 1
    assert min(seen.values()) >= 30


def test_pullback_residual_old_variable(doc):
    cc19 = pde(doc, "cc19")
    ctx = cc19.ctx
    t, w = ctx.independents
    sg = Sym("sigma", VARIABLE)
    fn = Func("Y", (sg,))
    # missing inverse hint: w cannot be eliminated
    a = Ansatz(
        ctx,
        [(sg, Expr.atom(w) * Expr.atom(t).pow_exponent(Exponent(-1, 0)))],
        fn,
        1 + Expr.atom(doc.params["h0"]) + Expr.atom(t).pow_exponent(Exponent(-1, 0)) * Expr.atom(fn),
        name="nohints",
    )
    with pytest.raises(ReductionError, match="residual old variable"):
        pullback(cc19, a)


def test_pullback_and_closed_forms_refuse_a_rule_that_holds_the_unknown(doc):
    cc19 = pde(doc, "cc19")
    ctx = cc19.ctx
    t, w = ctx.independents
    U, Ut = Expr.atom(ctx.dependent), ctx.jet_expr((1, 0))
    fn = Func("V", (t, w))
    G = Expr.atom(Func("G", (ctx.dependent,)))
    T, W, V = Expr.atom(t), Expr.atom(w), Expr.atom(fn)
    keep = [(t, T), (w, W)]
    for links, rule, hints, message in [
        (keep, V + U, [], "dependent rule V(t,w) + U holds U"),
        (keep, V + Ut, [], "dependent rule V(t,w) + U[t] holds U[t]"),
        (keep, V * G, [], "dependent rule G(U)*V(t,w) holds G(U)"),
        ([(t, T), (w, W + U)], V, [], "new variable w = U + w holds U"),
        (keep, V, [(w, W + Ut)], "inverse hint w = U[t] + w holds U[t]"),
    ]:
        with pytest.raises(ReductionError, match=re.escape(message)):
            pullback(cc19, Ansatz(ctx, links, fn, rule, hints, name="holds"))
    lam = Sym("lam", VARIABLE)
    f = Expr.atom(Func("f", (lam,)))
    for sol, rules, bindings, message in [
        (T * Ut, (), None, "closed form t*U[t] holds U[t]"),
        (f, (), [(lam, W - U)], "binding lam = -U + w holds U"),
        (f, (SolutionRule(Func("f", (lam,), (1,)), U),), [(lam, W)], "solution rule D(f;lam) = U holds U"),
    ]:
        with pytest.raises(ReductionError, match=re.escape(message)):
            verify_closed_form(cc19, sol, rules, bindings)


def test_compare_reduced_verdicts(doc):
    printed = doc.equation_of(doc.find("cc19"))
    assert compare_reduced(printed, printed).verdict == "exact"
    scaled = ReducedEquation(printed.ctx, 3 * printed.lhs, "scaled")
    assert compare_reduced(scaled, printed).verdict == "constant-multiple"
    red = pullback(pde(doc, "cc"), ansatz(doc, "cc18"))
    rep = compare_reduced(red, printed, substitutions=[(doc.params["h0"], Expr.atom(doc.params["alpha"]))])
    assert rep.verdict == "under-substitution"
    rep2 = compare_reduced(red, printed)
    assert rep2.verdict == "mismatch"
    assert not rep2.residual.is_zero


def test_compare_reduced_refuses_another_jet_space(doc):
    red = pullback(pde(doc, "cc"), ansatz(doc, "cc18"))
    message = r"^reduction cc\|cc18 is on \(t, w; U\) but equation cc25 is on \(w; Y\)$"
    with pytest.raises(ReductionError, match=message):
        compare_reduced(red, doc.equation_of(doc.find("cc25")))


def test_chain_and_composition(doc, case_results):
    assert case_results["chain"].verdict == "pass"


def test_two_step_equals_composed_explicitly(doc):
    cc = pde(doc, "cc")
    a1 = ansatz(doc, "cc18")
    mid = pullback(cc, a1).to_pde()
    alpha = Expr.atom(doc.params["alpha"])
    s = Sym("s", VARIABLE)
    fY = Func("Y", (s,))
    t, w = mid.ctx.independents
    a2 = Ansatz(mid.ctx, [(s, Expr.atom(w) - Expr.atom(t))], fY, Expr.atom(fY) + 1 + alpha, name="travel")
    assert pullback(mid, a2).lhs == pullback(cc, compose_ansatz(a1, a2)).lhs


# -- first integrals -----------------------------------------------------------


def test_first_integral_synthetic_pair(doc):
    w = Sym("w", VARIABLE)
    Y = Sym("Y", DEPENDENT)
    ctx = Context((w,), Y, ())
    fi_lhs = ctx.jet_expr((1,)) + Expr.rational(Fraction(1, 2)) * Expr.atom(Y) ** 2
    fi = ReducedEquation(ctx, fi_lhs, "syn")
    eq = ReducedEquation(ctx, total_derivative(fi_lhs, w, ctx), "syn-eq")
    assert check_first_integral(eq, fi).is_zero


def test_first_integral_cc26_golden(doc):
    eq = doc.equation_of(doc.find("cc25"))
    fi = doc.block(IntegralBlock, "cc26")
    r = check_first_integral(eq, fi)
    assert str(r) == "Y^2*Y[w] + Y0*Y"


def test_first_integral_eq35_golden(doc):
    eq = doc.equation_of(doc.find("eq34"))
    fi = doc.block(IntegralBlock, "eq35")
    r = check_first_integral(eq, fi)
    # (n+1)(A + alpha + 4) Y_sigma_sigma, expanded
    ctx = fi.ctx
    A = Expr.atom(doc.params["A"])
    alpha = Expr.atom(doc.params["alpha"])
    n = Expr.atom(N_SYMBOL)
    expected = ((n + 1) * (A + alpha + 4) * ctx.jet_expr((2,))).content_normalized()
    assert r == expected


def test_first_integral_eq38_nonzero(doc, case_results):
    r = case_results["eq.38"]
    assert r.verdict == "mismatch-recorded"
    assert r.detail["eq38"] != "0"
    assert r.detail["eq38alt"] != "0"
    assert r.detail["eq38"] != r.detail["eq38alt"]


def test_first_integral_order_gap_validation(doc):
    eq = doc.equation_of(doc.find("cc25"))
    fi = doc.block(IntegralBlock, "cc26")
    bad = ReducedEquation(fi.ctx, fi.lhs + fi.ctx.jet_expr((3,)), "bad")
    with pytest.raises(ReductionError, match="order gap"):
        check_first_integral(eq, bad)


@pytest.mark.parametrize("eq_name, message", [
    ("cc", r"^equation cc is on \(t, x, y; u\) but candidate cc26 is on \(w; Y\)$"),
    ("eq37", r"^equation eq37 is on \(zeta; H\) but candidate cc26 is on \(w; Y\)$"),
])
def test_first_integral_refuses_another_jet_space(doc, eq_name, message):
    eq = doc.equation_of(doc.find(eq_name))
    fi = doc.block(IntegralBlock, "cc26")
    with pytest.raises(ReductionError, match=message):
        check_first_integral(eq, fi)


# -- closed forms ----------------------------------------------------------------


def test_verify_cc24_exact(doc, case_results):
    assert case_results["cc.24"].verdict == "pass"


def test_verify_constant_solution(doc):
    cc = pde(doc, "cc")
    res, _ = verify_closed_form(cc, Expr.atom(doc.params["Y0"]))
    assert res.is_zero


def test_tanh_amplitude_constraint(doc):
    blk = doc.block(SolutionBlock, "cc27")
    target = doc.equation_of(doc.find(blk.on))
    res, cons = verify_closed_form(target, blk.sol)
    assert not res.is_zero
    a_sym = doc.params["A"]
    c_sym = doc.params["c"]
    # every collected constraint vanishes exactly at A = 1/c
    for coeff in cons.values():
        assert coeff.subst(a_sym, ONE / Expr.atom(c_sym)).is_zero
    res2, _ = verify_closed_form(target, blk.sol.subst(a_sym, ONE / Expr.atom(c_sym)))
    assert res2.is_zero


def test_cc32_certifies_with_riccati_rule(doc, case_results):
    assert case_results["cc.33"].verdict == "pass"


def test_dependent_expression_rejects_a_rule_not_affine_in_the_function(doc):
    ctx = pde(doc, "cc19").ctx
    t, w = ctx.independents
    fn = Func("U", (t, w))
    F = Expr.atom(fn)
    a = Ansatz(ctx, [(t, Expr.atom(t)), (w, Expr.atom(w))], fn, F + F ** 2, name="square")
    with pytest.raises(ReductionError, match="not affine"):
        a.dependent_expression()


def test_top_jet_coefficient_rejects_a_squared_top_jet_in_any_term_order():
    from camchoi.reduction import _top_jet_coeff

    zeta = Sym("zeta", VARIABLE)
    H = Sym("H", DEPENDENT)
    ctx = Context((zeta,), H)
    top = ctx.jet_expr((1,))
    for e in (top + top ** 2, Expr.atom(H) ** 3 * top + top ** 2):
        with pytest.raises(ReductionError, match="nonlinear top derivative"):
            _top_jet_coeff(e, ctx, 1)


def test_pullback_cancels_only_powers_of_variables():
    from camchoi.modelfile import parse_model

    text = ("pde p {\n  vars = t, x, y\n  dep = u\n  eq %s = 0\n}\n"
            "ansatz a on p {\n  var t = t\n  var w = 2*x + y\n  sub u = %s\n}\n")
    cases = [
        ("u[t] + u[x] - 2*u[y]", "U(t,w)", "U[t]"),
        # U[w,w] is common to both terms of U[w,w]*(1 + 2*U[w]) but is part of the equation
        ("u[y,y] + u[x,y]*u[y]", "U(t,w)", "2*U[w]*U[w,w] + U[w,w]"),
        # 2*t*U + t^2*U[t]: the common power of t goes
        ("u[t] + u[x] - 2*u[y]", "t^2*U(t,w)", "t*U[t] + 2*U"),
    ]
    for eq, sub, want in cases:
        doc = parse_model(text % (eq, sub))
        assert str(pullback(doc.block(PdeBlock, "p").pde, doc.block(AnsatzBlock, "a").ansatz).lhs) == want


def test_common_factor_is_each_variables_lowest_power_over_all_terms():
    from camchoi.reduction import _cancel_common_monomial

    t, w = Sym("t", VARIABLE), Sym("w", VARIABLE)
    ctx = Context((t, w), Sym("U", DEPENDENT))
    T, U, Ut = Expr.atom(t), Expr.atom(ctx.dependent), ctx.jet_expr((1, 0))
    want = T * Ut + U
    assert _cancel_common_monomial(Ut + T ** -1 * U) == want
    for k in range(-3, 4):  # the same equation times t^k, whichever term comes first
        assert _cancel_common_monomial(T ** k * want) == want
        assert _cancel_common_monomial(T ** k * Expr.atom(w) ** 2 * want) == want
    # powers of t that differ in their n part are left alone
    for e in (Expr.atom(t, EXP_N) * Ut + U, Expr.atom(t, EXP_N) * Ut + T ** -1 * U):
        assert _cancel_common_monomial(e) == e
