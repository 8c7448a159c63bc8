import itertools
import os
import random
import re
from fractions import Fraction

import pytest

from camchoi.expr import (
    DEPENDENT,
    Expr,
    ExprError,
    Func,
    Jet,
    N_SYMBOL,
    PARAMETER,
    Sym,
    VARIABLE,
    ONE,
    ZERO,
    _split_terms,
)
from camchoi.jet import Context, expand_pde, on_manifold
from camchoi.library import x3_of
from camchoi.modelfile import FieldBlock, PdeBlock, parse_model
from camchoi.symmetry import (
    MAX_PROLONG_ORDER,
    Decomposition,
    SymmetryError,
    VectorField,
    _not_a_parameter,
    apply_prolonged,
    check_symmetry,
    closure_table,
    commutator,
    decompose_field,
    determining_equations,
    eliminate,
    field_lincomb,
    prolong,
    solve_linear_exprs,
)


def vf(doc, name):
    return doc.block(FieldBlock, name).vf


def pde(doc, name):
    return doc.block(PdeBlock, name).pde


def test_prolong_constant_field_is_trivial(doc, eager_eta_table):
    X = vf(doc, "X1")
    P = prolong(X)
    assert all(P.eta(J).is_zero for J in eager_eta_table(X, 3))


def test_prolong_x3_first_order_golden(doc):
    P = prolong(vf(doc, "X3"))
    assert P.eta((0, 1, 0)).is_zero
    assert str(P.eta((1, 0, 0))) == "-u[x]*D(phi;t) - D(phi;t,t)"


def test_apply_prolonged_translation_annihilates(doc):
    cc = pde(doc, "cc")
    P = prolong(vf(doc, "X3p"))
    assert apply_prolonged(P, cc.lhs).is_zero


def test_apply_prolonged_du_gives_single_term(doc):
    cc = pde(doc, "cc")
    P = prolong(vf(doc, "du_field"))
    assert str(apply_prolonged(P, cc.lhs)) == "-u[x,x]"


def test_apply_prolonged_rejects_jets_beyond_the_prolongation_order(doc):
    # eta^[J] is implemented up to order 3, so pr X cannot see u[x,x,x,x]
    u_xxxx = pde(doc, "cc").ctx.jet_expr((0, 4, 0))
    with pytest.raises(SymmetryError, match=re.escape("u[x,x,x,x] is of order 4, beyond the prolongation order 3")):
        apply_prolonged(prolong(vf(doc, "X2")), u_xxxx)


def _reference_apply_prolonged(table, X, e):
    """The eager prolongation that on-demand eta^[J] replaced: a sum over
    every entry of the full eta^[J] table."""
    ctx = X.ctx
    out = X.eta * e.diff(ctx.dependent)
    for v in ctx.independents:
        out = out + X.coefficient(v) * e.diff(v)
    for counts, eta in table.items():
        out = out + eta * e.diff(ctx.jet(counts))
    return out


# pde, fields on its jet space (X3, X4 and Z4 carry function symbols, X5p and
# X6p exp(omega*t) factors), parameter bindings
REFERENCE_CASES = [
    ("cc", ("X1", "X2", "X3", "X4", "X5", "X5p", "X6p", "du_field"), [("alpha", 0)]),
    ("gcc", ("Y1f", "Y2f", "Yb2f", "Y5f", "X3", "X4", "du_field"),
     [("alpha", 0), ("n", 1), ("beta", Fraction(5, 2))]),
    ("cc19", ("Z1", "Z2", "Z3", "Z4"), [("h0", 0)]),
    ("eq33", ("Zb1", "Zb2", "Zb3_printed", "Z4"), [("alpha", -1), ("n", 2)]),
]


def _reference_pdes(doc):
    for name, fields, bindings in REFERENCE_CASES:
        base = pde(doc, name)
        for p in [base] + [base.with_parameter(doc.params[q], v) for q, v in bindings]:
            yield p, fields


@pytest.mark.parametrize("direction", ["last", "first"])
def test_check_symmetry_matches_the_eager_reference(doc, eager_eta_table, direction):
    rng = random.Random(2021)
    nonzero = drawn = 0
    for p, fields in _reference_pdes(doc):
        order = max(p.lhs.max_jet_order(), 1)
        for _ in range(6):
            pairs = [(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)), vf(doc, f))
                     for f in rng.sample(fields, rng.randint(1, 3))]
            X = field_lincomb(pairs, p.ctx, name="lincomb")
            ref = on_manifold(_reference_apply_prolonged(eager_eta_table(X, order, direction), X, p.lhs), p)
            assert on_manifold(apply_prolonged(prolong(X), p.lhs), p) == ref
            assert check_symmetry(X, p) == ref
            nonzero += not ref.is_zero
            drawn += 1
    # both symmetries and non-symmetries are drawn
    assert 10 <= nonzero <= drawn - 10


def _reference_determining_equations(p, eager_eta_table, direction="last"):
    """Each determining system from its own generic generator with the eager
    eta^[J] table, then ``on_manifold`` and ``collect``: the pipeline that the
    per-space table of prolongations and the one residual pass replaced."""
    ctx = p.ctx
    args = tuple(ctx.independents) + (ctx.dependent,)
    unknowns = [Func("xi_%s" % v.name, args) for v in ctx.independents] + [Func("eta", args)]
    X = VectorField(ctx, {v: Expr.atom(f) for v, f in zip(ctx.independents, unknowns)},
                    Expr.atom(unknowns[-1]), name="generic")
    table = eager_eta_table(X, MAX_PROLONG_ORDER, direction)
    residual = on_manifold(_reference_apply_prolonged(table, X, p.lhs), p)
    jets = sorted({a for a in residual.atoms() if isinstance(a, Jet)}, key=lambda a: a.sort_key())
    groups = residual.collect(jets) if jets else ({ONE: residual} if not residual.is_zero else {})
    equations = []
    for val in groups.values():
        eq = val.content_normalized()
        if not eq.is_zero and eq not in equations:
            equations.append(eq)
    equations.sort(key=lambda e: e.key())
    return unknowns, equations


@pytest.mark.parametrize("direction", ["last", "first"])
def test_determining_equations_match_the_eager_reference(doc, eager_eta_table, direction):
    for p, _fields in _reference_pdes(doc):
        det = determining_equations(p)
        assert (det.unknowns, det.equations) == _reference_determining_equations(p, eager_eta_table, direction)


def test_determining_equations_match_a_fresh_generic_prolongation(doc, monkeypatch, eager_eta_table):
    from camchoi import symmetry

    monkeypatch.setattr(symmetry, "_GENERIC_PROLONGATIONS", {})
    rng = random.Random(17)
    draws = {"alpha": [-2, -1, 0, 1, Fraction(1, 2)], "h0": [-3, 0, 1, Fraction(2, 3)],
             "beta": [-1, 1, Fraction(5, 2)]}
    pdes = []
    for name in ("cc", "gcc", "cc19", "eq33"):
        base = pde(doc, name)
        for _ in range(4):
            p = base
            for q in sorted(draws):
                if doc.params[q] in base.lhs.atoms() and rng.random() < 0.7:
                    p = p.with_parameter(doc.params[q], rng.choice(draws[q]))
            pdes.append(p)
    # gcc with its exponent generic and bound to 2..5 (n is not an atom of the lhs)
    gcc = pde(doc, "gcc")
    pdes += [gcc] + [gcc.with_parameter(N_SYMBOL, k) for k in (2, 3, 4, 5)]
    # Burgers' equation on jet spaces that differ only in the order of the
    # independents, or only in the name of the dependent
    t, x = Sym("t", VARIABLE), Sym("x", VARIABLE)
    for ivars, dep in (((t, x), "u"), ((x, t), "u"), ((t, x), "v")):
        ctx = Context(ivars, Sym(dep, DEPENDENT), ())
        ut, ux = (ctx.jet_expr(ctx.unit(v)) for v in (t, x))
        uxx = ctx.jet_expr(tuple(2 * c for c in ctx.unit(x)))
        pdes += [expand_pde(ctx, ut + Expr.atom(ctx.dependent) * ux - uxx, name="burgers")] * 2
    rng.shuffle(pdes)
    refs = [_reference_determining_equations(p, eager_eta_table) for p in pdes]
    spaces = {(p.ctx.independents, p.ctx.dependent) for p in pdes}
    assert len(spaces) == 5

    def run(order):
        for i in order:
            det = determining_equations(pdes[i])
            assert (det.unknowns, det.equations) == refs[i]
        assert set(symmetry._GENERIC_PROLONGATIONS) == spaces

    run(range(len(pdes)))
    warm = dict(symmetry._GENERIC_PROLONGATIONS)
    run(reversed(range(len(pdes))))
    assert symmetry._GENERIC_PROLONGATIONS == warm
    symmetry._GENERIC_PROLONGATIONS.clear()
    run(range(len(pdes)))


def _reference_grouping(p):
    """The determining system by the path that the one-pass normalisation
    replaced: each jet-monomial group an Expr through ``_from_map``, then
    ``content_normalized``, ``dict.fromkeys`` and a sort by ``key()``.
    Returns the equations and the number of groups."""
    from camchoi import symmetry

    determining_equations(p)  # fills the generic prolongation of p's space
    P = symmetry._GENERIC_PROLONGATIONS[(p.ctx.independents, p.ctx.dependent)]
    groups = _split_terms(symmetry._residual_terms(P, p).items(), lambda a: a.__class__ is Jet)
    equations = list(dict.fromkeys(Expr._from_map(g).content_normalized() for g in groups.values()))
    equations.sort(key=lambda e: e.key())
    return equations, len(groups)


# drawn parameters, and the special values alpha = 0 and 1 for cc and h0 = 0
# for cc19, where terms of the residual cancel
def test_one_pass_grouping_matches_the_per_group_normalisation(doc):
    rng = random.Random(33)
    systems = [pde(doc, "gcc").with_parameter(N_SYMBOL, k) for k in range(2, 6)]
    for name, q, special in (("cc", "alpha", [0, 1]), ("cc19", "h0", [0]), ("eq33", "alpha", [])):
        drawn = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12)) for _ in range(5)]
        systems += [pde(doc, name).with_parameter(doc.params[q], v) for v in special + drawn]
    merged = 0
    for p in systems:
        got = determining_equations(p).equations
        want, ngroups = _reference_grouping(p)
        assert [str(e) for e in got] == [str(e) for e in want]
        assert [e.terms for e in got] == [e.terms for e in want]
        assert all(type(c) is int for e in got for _m, c in e.terms)
        merged += len(want) < ngroups
    # every system holds groups that normalise to the same equation
    assert merged == len(systems)


EXP_OF_A_JET = os.path.join(os.path.dirname(__file__), "models", "exp_of_a_jet.model")


def test_determining_equations_refuse_a_jet_inside_exp():
    with open(EXP_OF_A_JET) as fh:
        doc = parse_model(fh.read())
    p = pde(doc, "expjet")
    with pytest.raises(ExprError, match=r"^u\[x\] occurs inside exp\(u\[x\]\) and cannot be split off$"):
        determining_equations(p)


def test_check_symmetry_x4_exact(doc):
    assert check_symmetry(vf(doc, "X4"), pde(doc, "cc")).is_zero


def test_check_symmetry_du_fails(doc):
    r = check_symmetry(vf(doc, "du_field"), pde(doc, "cc"))
    assert str(r) == "-u[x,x]"


def test_check_symmetry_ybar2_on_gcc(doc):
    assert check_symmetry(vf(doc, "Yb2f"), pde(doc, "gcc")).is_zero


def test_y2_requires_alpha_zero(doc):
    gcc = pde(doc, "gcc")
    assert not check_symmetry(vf(doc, "Y2f"), gcc).is_zero
    assert check_symmetry(vf(doc, "Y2f"), gcc.with_parameter(doc.params["alpha"], 0)).is_zero


def test_commutator_self_is_zero(doc):
    assert commutator(vf(doc, "X2"), vf(doc, "X2")).is_zero_field()


def test_commutator_x1_x2(doc):
    Z = commutator(vf(doc, "X1p"), vf(doc, "X2p"))
    assert Z == field_lincomb([(Expr.rational(2), vf(doc, "X1p"))], Z.ctx)


def test_commutator_x4_pair_lands_on_x3(doc):
    t = pde(doc, "cc").ctx.independents[0]
    psi = Expr.atom(Func("psi", (t,)))
    chi = Expr.atom(Func("chi", (t,)))
    Z = commutator(vf(doc, "X4"), vf(doc, "X4chi"))
    expected = x3_of(doc, Expr.rational(Fraction(1, 2)) * (chi * psi.diff(t) - psi * chi.diff(t)))
    assert Z == expected


def test_closure_proposition_set(doc, case_results):
    assert case_results["proposition-closure"].verdict == "pass"


def test_closure_six_field_witness(doc, case_results):
    r = case_results["cc.11-closure"]
    assert r.verdict == "pass"
    assert r.detail["closed"] is False
    assert "[X2p,X5p]" in r.detail["witnesses"]


def test_closure_duplicate_basis_rejected(doc):
    with pytest.raises(Exception, match="underdetermined decomposition"):
        closure_table([vf(doc, "X1"), vf(doc, "X1p")])


def test_decompose_with_parameter_constant(doc):
    Z = commutator(vf(doc, "Y1f"), vf(doc, "Yb2f"))
    dec = decompose_field(Z, [vf(doc, nm) for nm in ("Y1f", "Yb2f", "Y3f", "Y4f", "Y5f")])
    assert dec.ok
    assert dec.coefficient_strings() == ["2", "0", "alpha", "0", "0"]


def test_solve_linear_exprs_inconsistent():
    a = Sym("a")
    rows = [[ONE], [ONE]]
    rhs = [Expr.atom(a), Expr.atom(a) + 1]
    assert solve_linear_exprs(*_sparse(rows, rhs)) is None


def test_decompose_field_rejects_basis_on_another_jet_space(doc):
    # X1 lives on (t, x, y; u), Z1 and Z2 on (t, w; U)
    message = "field X1 is on (t, x, y; u) but field Z1 is on (t, w; U)"
    with pytest.raises(SymmetryError, match=re.escape(message)):
        decompose_field(vf(doc, "X1"), [vf(doc, "Z1"), vf(doc, "Z2")])


def test_coefficient_strings_print_exact_quotients_as_monomials():
    a = Expr.atom(Sym("alpha"))
    den = 2 * a * a + 4 * a + 2
    dec = Decomposition(True, [
        (den, den), (-3 * a * den, den), (ZERO, den), (a * a + a, a),
        (a + 2, a + 1), (a * a - 1, a + 1),
    ])
    # a quotient that is not a monomial keeps its fraction form
    assert dec.coefficient_strings() == [
        "1", "-3*alpha", "0", "alpha + 1", "(alpha + 2)/(alpha + 1)", "(alpha^2 - 1)/(alpha + 1)",
    ]


def _reference_eliminate(a, ncols):
    """The dense Gauss-Jordan loop over lists padded with ZERO, kept as the
    reference for ``eliminate``: the same pivot rule and row update."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((rr for rr in range(r, len(a)) if not a[rr][c].is_zero), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        for rr, row in enumerate(a):
            e = row[c]
            if rr != r and not e.is_zero:
                a[rr] = [piv * x - e * y if y.terms else piv * x for x, y in zip(row, prow)]
        pivots.append(c)
    return pivots


def _nonzero(row):
    """A dense row as a dict from column to nonzero entry."""
    return {j: x for j, x in enumerate(row) if not x.is_zero}


def _sparse(rows, rhs):
    """The rows of [A | b] as sparse rows, with the column count of A."""
    return [_nonzero(list(row) + [b]) for row, b in zip(rows, rhs)], len(rows[0]) if rows else 0


def _assert_matches_the_reference(sparse, ncols):
    """eliminate on the sparse rows and the dense reference on their padded
    copy give the same pivot columns and the same nonzero entries, row by row."""
    width = max([ncols] + [k + 1 for row in sparse for k in row])
    dense = [[row.get(k, ZERO) for k in range(width)] for row in sparse]
    pivots = eliminate(sparse, ncols)
    assert pivots == _reference_eliminate(dense, ncols)
    assert sparse == [_nonzero(row) for row in dense]
    return pivots


def _poly(rng, alpha):
    """A random element of Q[alpha] of degree at most 2; may be zero."""
    out = ZERO
    for d in range(rng.randint(1, 3)):
        out = out + Expr.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * Expr.atom(alpha) ** d
    return out


def _dot(row, xs):
    out = ZERO
    for a, x in zip(row, xs):
        out = out + a * x
    return out


def _rank_at(rows, alpha, value):
    """Rank over Q with alpha specialised to value: at most the rank over Q(alpha)."""
    m = [[e.eval_fraction({alpha: value}) for e in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        p = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _solves(rows, rhs, sol):
    """sum_j a_ij num_j/den_j == b_i, cross multiplied by every den."""
    nums = []
    total = ONE
    for j, (num, den) in enumerate(sol):
        total = total * den
        for k, (_n, other) in enumerate(sol):
            if k != j:
                num = num * other
        nums.append(num)
    return all((_dot(row, nums) - b * total).is_zero for row, b in zip(rows, rhs))


def test_solve_linear_exprs_planted_solutions():
    """Systems over Q[alpha] with a planted solution c: a unique solution comes
    back as num_i == c_i * den_i, a free unknown as zero, and an extra row that
    contradicts the others makes the system inconsistent."""
    alpha = Sym("alpha")
    rng = random.Random(2021)
    unique = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        rows = [[_poly(rng, alpha) for _ in range(n)] for _ in range(n + rng.randint(0, 1))]
        c = [_poly(rng, alpha) for _ in range(n)]
        rhs = [_dot(row, c) for row in rows]
        sol = solve_linear_exprs(*_sparse(rows, rhs))
        assert sol is not None and _solves(rows, rhs, sol)
        if _rank_at(rows, alpha, Fraction(7, 3)) == n:
            unique += 1
            assert all(num == ci * den for (num, den), ci in zip(sol, c))

        # a copy of column k as a last unknown: that unknown is free
        k = rng.randrange(n)
        wide = [row + [row[k]] for row in rows]
        wide_rhs = [b + row[k] * c[k] for row, b in zip(rows, rhs)]
        sol = solve_linear_exprs(*_sparse(wide, wide_rhs))
        assert sol is not None and _solves(wide, wide_rhs, sol)
        assert sol[-1] == (ZERO, ONE)

        # a combination of the rows with its right-hand side shifted
        ws = [_poly(rng, alpha) for _ in rows]
        extra = [_dot(ws, col) for col in zip(*rows)]
        shift = Expr.rational(rng.choice([-2, -1, 1, 3]))
        assert solve_linear_exprs(*_sparse(rows + [extra], rhs + [_dot(ws, rhs) + shift])) is None
    assert unique >= 50


def _draw_rows(rng, alpha):
    """Dense rows of [A | b] over Q[alpha], with zero rows, zero columns,
    repeated rows, and rows that cancel against earlier ones: a combination
    of two, or a multiple of one with one entry moved."""
    ncols = rng.randint(1, 5)
    zero_columns = set(rng.sample(range(ncols + 1), rng.randint(0, 2)))
    rows = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.randrange(6) if rows else 0
        if kind == 1:
            row = [ZERO] * (ncols + 1)
        elif kind == 2:
            row = list(rng.choice(rows))
        elif kind == 3:
            u, v = rng.choice(rows), rng.choice(rows)
            wu, wv = _poly(rng, alpha), _poly(rng, alpha)
            row = [wu * x + wv * y for x, y in zip(u, v)]
        elif kind == 4:
            w = _poly(rng, alpha)
            row = [w * x for x in rng.choice(rows)]
            j = rng.choice([k for k in range(ncols + 1) if k not in zero_columns] or [0])
            row[j] = row[j] + _poly(rng, alpha)
        else:
            row = [ZERO if j in zero_columns else _poly(rng, alpha) for j in range(ncols + 1)]
        rows.append(row)
    return rows, ncols


def test_sparse_elimination_matches_the_dense_reference():
    """Drawn matrices over Q[alpha] with a right-hand-side column: the sparse
    engine and the dense reference agree on pivots and entries, row by row."""
    alpha = Sym("alpha")
    rng = random.Random(32)
    deficient = inconsistent = 0
    for _ in range(300):
        rows, ncols = _draw_rows(rng, alpha)
        sparse = [_nonzero(row) for row in rows]
        pivots = _assert_matches_the_reference(sparse, ncols)
        deficient += len(pivots) < min(len(rows), ncols)
        inconsistent += any(ncols in row for row in sparse[len(pivots):])
    assert deficient >= 30 and inconsistent >= 30


def _stage_a_rows(p, d):
    """Item 1's stage A: each generator coefficient is a polynomial of degree
    at most d in the base variables with unknown constant coefficients.  The
    determining equations are split by non-parameter monomial, then by
    unknown, into sparse rows (repeated rows dropped); returns the rows and
    the number of unknowns."""
    system = determining_equations(p)
    unknowns, rules = [], {}
    for fn in system.unknowns:
        poly = ZERO
        for exps in itertools.product(range(d + 1), repeat=len(fn.args)):
            if sum(exps) <= d:
                c = Sym("stage_a_%d" % len(unknowns))
                unknowns.append(c)
                term = Expr.atom(c)
                for v, k in zip(fn.args, exps):
                    term = term * Expr.atom(v) ** k
                poly = poly + term
        rules[fn.name] = poly
    column = {c: j for j, c in enumerate(unknowns)}
    rows = {}
    for eq in system.substitute_solution(rules):
        for rest in _split_terms(eq.terms, _not_a_parameter).values():
            row = {column[key[0][0]]: Expr._from_map(part)
                   for key, part in _split_terms(rest.items(), column.__contains__).items()}
            rows.setdefault(tuple(sorted(row.items())), row)
    return list(rows.values()), len(unknowns)


@pytest.mark.parametrize("name, d, nrows, nullity",
                         [("cc", 1, 22, 6), ("cc", 2, 108, 8), ("gcc", 1, 35, 5), ("gcc", 2, 163, 5)])
def test_stage_a_nullities_match_the_dense_reference(doc, name, d, nrows, nullity):
    """For cc the nullity is 2 + 2(d + 1): X1, X2 and X3(phi), X4(psi) with
    phi, psi of degree at most d; generic gcc keeps its five fields."""
    rows, ncols = _stage_a_rows(pde(doc, name), d)
    assert (len(rows), ncols) == (nrows, 20 if d == 1 else 60)
    assert ncols - len(_assert_matches_the_reference(rows, ncols)) == nullity


def test_determining_equations_cc(doc, case_results):
    r = case_results["sec3-determining"]
    assert r.verdict == "pass"
    assert r.detail["equations"] >= 20


def test_determining_equations_trivial_pde_vs_bruteforce(doc):
    """Brute-force oracle: for u_x = 0, the emitted system and a direct
    symmetry-condition check constrain low-degree polynomial coefficients the
    same way."""
    t = Sym("t", VARIABLE)
    x = Sym("x", VARIABLE)
    y = Sym("y", VARIABLE)
    u = Sym("u", DEPENDENT)
    ctx = Context((t, x, y), u, ())
    trivial = expand_pde(ctx, ctx.jet_expr((0, 1, 0)), name="ux")

    det = determining_equations(trivial)
    # ansatz: every unknown is a generic affine polynomial in (t, x, y, u)
    base = [ONE] + [Expr.atom(s) for s in (t, x, y, u)]
    coeffs = []
    rules = {}
    for fname in ("xi_t", "xi_x", "xi_y", "eta"):
        e = ZERO
        for k, mono in enumerate(base):
            c = Sym("%s_%d" % (fname, k), PARAMETER)
            coeffs.append(c)
            e = e + Expr.atom(c) * mono
        rules[fname] = e

    def constraint_matrix(exprs):
        # each expression is linear homogeneous in the unknown coefficients;
        # one row per monomial in the remaining atoms
        catoms = set(coeffs)
        rows = []
        for e in exprs:
            buckets = {}
            for mono, q in e.terms:
                key = tuple(item for item in mono if not (isinstance(item[0], Sym) and item[0] in catoms))
                cs = [item for item in mono if isinstance(item[0], Sym) and item[0] in catoms]
                assert len(cs) == 1, "constraint is not linear homogeneous"
                row = buckets.setdefault(key, [Fraction(0)] * len(coeffs))
                row[coeffs.index(cs[0][0])] += q
            rows.extend(buckets.values())
        return rows

    # route A: substitute the polynomial ansatz into the emitted system
    sysA = det.substitute_solution(rules)
    rowsA = constraint_matrix(sysA)

    # route B: direct residual of the symmetry condition for the same ansatz
    X = VectorField(
        ctx,
        {t: rules["xi_t"], x: rules["xi_x"], y: rules["xi_y"]},
        rules["eta"],
        name="generic-poly",
    )
    residual = check_symmetry(X, trivial)
    rowsB = constraint_matrix([residual])

    def rref(rows):
        m = [row[:] for row in rows if any(row)]
        r = 0
        for c in range(len(coeffs)):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            m[r] = [v / m[r][c] for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return sorted(tuple(row) for row in m if any(row))

    assert rref(rowsA) == rref(rowsB)
    # xi_x is unconstrained for u_x = 0
    xi_x_cols = [i for i, c in enumerate(coeffs) if c.name.startswith("xi_x")]
    for row in rref(rowsA):
        assert all(row[i] == 0 for i in xi_x_cols)


def test_prolongation_is_decomposition_independent(doc, eager_eta_table):
    X = vf(doc, "X4")
    P = prolong(X)
    for direction in ("last", "first"):
        table = eager_eta_table(X, 3, direction)
        assert {J: P.eta(J) for J in table} == table


def test_bracket_case_fails_off_expectation_and_records_every_mismatch(doc):
    from camchoi.library import _bracket_case, _field

    def outcome(relations):
        res = _bracket_case("probe", "probe", relations, "note").run(doc)
        return res.verdict, res.detail, [(e.subject, e.note) for e in res.ledger]

    agree = ("[X1p,X2p]", "X1p", "X2p", [(2, "X1p")], "match")
    known = ("[X2p,X4p]", "X2p", "X4p", [(Fraction(3, 2), "X3p")], "mismatch")
    flipped = ("flipped", "X1p", "X2p", [(-2, "X1p")], "match")
    surprise = ("surprise", "X2p", "X4p", [(Fraction(3, 2), "X3p")], "sign-flip")
    assert outcome([agree]) == ("pass", {"[X1p,X2p]": "match"}, [])
    assert outcome([agree, known]) == ("mismatch-recorded", {"[X1p,X2p]": "match", "[X2p,X4p]": "mismatch"},
                                       [("[X2p,X4p]", "note")])
    assert outcome([flipped]) == ("fail", {"flipped": "sign-flip"}, [])
    assert outcome([known, surprise]) == ("fail", {"[X2p,X4p]": "mismatch", "surprise": "mismatch"},
                                          [("[X2p,X4p]", "note"), ("surprise", "note")])
    # formula coefficients and printed fields of formulas: [X1p,X5p] = omega1*X5p
    scaled = ("scaled", "X1p", "X5p", [("omega1", "X5p")], "match")
    negated = ("negated", "X1p", "X5p", [("-omega1", "X5p")], "sign-flip")
    assert outcome([scaled, negated]) == ("pass", {"scaled": "match", "negated": "sign-flip"}, [])
    full = ("full", "X1p", "X5p", lambda d: _field(d, x="omega1*exp(omega1*t)", eta="-omega1^2*exp(omega1*t)"),
            "match")
    no_eta = ("no eta", "X1p", "X5p", lambda d: _field(d, x="omega1*exp(omega1*t)"), "mismatch")
    assert outcome([full, no_eta]) == ("mismatch-recorded", {"full": "match", "no eta": "mismatch"},
                                       [("no eta", "note")])
    entry = _bracket_case("probe", "probe", [no_eta], "note").run(doc).ledger[0]
    assert (entry.printed, entry.computed) == ("(omega1*exp(t*omega1)) d_x",
                                               "(omega1*exp(t*omega1)) d_x + (-omega1^2*exp(t*omega1)) d_u")
