import hashlib
import random
import sys
from fractions import Fraction

import pytest

from camchoi.expr import Expr, Sym, VARIABLE
from camchoi.library import build_cases, builtin_text, load_builtin
from camchoi.modelfile import (
    AnsatzBlock,
    EquationBlock,
    FieldBlock,
    ParseError,
    PdeBlock,
    ReducedBlock,
    SolutionBlock,
    parse_expression,
    parse_model,
    print_model,
)
from camchoi.reduction import ReductionError, invariants_for, pullback

MINI = """
param alpha
exponent n
func phi(t)

pde cc {
  vars = t, x, y
  dep = u
  eq D( D(u;t) + alpha*D(u;x) - u*D(u;x) + D(u;x,x) ; x ) + D(u;y,y) = 0
}

field X3 on cc {
  xi x = phi(t)
  eta = -D(phi;t)
}
"""


def test_parse_cc_equation_from_nested_form(doc):
    mini = parse_model(MINI)
    assert mini.block(PdeBlock, "cc").lhs == doc.block(PdeBlock, "cc").lhs


def test_parse_field_block(doc):
    mini = parse_model(MINI)
    assert mini.block(FieldBlock, "X3").vf == doc.block(FieldBlock, "X3").vf


def test_expression_constant_folding(doc):
    ctx = doc.block(PdeBlock, "cc").ctx
    assert parse_expression(doc, ctx, "1 + 2") == Expr.rational(3)
    assert parse_expression(doc, ctx, "2^n * 2^n") == parse_expression(doc, ctx, "2^(2*n)")
    assert parse_expression(doc, ctx, "u[t,x,x]") == ctx.jet_expr((1, 2, 0))
    assert parse_expression(doc, ctx, "D(u;t,x,x)") == ctx.jet_expr((1, 2, 0))


def test_expression_with_trailing_input_is_a_parse_error(doc):
    with pytest.raises(ParseError, match="^line 1, col 7: trailing input after expression$"):
        parse_expression(doc, doc.block(PdeBlock, "cc").ctx, "u + 1 u")


def test_every_variable_has_the_one_variable_kind(doc):
    """Which block builds a variable's name first does not decide its kind."""
    built = {"vars": [], "var": [], "bind": [], "invariants_for": []}
    for b in doc.blocks:
        if isinstance(b, EquationBlock):
            built["vars"] += b.ctx.independents
        elif isinstance(b, AnsatzBlock):
            built["var"] += [v for v, _e in b.ansatz.new_independent]
        elif isinstance(b, SolutionBlock):
            built["bind"] += [v for v, _e in b.bindings]
        elif isinstance(b, FieldBlock):
            try:
                built["invariants_for"] += [v for v, _e in invariants_for(b.vf).new_independent]
            except ReductionError:
                pass
    for role, syms in built.items():
        assert syms, role
        assert {v.kind for v in syms} == {VARIABLE}, role
    # cc19's w is first built by the cc18 ansatz
    assert Sym("w", VARIABLE) in doc.block(PdeBlock, "cc19").ctx.independents


def test_round_trip_builtin_model():
    doc1 = parse_model(builtin_text())
    text1 = print_model(doc1)
    doc2 = parse_model(text1)
    assert doc1 == doc2
    assert print_model(doc2) == text1


def test_printed_builtin_model_is_pinned():
    text = print_model(load_builtin())
    assert hashlib.md5(text.encode("utf-8")).hexdigest() == "90d0d44705a0674e149e144da72b32e3"


def test_print_expr_reparses_to_same_expr(doc):
    ctx = doc.block(PdeBlock, "cc").ctx
    samples = [
        "2*x",
        "u^n",
        "-u[x]*D(phi;t) - D(phi;t,t)",
        "3/2*y*exp(t*omega1)",
        "t^(-1/2)*u - alpha",
        "tanh(x - w0)^2",
        "(1/2)^n*u^(n+1)",
    ]
    for s in samples:
        e = parse_expression(doc, ctx, s)
        assert parse_expression(doc, ctx, str(e)) == e


def test_syntax_error_reports_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t] + = 0\n}")
    assert "line 4" in str(err.value)
    assert "(expected one of: " in str(err.value)


def test_unknown_identifier_names_declaration_rules():
    with pytest.raises(ParseError, match="declare it with param or func"):
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t] + gamma = 0\n}")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match="declared twice"):
        parse_model("param a\nparam a\n")


def test_nonlinear_leading_rejected_at_parse():
    with pytest.raises(ParseError, match="nonlinear in leading") as err:
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t]^2 + u = 0\n}")
    assert (err.value.line, err.value.col) == (4, 3)


def test_jet_shorthand_only_for_dependent():
    with pytest.raises(ParseError, match="jet shorthand"):
        parse_model("param a\npde p {\n  vars = t\n  dep = u\n  eq a[t] + u[t] = 0\n}")


def test_division_by_sum_is_reported():
    with pytest.raises(ParseError, match="non-monomial divisor"):
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t]/(1 + u) = 0\n}")


def test_exponent_must_be_named_n():
    with pytest.raises(ParseError, match="must be named n"):
        parse_model("exponent m\n")


MINI_LINES = MINI.count("\n")


@pytest.mark.parametrize("block, line, col", [
    ("field X on nosuch { eta = 0 }", 1, 12),
    ("ansatz A on nosuch {\n  var w = x\n}", 1, 13),
    ("ansatz A on X3 {\n  var w = x\n}", 1, 13),
    ("solution S on X3 {\n  sub u = 0\n}", 1, 15),
    ("ansatz A on cc {\n  var w = x\n  sub u = w\n}", 3, 7),
    ("field F on cc {\n  xi x = 1\n  eta = u[x]\n}", 3, 3),
    ("ansatz A on cc {\n  var t = t\n  var alpha = x + y\n  sub u = U(t,alpha)\n}", 3, 3),
    ("ansatz A on cc {\n  var t = t\n  var u = x + y\n  sub u = U(t,u)\n}", 3, 3),
    ("ansatz A on cc {\n  var t = t\n  var phi = x + y\n  sub u = U(t,phi)\n}", 3, 3),
    ("ansatz A on cc {\n  var w = x\n  var w = y\n  sub u = U(w,w)\n}", 3, 3),
    ("solution S on cc {\n  bind x = t - x\n  sub u = f(x)\n}", 2, 3),
    ("solution S on cc {\n  bind alpha = t - x\n  sub u = f(alpha)\n}", 2, 3),
    ("solution S on cc {\n  bind u = t - x\n  sub u = f(u)\n}", 2, 3),
    ("solution S on cc {\n  bind lam = t - x\n  bind lam = y\n  sub u = f(lam)\n}", 3, 3),
], ids=["field on unknown", "ansatz on unknown", "ansatz on field", "solution on field",
        "ansatz without new function", "jet-valued field coefficient", "ansatz var named like a parameter",
        "ansatz var named like the old dependent", "ansatz var named like a function", "repeated ansatz var",
        "bind named like an old variable", "bind named like a parameter", "bind named like the dependent",
        "repeated bind"])
def test_bad_block_references_are_parse_errors(block, line, col):
    with pytest.raises(ParseError) as err:
        parse_model(MINI + block + "\n")
    assert (err.value.line, err.value.col) == (MINI_LINES + line, col)


def _block(clauses, kind="pde"):
    return "%s p {\n%s\n}\n" % (kind, "\n".join("  " + c for c in clauses))


EQ_HEAD = ["vars = t", "dep = u"]


RUN = "ode o { vars = s; dep = H; eq H[s] = 0 }\nrun r {\n  ode = o\n  ic = %s\n  span = %s\n}\n"


# an error while building an equation block is reported at its eq clause
@pytest.mark.parametrize("text, line, col, match", [
    (_block(["vars = t, t", "dep = u", "eq u[t] = 0"]), 4, 3, "unique"),
    (_block(["vars = t", "dep = t", "eq t = 0"]), 4, 3, "unique"),
    (_block(EQ_HEAD + ["eq u + 1 = 0"]), 4, 3, "no jet variables"),
    (_block(EQ_HEAD + ["eq (1 + u)*u[t] = 0"]), 4, 3, "nonlinear in leading"),
    (_block(EQ_HEAD + ["eq t*u[t] + u = 0"]), 4, 3, "not a parameter monomial"),
    (_block(EQ_HEAD + ["eq u[t]^2 + u = 0"]), 4, 3,
     r"^line 4, col 3: nonlinear in leading derivative: u\[t\] appears with a power other than 1$"),
    (_block(EQ_HEAD + ["eq u[t] + (t^(1/2))^(1/2) = 0"]), 4, 23,
     r"^line 4, col 23: cannot raise t\^\(1/2\) to power 1/2$"),
    (_block(EQ_HEAD + ["eq u[t] + u = 0", "vars = s"], "reduced"), 5, 3, "vars must come before eq"),
    (_block(EQ_HEAD + ["eq u[t] + u = 0", "dep = v"], "ode"), 5, 3, "dep must come before eq"),
    ("param a\n" + _block(EQ_HEAD + ["constants = a", "eq u[t] = 0"]), 5, 13, "unknown clause"),
    (_block(EQ_HEAD + ["eq u[t] + 1.2.3 = 0"]), 4, 16, "found '.3'"),
    (_block(EQ_HEAD + ["eq u[t] + 1e- = 0"]), 4, 14, "found 'e'"),
    (_block(EQ_HEAD + ["eq u[t] + 1/0 = 0"]), 4, 15, "division by zero"),
    (_block(EQ_HEAD + ["eq u[t] + u^-1 = 0"]), 4, 15, r"expected an expression \(expected one of: \(, NAME, NUMBER\)"),
    (RUN % ("1/0", "0, 1"), 4, 10, "division by zero"),
    (RUN % ("1", "0, 1e-"), 5, 14, "expected end of clause"),
    ("pde p { vars = t; dep = u; eq u[t] = 0 }\node q on p { vars = s; dep = H; eq H[s] = 0 }\n",
     2, 7, "ode blocks take no 'on'"),
    (RUN.replace("run r {", "run r on o {") % ("1", "0, 1"), 2, 7, "run blocks take no 'on'"),
    (RUN.replace("span = %s\n", "span = %s\n  method = fixed-rk5\n") % ("1", "0, 1"), 6, 12,
     r"unknown method 'fixed-rk5' \(expected one of: adaptive-rk45, fixed-rk4\)"),
    ("param alpha\n" + _block(["vars = t, alpha", "dep = u", "eq alpha*u[t] = 0"]), 5, 3,
     "vars name 'alpha' is already a parameter"),
    ("func f(t)\n" + _block(["vars = t, f", "dep = u", "eq u[t] + f(t) = 0"]), 5, 3,
     "vars name 'f' is already a function"),
    ("param alpha\n" + _block(["vars = t", "dep = alpha", "eq alpha[t] + alpha = 0"]), 5, 3,
     "dep name 'alpha' is already a parameter"),
    (_block(EQ_HEAD + ["eq u[t] + %s*u = 0" % ("1" * 5000)]), 4, 13, "number needs more than 4300 digits"),
    (_block(EQ_HEAD + ["eq u[t] + 1e5000*u = 0"]), 4, 13, "number needs more than 4300 digits"),
    (_block(EQ_HEAD + ["eq u[t] + 1e-5000*u = 0"]), 4, 13, "number needs more than 4300 digits"),
    (_block(EQ_HEAD + ["eq u[t] + 1e30000000*u = 0"]), 4, 13, "number needs more than 4300 digits"),
    (RUN % ("1", "0, " + "1" * 5000), 5, 13, "number needs more than 4300 digits"),
    (_block(EQ_HEAD + ["eq u[t] = 0", 'note = "a\nb"']), 5, 10, "unterminated string"),
    (MINI + "field F { xi t = 1 }\n", MINI_LINES + 1, 11, "field blocks need 'on PDE'"),
    (_block(["eq u[t] = 0"]), 2, 6, "vars and dep must come before eq"),
    (MINI + "ansatz A on cc {\n  sub u = 0\n}\n", MINI_LINES + 3, 1, "ansatz needs at least one var clause"),
    (MINI + "solution S on cc {\n  bind lam = t\n}\n", MINI_LINES + 3, 1, "solution needs a sub clause"),
    ("ode o { vars = s; dep = H; eq H[s] = 0 }\nrun r {\n  ode = o\n}\n", 4, 1,
     "run blocks need ode, ic, and span clauses"),
    ("param a\n" + _block(EQ_HEAD + ["eq u[t] + a(t) = 0"]), 5, 18, "'a' is a symbol, not a function"),
    ("func phi(t)\n" + _block(["vars = t, x", "dep = u", "eq u[t] + phi(x) = 0"]), 5, 20,
     r"function phi was declared with arguments \(t\)"),
    ("exponent n\n" + _block(EQ_HEAD + ["eq u[t] + u^(n*n) = 0"]), 5, 15, "^line 5, col 15: exponent must be affine in n$"),
    ("param a\n" + _block(EQ_HEAD + ["eq u[t] + u^a = 0"]), 5, 15,
     "exponent must be affine in n with rational coefficients"),
    (_block(EQ_HEAD + ["eq u[t] + u^(1/3) = 0"]), 4, 15, "exponent outside the half-integer lattice"),
    ("exponent n\n" + _block(EQ_HEAD + ["eq u[t] + u^(n/2) = 0"]), 5, 15, "exponent outside the half-integer lattice"),
], ids=["repeated variable", "dependent is a variable", "no jets", "nonlinear leading",
        "leading coefficient with a variable", "leading derivative squared", "half power of a half power",
        "vars after eq", "dep after eq", "constants in a pde",
        "two decimal points", "exponent without digits", "zero divisor in an equation", "signed power",
        "zero divisor in ic", "exponent without digits in span", "on in an ode block",
        "on in a run block", "unknown method", "variable named like a parameter", "variable named like a function",
        "dependent named like a parameter", "5000-digit literal", "literal 1e5000", "literal 1e-5000",
        "literal 1e30000000", "5000-digit span", "newline in a note", "field without on", "eq before vars and dep",
        "ansatz without var", "solution without sub", "run with only ode", "parameter applied as a function",
        "function with other arguments", "exponent n*n", "exponent a parameter", "exponent 1/3",
        "exponent n/2"])
def test_malformed_blocks_are_parse_errors(text, line, col, match):
    with pytest.raises(ParseError, match=match) as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_numbers_read_as_fractions(doc):
    ctx = doc.block(PdeBlock, "cc").ctx
    for text, value in [("1.", 1), (".5", "1/2"), ("1.5e-3", "3/2000"), ("2E+2", 200), ("00.10", "1/10")]:
        assert parse_expression(doc, ctx, text) == Expr.rational(Fraction(value))



@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit")
def test_number_literals_follow_the_interpreters_digit_limit(doc):
    ctx = doc.block(PdeBlock, "cc").ctx
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert parse_expression(doc, ctx, "1e999") == Expr.rational(10 ** 999)
        assert parse_expression(doc, ctx, "1e-999") == Expr.rational(Fraction(1, 10 ** 999))
        for text in ["1" * 2000, "1e1000", "1e-1000", "0." + "0" * 1000 + "1"]:
            with pytest.raises(ParseError, match="number needs more than 1000 digits"):
                parse_expression(doc, ctx, text)
    finally:
        sys.set_int_max_str_digits(old)

def test_block_names_are_unique_under_lookup():
    eq = "{ vars = t; dep = u; eq u[t] + u = 0 }\n"
    with pytest.raises(ParseError, match="duplicate block name 'Fa'") as err:
        parse_model(MINI + "field fa on cc { xi t = 1 }\nfield Fa on cc { xi x = 1 }\n")
    assert (err.value.line, err.value.col) == (MINI_LINES + 2, 7)
    with pytest.raises(ParseError, match="duplicate block name 'p'"):
        parse_model("pde p " + eq + "reduced p " + eq)
    assert isinstance(parse_model("reduced p " + eq + "reduced q " + eq).find("Q"), ReducedBlock)


# one block of each kind, with the number forms, a note and a rule
FUZZ_SEED = """param alpha, h0, Y0, Y1
exponent n
func phi(t)
pde cc {
  vars = t, x, y
  dep = u
  eq D( D(u;t) + alpha*D(u;x) - u^n*D(u;x) + D(u;x,x) ; x ) + D(u;y,y) = 0
}
field X3 on cc { xi x = phi(t); eta = -D(phi;t) }
ansatz cc18 on cc {
  var t = t
  var w = y - x
  sub u = U(t,w)
}
pde cc19 {
  vars = t, w
  dep = U
  eq U[w,w,w] + U[w]^2 - (1 - U + h0)*U[w,w] + U[w,t] = 0
}
ansatz z2red on cc19 {
  var sigma = w*t^(-1/2)
  sub U = 1 + h0 + t^(-1/2)*Y(sigma)
  inverse w = sigma*t^(1/2)
}
reduced cc25 { vars = w; dep = Y; eq Y[w,w,w] + Y[w]^2 - Y*Y[w,w] = 0 }
integral cc28 {
  vars = w
  dep = Y
  constants = Y0, Y1
  eq Y[w] + (1/2)*Y^2 + Y0*w + Y1 = 0
}
solution cc32 on cc19 {
  bind lam = w*t^(-1)
  sub U = w*t^(-1) + h0 + 1 + t^(-1)*Yp(lam)
  rule D(Yp;lam) = -((1/2)*Yp(lam)^2 + Y0*lam + Y1)
  note = "a note"
}
ode fig1ode {
  vars = s
  dep = H
  eq H[s,s] - H/(2*n) + (H^n - (s/2)*H)*H[s] + 1.5e-3 = 0
}
run fig1n2 {
  ode = fig1ode
  set n = 2
  ic = 1, -1/2
  span = 0, 10
  method = adaptive-rk45
  tol = 1e-9
  step = 0.001
  color = red
}
"""


def test_mutated_models_parse_or_raise_parse_error():
    parse_model(FUZZ_SEED)
    alphabet = sorted(set(FUZZ_SEED) | set("0123456789.eE+-/;,=()[]{}^*"))
    rng = random.Random(20211)
    leaks = []
    for _ in range(1000):
        text = list(FUZZ_SEED)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            op = rng.random()
            if op < 0.4:
                text[i] = rng.choice(alphabet)
            elif op < 0.7:
                del text[i]
            else:
                text.insert(i, rng.choice(alphabet))
        try:
            parse_model("".join(text))
        except ParseError:
            pass
        except Exception as e:  # anything else is a leak; collect them all
            leaks.append("%s: %s" % (type(e).__name__, e))
    assert leaks == []


def test_manifest_covers_required_labels():
    required = (
        ["cc.03", "cc.04", "cc.08", "cc.11"]
        + ["cc.%d" % i for i in range(18, 34)]
        + ["table-1", "table-2"]
        + ["eq.%d" % i for i in range(33, 39)]
        + ["fig-1"]
    )
    # three labels are catalogued equations rather than cases
    blocks = {"cc.01": "cc", "cc.02": "gcc", "eq.37": "eq37"}
    labels = {c.label for c in build_cases()}
    for label in required:
        assert label in labels or label in blocks, label
    doc = load_builtin()
    for name in blocks.values():
        doc.find(name)


def test_cli_name_normalization(doc):
    assert doc.block(FieldBlock, "du-field").vf == doc.block(FieldBlock, "du_field").vf


def test_field_clause_string_with_semicolons(doc):
    text = (
        "func phi(t)\n"
        "pde p {\n  vars = t, x, y\n  dep = u\n"
        "  eq D( D(u;t) - u*D(u;x) + D(u;x,x) ; x ) + D(u;y,y) = 0\n}\n"
        "field F on p { xi x = phi(t); eta u = -D(phi;t) }\n"
    )
    mini = parse_model(text)
    vf = mini.block(FieldBlock, "F").vf
    assert str(vf.eta) == "-D(phi;t)"


def test_repeated_function_argument_is_a_parse_error():
    body = "pde p {\n  vars = t, x\n  dep = u\n  eq u[t] - %s = 0\n}\n"
    with pytest.raises(ParseError, match="'f' has a repeated argument") as err:
        parse_model("param a\nfunc f(x, x)\n" + body % "f(x, x)")
    assert (err.value.line, err.value.col) == (2, 1)
    with pytest.raises(ParseError, match="repeated argument of g") as err:
        parse_model(body % "2*g(x, x)")
    assert (err.value.line, err.value.col) == (4, 15)
    # distinct arguments in either order still parse
    assert parse_model("func f(x, t)\n" + body % "f(x, t)")


def test_ansatz_variable_may_reuse_an_old_name_only_to_pass_it_through():
    text = ("pde p {\n  vars = t, x, y\n  dep = u\n  eq u[t] + u[x] - u[y] = 0\n}\n"
            "ansatz a on p {\n  var t = t\n  var %s = 2*x + y\n  sub u = U(t,%s)\n}\n")
    with pytest.raises(ParseError, match="reuses an old variable's name") as err:
        parse_model(text % ("x", "x"))
    assert (err.value.line, err.value.col) == (8, 3)
    doc = parse_model(text % ("w", "w"))
    a = doc.block(AnsatzBlock, "a").ansatz
    t = a.src.independents[0]
    assert a.new_independent[0] == (t, Expr.atom(t))
    assert str(pullback(doc.block(PdeBlock, "p").pde, a).lhs) == "U[t] + U[w]"
