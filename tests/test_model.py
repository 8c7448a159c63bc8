import pytest

from camchoi.expr import Expr
from camchoi.library import builtin_text, MANIFEST, manifest_resolves
from camchoi.modelfile import (
    FieldBlock,
    ParseError,
    PdeBlock,
    parse_expression,
    parse_model,
    print_model,
)

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


def test_round_trip_builtin_model():
    doc1 = parse_model(builtin_text())
    text1 = print_model(doc1)
    doc2 = parse_model(text1)
    assert doc1 == doc2
    assert print_model(doc2) == text1


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
    assert err.value.expected


def test_unknown_identifier_names_declaration_rules():
    with pytest.raises(ParseError, match="declare it with param or func"):
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t] + gamma = 0\n}")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match="declared twice"):
        parse_model("param a\nparam a\n")


def test_nonlinear_leading_rejected_at_parse():
    from camchoi.jet import JetError

    with pytest.raises(JetError, match="nonlinear in leading"):
        parse_model("pde p {\n  vars = t\n  dep = u\n  eq u[t]^2 + u = 0\n}")


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
], ids=["field on unknown", "ansatz on unknown", "ansatz on field", "solution on field",
        "ansatz without new function", "jet-valued field coefficient"])
def test_bad_block_references_are_parse_errors(block, line, col):
    with pytest.raises(ParseError) as err:
        parse_model(MINI + block + "\n")
    assert (err.value.line, err.value.col) == (MINI_LINES + line, col)


def test_manifest_covers_required_labels():
    required = (
        ["cc.03", "cc.04", "cc.08", "cc.11"]
        + ["cc.%d" % i for i in range(18, 34)]
        + ["table-1", "table-2"]
        + ["eq.%d" % i for i in range(33, 39)]
        + ["fig-1"]
    )
    for label in required:
        assert label in MANIFEST, label
    assert manifest_resolves()


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
