"""The record classes: no code generated at import, every field read, one
field-by-field equality rule, per-instance mutable defaults, an immutable
hashable Context, and the copies and failure path the case library builds
on them."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from camchoi import library
from camchoi.expr import DEPENDENT, PARAMETER, VARIABLE, ZERO, Expr, Func, Sym
from camchoi.jet import Context, JetError
from camchoi.library import Case, CaseResult, builtin_text, load_builtin, run_case
from camchoi.modelfile import PdeBlock, parse_model, print_model
from camchoi.reduction import Ansatz
from camchoi.report import Report

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

t, x = Sym("t", VARIABLE), Sym("x", VARIABLE)
u = Sym("u", DEPENDENT)
alpha = Sym("alpha", PARAMETER)

_IMPORT_PROBE = """
import json, sys
import camchoi.cli
records = sorted("%s.%s" % (name, k) for name, mod in list(sys.modules.items()) if name.startswith("camchoi")
                 for k, v in vars(mod).items() if isinstance(v, type) and hasattr(v, "__dataclass_fields__"))
print(json.dumps({"loaded": sorted(m for m in ("dataclasses", "inspect", "traceback") if m in sys.modules),
                  "dataclasses": records}))
"""


def test_importing_the_cli_loads_no_code_generation_machinery():
    # a fresh interpreter: pytest itself has loaded dataclasses and inspect
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert json.loads(out) == {"loaded": [], "dataclasses": []}


# fields that no code reads, each kept for a reason of its own
UNREAD_FIELDS = {
    ("Case", "title"): "the one-line description of each case in the registry, read by people",
}


def _loads(tree):
    """How many attribute loads of each name the tree holds."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _init_fields(tree):
    """(class, attribute, loads) for each self.<attribute> assigned in a class's
    __init__, with the _loads of that __init__."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            loads = _loads(init)
            for node in ast.walk(init):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    for a in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name) and a.value.id == "self":
                            yield cls.name, a.attr, loads


def test_every_record_field_is_read():
    """Every field a record's __init__ sets is read outside that __init__,
    somewhere in the package or the benchmark, whose files are only read here.

    A read is any attribute load of the field's name, on any object, so a
    field is missed when another class has a field of the same name that is
    read: this check cannot tell an unread ``method`` on one record from the
    ``method`` that ``IntegratorConfig`` and ``RunBlock`` have.
    """
    package = [ast.parse(path.read_text()) for path in sorted(SRC.glob("camchoi/*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    loaded = sum(map(_loads, package + bench), Counter())
    reads = {(cls, attr): loaded[attr] - own[attr] for tree in package for cls, attr, own in _init_fields(tree)}
    assert len(reads) > 50
    unread = {field for field, n in reads.items() if n == 0}
    assert sorted("%s.%s" % field for field in unread - set(UNREAD_FIELDS)) == []
    assert set(UNREAD_FIELDS) <= unread


# jet.Record's field-by-field rule, and the classes with an equality of their own
OWN_EQUALITY = ["App", "Expr", "Record", "VectorField"]


def test_record_is_the_one_field_by_field_equality():
    classes = [node for path in sorted(SRC.glob("camchoi/*.py")) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    assert sorted(c.name for c in classes
                  if any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in c.body)) == OWN_EQUALITY


def test_mutable_defaults_are_per_instance():
    a, b = CaseResult("a", "symmetry", "pass"), CaseResult("b", "symmetry", "pass")
    a.detail["k"] = 1
    a.ledger.append("entry")
    assert b.detail == {} and b.ledger == []
    r1, r2 = Report("x"), Report("y")
    r1.add(a)
    assert r2.results == []
    ctx = Context((t, x), u)
    fn = Func("F", (t,))
    h1, h2 = (Ansatz(ctx, [(t, Expr.atom(t))], fn, Expr.atom(fn)) for _ in range(2))
    h1.inverse_hints.append((x, Expr.atom(t)))
    assert h2.inverse_hints == []


def test_context_is_immutable_hashable_and_equal_by_fields():
    c1, c2 = Context((t, x), u, (alpha,)), Context((t, x), u, (alpha,))
    assert c1 == c2 and c1 is not c2
    assert hash(c1) == hash(c2) and {c1: "ok"}[c2] == "ok"
    assert c1 != Context((t, x), u) and c1 != Context((x, t), u, (alpha,))
    with pytest.raises(AttributeError):
        c1.dependent = Sym("v", DEPENDENT)
    with pytest.raises(AttributeError):
        del c1.parameters
    assert c1.dependent == u and c1.parameters == (alpha,)
    with pytest.raises(JetError, match="unique"):
        Context((t, Sym("u", VARIABLE)), u)


def _model_records(doc):
    """The document, its declarations and blocks, and each block's ansatz, rules and pde."""
    yield doc
    yield from doc.declarations
    for b in doc.blocks:
        yield b
        for name in ("ansatz", "pde"):
            if name in vars(b):
                yield vars(b)[name]
        yield from vars(b).get("rules", ())


def test_model_records_are_equal_field_by_field():
    d1, d2 = parse_model(builtin_text()), parse_model(builtin_text())
    assert d1 == d2 and d1 is not d2
    changed = set()
    for record in _model_records(d2):
        for name, value in list(vars(record).items()):
            setattr(record, name, object())
            assert d1 != d2, (record.__class__.__name__, name)
            setattr(record, name, value)
            assert d1 == d2, (record.__class__.__name__, name)
            changed.add((record.__class__.__name__, name))
    assert {cls for cls, _name in changed} == {
        "ModelDocument", "ParamDecl", "ExponentDecl", "FuncDecl", "PdeBlock", "ReducedBlock", "IntegralBlock",
        "OdeBlock", "FieldBlock", "AnsatzBlock", "SolutionBlock", "RunBlock", "Ansatz", "SolutionRule", "Pde"}
    assert {name for cls, name in changed if cls == "Ansatz"} == {
        "src", "new_independent", "func", "dependent_rule", "inverse_hints", "name"}


def test_alpha_zero_copy_expands_every_pde_again_and_leaves_the_source():
    doc = load_builtin()
    text = print_model(doc)
    gcc = doc.block(PdeBlock, "gcc")
    zero = library._at_alpha_zero(doc)
    zgcc = zero.block(PdeBlock, "gcc")
    a = doc.params["alpha"]
    assert gcc.lhs.contains(a) and gcc.pde.leading_rhs.contains(a)
    assert zgcc.lhs == gcc.lhs.subst(a, ZERO)
    assert zgcc.pde.lhs == zgcc.lhs and not zgcc.pde.leading_rhs.contains(a)
    assert zgcc.pde.leading == gcc.pde.leading
    assert doc.block(PdeBlock, "gcc") is gcc and gcc.pde.leading_rhs.contains(a)
    assert print_model(doc) == text


def test_run_case_turns_an_exception_into_a_fail_with_the_traceback_on_stderr(capsys):
    def boom(doc):
        raise ZeroDivisionError("no quotient")

    result = run_case(Case("x.1", "symmetry", "raises", boom), load_builtin())
    assert (result.label, result.kind, result.verdict) == ("x.1", "symmetry", "fail")
    assert result.detail == {"error": "ZeroDivisionError: no quotient"}
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in boom" in err and err.endswith("ZeroDivisionError: no quotient\n")
