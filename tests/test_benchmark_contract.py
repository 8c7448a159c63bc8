"""The names the benchmark under ``perfbench/`` reaches into the package by.

``perfbench/tracer.py`` wraps named functions, methods and Expr operators,
and ``perfbench/workloads.py`` calls the package as ``cc.<name>``; a name
that no longer resolves breaks traced runs.  Both files are only read here.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import camchoi
from camchoi.expr import Expr
from camchoi.modelfile import OdeBlock

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module("camchoi." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)
    for layer, cls, meth in tracer.METHODS:
        owner = getattr(importlib.import_module("camchoi." + layer), cls, None)
        assert callable(getattr(owner, meth, None)), "%s.%s.%s" % (layer, cls, meth)
    for op in tracer.EXPR_OPS:
        assert callable(getattr(Expr, op, None)), "Expr." + op
    assert set(tracer.MODULES) >= set(tracer.FUNCTIONS)


def test_every_package_name_the_workloads_use_resolves():
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bcc\.([A-Za-z_]\w*)", text))
    assert len(names) >= 10
    for name in sorted(names):
        assert hasattr(camchoi, name), "cc." + name
    for module, imported in re.findall(r"^from (camchoi[.\w]*) import (.+)$", text, re.M):
        for name in imported.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), module + "." + name.strip()


def test_a_system_compiles_its_right_hand_side_once_through_fn(doc):
    # the tracer times the compiled() call that finds _fn None as code
    # generation and counts evaluations through the callable it returns
    assert "sys_._fn is None" in (PERFBENCH / "tracer.py").read_text()
    ob = doc.block(OdeBlock, "cc33ode")
    system = camchoi.compile_rhs(ob.ctx, ob.lhs, {doc.params["Y0"]: 1, doc.params["Y1"]: 0})
    assert system._fn is None
    f = system.compiled()
    assert callable(f) and system._fn is f and system.compiled() is f
