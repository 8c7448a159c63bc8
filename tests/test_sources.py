"""The package sources compile without a warning."""

import os
import warnings

import pytest

import camchoi

SRC = os.path.dirname(camchoi.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_compiles_without_warnings(name):
    path = os.path.join(SRC, name)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, path, "exec")


# an identity test against a literal, e.g. a coefficient fast path `c is 1`,
# warns and so fails the test above
def test_an_identity_test_against_a_literal_is_caught():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SyntaxError, match="is"):
            compile("c is 1\n", "<fast path>", "exec")
