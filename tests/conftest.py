import itertools

import pytest

from camchoi.jet import total_derivative
from camchoi.library import build_cases, load_builtin


@pytest.fixture(scope="session")
def doc():
    return load_builtin()


@pytest.fixture(scope="session")
def case_results(doc):
    return {c.label: c.run(doc) for c in build_cases()}


def _eager_eta_table(X, order, direction="last"):
    """Every eta^[J] with 1 <= |J| <= order, built eagerly, peeling off the
    last or the first variable of J: the reference for on-demand prolongation."""
    ctx = X.ctx
    n = len(ctx.independents)
    ext = {(0,) * n: X.eta}
    dxi = {(vi, vj): total_derivative(X.coefficient(vj), vi, ctx)
           for vi in ctx.independents for vj in ctx.independents}
    for total in range(1, order + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            counts = tuple(combo.count(i) for i in range(n))
            nz = [i for i, c in enumerate(counts) if c > 0]
            pick = nz[-1] if direction == "last" else nz[0]
            prev = tuple(c - (i == pick) for i, c in enumerate(counts))
            vi = ctx.independents[pick]
            eta = total_derivative(ext[prev], vi, ctx)
            for j, vj in enumerate(ctx.independents):
                bump = tuple(c + (k == j) for k, c in enumerate(prev))
                eta = eta - ctx.jet_expr(bump) * dxi[(vi, vj)]
            ext[counts] = eta
    del ext[(0,) * n]
    return ext


@pytest.fixture(scope="session")
def eager_eta_table():
    return _eager_eta_table
