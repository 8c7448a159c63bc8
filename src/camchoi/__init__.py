"""Symbolic verification and reduction toolkit for the Camassa-Choi equation
and its power-law generalization: an exact expression kernel, jet-space
calculus, Lie point symmetry machinery, similarity reductions, first-integral
and closed-form checks, and numeric integration of the reduced equations."""

from .expr import (
    DEPENDENT,
    EXP_N,
    EXP_ONE,
    Exponent,
    Expr,
    ExprError,
    Func,
    Jet,
    N_SYMBOL,
    PARAMETER,
    RatPow,
    Sym,
    VARIABLE,
    ONE,
    ZERO,
    app,
    as_expr,
)
from .jet import Context, JetError, Pde, expand_pde, on_manifold, total_derivative
from .symmetry import (
    ClosureReport,
    DeterminingSystem,
    ProlongedField,
    VectorField,
    apply_prolonged,
    check_symmetry,
    closure_table,
    commutator,
    decompose_field,
    determining_equations,
    field_lincomb,
    prolong,
)
from .reduction import (
    Ansatz,
    CompareReport,
    ReducedEquation,
    ReductionError,
    SolutionRule,
    UnsupportedField,
    check_first_integral,
    compare_reduced,
    compose_ansatz,
    invariants_for,
    pullback,
    verify_closed_form,
)
from .odes import (
    IntegratorConfig,
    OdeError,
    OdeSystem,
    Trajectory,
    compile_rhs,
    integrate,
    read_csv,
    write_csv,
)
from .svgplot import write_svg
from .modelfile import ModelDocument, ParseError, parse_model, print_model
from .library import build_cases, load_builtin
from .report import Report

__version__ = "0.1.0"
