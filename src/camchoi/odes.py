"""Compile reduced ODEs to numeric right-hand sides and integrate them with
an embedded adaptive Runge-Kutta pair or classic fixed-step RK4."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .expr import (
    Expr,
    ExprError,
    N_SYMBOL,
    RatPow,
    Sym,
    as_expr,
)
from .jet import Context


class OdeError(ExprError):
    pass


class OdeSystem:
    def __init__(self, ctx: Context, order: int, rhs: List[Expr], state_atoms: List[object],
                 params: Dict[Sym, float], name: str = "", _fn: Optional[Callable] = None,
                 _solved: Optional["_SolvedOde"] = None):
        self.ctx = ctx
        self.order = order
        self.rhs = rhs  # d state_i / d indep as expressions in state, indep, params
        self.state_atoms = state_atoms
        self.params = params
        self.name = name
        self._fn = _fn  # the compiled right-hand side, built by compiled()
        self._solved = _solved  # the equation's shared entry; None for a system built directly

    @property
    def dimension(self) -> int:
        return self.order

    def compiled(self) -> Callable:
        if self._fn is None:
            solved = self._solved or _SolvedOde(self.ctx, self.order, self.rhs, self.state_atoms)
            self._fn = solved.bind(self.params)
        return self._fn


class _SolvedOde:
    """An equation solved for its highest derivative, shared by every system
    compiled from it: the order, the right-hand sides, the state atoms and the
    parameter atoms in order of first appearance.  make(p0, p1, ...) returns
    the right-hand side with those parameters bound; it is generated on the
    first bind and its source holds no parameter value.
    """

    def __init__(self, ctx: Context, order: int, rhs: List[Expr], state_atoms: List[object]):
        self.ctx = ctx
        self.order = order
        self.rhs = rhs
        self.state_atoms = state_atoms
        known = set(state_atoms)
        known.add(ctx.independents[0])
        params: List[object] = []
        for e in rhs:
            for a in e.atoms():
                if a not in known and not isinstance(a, RatPow):
                    known.add(a)
                    params.append(a)
        self.params = tuple(params)
        self.make: Optional[Callable] = None

    def bind(self, values: Dict[Sym, float]) -> Callable:
        if self.make is None:
            self.make = _define(_factory_source(self), "make")
        return self.make(*[values[p] for p in self.params])


# (ctx, lhs, n) -> _SolvedOde, where n is the bound exponent when the equation
# holds n and None otherwise; a failed solve raises and is not stored
_SOLVED_ODES: Dict[tuple, _SolvedOde] = {}


def compile_rhs(ctx: Context, lhs: Expr, params: Dict[Sym, object], name: str = "") -> OdeSystem:
    """Turn lhs = 0 into a first-order system for (state, derivative, ...).

    The symbolic exponent parameter must be bound to a concrete integer so
    powers compile to repeated multiplication.  Every remaining parameter
    needs a finite float value.  The equation is solved once per context,
    lhs and n; parameter values are bound when the system is compiled.
    """
    e = as_expr(lhs)
    solved = _SOLVED_ODES.get((ctx, e, None))
    if solved is None:
        solved = _solve(ctx, e, params)
    values: Dict[Sym, float] = {}
    for p, v in params.items():
        if p != N_SYMBOL:
            values[p] = _finite_float(p, v)
    for p in solved.params:
        if p not in values:
            raise OdeError("unbound parameter %s" % Expr.atom(p))
    # each system gets its own lists, so a caller's edit cannot reach the table
    return OdeSystem(ctx, solved.order, list(solved.rhs), list(solved.state_atoms), values,
                     name=name, _solved=solved)


def _finite_float(p: Sym, v: object) -> float:
    try:
        f = float(v)
    except (OverflowError, TypeError, ValueError) as exc:
        raise OdeError("parameter %s is not a finite float: %s" % (p.name, exc)) from None
    if not math.isfinite(f):
        raise OdeError("parameter %s is not a finite float: %r" % (p.name, f))
    return f


def _solve(ctx: Context, e: Expr, params: Dict[Sym, object]) -> _SolvedOde:
    """The table entry for e = 0, solved and stored on first use."""
    if len(ctx.independents) != 1:
        raise OdeError("ODE compilation needs a single independent variable")
    n = None
    if e.contains(N_SYMBOL) or any(x.n for mono, _ in e.terms for _a, x in mono):
        if N_SYMBOL not in params:
            raise OdeError("unbound parameter n")
        try:
            nval = Fraction(params[N_SYMBOL])
        except (OverflowError, TypeError, ValueError):
            nval = None
        if nval is None or nval.denominator != 1:
            raise OdeError("exponent parameter n must be an integer")
        n = nval.numerator
        solved = _SOLVED_ODES.get((ctx, e, n))
        if solved is not None:
            return solved
    eq = e if n is None else e.subst(N_SYMBOL, Expr.rational(n))
    order = eq.max_jet_order()
    if order == 0:
        raise OdeError("no derivatives present in the equation")
    split = eq.affine_in(ctx.jet((order,)))
    if split is None:
        raise OdeError("nonlinear in highest derivative")
    coeff, rest = split
    if coeff.is_zero:
        raise OdeError("highest derivative vanished")
    if not coeff.is_monomial():
        raise OdeError("nonlinear in highest derivative: coefficient %s" % coeff)

    state_atoms: List[object] = [ctx.dependent]
    for k in range(1, order):
        state_atoms.append(ctx.jet((k,)))
    rhs = [Expr.atom(a) for a in state_atoms[1:]] + [(-rest) / coeff]
    solved = _SOLVED_ODES[(ctx, e, n)] = _SolvedOde(ctx, order, rhs, state_atoms)
    return solved


def _factory_source(solved: _SolvedOde) -> str:
    """Source of make(p0, p1, ...), which returns _rhs(x, y0, y1, ...).

    The parameters are arguments of make; coefficients and RatPow bases are
    literals.  A domain error in _rhs (0.0 ** -1, math.sqrt of a negative)
    returns NaNs, which the integrators treat as a non-finite evaluation.
    """
    var = solved.ctx.independents[0]
    names: Dict[object, str] = {var: "x"}
    for i, a in enumerate(solved.state_atoms):
        names[a] = "y%d" % i
    for i, p in enumerate(solved.params):
        names[p] = "p%d" % i

    def emit(e: Expr) -> str:
        if e.is_zero:
            return "0.0"
        chunks = []
        for mono, coeff in e.terms:
            parts = [repr(float(coeff))]
            for a, ex in mono:
                if isinstance(a, RatPow):
                    base = repr(float(a.base))
                else:
                    base = names[a]
                if not ex.is_integer():
                    if ex.n:
                        raise OdeError("unbound exponent parameter in compiled expression")
                    parts.append("math.sqrt(%s)**%d" % (base, ex.num2))
                    continue
                k = ex.int_value()
                if k == 1:
                    parts.append(base)
                elif 2 <= k <= 6:
                    parts.append("(" + "*".join([base] * k) + ")")
                else:
                    parts.append("%s**%d" % (base, k))
            chunks.append("*".join(parts))
        return " + ".join(chunks)

    args = ", ".join(["x"] + ["y%d" % i for i in range(solved.order)])
    body = ", ".join(emit(e) for e in solved.rhs)
    return ("def make(%s):\n"
            "    def _rhs(%s):\n"
            "        try:\n"
            "            return (%s,)\n"
            "        except (ArithmeticError, ValueError):\n"
            "            return (%s)\n"
            "    return _rhs\n"
            % (", ".join("p%d" % i for i in range(len(solved.params))), args, body, "nan, " * solved.order))


def _define(src: str, name: str) -> Callable:
    """Execute generated source and return the function it defines as name."""
    ns: Dict[str, object] = {"math": math, "nan": math.nan, "isfinite": math.isfinite}
    exec(src, ns)
    return ns[name]


class IntegratorConfig:
    def __init__(self, method: str = "adaptive-rk45", abs_tol: float = 1e-9, rel_tol: float = 1e-9,
                 step: float = 1e-4, span: Tuple[float, float] = (0.0, 1.0),
                 dense: Optional[Sequence[float]] = None):
        self.method = method  # or "fixed-rk4"
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol
        self.step = step  # fixed-rk4 step
        self.span = span
        self.dense = dense
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise OdeError("tolerances must be positive and finite")
        if not 0 < step < math.inf:
            raise OdeError("step must be positive and finite")
        if not (math.isfinite(span[0]) and math.isfinite(span[1])):
            raise OdeError("integration span must be finite")
        if span[0] == span[1]:
            raise OdeError("degenerate integration span")


class Trajectory:
    def __init__(self, samples: List[Tuple[float, Tuple[float, ...]]], method: str, config: IntegratorConfig,
                 params: Dict[str, float], accepted: int = 0, rejected: int = 0, flag: str = ""):
        self.samples = samples
        self.method = method
        self.config = config
        self.params = params
        self.accepted = accepted
        self.rejected = rejected
        self.flag = flag

    def endpoint(self) -> Tuple[float, Tuple[float, ...]]:
        return self.samples[-1]

    def at(self, x: float, tol: float = 1e-12) -> Tuple[float, ...]:
        for t, yv in self.samples:
            if abs(t - x) <= tol:
                return yv
        raise OdeError("no sample at %s" % x)


# Fehlberg 4(5) embedded pair.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
# 5th-order weights are propagated (local extrapolation); the 4th/5th
# difference drives the step controller.
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)

_MAX_RK4_STEPS = 10 ** 7  # fig-1 takes 10^4 fixed steps per curve
_INITIAL_STEP = 1e-3  # adaptive steps are capped at the span length
_UNDERFLOW_FRACTION = 1e-14
_SAFETY = 0.7


def integrate(sys: OdeSystem, ic: Sequence[float], cfg: IntegratorConfig) -> Trajectory:
    if len(ic) != sys.dimension:
        raise OdeError("initial condition dimension mismatch")
    f = sys.compiled()
    y0 = tuple(float(v) for v in ic)
    if not all(math.isfinite(v) for v in y0):
        raise OdeError("initial condition not finite")
    start = float(cfg.span[0])
    for v in f(start, *y0):
        if not math.isfinite(v):
            raise OdeError("right-hand side not finite at the initial point")
    if cfg.method == "fixed-rk4":
        traj = _integrate_rk4(f, y0, cfg)
    elif cfg.method == "adaptive-rk45":
        traj = _integrate_rkf45(f, y0, cfg)
    else:
        raise OdeError("unknown method %r" % cfg.method)
    traj.params = {k.name: v for k, v in sys.params.items()}
    return traj


def _integrate_rk4(f, y0, cfg: IntegratorConfig) -> Trajectory:
    a, b = cfg.span
    count = abs(b - a) / cfg.step
    if not math.isfinite(count):
        raise OdeError("fixed-rk4 step count %g is not finite (span %g, step %r)" % (count, abs(b - a), cfg.step))
    if count > _MAX_RK4_STEPS:
        raise OdeError("fixed-rk4 step count %g is above the cap of %d steps (span %g, step %r)"
                       % (count, _MAX_RK4_STEPS, abs(b - a), cfg.step))
    nsteps = max(1, math.ceil(count))
    h = (b - a) / nsteps
    samples = _rk4_loop(len(y0))(f, a, h, nsteps, *y0)
    y = samples[-1][1]
    samples[-1] = (b, y)
    flag = "" if all(math.isfinite(v) for v in y) else "non-finite"
    return Trajectory(samples, "fixed-rk4", cfg, {}, accepted=nsteps, flag=flag)


def _integrate_rkf45(f, y0, cfg: IntegratorConfig) -> Trajectory:
    a, b = cfg.span
    direction = 1.0 if b > a else -1.0
    span_len = abs(b - a)
    h = direction * min(_INITIAL_STEP, span_len)
    t = a
    y = y0
    dense = sorted(cfg.dense, reverse=direction < 0) if cfg.dense else []
    dense_i = 0
    samples: List[Tuple[float, Tuple[float, ...]]] = [(t, y)]
    accepted = 0
    rejected = 0
    flag = ""
    stages = _rkf45_stages(len(y0))
    fnow = f(t, *y)
    while (t - b) * direction < 0:
        if abs(h) < _UNDERFLOW_FRACTION * span_len:
            flag = "step-underflow"
            break
        if (t + h - b) * direction > 0:
            h = b - t
        step = stages(f, t, h, *y, *fnow)
        if step is None:
            h *= 0.5
            rejected += 1
            continue
        ynew, err = step
        norm = 0.0
        for m in range(len(y)):
            sc = cfg.abs_tol + cfg.rel_tol * max(abs(y[m]), abs(ynew[m]))
            norm = max(norm, abs(err[m]) / sc)
        if norm <= 1.0 or not math.isfinite(norm):
            if not math.isfinite(norm) or any(not math.isfinite(v) for v in ynew):
                h *= 0.5
                rejected += 1
                continue
            tnew = t + h
            fnew = f(tnew, *ynew)
            while dense_i < len(dense) and (dense[dense_i] - tnew) * direction <= 0:
                xq = dense[dense_i]
                if (xq - t) * direction > 0:
                    samples.append((xq, _hermite(t, y, fnow, tnew, ynew, fnew, xq)))
                dense_i += 1
            t, y, fnow = tnew, ynew, fnew
            if not samples or samples[-1][0] != t:
                samples.append((t, y))
            accepted += 1
            factor = 5.0 if norm == 0 else min(5.0, max(0.2, _SAFETY * norm ** -0.2))
            h = direction * min(abs(h) * factor, span_len)
        else:
            rejected += 1
            h = direction * max(abs(h) * max(0.2, _SAFETY * norm ** -0.2), 0.0)
    if not flag and samples and samples[-1][0] != b:
        if abs(samples[-1][0] - b) < 1e-9 * span_len:
            samples[-1] = (b, samples[-1][1])
    return Trajectory(samples, "adaptive-rk45", cfg, {}, accepted, rejected, flag)


# The steppers are generated code, unrolled over the scalar state y0, y1, ...
# Their source depends only on the state dimension and takes the right-hand
# side as f, so each is generated once per dimension, on first use.  Their
# float operations follow the order their docstrings state, which the tests
# hold to a tuple-based reference bit for bit.


def _names(prefix: str, dim: int) -> str:
    """'y0, y1,' for prefix y: a tuple display, unpacking target or argument list."""
    return ", ".join("%s%d" % (prefix, m) for m in range(dim)) + ","


@functools.cache
def _rk4_loop(dim: int) -> Callable:
    """loop(f, t, h, nsteps, *y) -> the samples (t, y) before and after each
    of nsteps classic RK4 steps of size h.

    A step evaluates the stages at y + h / 2 * k1, y + h / 2 * k2 and
    y + h * k3 and updates y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4).
    """
    def stage(k: str, scale: str) -> str:
        return ", ".join("y%d + %s * %s%d" % (m, scale, k, m) for m in range(dim))

    lines = [
        "def loop(f, t, h, nsteps, %s):" % _names("y", dim),
        "    h2 = h / 2",
        "    h6 = h / 6",
        "    samples = [(t, (%s))]" % _names("y", dim),
        "    append = samples.append",
        "    for _ in range(nsteps):",
        "        %s = f(t, %s)" % (_names("a", dim), _names("y", dim)),
        "        th = t + h2",
        "        %s = f(th, %s)" % (_names("b", dim), stage("a", "h2")),
        "        %s = f(th, %s)" % (_names("c", dim), stage("b", "h2")),
        "        %s = f(t + h, %s)" % (_names("d", dim), stage("c", "h")),
    ]
    lines += ["        y{0} = y{0} + h6 * (a{0} + 2 * b{0} + 2 * c{0} + d{0})".format(m)
              for m in range(dim)]
    lines += [
        "        t += h",
        "        append((t, (%s)))" % _names("y", dim),
        "    return samples",
    ]
    return _define("\n".join(lines) + "\n", "loop")


@functools.cache
def _rkf45_stages(dim: int) -> Callable:
    """stages(f, t, h, *y, *k0) -> (ynew, err) for one Fehlberg 4(5) step.

    k0 is f(t, *y).  The result is None when a stage evaluation is not
    finite.  Each weighted sum starts from the integer 0 and adds every term
    in table order, zero weights included, as sum() over the table does:
    0 + -0.0 is 0.0, and a zero weight times NaN or inf is still NaN.
    """
    def wsum(weights, m: int) -> str:
        return "(0%s)" % "".join(" + %r * k%d_%d" % (w, j, m) for j, w in enumerate(weights))

    def ks(j: int) -> str:
        return _names("k%d_" % j, dim)

    lines = ["def stages(f, t, h, %s %s):" % (_names("y", dim), ks(0))]
    for i in range(1, 6):
        args = ", ".join("y%d + h * %s" % (m, wsum(_RKF_A[i], m)) for m in range(dim))
        lines += [
            "    %s = f(t + %r * h, %s)" % (ks(i), _RKF_C[i], args),
            "    if not (%s):" % " and ".join("isfinite(k%d_%d)" % (i, m) for m in range(dim)),
            "        return None",
        ]
    ynew = ", ".join("y%d + h * %s" % (m, wsum(_RKF_B5, m)) for m in range(dim))
    err = ", ".join("h * %s" % wsum(_RKF_ERR, m) for m in range(dim))
    lines.append("    return (%s,), (%s,)" % (ynew, err))
    return _define("\n".join(lines) + "\n", "stages")


def _hermite(t0, y0, f0, t1, y1, f1, xq):
    h = t1 - t0
    s = (xq - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return tuple(
        h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
        for a, fa, b, fb in zip(y0, f0, y1, f1)
    )


def write_csv(traj: Trajectory, path: str, names: Sequence[str]) -> None:
    """One sample per line at full double precision."""
    lines = [",".join(names)]
    if traj.samples:
        row = ",".join(["%.17g"] * (1 + len(traj.samples[0][1])))
        lines += [row % (t, *y) for t, y in traj.samples]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> Tuple[List[str], List[Tuple[float, ...]]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = rows[0].split(",")
    data = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    return header, data
