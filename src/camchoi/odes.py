"""Compile reduced ODEs to numeric right-hand sides and integrate them with
an embedded adaptive Runge-Kutta pair or classic fixed-step RK4."""

from __future__ import annotations

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
from .jet import Context, JetError, expand_pde


class OdeError(ExprError):
    pass


METHODS = ("adaptive-rk45", "fixed-rk4")


class OdeSystem:
    """An equation's shared solved entry with parameter values bound; its
    context, order, right-hand sides and state atoms are the entry's."""

    def __init__(self, solved: "_SolvedOde", params: Dict[Sym, float], name: str = ""):
        self._solved = solved
        self.ctx, self.order, self.rhs, self.state_atoms = solved.ctx, solved.order, solved.rhs, solved.state_atoms
        self.params = params
        self.name = name
        self._fn: Optional[Callable] = None  # the compiled right-hand side, built by compiled()
        self._rk4 = self._rkf45 = None  # the generated integrators, built beside _fn

    def compiled(self) -> Callable:
        if self._fn is None:
            self._fn, self._rk4, self._rkf45 = self._solved.bind(self.params)
        return self._fn


class _SolvedOde:
    """An equation solved for its highest derivative, shared by every system
    compiled from it: the bound exponent n (None when it holds no n), the
    order, the right-hand sides, the state atoms and the parameter atoms in
    order of first appearance.  make(p0, p1, ...) binds those parameters; it
    is generated on the first bind and its source holds no parameter value.
    """

    def __init__(self, ctx: Context, order: int, rhs: Tuple[Expr, ...], state_atoms: Tuple[object, ...],
                 n: Optional[int]):
        self.ctx = ctx
        self.n = n
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

    def bind(self, values: Dict[Sym, float]) -> Tuple[Callable, Callable, Callable]:
        if self.make is None:
            self.make = _define(_factory_source(self), "make")
        return self.make(*[values[p] for p in self.params])


# (ctx, lhs, n) -> _SolvedOde, where n is the bound exponent when the equation
# holds n and None otherwise; a failed solve raises and is not stored
_SOLVED_ODES: Dict[tuple, _SolvedOde] = {}


def compile_rhs(ctx: Context, lhs: Expr, params: Dict[Sym, object], name: str = "") -> OdeSystem:
    """Turn lhs = 0 into a first-order system for (state, derivative, ...).

    The symbolic exponent parameter must be bound to a concrete integer so
    powers compile to repeated multiplication.  Every other parameter the
    equation holds needs a finite float value, and one it does not hold is
    refused.  Parameter values are bound when the system is compiled.
    """
    e = as_expr(lhs)
    solved = _SOLVED_ODES.get((ctx, e, None))
    if solved is None:
        solved = _solve(ctx, e, params)
    values: Dict[Sym, float] = {}
    for p, v in params.items():
        if p not in solved.params and (p != N_SYMBOL or solved.n is None):
            raise OdeError("the equation holds no parameter %s" % p.name)
        if p != N_SYMBOL:
            values[p] = _finite_float(p, v)
    for p in solved.params:
        if p not in values:
            raise OdeError("unbound parameter %s" % Expr.atom(p))
    return OdeSystem(solved, values, name=name)


def _finite_float(p: Sym, v: object) -> float:
    try:
        f = float(v)
    except (OverflowError, TypeError, ValueError) as exc:
        raise OdeError("parameter %s is not a finite float: %s" % (p.name, exc)) from None
    if not math.isfinite(f):
        raise OdeError("parameter %s is not a finite float: %r" % (p.name, f))
    return f


def _solve(ctx: Context, e: Expr, params: Dict[Sym, object]) -> _SolvedOde:
    """The table entry for e = 0, solved for its leading derivative by
    ``expand_pde`` once n is bound, and stored on first use."""
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
    try:
        pde = expand_pde(ctx, e if n is None else e.subst(N_SYMBOL, Expr.rational(n)))
    except JetError as exc:
        raise OdeError(str(exc)) from None
    order = pde.leading.order
    state_atoms = (ctx.dependent,) + tuple(ctx.jet((k,)) for k in range(1, order))
    rhs = tuple(Expr.atom(a) for a in state_atoms[1:]) + (pde.leading_rhs,)
    solved = _SOLVED_ODES[(ctx, e, n)] = _SolvedOde(ctx, order, rhs, state_atoms, n)
    return solved


def _factory_source(solved: _SolvedOde) -> str:
    """Source of make(p0, p1, ...), which binds the parameters and returns
    _rhs(x, y0, ...), the right-hand side, which returns NaNs on a domain
    error (0.0 ** -1, math.sqrt of a negative); _rk4(t, h, nsteps, keep, y0,
    ...), the samples of nsteps classic RK4 steps (with keep false only the
    last state), where a step that meets a domain error makes the state NaN;
    and _rkf45(...), the Fehlberg 4(5) controller, which rejects a step whose
    stage meets one or is not finite and stops after max_steps attempts.
    The loops write the right-hand side inline, unrolled over the state.

    Coefficients and RatPow bases are literals, parameters are not.  The
    loops keep the float operations of the tuple formulas in their order;
    each Fehlberg sum starts from the integer 0 and adds every term, zero
    weights included (0 + -0.0 is 0.0, and 0.0 times NaN or inf is NaN).
    Exact rewrites: 1.0*a is a, + -1.0*a is - a, 2 * is 2.0 *, max(a, b) is
    b if b > a else a, and min(a, b) is b if b < a else a.
    """
    dim = solved.order
    var = solved.ctx.independents[0]

    def emit(e: Expr, x: str, y: str) -> str:
        """e with the independent variable named x and the state y0, y1, ..."""
        if e.is_zero:
            return "0.0"
        names: Dict[object, str] = {p: "p%d" % i for i, p in enumerate(solved.params)}
        names[var] = x
        names.update((a, "%s%d" % (y, m)) for m, a in enumerate(solved.state_atoms))
        src = ""
        for mono, coeff in e.terms:
            parts = []
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
            c = float(coeff)
            minus = bool(parts) and c == -1.0
            if not (parts and abs(c) == 1.0):
                parts.insert(0, repr(c))
            src += (" - " if minus else " + ") if src else ("-" if minus else "")
            src += "*".join(parts)
        return src

    def names(prefix: str) -> str:
        """'y0, y1, ' for prefix y: a tuple display, unpacking target or argument list."""
        return "".join("%s%d, " % (prefix, m) for m in range(dim))

    def block(pad: int, rows: List[str]) -> str:
        return "\n".join(" " * pad + row for row in rows)

    def rhs(out: str, x: str, y: str) -> List[str]:
        """out0 = ..., out1 = ...: the right-hand side at (x, y0, y1, ...)."""
        return ["%s%d = %s" % (out, m, emit(e, x, y)) for m, e in enumerate(solved.rhs)]

    def stage(out: str, x: str, z: List[str]) -> List[str]:
        return ["z%d = %s" % (m, v) for m, v in enumerate(z)] + rhs(out, x, "z")

    def moved(k: str, scale: str) -> List[str]:
        return ["y%d + %s * %s%d" % (m, scale, k, m) for m in range(dim)]

    def wsum(weights, m: int) -> str:
        return "(0%s)" % "".join(" + %r * k%d_%d" % (w, j, m) for j, w in enumerate(weights))

    def finite(prefix: str) -> str:
        return " and ".join("isfinite(%s%d)" % (prefix, m) for m in range(dim))

    rk4 = (rhs("a", "t", "y") + ["th = t + h2"] + stage("b", "th", moved("a", "h2"))
           + stage("c", "th", moved("b", "h2")) + ["td = t + h"] + stage("d", "td", moved("c", "h")))
    rkf = []
    for i in range(1, 6):
        rkf += ["x = t + %r * h" % _RKF_C[i]]
        rkf += stage("k%d_" % i, "x", ["y%d + h * %s" % (m, wsum(_RKF_A[i], m)) for m in range(dim)])
        rkf += ["if not (%s):" % finite("k%d_" % i), "    raise ValueError"]
    rkf += ["n%d = y%d + h * %s" % (m, m, wsum(_RKF_B5, m)) for m in range(dim)]
    rkf += ["e%d = h * %s" % (m, wsum(_RKF_ERR, m)) for m in range(dim)] + ["norm = 0.0"]
    for m in range(dim):
        rkf += ["u = abs(y%d)" % m, "v = abs(n%d)" % m,
                "q = abs(e%d) / (abs_tol + rel_tol * (v if v > u else u))" % m, "norm = q if q > norm else norm"]
    return _FACTORY.format(
        p=", ".join("p%d" % i for i in range(len(solved.params))), y=names("y"),
        k0=names("k0_"), n=names("n"), f=names("f"),
        rhs="".join(emit(e, "x", "y") + ", " for e in solved.rhs), nan="nan, " * dim,
        rk4_stages=block(16, rk4), rkf_step=block(16, rkf), f_tnew=block(20, rhs("f", "tnew", "n")),
        rk4_update=block(16, ["y{0} = y{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})".format(m)
                              for m in range(dim)]),
        n_finite=finite("n"), f_nan=" = ".join("f%d" % m for m in range(dim)), safety=repr(_SAFETY))


_FACTORY = """\
def make({p}):
    def _rhs(x, {y}):
        try:
            return ({rhs})
        except (ArithmeticError, ValueError):
            return ({nan})
    def _rk4(t, h, nsteps, keep, {y}):
        h2 = h / 2
        h6 = h / 6
        samples = [(t, ({y}))]
        append = samples.append
        for _ in range(nsteps):
            try:
{rk4_stages}
            except (ArithmeticError, ValueError):
                {y}= {nan}
            else:
{rk4_update}
            t += h
            if keep:
                append((t, ({y})))
        return samples if keep else ({y})
    def _rkf45(t, b, h, direction, span_len, floor, max_steps, abs_tol, rel_tol, dense, {y}):
        {k0}= _rhs(t, {y})
        samples = [(t, ({y}))]
        append = samples.append
        accepted = rejected = dense_i = 0
        flag = ""
        while (t - b) * direction < 0:
            if accepted + rejected >= max_steps:
                flag = "step-limit"
                break
            if abs(h) < floor:
                flag = "step-underflow"
                break
            if (t + h - b) * direction > 0:
                h = b - t
            try:
{rkf_step}
                if not isfinite(norm) or norm <= 1.0 and not ({n_finite}):
                    raise ValueError
            except (ArithmeticError, ValueError):
                h *= 0.5
                rejected += 1
                continue
            if norm <= 1.0:
                tnew = t + h
                try:
{f_tnew}
                except (ArithmeticError, ValueError):
                    {f_nan} = nan
                while dense_i < len(dense) and (dense[dense_i] - tnew) * direction <= 0:
                    xq = dense[dense_i]
                    if (xq - t) * direction > 0:
                        append((xq, _hermite(t, ({y}), ({k0}), tnew, ({n}), ({f}), xq)))
                    dense_i += 1
                t = tnew
                {y}= {n}
                {k0}= {f}
                if samples[-1][0] != t:
                    append((t, ({y})))
                accepted += 1
                if norm == 0:
                    g = 5.0
                else:
                    g = {safety} * norm ** -0.2
                    g = g if g > 0.2 else 0.2
                    g = g if g < 5.0 else 5.0
                g = abs(h) * g
                h = direction * (span_len if span_len < g else g)
            else:
                rejected += 1
                g = {safety} * norm ** -0.2
                g = abs(h) * (g if g > 0.2 else 0.2)
                h = direction * (0.0 if 0.0 > g else g)
        return samples, accepted, rejected, flag
    return _rhs, _rk4, _rkf45
"""


def _define(src: str, name: str) -> Callable:
    """Execute generated source and return the function it defines as name."""
    ns: Dict[str, object] = {"math": math, "nan": math.nan, "isfinite": math.isfinite, "_hermite": _hermite}
    exec(src, ns)
    return ns[name]


class IntegratorConfig:
    def __init__(self, method: str = "adaptive-rk45", abs_tol: float = 1e-9, rel_tol: float = 1e-9,
                 step: float = 1e-4, span: Tuple[float, float] = (0.0, 1.0),
                 dense: Optional[Sequence[float]] = None):
        self.method = method
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol
        self.step = step  # fixed-rk4 step
        self.span = span
        self.dense = dense
        if method not in METHODS:
            raise OdeError("unknown method %r; expected one of %s" % (method, ", ".join(METHODS)))
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise OdeError("tolerances must be positive and finite")
        if not 0 < step < math.inf:
            raise OdeError("step must be positive and finite")
        if not (math.isfinite(span[0]) and math.isfinite(span[1])):
            raise OdeError("integration span must be finite")
        if span[0] == span[1]:
            raise OdeError("degenerate integration span")


class Trajectory:
    """An integration run.  A fixed-step run keeps only its endpoint and
    sample count: samples is None and the first read calls replay()."""

    def __init__(self, samples: Optional[List[Tuple[float, Tuple[float, ...]]]], accepted: int = 0,
                 rejected: int = 0, flag: str = "", end: Optional[Tuple[float, Tuple[float, ...]]] = None,
                 replay: Optional[Callable] = None):
        self._samples, self._end, self._replay = samples, end, replay
        self.count = accepted + 1 if samples is None else len(samples)
        self.accepted = accepted
        self.rejected = rejected
        self.flag = flag

    @property
    def samples(self) -> List[Tuple[float, Tuple[float, ...]]]:
        if self._samples is None:
            self._samples, self._replay = self._replay(), None
        return self._samples

    def endpoint(self) -> Tuple[float, Tuple[float, ...]]:
        return self._end if self._samples is None else self._samples[-1]

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
_MAX_RKF45_STEPS = 10 ** 6  # accepted plus rejected; the built-in runs take under 10^4
_INITIAL_STEP = 1e-3  # adaptive steps are capped at the span length
_UNDERFLOW_FRACTION = 1e-14
_SAFETY = 0.7


def integrate(sys: OdeSystem, ic: Sequence[float], cfg: IntegratorConfig) -> Trajectory:
    if len(ic) != sys.order:
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
        return _integrate_rk4(sys._rk4, y0, cfg)
    return _integrate_rkf45(sys._rkf45, y0, cfg)


def _integrate_rk4(rk4: Callable, y0, cfg: IntegratorConfig) -> Trajectory:
    a, b = cfg.span
    count = abs(b - a) / cfg.step
    if not math.isfinite(count):
        raise OdeError("fixed-rk4 step count %g is not finite (span %g, step %r)" % (count, abs(b - a), cfg.step))
    if count > _MAX_RK4_STEPS:
        raise OdeError("fixed-rk4 step count %g is above the cap of %d steps (span %g, step %r)"
                       % (count, _MAX_RK4_STEPS, abs(b - a), cfg.step))
    nsteps = max(1, math.ceil(count))
    h = (b - a) / nsteps
    y = rk4(a, h, nsteps, False, *y0)

    def replay():
        samples = rk4(a, h, nsteps, True, *y0)
        samples[-1] = (b, samples[-1][1])
        return samples

    flag = "" if all(math.isfinite(v) for v in y) else "non-finite"
    return Trajectory(None, accepted=nsteps, flag=flag, end=(b, y), replay=replay)


def _integrate_rkf45(rkf45: Callable, y0, cfg: IntegratorConfig) -> Trajectory:
    a, b = cfg.span
    direction = 1.0 if b > a else -1.0
    span_len = abs(b - a)
    h = direction * min(_INITIAL_STEP, span_len)
    dense = sorted(cfg.dense, reverse=direction < 0) if cfg.dense else []
    samples, accepted, rejected, flag = rkf45(a, b, h, direction, span_len, _UNDERFLOW_FRACTION * span_len,
                                              _MAX_RKF45_STEPS, cfg.abs_tol, cfg.rel_tol, dense, *y0)
    if not flag and samples[-1][0] != b:
        if abs(samples[-1][0] - b) < 1e-9 * span_len:
            samples[-1] = (b, samples[-1][1])
    return Trajectory(samples, accepted, rejected, flag)


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
    """One sample per line at full double precision, the whole file formatted by one %."""
    samples = traj.samples
    text = ""
    if samples:
        row = ",".join(["%.17g"] * (1 + len(samples[0][1]))) + "\n"
        text = (row * len(samples)) % tuple([v for t, y in samples for v in (t, *y)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(text)


def read_csv(path: str) -> Tuple[List[str], List[Tuple[float, ...]]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = rows[0].split(",")
    data = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    return header, data
