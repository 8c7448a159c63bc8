"""Seeded task draws and their oracles for the in-process workloads.

A pass is a list of tasks drawn from the workload's random stream.  Each task
has a ``run`` closure, which is the only part that is timed, and a ``check``
that compares the output against an expected value that does not come from
the code under test: catalogued symmetry generators, hand-derived reduced
equations, the printed commutator table, pinned endpoints and the error
bound of the drawn tolerance.  Inputs are built while drawing, so ``run``
receives only generated inputs.

The camchoi API is called through the package (``cc.pullback``), so that the
tracer's wrappers, which replace the package attributes, see every call.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import camchoi as cc
from camchoi import Expr, IntegratorConfig, N_SYMBOL, ReducedEquation
from camchoi.expr import Func
from camchoi.modelfile import AnsatzBlock, FieldBlock, OdeBlock, PdeBlock, RunBlock


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))


# -- symbolic ------------------------------------------------------------------

# Fields the paper suite certifies, by the equation they are symmetries of.
CERTIFIED = {
    "cc": ("X1", "X2", "X3", "X4", "X1p", "X2p", "X3p", "X4p", "X5p", "X6p", "X5"),
    "cc19": ("Z1", "Z2", "Z3", "Z4"),
    "eq33": ("Zb1", "Zb2"),
    "eq33d": ("Zb1d", "Zb2d", "Zb3"),
    "gcc": ("Y1f", "Yb2f", "Y3f", "Y4f", "Y5f"),
}

# Printed commutator table of the generalized family (case table-2, which the
# suite verifies entry by entry): support of [Y_i, Y_j] in the basis
# Y1f, Yb2f, Y3f, Y4f, Y5f.  Unlisted pairs commute.
TABLE2_SUPPORT = {(0, 1): {0, 2}, (0, 4): {3}, (1, 2): {2}, (1, 3): {3}, (1, 4): {4}, (3, 4): {2}}

# (pde, ansatz, printed equation, expected verdict) as the library's
# reduction cases expect them.
REDUCTIONS = (
    ("cc19", "z1red", "cc25", "mismatch"),
    ("cc19", "z2red", "cc29", "mismatch"),
    ("eq33", "eq34red", "eq34", "mismatch"),
)


class Symbolic:
    """Determining systems, symmetry residuals, brackets, closure, reductions."""

    def __init__(self, doc, rng: random.Random, wrong: bool = False):
        self.doc = doc
        self.rng = rng
        self.wrong = wrong
        self.alpha = doc.params["alpha"]
        self.h0 = doc.params["h0"]

    def _pde(self, name):
        return self.doc.block(PdeBlock, name).pde

    def _vf(self, name):
        return self.doc.block(FieldBlock, name).vf

    def _lincomb(self, family: str, k: int):
        names = self.rng.sample(CERTIFIED[family], k)
        pairs = [(_rat(self.rng), self._vf(nm)) for nm in names]
        return cc.field_lincomb(pairs, pairs[0][1].ctx)

    def draw(self) -> List[Task]:
        rng = self.rng
        # Y1f, Yb2f, Y3f, Y4f, Y5f with n bound annihilate the gcc system
        tasks = [self._determining_fields("gcc", N_SYMBOL, rng.randint(2, 5), CERTIFIED["gcc"]),
                 self._determining_cc(_rat(rng)),
                 self._determining_fields("cc19", self.h0, _rat(rng), CERTIFIED["cc19"]),
                 self._determining_fields("eq33", self.alpha, _rat(rng), CERTIFIED["eq33"])]
        for _ in range(4):
            family = rng.choice(sorted(CERTIFIED))
            X = self._lincomb(family, rng.randint(2, min(4, len(CERTIFIED[family]))))
            pde = self._pde(family)
            tasks.append(Task("check_symmetry", lambda X=X, pde=pde: cc.check_symmetry(X, pde),
                              lambda r: r.is_zero))
        for _ in range(2):
            family = rng.choice(("cc", "cc19", "gcc"))
            X = self._lincomb(family, rng.randint(2, 3))
            Y = self._lincomb(family, rng.randint(2, 3))
            tasks.append(Task("commutator",
                              lambda X=X, Y=Y: (cc.commutator(X, Y), cc.commutator(Y, X)),
                              _antisymmetric))
        tasks.append(self._closure())
        for _ in range(2):
            tasks.append(self._reduction())
        return tasks

    def _determining_fields(self, name, param, value, fields) -> Task:
        pde = self._pde(name).with_parameter(param, value)
        rules = [self._rules(nm, param, value) for nm in fields]
        return Task("determining", lambda: cc.determining_equations(pde),
                    lambda det: _annihilated(det, rules))

    def _determining_cc(self, a: Fraction) -> Task:
        # the generic solution of section 3 with alpha bound
        doc = self.doc
        pde = self._pde("cc").with_parameter(self.alpha, a)
        ts = pde.ctx.independents[0]
        t, x, y = (Expr.atom(s) for s in pde.ctx.independents)
        u = Expr.atom(pde.ctx.dependent)
        c1, c2, c3, c4 = (Expr.atom(doc.params["c%d" % i]) for i in (1, 2, 3, 4))
        phi = Expr.atom(Func("phi", (ts,)))
        psi = Expr.atom(Func("psi", (ts,)))
        half = Expr.rational(Fraction(1, 2))
        rules = {
            "xi_t": c1 + 2 * c2 * t,
            "xi_x": c2 * x + c3 * phi - half * c4 * psi.diff(ts) * y,
            "xi_y": Expr.rational(Fraction(3, 2)) * c2 * y + c4 * psi,
            "eta": c2 * (Expr.rational(a) - u) - c3 * phi.diff(ts)
            + half * c4 * psi.diff(ts).diff(ts) * y,
        }
        return Task("determining", lambda: cc.determining_equations(pde),
                    lambda det: _annihilated(det, [rules]))

    def _rules(self, field_name, param, value):
        vf = self._vf(field_name)
        val = Expr.rational(value)
        rules = {"xi_" + v.name: vf.coefficient(v).subst(param, val) for v in vf.ctx.independents}
        rules["eta"] = vf.eta.subst(param, val)
        return rules

    def _closure(self) -> Task:
        rng = self.rng
        subset = sorted(rng.sample(range(5), rng.randint(2, 5)))
        basis = [self._vf(CERTIFIED["gcc"][i]) for i in subset]
        fields = [cc.field_lincomb([(_rat(rng), Y)], Y.ctx) for Y in basis]
        closed = all(TABLE2_SUPPORT.get((i, j), set()) <= set(subset)
                     for i in subset for j in subset if i < j)
        if self.wrong:
            closed = not closed
        return Task("closure", lambda: cc.closure_table(fields), lambda rep: rep.closed == closed)

    def _reduction(self) -> Task:
        rng = self.rng
        doc = self.doc
        pick = rng.randrange(len(REDUCTIONS) + 2)
        if pick == 0:
            # cc with alpha bound reduces to the hand-derived cc19d; the printed
            # cc19 matches once h0 is identified with the same value
            a = Expr.rational(_rat(rng))
            pde = self._pde("cc").with_parameter(self.alpha, a)
            ansatz, derived, printed = "cc18", "cc19d", "cc19"
            subs_derived, subs_printed = [(self.alpha, a)], []
            ident, expected = [(self.h0, a)], "under-substitution"
        elif pick == 1:
            # gcc with n bound reduces to the hand-derived eq33d; printed eq33 differs
            n = Expr.rational(rng.randint(2, 5))
            pde = self._pde("gcc").with_parameter(N_SYMBOL, n)
            ansatz, derived, printed = "gccw", "eq33d", "eq33"
            subs_derived = subs_printed = [(N_SYMBOL, n)]
            ident, expected = [(self.h0, Expr.atom(self.alpha))], "mismatch"
        else:
            pname, ansatz, printed, expected = REDUCTIONS[pick - 2]
            pde, derived = self._pde(pname), None
            subs_derived, subs_printed, ident = [], [], None
        a = doc.block(AnsatzBlock, ansatz).ansatz
        printed_eq = _bound(doc.equation_of(doc.find(printed)), subs_printed)
        oracle = _bound(doc.equation_of(doc.find(derived)), subs_derived) if derived else None
        if self.wrong:
            expected = "exact"

        def run():
            red = cc.pullback(pde, a)
            return red, cc.compare_reduced(red, printed_eq, substitutions=ident)

        def check(out):
            red, rep = out
            return rep.verdict == expected and (oracle is None or red.lhs == oracle.normalized())

        return Task("reduction", run, check)


def _bound(eq, subs) -> ReducedEquation:
    lhs = eq.lhs
    for sym, val in subs:
        lhs = lhs.subst(sym, val)
    return ReducedEquation(eq.ctx, lhs)


def _annihilated(det, rule_sets) -> bool:
    return bool(det.equations) and all(
        all(v.is_zero for v in det.substitute_solution(rules)) for rules in rule_sets)


def _antisymmetric(out) -> bool:
    xy, yx = out
    comps = [(xy.coefficient(v), yx.coefficient(v)) for v in xy.ctx.independents]
    comps.append((xy.eta, yx.eta))
    return all((a + b).is_zero for a, b in comps)


# -- numeric -------------------------------------------------------------------

# Endpoints (H, H') at zeta = 10 pinned by the acceptance criterion 7.
FIG1_PINS = {
    2: (5.498589497144, 0.498257058497),
    3: (-0.527191522595, -0.037095175742),
    5: (-0.849816666544, -0.022968517021),
}
PIN_TOL = 1e-6
# Adaptive and fixed-step endpoints must agree within this multiple of the
# drawn tolerance, scaled by the span and the endpoint magnitude.  Observed
# ratios stay below 5 over 300 draws.
AGREEMENT = 100.0
# Every pass runs each equation and exponent ROUNDS times, so that passes
# differ only in their drawn spans, tolerances, step sizes and constants.
FIG1_JOBS = [(ode, n) for ode in ("fig1ode", "fig1ode_alt") for n in (2, 3, 5)]
CC_JOBS = [("cc33ode", None), ("cc28ode", None)]
ROUNDS = 3


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> List[float]:
    """k spans in [lo, hi], one log-uniform in each of k equal log-slices, shuffled.

    Every pass then holds the same mix of short, compile-dominated and long,
    stepping-dominated jobs, so pass times vary little from pass to pass.
    """
    a, b = math.log(lo), math.log(hi)
    spans = [math.exp(a + (b - a) * (j + rng.random()) / k) for j in range(k)]
    rng.shuffle(spans)
    return spans


class Numeric:
    """compile_rhs -> integrate -> write_csv/write_svg on seeded jobs."""

    def __init__(self, doc, rng: random.Random, out_dir: str, wrong: bool = False):
        self.doc = doc
        self.rng = rng
        self.out_dir = out_dir
        self.wrong = wrong

    def draw(self) -> List[Task]:
        # every task appends its adaptive trajectory; the last one plots them
        trajs: List[object] = []
        tasks = [self._pinned(self.rng.choice(sorted(FIG1_PINS)), trajs)]
        jobs = list(zip(FIG1_JOBS * ROUNDS, _strata(self.rng, len(FIG1_JOBS) * ROUNDS, 0.02, 10.0)))
        jobs += zip(CC_JOBS * ROUNDS, _strata(self.rng, len(CC_JOBS) * ROUNDS, 0.02, 1.0))
        tasks += [self._job(i, ode, n, span, trajs) for i, ((ode, n), span) in enumerate(jobs)]
        tasks.append(self._plot(trajs, len(tasks)))
        return tasks

    def _pinned(self, n: int, trajs: list) -> Task:
        doc = self.doc
        rb = doc.block(RunBlock, "fig1n%d" % n)
        ob = doc.block(OdeBlock, rb.ode)
        params = {doc.params[p]: v for p, v in rb.settings}
        cfg = IntegratorConfig(method=rb.method, abs_tol=float(rb.tol), rel_tol=float(rb.tol),
                               span=tuple(float(v) for v in rb.span))
        ic = [float(v) for v in rb.ic]
        pin = FIG1_PINS[n]
        if self.wrong:
            pin = (pin[0] + 1e-3, pin[1])
        csv = os.path.join(self.out_dir, "pinned.csv")

        def run():
            traj = cc.integrate(cc.compile_rhs(ob.ctx, ob.lhs, params, name=rb.name), ic, cfg)
            cc.write_csv(traj, csv, ["zeta", "H", "Hp"])
            trajs.append(traj)
            return traj

        def check(traj):
            end = traj.endpoint()
            with open(csv, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            return (not traj.flag and end[0] == cfg.span[1] and rows == len(traj.samples) + 1
                    and all(abs(a - b) < PIN_TOL for a, b in zip(end[1], pin)))

        return Task("fig1-pinned", run, check)

    def _job(self, i: int, ode: str, n, span: float, trajs: list) -> Task:
        rng = self.rng
        doc = self.doc
        ob = doc.block(OdeBlock, ode)
        if n is not None:
            # the catalogued initial data; perturbed data can blow up at n = 5
            params = {N_SYMBOL: n, doc.params["H1"]: 0}
            ic = [1.0, -0.5]
            names = ["zeta", "H", "Hp"]
        else:
            params = {doc.params["Y0"]: Fraction(rng.randint(0, 10), 10),
                      doc.params["Y1"]: Fraction(rng.randint(-10, 10), 10)}
            ic = [rng.uniform(-0.5, 1.0)]
            names = ["s", "Y"]
        tol = 10 ** rng.uniform(-10.0, -7.0)
        # a drawn step size: short spans take few steps and are dominated by
        # compile_rhs, long spans take thousands and are dominated by stepping
        step = math.exp(rng.uniform(math.log(2e-3), math.log(3e-3)))
        adaptive = IntegratorConfig(method="adaptive-rk45", abs_tol=tol, rel_tol=tol, span=(0.0, span))
        fixed = IntegratorConfig(method="fixed-rk4", step=step, span=(0.0, span))
        csv = os.path.join(self.out_dir, "job%d.csv" % i)

        def run():
            sys_ = cc.compile_rhs(ob.ctx, ob.lhs, params, name=ode)
            a = cc.integrate(sys_, ic, adaptive)
            f = cc.integrate(sys_, ic, fixed)
            cc.write_csv(a, csv, names)
            trajs.append(a)
            return a, f

        def check(out):
            a, f = out
            ya, yf = a.endpoint()[1], f.endpoint()[1]
            scale = max(1.0, max(abs(v) for v in ya))
            bound = AGREEMENT * tol * scale * max(1.0, span)
            if self.wrong:
                bound = 0.0
            return (not a.flag and not f.flag and a.endpoint()[0] == span == f.endpoint()[0]
                    and max(abs(p - q) for p, q in zip(ya, yf)) <= bound)

        return Task("integrate", run, check)

    def _plot(self, trajs: list, count: int) -> Task:
        svg = os.path.join(self.out_dir, "pass.svg")

        def run():
            cc.write_svg(trajs, ["red"] * len(trajs), svg, labels=["job"] * len(trajs))
            return len(trajs)

        def check(plotted):
            with open(svg, encoding="utf-8") as fh:
                text = fh.read()
            return plotted == count and text.count("<polyline") == count

        return Task("write_svg", run, check)
