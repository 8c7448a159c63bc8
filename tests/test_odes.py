import math
import os
import random
import re
from fractions import Fraction

import pytest

from camchoi import odes
from camchoi.expr import DEPENDENT, EXP_N, Exponent, Expr, N_SYMBOL, PARAMETER, RatPow, Sym, VARIABLE
from camchoi.jet import Context, expand_pde
from camchoi.library import FIG1_RUNS, fig1_trajectory
from camchoi.odes import (
    IntegratorConfig,
    OdeError,
    Trajectory,
    compile_rhs,
    integrate,
    read_csv,
    write_csv,
)
from camchoi.svgplot import write_svg

zeta = Sym("zeta", VARIABLE)
H = Sym("H", DEPENDENT)
H1 = Sym("H1", PARAMETER)
zctx = Context((zeta,), H, (H1, N_SYMBOL))


def zj(counts):
    return zctx.jet_expr(counts)


def eq38_lhs():
    HH = Expr.atom(H)
    Z = Expr.atom(zeta)
    n = Expr.atom(N_SYMBOL)
    return zj((2,)) - HH / (2 * n) + (HH.pow_exponent(EXP_N) - Z * HH / 2) * zj((1,)) + Expr.atom(H1)


def test_compile_trivial_second_order():
    sys = compile_rhs(zctx, zj((2,)), {})
    assert sys.order == 2
    assert [str(e) for e in sys.rhs] == ["H[zeta]", "0"]


def test_compile_binds_exponent_and_params():
    sys = compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 2, H1: 0})
    f = sys.compiled()
    # H'' = H/4 - (H^2 - zeta H / 2) H'
    val = f(0.0, 1.0, -0.5)
    assert val[0] == -0.5
    assert abs(val[1] - (0.25 - (1.0) * (-0.5))) < 1e-15


def test_compile_unbound_parameter_rejected():
    with pytest.raises(OdeError, match="unbound parameter"):
        compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 2})


def test_compile_nonlinear_highest_rejected():
    bad = zj((2,)) ** 2 + Expr.atom(H)
    with pytest.raises(OdeError, match="nonlinear in leading derivative"):
        compile_rhs(zctx, bad, {})


def test_compile_rhs_solves_every_builtin_ode_through_expand_pde(doc):
    from camchoi.modelfile import OdeBlock

    blocks = [b for b in doc.blocks if isinstance(b, OdeBlock)]
    assert {b.name for b in blocks} >= {"cc28ode", "cc33ode", "fig1ode"}
    for b in blocks:
        bound = b.lhs.subst(N_SYMBOL, Expr.rational(2))
        params = {a: 1 for a in b.lhs.atoms() if isinstance(a, Sym) and a.kind == PARAMETER and a != N_SYMBOL}
        if bound != b.lhs:
            params[N_SYMBOL] = 2
        sys, pde = compile_rhs(b.ctx, b.lhs, params), expand_pde(b.ctx, bound)
        assert (sys.order, sys.rhs[-1]) == (pde.leading.order, pde.leading_rhs), b.name


def test_compile_riccati_is_one_dimensional(doc):
    from camchoi.modelfile import OdeBlock

    blk = doc.block(OdeBlock, "cc33ode")
    sys = compile_rhs(blk.ctx, blk.lhs, {doc.params["Y0"]: 1, doc.params["Y1"]: 0})
    assert sys.order == 1


def test_linear_growth_exact():
    sys = compile_rhs(zctx, zj((2,)), {})
    tr = integrate(sys, [1.0, 2.0], IntegratorConfig(span=(0.0, 3.0)))
    for tval, yval in tr.samples:
        assert abs(yval[0] - (1 + 2 * tval)) < 1e-12


def test_exponential_growth_to_e():
    sys = compile_rhs(zctx, zj((1,)) - Expr.atom(H), {})
    tr = integrate(sys, [1.0], IntegratorConfig(span=(0.0, 1.0)))
    assert abs(tr.endpoint()[1][0] - math.e) < 1e-9


def test_rk4_order_of_convergence():
    sys = compile_rhs(zctx, zj((1,)) - Expr.atom(H), {})
    errs = []
    for h in (0.01, 0.005):
        cfg = IntegratorConfig(method="fixed-rk4", step=h, span=(0.0, 1.0))
        errs.append(abs(integrate(sys, [1.0], cfg).endpoint()[1][0] - math.e))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_cross_method_agreement_all_n(doc):
    for rn in FIG1_RUNS:
        _s, tra, _c = fig1_trajectory(doc, rn)
        _s, trf, _c = fig1_trajectory(doc, rn, method="fixed-rk4", step=1e-3)
        scale = max(abs(v) for v in tra.endpoint()[1])
        bound = 10 * max(1e-9, 1e-9 * scale)
        diff = max(abs(a - b) for a, b in zip(tra.endpoint()[1], trf.endpoint()[1]))
        assert diff < max(bound, 1e-8)


def test_trajectory_invariants(doc):
    sys = compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 3, H1: 0})
    tr = integrate(sys, [1.0, -0.5], IntegratorConfig(span=(0.0, 4.0), dense=[0.5, 1.5, 2.5]))
    ts = [s[0] for s in tr.samples]
    assert ts[0] == 0.0 and tr.samples[0][1] == (1.0, -0.5)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for q in (0.5, 1.5, 2.5):
        tr.at(q)


def test_time_reversal():
    sys = compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 2, H1: 0})
    fwd = integrate(sys, [1.0, -0.5], IntegratorConfig(span=(0.0, 5.0)))
    back = integrate(sys, list(fwd.endpoint()[1]), IntegratorConfig(span=(5.0, 0.0)))
    ts = [s[0] for s in back.samples]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert max(abs(a - b) for a, b in zip(back.endpoint()[1], (1.0, -0.5))) < 1e-7


def test_integrator_config_refuses_an_unknown_method():
    assert odes.METHODS == ("adaptive-rk45", "fixed-rk4")
    for method in odes.METHODS:
        assert IntegratorConfig(method=method).method == method
    with pytest.raises(OdeError, match="unknown method 'euler'; expected one of adaptive-rk45, fixed-rk4"):
        IntegratorConfig(method="euler")


def test_fixed_step_count_past_the_float_range_is_an_ode_error():
    # span / step overflows to inf for a subnormal step
    sys = compile_rhs(zctx, zj((1,)) - Expr.atom(H), {})
    cfg = IntegratorConfig(method="fixed-rk4", step=5e-324, span=(0.0, 1.0))
    with pytest.raises(OdeError, match=r"fixed-rk4 step count inf is not finite \(span 1, step 5e-324\)"):
        integrate(sys, [1.0], cfg)


def _no_loop(*args):
    raise AssertionError("the fixed-rk4 loop started")


def test_fixed_step_count_above_the_cap_is_refused_before_the_loop(monkeypatch):
    sys = compile_rhs(zctx, zj((1,)) - Expr.atom(H), {})
    sys.compiled()
    monkeypatch.setattr(sys, "_rk4", _no_loop)
    cfg = IntegratorConfig(method="fixed-rk4", step=1e-300, span=(0.0, 1.0))
    with pytest.raises(OdeError, match=r"fixed-rk4 step count 1e\+300 is above the cap of 10000000 steps "
                                       r"\(span 1, step 1e-300\)"):
        integrate(sys, [1.0], cfg)
    # one step over the cap on a span of 2 is refused; the cap itself reaches the loop
    over = IntegratorConfig(method="fixed-rk4", step=2 / (odes._MAX_RK4_STEPS + 1), span=(0.0, 2.0))
    with pytest.raises(OdeError, match="above the cap"):
        integrate(sys, [1.0], over)
    counts = []
    monkeypatch.setattr(sys, "_rk4", lambda a, h, n, keep, *y: counts.append((n, keep)) or y)
    integrate(sys, [1.0], IntegratorConfig(method="fixed-rk4", step=2 / odes._MAX_RK4_STEPS, span=(0.0, 2.0)))
    assert counts == [(odes._MAX_RK4_STEPS, False)]


def test_step_underflow_flagged():
    # 1/(1-t) blows up at t=1; the controller must give up and flag it
    Y = Expr.atom(H)
    sys = compile_rhs(zctx, zj((1,)) - Y * Y, {})
    tr = integrate(sys, [1.0], IntegratorConfig(span=(0.0, 2.0)))
    assert tr.flag == "step-underflow"
    assert tr.samples[0] == (0.0, (1.0,))
    assert tr.samples[-1][0] < 2.0


def test_csv_round_trip(tmp_path):
    sys = compile_rhs(zctx, zj((2,)), {})
    tr = integrate(sys, [1.0, 2.0], IntegratorConfig(span=(0.0, 1.0)))
    path = os.path.join(tmp_path, "t.csv")
    write_csv(tr, path, ["zeta", "H", "Hp"])
    header, rows = read_csv(path)
    assert header == ["zeta", "H", "Hp"]
    assert len(rows) == len(tr.samples)
    for row, (tval, yval) in zip(rows, tr.samples):
        assert row == (tval,) + tuple(yval)


def test_csv_header_only_for_empty(tmp_path):
    tr = Trajectory([])
    path = os.path.join(tmp_path, "e.csv")
    write_csv(tr, path, ["zeta", "H", "Hp"])
    with open(path) as fh:
        assert fh.read() == "zeta,H,Hp\n"


def test_svg_output(tmp_path, doc):
    trajs = []
    colors = ["red", "blue", "yellow"]
    for rn in FIG1_RUNS:
        _s, tr, color = fig1_trajectory(doc, rn, span=(0.0, 2.0))
        trajs.append(tr)
    path = os.path.join(tmp_path, "f.svg")
    write_svg(trajs, colors, path, labels=["n2", "n3", "n5"])
    body = open(path).read()
    assert body.startswith("<svg")
    assert body.count("<polyline") == 3
    for color in colors:
        assert 'stroke="%s"' % color in body


def test_svg_empty_axes_only(tmp_path):
    path = os.path.join(tmp_path, "empty.svg")
    write_svg([], [], path)
    body = open(path).read()
    assert "<polyline" not in body
    assert body.count("<line") == 2


def test_pinned_regression_values(doc):
    pins = {
        "fig1n2": (0.726015312108, (5.498589497144, 0.498257058497)),
        "fig1n3": (0.680358633883, (-0.527191522595, -0.037095175742)),
        "fig1n5": (0.629009794269, (-0.849816666544, -0.022968517021)),
    }
    for rn, (h1, end) in pins.items():
        _s, tr, _c = fig1_trajectory(doc, rn)
        assert abs(tr.at(1.0)[0] - h1) < 1e-6
        assert abs(tr.endpoint()[1][0] - end[0]) < 1e-6
        assert abs(tr.endpoint()[1][1] - end[1]) < 1e-6


def test_fig1_fixed_step_defaults_to_the_run_block_step():
    from camchoi.library import builtin_text
    from camchoi.modelfile import RunBlock, parse_model

    fresh = parse_model(builtin_text())
    rb = fresh.block(RunBlock, "fig1n2")
    rb.method, rb.step = "fixed-rk4", Fraction(1, 10)
    _s, tr, _c = fig1_trajectory(fresh, "fig1n2", span=(0.0, 1.0))
    assert len(tr.samples) == 11


def test_svg_flat_line(tmp_path):
    path = os.path.join(tmp_path, "flat.svg")
    flat = Trajectory([(0.0, (1.0,)), (0.5, (1.0,)), (1.0, (1.0,))])
    write_svg([flat], ["red"], path)
    body = open(path).read()
    assert body.count("<polyline") == 1


def test_svg_axes_stay_finite_for_every_finite_sample(tmp_path):
    path = os.path.join(tmp_path, "wide.svg")
    wide = Trajectory([(0.0, (-1e308,)), (0.5, (0.0,)), (1.0, (1e308,))])
    write_svg([wide], ["red"], path)
    body = open(path).read()
    assert "nan" not in body and "inf" not in body
    assert ">-1e+308</text>" in body and ">1e+308</text>" in body
    # a flat line where one unit is below the ulp, and one at the largest float
    for v in (1e20, -1e20, 1.7976931348623157e308):
        write_svg([Trajectory([(0.0, (v,)), (1.0, (v,))])], ["red"], path)
        body = open(path).read()
        assert "nan" not in body and "inf" not in body and body.count("<polyline") == 1


def test_svg_records_description(tmp_path):
    path = os.path.join(tmp_path, "d.svg")
    write_svg([], [], path, description="damping-factor grouping: default")
    assert "<desc>damping-factor grouping: default</desc>" in open(path).read()


# -- the generated integrators against the generic tuple code they replaced ----


def _reference_rk4_step(f, t, y, h):
    k1 = f(t, *y)
    k2 = f(t + h / 2, *(yi + h / 2 * ki for yi, ki in zip(y, k1)))
    k3 = f(t + h / 2, *(yi + h / 2 * ki for yi, ki in zip(y, k2)))
    k4 = f(t + h, *(yi + h * ki for yi, ki in zip(y, k3)))
    return tuple(
        yi + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        for yi, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
    )


def _reference_rk4_loop(dim):
    def loop(f, t, h, nsteps, *y):
        samples = [(t, y)]
        for _ in range(nsteps):
            y = _reference_rk4_step(f, t, y, h)
            t += h
            samples.append((t, y))
        return samples

    return loop


def _sum(terms):
    """sum() of floats as Python 3.11 computes it: 0 + t0 + t1 + ..., in order.

    Python 3.12's sum() compensates rounding, so the fold is spelled out.
    """
    total = 0
    for term in terms:
        total = total + term
    return total


def _reference_rkf45_stages(dim):
    def stages(f, t, h, *args):
        y, ks = args[:dim], [args[dim:]]
        for i in range(1, 6):
            ti = t + odes._RKF_C[i] * h
            yi = tuple(
                yv + h * _sum(odes._RKF_A[i][j] * ks[j][m] for j in range(i))
                for m, yv in enumerate(y)
            )
            ki = f(ti, *yi)
            if any(not math.isfinite(v) for v in ki):
                return None
            ks.append(ki)
        ynew = tuple(
            yv + h * _sum(odes._RKF_B5[j] * ks[j][m] for j in range(6))
            for m, yv in enumerate(y)
        )
        err = [h * _sum(odes._RKF_ERR[j] * ks[j][m] for j in range(6)) for m in range(len(y))]
        return ynew, err

    return stages


def _reference_integrate_rkf45(f, y0, cfg):
    """The adaptive step controller as a Python loop over the tuple stages."""
    a, b = cfg.span
    direction = 1.0 if b > a else -1.0
    span_len = abs(b - a)
    h = direction * min(odes._INITIAL_STEP, span_len)
    t = a
    y = y0
    dense = sorted(cfg.dense, reverse=direction < 0) if cfg.dense else []
    dense_i = 0
    samples = [(t, y)]
    accepted = 0
    rejected = 0
    flag = ""
    stages = _reference_rkf45_stages(len(y0))
    fnow = f(t, *y)
    while (t - b) * direction < 0:
        if abs(h) < odes._UNDERFLOW_FRACTION * span_len:
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
                    samples.append((xq, odes._hermite(t, y, fnow, tnew, ynew, fnew, xq)))
                dense_i += 1
            t, y, fnow = tnew, ynew, fnew
            if not samples or samples[-1][0] != t:
                samples.append((t, y))
            accepted += 1
            factor = 5.0 if norm == 0 else min(5.0, max(0.2, odes._SAFETY * norm ** -0.2))
            h = direction * min(abs(h) * factor, span_len)
        else:
            rejected += 1
            h = direction * max(abs(h) * max(0.2, odes._SAFETY * norm ** -0.2), 0.0)
    if not flag and samples and samples[-1][0] != b:
        if abs(samples[-1][0] - b) < 1e-9 * span_len:
            samples[-1] = (b, samples[-1][1])
    return Trajectory(samples, accepted, rejected, flag)


def _reference_integrate(sys, ic, cfg):
    """integrate() through the tuple references, driven by the right-hand side
    with every parameter value written into its source."""
    f = _reference_compile_callable(sys)
    y0 = tuple(float(v) for v in ic)
    if not all(math.isfinite(v) for v in f(float(cfg.span[0]), *y0)):
        raise OdeError("right-hand side not finite at the initial point")
    if cfg.method == "adaptive-rk45":
        return _reference_integrate_rkf45(f, y0, cfg)
    a, b = cfg.span
    nsteps = max(1, math.ceil(abs(b - a) / cfg.step))
    samples = _reference_rk4_loop(len(y0))(f, a, (b - a) / nsteps, nsteps, *y0)
    samples[-1] = (b, samples[-1][1])
    flag = "" if all(math.isfinite(v) for v in samples[-1][1]) else "non-finite"
    return Trajectory(samples, accepted=nsteps, flag=flag)


def _outcome(run, sys, ic, cfg):
    """(what ended the run, everything it produced, by repr)."""
    try:
        tr = run(sys, ic, cfg)
    except OdeError as e:
        return "OdeError", str(e)
    return tr.flag, repr((tr.samples, tr.accepted, tr.rejected))


def _same_as_reference(sys, ic, cfg):
    """Integrate with the generated integrators and with the references.

    Both must give the same outcome, compared by repr: it tells -0.0 from
    0.0, matches NaNs, and a float repr round-trips.  Returns the outcome.
    """
    got = _outcome(integrate, sys, ic, cfg)
    assert got == _outcome(_reference_integrate, sys, ic, cfg)
    return got


_EDGE_STATES = (0.0, -0.0, 1e300)


def _drawn_state(rng, lo, hi):
    return rng.choice(_EDGE_STATES) if rng.random() < 0.2 else rng.uniform(lo, hi)


def _drawn_span(rng):
    """A span either way round, with up to three dense points and at times an end."""
    a = rng.uniform(-1.0, 1.0)
    b = a + rng.uniform(0.05, 4.0)
    span = (a, b) if rng.random() < 0.5 else (b, a)
    dense = [rng.uniform(a, b) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        dense.append(rng.choice(span))
    return span, dense


def _stepper_draws(doc):
    """The seeded systems, initial values and (adaptive, fixed) configurations
    of the stepper tests."""
    from camchoi.modelfile import OdeBlock

    rng = random.Random(20210)
    for i in range(40):
        if i % 2:
            ob = doc.block(OdeBlock, "cc33ode")
            params = {doc.params["Y0"]: Fraction(rng.randint(-10, 10), 10),
                      doc.params["Y1"]: Fraction(rng.randint(-10, 10), 10)}
            ic = [_drawn_state(rng, -1.0, 1.0)]
        else:
            ob = doc.block(OdeBlock, "fig1ode")
            params = {N_SYMBOL: rng.choice([2, 3, 5]), doc.params["H1"]: Fraction(rng.randint(-5, 5), 10)}
            ic = [_drawn_state(rng, 0.5, 1.5), _drawn_state(rng, -1.0, 0.5)]
        sys = compile_rhs(ob.ctx, ob.lhs, params)
        span, dense = _drawn_span(rng)
        tol = 10 ** rng.uniform(-10.0, -6.0)
        yield sys, ic, (IntegratorConfig(abs_tol=tol, rel_tol=tol, span=span, dense=dense),
                        IntegratorConfig(method="fixed-rk4", step=rng.uniform(0.01, 0.05), span=span))


def test_generated_steppers_match_the_reference(doc):
    flags = set()
    for sys, ic, cfgs in _stepper_draws(doc):
        for cfg in cfgs:
            flags.add(_same_as_reference(sys, ic, cfg)[0])
    assert flags == {"", "non-finite", "step-underflow", "OdeError"}


def _replayed(sys, ic, cfg):
    """Run integrate, read the endpoint, then the samples, recording the keep
    argument of every _rk4 call; check the replay against the reference."""
    sys.compiled()
    rk4, keeps = sys._rk4, []
    sys._rk4 = lambda *args: keeps.append(args[3]) or rk4(*args)
    try:
        tr = integrate(sys, ic, cfg)
    except OdeError:
        assert keeps == []
        return "OdeError"
    finally:
        sys._rk4 = rk4
    assert keeps == [False]
    end = tr.endpoint()
    samples = tr.samples
    assert keeps == [False, True]
    assert tr.samples is samples and keeps == [False, True]
    assert repr(samples[-1]) == repr(end) == repr(tr.endpoint())
    assert len(samples) == tr.count == tr.accepted + 1
    assert repr(samples) == repr(_reference_integrate(sys, ic, cfg).samples)
    return tr.flag


def test_fixed_step_samples_are_replayed_on_first_read(doc):
    flags = set()
    for sys, ic, (_adaptive, fixed) in _stepper_draws(doc):
        a, b = fixed.span
        # the drawn start, and an int and a Fraction start
        for start in (a, round(a), Fraction(a).limit_denominator(9)):
            if start != b:
                cfg = IntegratorConfig(method="fixed-rk4", step=fixed.step, span=(start, b))
                flags.add(_replayed(sys, ic, cfg))
    # H' = -H^(1/2) - 1: the steps past H < 0 meet a domain error
    root = compile_rhs(zctx, zj((1,)) + Expr.atom(H).pow_exponent(Exponent(1, 0)) + 1, {})
    assert _replayed(root, [1.0], IntegratorConfig(method="fixed-rk4", step=0.01, span=(0.0, 3.0))) == "non-finite"
    assert flags == {"", "non-finite", "OdeError"}


def test_a_fixed_run_that_reads_no_samples_keeps_none():
    import tracemalloc

    sys = compile_rhs(zctx, zj((1,)) + Expr.atom(H), {})
    sys.compiled()
    cfg = IntegratorConfig(method="fixed-rk4", step=1e-5, span=(0.0, 1.0))
    tracemalloc.start()
    try:
        tr = integrate(sys, [1.0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.count == 10 ** 5 + 1 and tr.flag == ""
    assert abs(tr.endpoint()[1][0] - math.exp(-1.0)) < 1e-12
    assert peak < 10 ** 6


def test_the_adaptive_loop_stops_at_the_step_cap(monkeypatch):
    sys = compile_rhs(zctx, zj((1,)) + Expr.atom(H), {})
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, span=(0.0, 1.0))
    full = integrate(sys, [1.0], cfg)
    attempts = full.accepted + full.rejected
    assert attempts > 10 and full.flag == ""
    # a cap the run reaches as it ends stops nothing; one attempt less does
    monkeypatch.setattr(odes, "_MAX_RKF45_STEPS", attempts)
    assert repr(integrate(sys, [1.0], cfg).samples) == repr(full.samples)
    monkeypatch.setattr(odes, "_MAX_RKF45_STEPS", attempts - 1)
    tr = integrate(sys, [1.0], cfg)
    assert tr.flag == "step-limit" and tr.accepted + tr.rejected == attempts - 1
    assert repr(tr.samples) == repr(full.samples[:tr.accepted + 1])


@pytest.mark.parametrize("method", ["adaptive-rk45", "fixed-rk4"])
def test_generated_steppers_keep_signed_zeros(method):
    # H'' = 0 from (-0.0, -0.0): the slopes are -0.0 and 0.0, and a weighted
    # sum that starts from the integer 0 turns -0.0 into 0.0
    sys = compile_rhs(zctx, zj((2,)), {})
    cfg = IntegratorConfig(method=method, step=0.25, span=(0.0, 1.0))
    _same_as_reference(sys, [-0.0, -0.0], cfg)
    samples = integrate(sys, [-0.0, -0.0], cfg).samples
    assert {math.copysign(1.0, v) for _, y in samples for v in y} == {-1.0, 1.0}


@pytest.mark.parametrize("method, flag", [("adaptive-rk45", "step-underflow"), ("fixed-rk4", "non-finite")])
def test_generated_steppers_flag_domain_errors(method, flag):
    # H' = -H^(1/2) - 1 reaches H < 0 before s = 1, where the square root fails
    sys = compile_rhs(zctx, zj((1,)) + Expr.atom(H).pow_exponent(Exponent(1, 0)) + 1, {})
    cfg = IntegratorConfig(method=method, step=0.01, span=(0.0, 3.0))
    assert _same_as_reference(sys, [1.0], cfg)[0] == flag


# -- the equation table and its value-free right-hand sides against the -------
# -- compiler that wrote each parameter value into the source -----------------


def _reference_compile_callable(sys):
    """The right-hand side with every parameter value in its source as a literal.

    A negative value raised to a power above 6 reads as -(v**k) here; the
    builtin ODEs hold their parameters to the first power only.
    """
    var = sys.ctx.independents[0]
    names = {var: "x"}
    for i, a in enumerate(sys.state_atoms):
        names[a] = "y%d" % i
    for p, v in sys.params.items():
        names[p] = repr(v)

    def emit(e):
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

    args = ", ".join(["x"] + ["y%d" % i for i in range(sys.order)])
    body = ", ".join(emit(e) for e in sys.rhs)
    src = ("def _rhs(%s):\n    try:\n        return (%s,)\n"
           "    except (ArithmeticError, ValueError):\n        return (%s)\n"
           % (args, body, "nan, " * sys.order))
    return odes._define(src, "_rhs")


_EDGE_VALUES = (0, -0.0, 1e308, -1e308, 1e-320, -1e-320)


def _drawn_value(rng):
    r = rng.random()
    if r < 0.4:
        return rng.choice(_EDGE_VALUES)
    if r < 0.7:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return rng.uniform(-2.0, 2.0)


def test_bound_rhs_matches_the_literal_inlining_reference(doc):
    from camchoi.modelfile import OdeBlock

    rng = random.Random(31)
    seen = set()
    for i in range(48):
        ode = ("fig1ode", "fig1ode_alt", "cc33ode", "cc28ode")[i % 4]
        ob = doc.block(OdeBlock, ode)
        if ode.startswith("fig1"):
            params = {N_SYMBOL: rng.choice([2, 3, 5, 7]), doc.params["H1"]: _drawn_value(rng)}
            ic = [_drawn_state(rng, 0.5, 1.5), _drawn_state(rng, -1.0, 0.5)]
        else:
            params = {doc.params["Y0"]: _drawn_value(rng), doc.params["Y1"]: _drawn_value(rng)}
            ic = [_drawn_state(rng, -1.0, 1.0)]
        sys = compile_rhs(ob.ctx, ob.lhs, params)
        span, dense = _drawn_span(rng)
        for cfg in (IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8, span=span, dense=dense),
                    IntegratorConfig(method="fixed-rk4", step=rng.uniform(0.02, 0.05), span=span)):
            seen.add(_same_as_reference(sys, ic, cfg)[0])
    assert seen == {"", "non-finite", "step-underflow", "OdeError"}


def test_generated_source_holds_no_parameter_value(doc):
    from camchoi.modelfile import OdeBlock

    Y0, Y1, H1_ = doc.params["Y0"], doc.params["Y1"], doc.params["H1"]
    for ode, params, point in [
        ("fig1ode", {N_SYMBOL: 3, H1_: 0.123456789}, (0.3, 0.7, -0.2)),
        ("fig1ode_alt", {N_SYMBOL: 5, H1_: -0.987654321}, (0.3, 0.7, -0.2)),
        ("cc33ode", {Y0: 0.123456789, Y1: -0.987654321}, (0.3, 0.7)),
        ("cc28ode", {Y0: -0.987654321, Y1: 0.123456789}, (0.3, 0.7)),
    ]:
        ob = doc.block(OdeBlock, ode)
        sys = compile_rhs(ob.ctx, ob.lhs, params)
        src = odes._factory_source(sys._solved)
        # make binds the values as arguments of _rhs, _rk4 and _rkf45
        assert src.startswith("def make(%s):\n" % ", ".join("p%d" % i for i in range(len(sys.params))))
        assert all("\n    def %s(" % name in src for name in ("_rhs", "_rk4", "_rkf45"))
        assert "123456789" not in src and "987654321" not in src
        assert sys.compiled()(*point) == _reference_compile_callable(sys)(*point)


@pytest.mark.parametrize("k", [2, 7, 8])
def test_a_negative_parameter_to_a_high_power_keeps_its_sign(k):
    sys = compile_rhs(zctx, zj((1,)) - Expr.atom(H1) ** k, {H1: -1.0})
    assert sys.compiled()(0.0, 0.0) == ((-1.0) ** k,)


def test_one_table_entry_per_equation_and_exponent(doc):
    from camchoi.modelfile import OdeBlock

    ob = doc.block(OdeBlock, "cc28ode")
    Y0, Y1 = doc.params["Y0"], doc.params["Y1"]
    a = compile_rhs(ob.ctx, ob.lhs, {Y0: 1, Y1: 0})
    b = compile_rhs(ob.ctx, ob.lhs, {Y0: Fraction(1, 3), Y1: -2.5})
    assert a._solved is b._solved
    assert [k for k in odes._SOLVED_ODES if k[1] == ob.lhs] == [(ob.ctx, ob.lhs, None)]
    fa = a.compiled()
    make = a._solved.make
    fb = b.compiled()
    assert a._solved.make is make and fa is not fb
    assert fa(0.5, 0.25) != fb(0.5, 0.25)
    assert (a.params, b.params) == ({Y0: 1.0, Y1: 0.0}, {Y0: 1 / 3, Y1: -2.5})

    fig1 = doc.block(OdeBlock, "fig1ode")
    H1_ = doc.params["H1"]
    two = compile_rhs(fig1.ctx, fig1.lhs, {N_SYMBOL: 2, H1_: 0})
    assert compile_rhs(fig1.ctx, fig1.lhs, {N_SYMBOL: 2.0, H1_: 1})._solved is two._solved
    assert compile_rhs(fig1.ctx, fig1.lhs, {N_SYMBOL: 3, H1_: 0})._solved is not two._solved
    ns = [k[2] for k in odes._SOLVED_ODES if k[:2] == (fig1.ctx, fig1.lhs)]
    assert 2 in ns and 3 in ns and None not in ns and len(set(ns)) == len(ns)


def test_a_fig1_adaptive_and_fixed_pair_shares_one_entry(doc):
    sa, _, _ = fig1_trajectory(doc, "fig1n3", span=(0.0, 1.0))
    sf, _, _ = fig1_trajectory(doc, "fig1n3", span=(0.0, 1.0), method="fixed-rk4", step=1e-2)
    assert sa._solved is sf._solved and sa._solved.make is not None


def test_per_call_checks_hold_after_a_successful_compile():
    compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 2, H1: 0})
    for _ in range(2):
        with pytest.raises(OdeError, match="unbound parameter H1"):
            compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: 2})
        with pytest.raises(OdeError, match="unbound parameter n"):
            compile_rhs(zctx, eq38_lhs(), {H1: 0})
        for n in (Fraction(5, 2), 2.5, math.inf, math.nan):
            with pytest.raises(OdeError, match="exponent parameter n must be an integer"):
                compile_rhs(zctx, eq38_lhs(), {N_SYMBOL: n, H1: 0})


def test_a_value_for_a_parameter_the_equation_does_not_hold_is_refused(doc):
    from camchoi.modelfile import OdeBlock

    Y0, Y1, H1_ = doc.params["Y0"], doc.params["Y1"], doc.params["H1"]
    cc33, fig1 = doc.block(OdeBlock, "cc33ode"), doc.block(OdeBlock, "fig1ode")
    for _ in range(2):  # on the first solve and on a table hit
        for ob, params, name in [(cc33, {Y0: 1, Y1: 0, H1_: 5}, "H1"), (cc33, {Y0: 1, Y1: 0, N_SYMBOL: 2}, "n"),
                                 (fig1, {N_SYMBOL: 2, H1_: 0, Y0: 1}, "Y0"), (zctx, {N_SYMBOL: 2}, "n")]:
            ctx, lhs = (zctx, zj((2,))) if ob is zctx else (ob.ctx, ob.lhs)
            with pytest.raises(OdeError, match="^the equation holds no parameter %s$" % name):
                compile_rhs(ctx, lhs, params)
    assert compile_rhs(fig1.ctx, fig1.lhs, {N_SYMBOL: 2, H1_: 0}).params == {H1_: 0.0}


def test_a_failed_solve_is_not_stored():
    bad = zj((2,)) ** 2 + Expr.atom(H)
    before = dict(odes._SOLVED_ODES)
    for _ in range(2):
        with pytest.raises(OdeError, match="nonlinear in leading derivative"):
            compile_rhs(zctx, bad, {})
    assert odes._SOLVED_ODES == before


@pytest.mark.parametrize("value, shown", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), ("1e400", "inf"),
    (Fraction(10 ** 400), "integer division result too large for a float"),
    (None, "must be a string or a real number"),
], ids=["inf", "-inf", "nan", "string", "overflow", "none"])
def test_a_parameter_that_is_not_a_finite_float_is_refused(doc, value, shown):
    from camchoi.modelfile import OdeBlock

    ob = doc.block(OdeBlock, "cc33ode")
    with pytest.raises(OdeError, match=r"parameter Y0 is not a finite float: .*%s" % re.escape(shown)):
        compile_rhs(ob.ctx, ob.lhs, {doc.params["Y0"]: value, doc.params["Y1"]: 0})


# -- write_csv against the writer that formatted each value on its own --------


def _reference_write_csv(traj, path, names):
    lines = [",".join(names)]
    for t, y in traj.samples:
        lines.append(",".join("%.17g" % v for v in (t,) + tuple(y)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_write_csv_bytes_match_the_reference(tmp_path, dim):
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 5e-324, 1 / 3, -1e308, 2]
    rng = random.Random(dim)
    samples = [(rng.choice(values), tuple(rng.choice(values) for _ in range(dim))) for _ in range(60)]
    tr = Trajectory(samples)
    empty = Trajectory([])
    # the header may be longer or shorter than a row; an empty trajectory writes only its header
    cases = [(tr, names) for names in (["t", "H", "Hp", "Hpp"][:dim + 1], ["t"], ["t", "a", "b", "c"],
                                       ["t", "a", "b", "c", "d"])]
    for traj, names in cases + [(empty, ["t", "H"])]:
        got, want = os.path.join(tmp_path, "got.csv"), os.path.join(tmp_path, "want.csv")
        write_csv(traj, got, names)
        _reference_write_csv(traj, want, names)
        assert open(got, "rb").read() == open(want, "rb").read()

