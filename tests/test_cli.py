import hashlib
import json
import math
import os
import re

import pytest

from camchoi import odes
from camchoi.cli import main
from camchoi.report import SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_symmetry_pass(capsys):
    code, out, _ = run(capsys, "check-symmetry", "builtin", "X2", "cc")
    assert code == 0
    assert "PASS" in out


def test_check_symmetry_fail_with_residual(capsys):
    code, out, _ = run(capsys, "check-symmetry", "builtin", "du-field", "cc")
    assert code == 1
    assert "residual: -u[x,x]" in out


def test_commutators_command(capsys):
    code, out, _ = run(capsys, "commutators", "builtin", "X1p", "X2p", "X3p")
    assert code == 0
    assert "[X1p,X2p]" in out


def test_closure_command(capsys):
    code, out, _ = run(capsys, "closure", "builtin", "X1", "X2", "X3p", "X4p", "X5")
    assert code == 0


def test_closure_prints_exact_quotients_as_monomials(capsys, tmp_path):
    path = os.path.join(tmp_path, "closure.json")
    code, _, _ = run(capsys, "closure", "builtin", "Z1", "Z2", "Z3", "Zb3", "--json", path)
    assert code == 0
    table = json.load(open(path))["cases"][0]["detail"]["table"]
    # [Z1,Z3] = Z2, whose coefficient the solver returns as (2*alpha + 2)/(2*alpha + 2)
    assert table["[Z1,Z3]"] == ["0", "1", "0", "0"]
    assert table["[Z2,Z3]"] == ["0", "0", "2", "0"]


def test_determining_command(capsys):
    code, out, _ = run(capsys, "determining", "builtin", "cc")
    assert code == 0
    assert "D(xi_t;u) = 0" in out


@pytest.mark.parametrize("pde, digest", [
    ("cc", "1924453b64d5df2c007f57d45d851b09"),
    ("gcc", "cdf344192e943c7b0ae308bc505807cc"),
    ("cc19", "a0e841452213ebb5a540271bd4b065a2"),
    ("eq33", "1ae5e945e4b6dd67335974a5b2ee771b"),
])
def test_determining_output_is_pinned(capsys, pde, digest):
    # the report md5 covers only the verdict of the cc system, not its equations
    code, out, _ = run(capsys, "determining", "builtin", pde)
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == digest


def test_closure_of_the_six_field_set_is_pinned(capsys):
    code, out, _ = run(capsys, "closure", "builtin", "X1p", "X2p", "X3p", "X4p", "X5p", "X6p")
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == "46ba76c8d4b6738ce780773ad27c6218"
    assert code == 0


@pytest.mark.parametrize("command", [["check-symmetry", "T", "kdv4"], ["determining", "kdv4"]])
def test_fourth_order_pde_names_the_prolongation_limit(capsys, tmp_path, command):
    path = os.path.join(tmp_path, "kdv4.model")
    with open(path, "w") as fh:
        fh.write("pde kdv4 {\n  vars = t, x\n  dep = u\n  eq D(u;t) + D(u;x,x,x,x) = 0\n}\n"
                 "field T on kdv4 { xi t = 1 }\n")
    code, _, err = run(capsys, command[0], path, *command[1:])
    assert code == 2
    assert err == "error: pde kdv4 is of order 4; prolongation is implemented up to order 3\n"


EXP_OF_A_JET = os.path.join(os.path.dirname(__file__), "models", "exp_of_a_jet.model")


def test_determining_refuses_a_jet_inside_exp(capsys):
    code, out, err = run(capsys, "determining", EXP_OF_A_JET, "expjet")
    assert (code, out, err) == (2, "", "error: u[x] occurs inside exp(u[x]) and cannot be split off\n")


@pytest.mark.parametrize("field, code, lines", [
    ("T", 0, ["PASS  T on expjet  symmetry        pass",
              "1 cases: 1 pass, 0 fail, 0 recorded discrepancies, 0 unsupported"]),
    ("S", 1, ["FAIL  S on expjet  symmetry        fail",
              "1 cases: 0 pass, 1 fail, 0 recorded discrepancies, 0 unsupported",
              "residual: -u[x]*exp(u[x]) + 2*exp(u[x])"]),
    ("G", 1, ["FAIL  G on expjet  symmetry        fail",
              "1 cases: 0 pass, 1 fail, 0 recorded discrepancies, 0 unsupported",
              "residual: exp(u[x]) - u[x]"]),
])
def test_check_symmetry_with_a_jet_inside_exp(capsys, field, code, lines):
    got, out, _ = run(capsys, "check-symmetry", EXP_OF_A_JET, field, "expjet")
    assert (got, out) == (code, "".join(line + "\n" for line in lines))


def test_reduce_command_with_comparison(capsys):
    code, out, _ = run(
        capsys, "reduce", "builtin", "cc", "cc18",
        "--printed", "cc19", "--identify", "h0=alpha",
    )
    assert code == 0
    assert "under-substitution" in out


def test_first_integral_command(capsys):
    code, out, _ = run(capsys, "first-integral", "builtin", "cc25", "cc26")
    assert code == 0
    assert "NOTE" in out


def test_solution_check_command(capsys):
    code, out, _ = run(capsys, "solution-check", "builtin", "cc19", "cc24")
    assert code == 0
    assert "PASS" in out


def test_integrate_command(capsys, tmp_path):
    csv = os.path.join(tmp_path, "out.csv")
    code, out, _ = run(
        capsys, "integrate", "builtin", "cc33ode",
        "--ic", "0.5", "--span", "0", "1",
        "--param", "Y0=1", "--param", "Y1=0",
        "--csv", csv,
    )
    assert code == 0
    assert os.path.exists(csv)
    header = open(csv).readline().strip()
    assert header == "lam,Yp"


def test_fig1_command(capsys, tmp_path):
    out_dir = os.path.join(tmp_path, "fig")
    code, out, _ = run(capsys, "fig1", "--out", out_dir, "--span", "0", "2")
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["fig1.svg", "fig1_n2.csv", "fig1_n3.csv", "fig1_n5.csv"]
    svg = open(os.path.join(out_dir, "fig1.svg")).read()
    for color in ("red", "blue", "yellow"):
        assert 'stroke="%s"' % color in svg
    header = open(os.path.join(out_dir, "fig1_n2.csv")).readline().strip()
    assert header == "zeta,H,Hp"


def test_fig1_names_each_run_that_ends_early_and_exits_1(capsys, tmp_path):
    # every curve stops with step-underflow near its singularity; the
    # truncated files are still written
    out_dir = os.path.join(tmp_path, "fig")
    code, out, err = run(capsys, "fig1", "--out", out_dir, "--span", "0", "-50")
    assert code == 1 and err == ""
    assert sorted(os.listdir(out_dir)) == ["fig1.svg", "fig1_n2.csv", "fig1_n3.csv", "fig1_n5.csv"]
    lines = out.splitlines()
    assert lines[0] == "wrote %s and 3 CSV files (grouping: default)" % os.path.join(out_dir, "fig1.svg")
    ends = []
    for line, run_name in zip(lines[1:], ["fig1n2", "fig1n3", "fig1n5"]):
        m = re.fullmatch(run_name + r": \d+ samples, endpoint (\S+) -> \S+, \S+ \[step-underflow\]", line)
        assert m, line
        ends.append(round(float(m.group(1)), 2))
    assert ends == [-1.09, -0.89, -0.66]


FIG1_DIGESTS = {
    "default": {
        "fig1.svg": "bbce3beac84f718aa396872882fa1d87",
        "fig1_n2.csv": "0f7d269215a6f2a19f2b0d0fe5f3e45c",
        "fig1_n3.csv": "e2e3fe0645f3549c6c48faeb46d06d1f",
        "fig1_n5.csv": "a0fd17477844694c346ee158afff8312",
    },
    "alt": {
        "fig1.svg": "851595ecc103df95ff2f8111d2c41348",
        "fig1_n2.csv": "e5d8af78e4a1a3e7a7980223ac194a36",
        "fig1_n3.csv": "430fec344bc1862ce2a60a6329a66425",
        "fig1_n5.csv": "b78cd139dbb05b70017ba5f501b30574",
    },
}


@pytest.mark.parametrize("grouping", ["default", "alt"])
def test_fig1_output_is_pinned(capsys, tmp_path, grouping):
    # fig1 compiles its ODEs through the binding of the exponent parameter n
    out_dir = os.path.join(tmp_path, "fig")
    code, _, _ = run(capsys, "fig1", "--out", out_dir, "--grouping", grouping)
    assert code == 0
    got = {name: hashlib.md5(open(os.path.join(out_dir, name), "rb").read()).hexdigest()
           for name in os.listdir(out_dir)}
    assert got == FIG1_DIGESTS[grouping]


def test_paper_suite_passes_and_is_stable(capsys, tmp_path):
    p1 = os.path.join(tmp_path, "r1.json")
    p2 = os.path.join(tmp_path, "r2.json")
    code1, out1, _ = run(capsys, "paper-suite", "--json", p1)
    code2, out2, _ = run(capsys, "paper-suite", "--json", p2)
    assert code1 == 0 and code2 == 0
    b1 = open(p1, "rb").read()
    b2 = open(p2, "rb").read()
    assert b1 == b2
    assert hashlib.md5(b1).hexdigest() == "e92849c3257f7710794fe350a18fc9d5"
    assert out1 == out2
    assert hashlib.md5(out1.encode()).hexdigest() == "b6667323fab2b84993b0cf83aa464063"
    data = json.loads(b1)
    assert data["schema"] == SCHEMA
    assert data["summary"]["fail"] == 0
    assert data["summary"]["mismatch_recorded"] > 0
    assert all(c["verdict"] in ("pass", "fail", "mismatch-recorded", "unsupported")
               for c in data["cases"])


def test_paper_suite_reports_the_other_cases_when_one_raises(capsys, tmp_path, monkeypatch):
    from camchoi import cli, library

    clean = os.path.join(tmp_path, "clean.json")
    broken = os.path.join(tmp_path, "broken.json")
    run(capsys, "paper-suite", "--json", clean)

    def build_cases():
        cases = library.build_cases()

        def boom(doc):
            raise ZeroDivisionError("injected")

        cases[0].run = boom
        return cases

    monkeypatch.setattr(cli, "build_cases", build_cases)
    code, _, err = run(capsys, "paper-suite", "--json", broken)
    assert code == 1
    assert "ZeroDivisionError: injected" in err
    label = library.build_cases()[0].label
    before = json.loads(open(clean).read())["cases"]
    after = json.loads(open(broken).read())["cases"]
    assert len(after) == len(before) == 50
    failed = [c for c in after if c["label"] == label]
    assert [(c["verdict"], c["detail"]) for c in failed] == [("fail", {"error": "ZeroDivisionError: injected"})]
    assert [c for c in after if c["label"] != label] == [c for c in before if c["label"] != label]


def test_report_fields_are_documented():
    import importlib.resources as resources

    schema_text = resources.files("camchoi").joinpath("data/report-schema.txt").read_text()
    for fieldname in ("schema", "command", "cases", "ledger", "summary",
                      "label", "kind", "verdict", "detail",
                      "subject", "printed", "computed", "residual", "note"):
        assert fieldname in schema_text


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_parse_error_exits_2(capsys, tmp_path):
    bad = os.path.join(tmp_path, "bad.model")
    with open(bad, "w") as fh:
        fh.write("pde p {\n  vars = t\n")
    code, _, err = run(capsys, "determining", bad, "p")
    assert code == 2
    assert "line" in err


def test_unknown_block_exits_2(capsys):
    code, _, err = run(capsys, "check-symmetry", "builtin", "nope", "cc")
    assert code == 2


DOMAIN_MODEL = """
ode inv {
  vars = s
  dep = H
  eq D(H;s) - H^(-1) = 0
}
ode root {
  vars = s
  dep = H
  eq D(H;s) + H^(1/2) + 1 = 0
}
"""


# H' = -sqrt(H) - 1 from H(0) = 1 reaches H = 0 at s = 2 - 2 ln 2 = 0.6137...
@pytest.mark.parametrize("argv, code, expect", [
    (["inv", "--ic", "0", "--span", "0", "1"], 2, ["not finite at the initial point"]),
    (["root", "--ic", "1", "--span", "0", "3"], 1, ["endpoint 0.6137", "[step-underflow]"]),
    (["root", "--ic", "1", "--span", "0", "3", "--method", "fixed-rk4", "--step", "0.01"], 1,
     ["endpoint 3 -> nan [non-finite]"]),
    (["root", "--ic", "1", "--span", "0", "1", "--method", "fixed-rk4", "--step", "0"], 2,
     ["error: step must be positive and finite"]),
    (["root", "--ic", "1", "--span", "0", "1", "--method", "fixed-rk4", "--step", "nan"], 2,
     ["error: step must be positive and finite"]),
    (["root", "--ic", "1", "--span", "0", "1", "--method", "fixed-rk4", "--step", "-0.1"], 2,
     ["error: step must be positive and finite"]),
    (["root", "--ic", "1", "--span", "0", "1", "--method", "fixed-rk4", "--step", "5e-324"], 2,
     ["error: fixed-rk4 step count inf is not finite (span 1, step 5e-324)\n"]),
    (["root", "--ic", "1", "--span", "0", "1", "--tol", "nan"], 2, ["error: tolerances must be positive and finite"]),
    (["root", "--ic", "1", "--span", "0", "nan"], 2, ["error: integration span must be finite"]),
    (["root", "--ic", "1", "--span", "0", "1", "--method", "euler"], 2,
     ["invalid choice: 'euler' (choose from 'adaptive-rk45', 'fixed-rk4')"]),
], ids=["initial point", "adaptive", "fixed-rk4", "zero step", "nan step", "negative step", "subnormal step",
        "nan tol", "nan span", "unknown method"])
def test_integrate_rhs_domain_errors(capsys, tmp_path, argv, code, expect):
    path = os.path.join(tmp_path, "domain.model")
    with open(path, "w") as fh:
        fh.write(DOMAIN_MODEL)
    got, out, err = run(capsys, "integrate", path, *argv)
    assert got == code
    for text in expect:
        assert text in out + err


def test_fixed_step_count_above_the_cap_exits_2_before_stepping(capsys, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the fixed-rk4 loop started")

    bind = odes._SolvedOde.bind
    monkeypatch.setattr(odes._SolvedOde, "bind", lambda self, values: (bind(self, values)[0], no_loop, None))
    code, out, err = run(capsys, "integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1",
                         "--param", "Y0=1", "--param", "Y1=0", "--method", "fixed-rk4", "--step", "1e-300")
    assert code == 2 and out == ""
    assert err == "error: fixed-rk4 step count 1e+300 is above the cap of 10000000 steps (span 1, step 1e-300)\n"


@pytest.mark.parametrize("csv", [False, True], ids=["endpoint only", "csv"])
def test_integrate_fixed_rk4_counts_its_samples_without_keeping_them(capsys, tmp_path, monkeypatch, csv):
    # a fixed-step run replays its samples only for --csv or --svg
    keeps = []
    bind = odes._SolvedOde.bind

    def recording(self, values):
        rhs, rk4, rkf45 = bind(self, values)
        return rhs, lambda *args: keeps.append(args[3]) or rk4(*args), rkf45

    monkeypatch.setattr(odes._SolvedOde, "bind", recording)
    path = os.path.join(tmp_path, "f.csv")
    code, out, err = run(capsys, "integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1",
                         "--param", "Y0=1", "--param", "Y1=0", "--method", "fixed-rk4", "--step", "0.01",
                         *(["--csv", path] if csv else []))
    assert (code, out, err) == (0, "cc33ode: 101 samples, endpoint 1 -> -0.0562443252582\n", "")
    assert keeps == ([False, True] if csv else [False])
    if csv:
        assert len(open(path).read().splitlines()) == 1 + 101


def test_adaptive_step_limit_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(odes, "_MAX_RKF45_STEPS", 5)
    code, out, err = run(capsys, "integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1",
                         "--param", "Y0=1", "--param", "Y1=0")
    assert code == 1 and err == ""
    assert out.startswith("cc33ode: 6 samples, endpoint ") and out.endswith(" [step-limit]\n")


@pytest.mark.parametrize("value", ["1e400", "-1e400"])
def test_parameter_beyond_the_float_range_exits_2(capsys, value):
    code, out, err = run(capsys, "integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1",
                         "--param", "Y0=" + value, "--param", "Y1=0")
    assert code == 2 and out == ""
    assert err == "error: parameter Y0 is not a finite float: integer division result too large for a float\n"


def test_integrate_svg_draws_only_the_finite_samples(capsys, tmp_path):
    # H' = H^2 from H(0) = 1 blows up at z = 1
    model, csv, svg = (os.path.join(tmp_path, f) for f in ("blowup.model", "q.csv", "q.svg"))
    with open(model, "w") as fh:
        fh.write("ode q { vars = z; dep = H; eq H[z] - H^2 = 0 }\n")
    code, out, _ = run(capsys, "integrate", model, "q", "--ic", "1", "--span", "0", "2",
                       "--method", "fixed-rk4", "--step", "0.01", "--csv", csv, "--svg", svg)
    assert code == 1 and "[non-finite]" in out
    rows = open(csv).read().splitlines()[1:]
    finite = [r for r in rows if math.isfinite(float(r.split(",")[1]))]
    body = open(svg).read()
    assert "nan" not in body and "inf" not in body
    assert 0 < len(finite) < len(rows)
    assert len(re.search(r'points="([^"]*)"', body).group(1).split()) == len(finite)


EXPONENT_MODEL = "exponent n\node q { vars = z; dep = H; eq H[z,z] + H^n = 0 }\n"


@pytest.mark.parametrize("params, code, expect", [
    (["--param", "n=2"], 0, "q: 31 samples, endpoint 1 -> 0.571185491782, -0.736500326687\n"),
    ([], 2, "error: unbound parameter n\n"),
], ids=["bound", "unbound"])
def test_exponent_only_parameter_is_bound(capsys, tmp_path, params, code, expect):
    # n occurs in an exponent and nowhere as an atom
    path = os.path.join(tmp_path, "exponent.model")
    with open(path, "w") as fh:
        fh.write(EXPONENT_MODEL)
    got, out, err = run(capsys, "integrate", path, "q", "--ic", "1", "0", "--span", "0", "1", *params)
    assert (got, out + err) == (code, expect)


@pytest.mark.parametrize("ic", [["1", "nan"], ["inf", "0"]], ids=["nan", "inf"])
def test_non_finite_initial_condition_is_blamed(capsys, tmp_path, ic):
    # the initial condition is at fault, not the right-hand side
    path = os.path.join(tmp_path, "exponent.model")
    with open(path, "w") as fh:
        fh.write(EXPONENT_MODEL)
    got, out, err = run(capsys, "integrate", path, "q", "--ic", *ic, "--span", "0", "1", "--param", "n=2")
    assert (got, out + err) == (2, "error: initial condition not finite\n")
    assert "right-hand side" not in err


INTEGRATE = ("integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1")
REDUCE = ("reduce", "builtin", "cc", "cc18", "--printed", "cc19")


@pytest.mark.parametrize("argv, item", [
    (INTEGRATE + ("--param", "Y0=abc", "--param", "Y1=0"), "--param Y0=abc"),
    (INTEGRATE + ("--param", "Q=1", "--param", "Y1=0"), "--param Q=1: 'Q' is not a declared parameter"),
    (INTEGRATE + ("--param", "Y0", "--param", "Y1=0"), "--param Y0: expected NAME=VALUE"),
    (REDUCE + ("--identify", "h0"), "--identify h0: expected NAME=VALUE"),
    (REDUCE + ("--identify", "zz=alpha"), "--identify zz=alpha: 'zz' is not a declared parameter"),
    (REDUCE + ("--identify", "h0=zz"), "--identify h0=zz: 'zz' is not a declared parameter"),
    (REDUCE[:4] + ("--identify", "zz"), "--identify needs --printed"),
    (INTEGRATE + ("--param", "Y0=1", "--param", "Y0=5"), "--param Y0=5: Y0 given twice"),
    (INTEGRATE + ("--param", "Y0=1", "--param", "Y1=0", "--param", "H1=5"), "the equation holds no parameter H1"),
    (REDUCE + ("--identify", "h0=alpha", "--identify", "h0=beta"), "--identify h0=beta: h0 given twice"),
], ids=["non-numeric value", "undeclared param", "param without =", "identify without =",
        "undeclared identify lhs", "undeclared identify rhs", "identify without printed",
        "param given twice", "parameter the equation does not hold", "identify given twice"])
def test_bad_assignment_items_are_usage_errors(capsys, argv, item):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: " + item)
    assert err.count("\n") == 1


def test_commutators_need_two_fields(capsys):
    code, out, err = run(capsys, "commutators", "builtin", "X1")
    assert (code, out, err) == (2, "", "error: commutators needs at least two fields\n")


def test_unbound_parameter_is_named_in_model_text(capsys):
    code, _, err = run(capsys, *INTEGRATE, "--param", "Y1=0")
    assert (code, err) == (2, "error: unbound parameter Y0\n")


LATIN1 = os.path.join(os.path.dirname(__file__), "models", "latin1.model")


# a byte that is not UTF-8 is reported at its line and column; columns count
# characters, and the fourth line of LATIN1 holds a two-byte character first
@pytest.mark.parametrize("argv, message", [
    (["determining", "{d}/absent.model", "cc"], "[Errno 2] No such file or directory: '{d}/absent.model'"),
    (["determining", "{d}", "cc"], "[Errno 21] Is a directory: '{d}'"),
    (["determining", "{d}/latin1.model", "cc"], "{d}/latin1.model: line 1, col 10: not UTF-8"),
    (["determining", LATIN1, "cc"], LATIN1 + ": line 4, col 8: not UTF-8"),
    (["fig1", "--out", "{d}/latin1.model", "--span", "0", "1"], "[Errno 17] File exists: '{d}/latin1.model'"),
    (["determining", "builtin", "cc", "--json", "{d}"], "[Errno 21] Is a directory: '{d}'"),
], ids=["missing model", "model is a directory", "model is not utf-8", "model is not utf-8 past line 1",
        "fig1 out is a file", "json is a directory"])
def test_a_file_error_is_one_error_line_and_exit_2(capsys, tmp_path, argv, message):
    d = str(tmp_path)
    with open(os.path.join(d, "latin1.model"), "wb") as fh:
        fh.write("param caf\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(d=d) for a in argv))
    assert (code, out, err) == (2, "", "error: %s\n" % message.format(d=d))


def test_missing_block_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check-symmetry", "builtin", "nosuch", "cc")
    assert (code, err) == (2, "error: no FieldBlock named 'nosuch'\n")


def test_key_error_inside_a_command_is_not_a_usage_error(monkeypatch):
    from camchoi import library

    def broken(field, pde):
        raise KeyError("internal")

    monkeypatch.setattr(library, "check_symmetry", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["check-symmetry", "builtin", "X2", "cc"])


RANK_DEFICIENT_MODEL = """param alpha

pde cc {
  vars = t, x, y
  dep = u
  eq D( D(u;t) + alpha*D(u;x) - u*D(u;x) + D(u;x,x) ; x ) + D(u;y,y) = 0
}

ansatz flat on cc {
  var s = x - y
  var r = 2*x - 2*y
  sub u = U(s,r)
}
"""


def test_reduce_rejects_a_rank_deficient_ansatz(capsys, tmp_path):
    path = os.path.join(tmp_path, "flat.model")
    with open(path, "w") as fh:
        fh.write(RANK_DEFICIENT_MODEL)
    code, _, err = run(capsys, "reduce", path, "cc", "flat")
    assert (code, err) == (2, "error: ansatz flat has a rank-deficient Jacobian\n")


# Z3, Z1, the eq33 equation and the cc24 solution live on (t, w; U); X1, X2, cc and
# cc18 on (t, x, y; u); the cc26 candidate on (w; Y) and the eq37 equation on (zeta; H).
@pytest.mark.parametrize("argv, message", [
    (("check-symmetry", "builtin", "Z3", "cc"), "field Z3 is on (t, w; U) but pde cc is on (t, x, y; u)"),
    (("check-symmetry", "builtin", "X2", "cc19"), "field X2 is on (t, x, y; u) but pde cc19 is on (t, w; U)"),
    (("commutators", "builtin", "X1", "Z1"), "field X1 is on (t, x, y; u) but field Z1 is on (t, w; U)"),
    (("reduce", "builtin", "eq33", "cc18"), "pde eq33 is on (t, w; U) but ansatz cc18 is on (t, x, y; u)"),
    (("reduce", "builtin", "cc", "cc18", "--printed", "cc25"),
     "reduction cc|cc18 is on (t, w; U) but equation cc25 is on (w; Y)"),
    (("solution-check", "builtin", "cc", "cc24"),
     "equation cc is on (t, x, y; u) but solution cc24 is on (t, w; U)"),
    (("first-integral", "builtin", "cc", "cc26"), "equation cc is on (t, x, y; u) but candidate cc26 is on (w; Y)"),
    (("first-integral", "builtin", "eq37", "cc26"), "equation eq37 is on (zeta; H) but candidate cc26 is on (w; Y)"),
], ids=["field off the pde", "field off the reduced pde", "bracket across spaces", "ansatz off the pde",
        "printed off the reduction", "solution off its equation", "candidate off the pde",
        "candidate off the reduced equation"])
def test_mixed_jet_spaces_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


UNKNOWN_IN_RULE = os.path.join(os.path.dirname(__file__), "models", "unknown_in_rule.model")


# An ansatz or closed form writes u through functions of the base variables
# alone; a rule, new variable, inverse hint or binding that holds u, a jet of u
# or a function of u is refused with its role and the atom named.
@pytest.mark.parametrize("argv, message", [
    (("reduce", "cc", "rule_u"), "dependent rule F(t,w) + u holds u"),
    (("reduce", "cc", "rule_jet"), "dependent rule F(t,w) + u[x] holds u[x]"),
    (("reduce", "cc", "rule_func"), "dependent rule G(u) + F(t,w) holds G(u)"),
    (("reduce", "cc", "var_u"), "new variable w = u - y + x holds u"),
    (("reduce", "cc", "var_jet"), "new variable w = u[x] - y + x holds u[x]"),
    (("reduce", "cc", "hint_jet"), "inverse hint x = u[y] + t^(-1)*w holds u[y]"),
    (("solution-check", "cc", "sol_jet"), "closed form t*u[x] holds u[x]"),
    (("solution-check", "cc", "bind_jet"), "binding lam = -u[t] + x holds u[t]"),
], ids=["rule holds u", "rule holds a jet", "rule holds a function of u", "new variable holds u",
        "new variable holds a jet", "inverse hint holds a jet", "closed form holds a jet", "binding holds a jet"])
def test_a_rule_that_holds_the_unknown_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv[0], UNKNOWN_IN_RULE, *argv[1:])
    assert (code, out, err) == (2, "", "error: %s\n" % message)


FUNCTION_OF_UNKNOWN = os.path.join(os.path.dirname(__file__), "models", "function_of_unknown.model")


# G(u) in the equation cannot take a substituted u (a Func takes variables), so
# reduce and solution-check refuse it where they printed G(u) with exit 0
@pytest.mark.parametrize("argv", [("reduce", "g", "travel"), ("solution-check", "g", "line")],
                         ids=["reduce", "solution-check"])
def test_an_equation_that_holds_a_function_of_the_unknown_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], FUNCTION_OF_UNKNOWN, *argv[1:])
    assert (code, out, err) == (2, "", "error: equation g holds G(u), a function of the unknown u\n")
