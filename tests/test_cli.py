import json
import os

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


def test_determining_command(capsys):
    code, out, _ = run(capsys, "determining", "builtin", "cc")
    assert code == 0
    assert "D(xi_t;u) = 0" in out


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


def test_paper_suite_passes_and_is_stable(capsys, tmp_path):
    p1 = os.path.join(tmp_path, "r1.json")
    p2 = os.path.join(tmp_path, "r2.json")
    code1, out1, _ = run(capsys, "paper-suite", "--json", p1)
    code2, out2, _ = run(capsys, "paper-suite", "--json", p2)
    assert code1 == 0 and code2 == 0
    b1 = open(p1, "rb").read()
    b2 = open(p2, "rb").read()
    assert b1 == b2
    data = json.loads(b1)
    assert data["schema"] == SCHEMA
    assert data["summary"]["fail"] == 0
    assert data["summary"]["mismatch_recorded"] > 0
    assert all(c["verdict"] in ("pass", "fail", "mismatch-recorded", "unsupported")
               for c in data["cases"])


def test_paper_suite_serial_matches_threaded(capsys, tmp_path):
    p1 = os.path.join(tmp_path, "themed.json")
    p2 = os.path.join(tmp_path, "serial.json")
    run(capsys, "paper-suite", "--json", p1)
    run(capsys, "paper-suite", "--serial", "--json", p2)
    assert open(p1).read() == open(p2).read()


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
