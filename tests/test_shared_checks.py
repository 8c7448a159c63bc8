"""The check subcommands and the paper suite share one observation per check
kind, and every report-building subcommand honours --json."""

import argparse
import contextlib
import io
import json
import os

import pytest

from camchoi.cli import build_parser, main


def report_of(tmp_path, *argv):
    """(exit code, parsed --json report) of one command, its stdout discarded."""
    path = os.path.join(tmp_path, "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv) + ["--json", path])
    with open(path, encoding="utf-8") as fh:
        return code, json.load(fh)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    code, rep = report_of(tmp_path_factory.mktemp("suite"), "paper-suite")
    assert code == 0
    return rep


def entry(rep, label):
    """The case and the ledger entries of label in a report."""
    [case] = [c for c in rep["cases"] if c["label"] == label]
    return case, [e for e in rep["ledger"] if e["label"] == label]


# one example per subcommand that builds a report
EXAMPLES = {
    "check-symmetry": ("builtin", "X2", "cc"),
    "commutators": ("builtin", "X1p", "X2p"),
    "closure": ("builtin", "X1p", "X2p", "X3p"),
    "determining": ("builtin", "cc"),
    "reduce": ("builtin", "cc", "cc18", "--printed", "cc19", "--identify", "h0=alpha"),
    "first-integral": ("builtin", "cc25", "cc26"),
    "solution-check": ("builtin", "cc19", "cc24"),
    "paper-suite": (),
}


def test_json_is_offered_exactly_by_the_report_subcommands():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    takes_json = {name for name, sp in sub.choices.items() if "--json" in sp._option_string_actions}
    assert takes_json == set(EXAMPLES)


@pytest.mark.parametrize("command", sorted(EXAMPLES))
def test_report_subcommands_write_their_json(tmp_path, command):
    code, rep = report_of(tmp_path, command, *EXAMPLES[command])
    assert code == 0
    assert rep["command"] == command
    assert rep["cases"]


@pytest.mark.parametrize("argv", [
    ("fig1", "--out", "fig"),
    ("integrate", "builtin", "cc33ode", "--ic", "0.5", "--span", "0", "1", "--param", "Y0=1", "--param", "Y1=0"),
], ids=["fig1", "integrate"])
def test_json_is_a_usage_error_where_no_report_is_built(capsys, tmp_path, argv):
    path = os.path.join(tmp_path, "x.json")
    assert main(list(argv) + ["--json", path]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err
    assert not os.path.exists(path)


MISMATCHES = [
    ("reduce", "builtin", "cc19", "z1red", "--printed", "cc25"),
    ("first-integral", "builtin", "cc25", "cc26"),
    ("solution-check", "builtin", "cc26z", "cc27"),
    ("check-symmetry", "builtin", "du-field", "cc"),
]


@pytest.mark.parametrize("argv", [("paper-suite",)] + MISMATCHES, ids=lambda a: " ".join(a))
def test_every_recorded_mismatch_has_a_ledger_entry(tmp_path, argv):
    _code, rep = report_of(tmp_path, *argv)
    for case in rep["cases"]:
        if case["verdict"] == "mismatch-recorded":
            assert entry(rep, case["label"])[1], case["label"]


# suite case -> the subcommand that observes the same check
SHARED = {
    "cc.21": ("check-symmetry", "builtin", "Z3", "cc19"),
    "cc.23": ("check-symmetry", "builtin", "Z4", "cc19"),
    "cc.19": ("reduce", "builtin", "cc", "cc18", "--printed", "cc19", "--identify", "h0=alpha"),
    "eq.33": ("reduce", "builtin", "gcc", "gccw", "--printed", "eq33", "--identify", "h0=alpha"),
    "cc.25": ("reduce", "builtin", "cc19", "z1red", "--printed", "cc25"),
    "cc.29": ("reduce", "builtin", "cc19", "z2red", "--printed", "cc29"),
    "eq.34": ("reduce", "builtin", "eq33", "eq34red", "--printed", "eq34"),
    "cc.26": ("first-integral", "builtin", "cc25", "cc26"),
    "cc.31": ("first-integral", "builtin", "cc30", "cc31"),
    "eq.35": ("first-integral", "builtin", "eq34", "eq35"),
    "cc.30": ("first-integral", "builtin", "cc29", "cc30"),
    "cc.24": ("solution-check", "builtin", "cc19", "cc24"),
}
LEDGER_FIELDS = ("subject", "printed", "computed", "residual", "note")


@pytest.mark.parametrize("label", sorted(SHARED))
def test_subcommands_report_what_the_suite_observes(tmp_path, suite, label):
    _code, rep = report_of(tmp_path, *SHARED[label])
    [case] = rep["cases"]
    ledger = rep["ledger"]
    suite_case, suite_ledger = entry(suite, label)
    # the hand-derived oracle is an expectation of the suite, not an observation
    expected = {k: v for k, v in suite_case["detail"].items() if k != "matches hand-derived oracle"}
    assert case["detail"] == expected
    assert case["verdict"] == suite_case["verdict"]
    assert [{k: e[k] for k in LEDGER_FIELDS} for e in ledger] == \
        [{k: e[k] for k in LEDGER_FIELDS} for e in suite_ledger]
