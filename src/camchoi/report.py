"""Consolidated machine- and human-readable reports for verification runs."""

from __future__ import annotations

import json
from typing import Dict, List

from .library import CaseResult

SCHEMA = "camchoi-report/1"

VERDICTS = ("pass", "fail", "mismatch-recorded", "unsupported")


class Report:
    def __init__(self, command: str):
        self.command = command
        self.results: List[CaseResult] = []

    def add(self, result: CaseResult) -> None:
        if result.verdict not in VERDICTS:
            raise ValueError("unknown verdict %r" % result.verdict)
        self.results.append(result)

    def summary(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "mismatch_recorded": 0, "unsupported": 0}
        for r in self.results:
            out[r.verdict.replace("-", "_")] += 1
        out["total"] = len(self.results)
        return out

    @property
    def failed(self) -> bool:
        return any(r.verdict == "fail" for r in self.results)

    def to_dict(self) -> dict:
        """The cases sorted by label and kind, the ledger by label and subject."""
        cases = []
        ledger = []
        for r in sorted(self.results, key=lambda r: (r.label, r.kind)):
            cases.append(
                {
                    "label": r.label,
                    "kind": r.kind,
                    "verdict": r.verdict,
                    "detail": r.detail,
                }
            )
            for e in r.ledger:
                ledger.append({"label": r.label, "subject": e.subject, "printed": e.printed,
                               "computed": e.computed, "residual": e.residual, "note": e.note})
        ledger.sort(key=lambda d: (d["label"], d["subject"]))
        return {
            "schema": SCHEMA,
            "command": self.command,
            "cases": cases,
            "ledger": ledger,
            "summary": self.summary(),
        }

    def machine_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def human_text(self) -> str:
        """The rows, summary and ledger of ``to_dict``, as text."""
        d = self.to_dict()
        lines = []
        width = max([len(c["label"]) for c in d["cases"]] + [8])
        for c in d["cases"]:
            tag = {"pass": "PASS", "fail": "FAIL",
                   "mismatch-recorded": "NOTE", "unsupported": "SKIP"}[c["verdict"]]
            lines.append("%s  %-*s  %-14s  %s" % (tag, width, c["label"], c["kind"], c["verdict"]))
        s = d["summary"]
        lines.append(
            "%d cases: %d pass, %d fail, %d recorded discrepancies, %d unsupported"
            % (s["total"], s["pass"], s["fail"], s["mismatch_recorded"], s["unsupported"])
        )
        if d["ledger"]:
            lines.append("")
            lines.append("discrepancy ledger:")
            for e in d["ledger"]:
                lines.append("  [%s] %s" % (e["label"], e["subject"]))
                for field, head in (("printed", "printed:  "), ("computed", "computed: "),
                                    ("residual", "residual: "), ("note", "note: ")):
                    if e[field]:
                        lines.append("      %s%s" % (head, e[field]))
        return "\n".join(lines) + "\n"
