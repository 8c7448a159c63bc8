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

    def sorted_results(self) -> List[CaseResult]:
        return sorted(self.results, key=lambda r: (r.label, r.kind))

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
        cases = []
        ledger = []
        for r in self.sorted_results():
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
        lines = []
        width = max([len(r.label) for r in self.results] + [8])
        for r in self.sorted_results():
            tag = {"pass": "PASS", "fail": "FAIL",
                   "mismatch-recorded": "NOTE", "unsupported": "SKIP"}[r.verdict]
            lines.append("%s  %-*s  %-14s  %s" % (tag, width, r.label, r.kind, r.verdict))
        s = self.summary()
        lines.append(
            "%d cases: %d pass, %d fail, %d recorded discrepancies, %d unsupported"
            % (s["total"], s["pass"], s["fail"], s["mismatch_recorded"], s["unsupported"])
        )
        entries = [(r.label, e) for r in self.results for e in r.ledger]
        if entries:
            lines.append("")
            lines.append("discrepancy ledger:")
            for label, e in sorted(entries, key=lambda le: (le[0], le[1].subject)):
                lines.append("  [%s] %s" % (label, e.subject))
                if e.printed:
                    lines.append("      printed:  %s" % e.printed)
                if e.computed:
                    lines.append("      computed: %s" % e.computed)
                if e.residual:
                    lines.append("      residual: %s" % e.residual)
                if e.note:
                    lines.append("      note: %s" % e.note)
        return "\n".join(lines) + "\n"
