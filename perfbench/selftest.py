"""Self-test of the oracles: with a deliberately wrong expected value every
workload must report failures instead of a clean run.

    python3 perfbench/selftest.py

Exits 0 when each workload reports ``correct: false`` and a non-zero
``failed`` count under ``--wrong-oracle``, and a clean result without it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paper-suite", "symbolic", "numeric")


def result(workload: str, wrong: bool) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    if wrong:
        cmd.append("--wrong-oracle")
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        clean, broken = result(workload, False), result(workload, True)
        good = (clean["correct"] and clean["failed"] == 0
                and not broken["correct"] and broken["failed"] > 0)
        ok = ok and good
        print("%-12s clean %d/%d failed, wrong oracle %d/%d failed: %s" % (
            workload, clean["failed"], clean["attempted"], broken["failed"], broken["attempted"],
            "ok" if good else "NOT DETECTED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
