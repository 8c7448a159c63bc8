"""Measure a baseline: repeated untraced runs per workload, one seed each,
plus a traced run on the development and the held-out seed.

    python3 perfbench/baseline.py --runs 10 --seconds 30

It measures every workload and writes ``perfbench/BASELINE.json``.

For every end-to-end metric, and for the pass time and reference time that
``wall_per_ref`` is made of, it records each run's value, the median and the
spread (interquartile range over median, as ``statistics.quantiles`` gives
it).  Untraced runs use the development seed and the seeds after it; the
held-out seed is used only for a traced run and for checking claims later.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, SEEDS, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    res = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    if trace == 0:
        # the two times wall_per_ref is made of: recorded, not gated
        metrics.update(wall_s=env["wall_s"], ref_s=env["ref_s"])
    return {"env": env, "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    seeds = list(range(SEEDS["dev"], SEEDS["dev"] + args.runs))
    result = {"seconds": args.seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, runs[-1]["metrics"], flush=True)
        summary = {}
        for name, unit in END_TO_END + (("wall_s", "s"), ("ref_s", "s")):
            vals = [r["metrics"][name] for r in runs]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"unit": unit, "median": med, "spread": (q[2] - q[0]) / med, "values": vals}
        traced = {name: run_once(workload, seed, args.seconds, 1)
                  for name, seed in (("dev", SEEDS["dev"]), ("heldout", SEEDS["heldout"]))}
        result["workloads"][workload] = {
            "end_to_end": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "env": runs[0]["env"],
            "per_layer": {name: t["metrics"] for name, t in traced.items()},
        }
        print(workload, json.dumps(summary), flush=True)
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
