"""camchoi benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Workloads (see perfbench/README.md):

    paper-suite  a fresh ``camchoi paper-suite --json`` process per pass
    symbolic     seeded determining systems, residuals, brackets, reductions
    numeric      seeded compile_rhs -> integrate -> write_csv/write_svg jobs

With ``--trace 0`` the run reports the end-to-end metrics: the median pass
time over the median time of a fixed reference computation taken between
passes, the median set-up time of fresh processes, and the peak resident
memory of the process that ran the workload; it prints the pass time in
seconds too.  With ``--trace 1`` it runs
each pass twice on the same inputs, once untraced and once with spans around
the public camchoi functions, and reports the per-layer table plus the
tracing overhead.
Every output is checked against an oracle; a failed check counts in
``failed`` and never aborts the run.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

WORKLOADS = ("paper-suite", "symbolic", "numeric")
# The development seed is the one to tune against; claims are re-checked on
# the held-out seed, which no change should be developed with.
SEEDS = {"dev": 1, "heldout": 7919}

# set-up probes and reference runs go between passes, at most once per
# interval, so that they sample the whole run; a short run gets the minimum
SETUP_EVERY_S = 1.0
MIN_SETUP_PROBES = 5
TRACE_PASSES = 3  # per-layer counts cover exactly the first passes, so they repeat

# paper-suite oracle: the pinned report bytes and its verdict counts
SUITE_MD5 = "e92849c3257f7710794fe350a18fc9d5"
SUITE_SUMMARY = {"pass": 33, "mismatch_recorded": 16, "unsupported": 1, "fail": 0, "total": 50}

END_TO_END = (("wall_per_ref", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Child:
    """One finished child process: wall time, ready time, output and rusage.

    A child that prints ``pass`` waits for a line on its standard input;
    ``between`` runs first, while the child is paused.
    """

    def __init__(self, cmd, capture: bool, between: Optional[Callable[[], None]] = None):
        start = time.perf_counter()
        self.ready_s = None
        self.lines = []
        pipe = subprocess.PIPE if capture else subprocess.DEVNULL
        with open(os.path.join(OUT, "child.stderr"), "ab") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=pipe, stdout=pipe,
                                    stderr=err, text=True)
            if capture:
                for line in proc.stdout:
                    if line == "ready\n" and self.ready_s is None and not self.lines:
                        self.ready_s = time.perf_counter() - start
                    elif line == "pass\n":
                        if between is not None:
                            between()
                        try:
                            proc.stdin.write("go\n")
                            proc.stdin.flush()
                        except BrokenPipeError:
                            pass
                    else:
                        self.lines.append(line.rstrip("\n"))
                proc.stdout.close()
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
            # wait4 gives this child's own peak memory
            _pid, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_sha() -> str:
    # only this checkout's own repository: git would otherwise find an enclosing one
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _tail(walls):
    """Highest nearest-rank percentile with at least ten samples above it."""
    if len(walls) < 11:
        return None, None
    ordered = sorted(walls)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# -- the three workloads -------------------------------------------------------


def _suite_check(path: str, expected_md5: str):
    """(ok, md5) of one paper-suite report against the pinned oracle."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False, None
    md5 = hashlib.md5(data).hexdigest()
    try:
        summary = json.loads(data.decode("utf-8"))["summary"]
    except (ValueError, KeyError, TypeError):
        return False, md5
    return md5 == expected_md5 and all(summary.get(k) == v for k, v in SUITE_SUMMARY.items()), md5


class Stats:
    def __init__(self):
        self.walls = []
        self.traced_walls = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_mb = 0.0
        self.md5 = None
        self.layers = []

    def merge(self, res: dict) -> None:
        self.walls += res["walls"]
        self.traced_walls += res["traced_walls"]
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]


def suite_passes(seconds, min_passes, traced, wrong, between) -> Stats:
    st = Stats()
    expected = "0" * 32 if wrong else SUITE_MD5
    deadline = time.perf_counter() + seconds
    while len(st.walls) < min_passes or time.perf_counter() < deadline:
        # a traced run pairs an untraced and a traced process, in alternating order
        modes = ((False,) if not traced
                 else (False, True) if len(st.walls) % 2 == 0 else (True, False))
        for traced_pass in modes:
            _suite_pass(st, traced_pass, expected)
        if between is not None:
            between()
    return st


def _suite_pass(st: Stats, traced: bool, expected: str) -> None:
    report = os.path.join(OUT, "suite-report.json")
    summary = os.path.join(OUT, "suite-trace.json")
    for path in (report, summary):
        if os.path.exists(path):
            os.remove(path)
    if traced:
        child = Child([sys.executable, WORKER, "suite", report, summary], capture=False)
    else:
        child = Child([sys.executable, "-m", "camchoi", "paper-suite", "--json", report],
                      capture=False)
    wall = child.wall_s
    if traced and os.path.exists(summary):
        with open(summary, encoding="utf-8") as fh:
            trace = json.load(fh)
        wall -= trace["post_s"]
        st.layers.append(trace["layers"])
    ok, st.md5 = _suite_check(report, expected)
    ok = ok and child.code == 0
    (st.traced_walls if traced else st.walls).append(wall)
    st.attempted += 1
    if not ok:
        st.failed += 1
        st.errors.append("pass %d%s: exit %d, md5 %s" % (len(st.walls), " traced" if traced else "",
                                                         child.code, st.md5))
    st.rss_mb = max(st.rss_mb, child.rss_mb)


def loop_passes(workload, seed, seconds, min_passes, traced, wrong, between) -> Stats:
    cmd = [sys.executable, WORKER, "loop", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--trace", "1" if traced else "0"]
    if wrong:
        cmd.append("--wrong-oracle")
    child = Child(cmd, capture=True, between=between)
    st = Stats()
    st.rss_mb = child.rss_mb
    try:
        res = json.loads(child.lines[-1]) if child.code == 0 else None
    except (IndexError, ValueError):
        res = None
    if res is None:
        # a crashed worker is one attempted, failed task; the run still reports
        st.walls.append(child.wall_s)
        st.attempted = st.failed = 1
        st.errors.append("%s worker exited %d without a result: see %s"
                         % (workload, child.code, os.path.join(OUT, "child.stderr")))
        return st
    st.merge(res)
    if traced:
        st.layers.append(res["layers"])
    return st


def run_workload(workload, seed, seconds, min_passes, traced, wrong, between=None) -> Stats:
    if workload == "paper-suite":
        return suite_passes(seconds, min_passes, traced, wrong, between)
    return loop_passes(workload, seed, seconds, min_passes, traced, wrong, between)


class Probes:
    """Set-up probes and reference timings, taken between passes.

    A set-up probe is a fresh process timed from start until camchoi is
    imported and loaded.  The reference is a fresh process that runs a fixed
    computation without camchoi, timed from start to exit: its time follows
    the speed of the machine at that moment, which on a shared host moves by
    tens of percent over minutes.  Both run while the workload's process waits.
    """

    def __init__(self):
        self.setup = []
        self.ref = []
        self.last = 0.0
        self._probe()  # warm the bytecode cache
        self.setup.clear()
        self.ref.clear()

    def _probe(self) -> None:
        child = Child([sys.executable, WORKER, "probe"], capture=True)
        if child.code != 0 or child.ready_s is None:
            raise RuntimeError("set-up probe failed: see %s" % os.path.join(OUT, "child.stderr"))
        self.setup.append(child.ready_s)
        ref = Child([sys.executable, WORKER, "reference"], capture=False)
        if ref.code != 0:
            raise RuntimeError("reference run failed: see %s" % os.path.join(OUT, "child.stderr"))
        self.ref.append(ref.wall_s)
        self.last = time.perf_counter()

    def between_passes(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self._probe()

    def finish(self) -> None:
        while len(self.setup) < MIN_SETUP_PROBES:
            self._probe()


def _mean_layers(layer_sets) -> dict:
    """Average the per-pass tables of several traced processes."""
    keys = sorted({k for ls in layer_sets for k in ls})
    out = {}
    for k in keys:
        vals = [ls.get(k, 0.0) for ls in layer_sets]
        out[k] = max(vals) if k == "expr.max_terms" else sum(vals) / len(vals)
    return out


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="camchoi benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True,
                   help="integer, or 'dev' (%(dev)d) / 'heldout' (%(heldout)d)" % SEEDS)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wrong-oracle", action="store_true",
                   help="self-test: expect a deliberately wrong value; the run must report failures")
    args = p.parse_args(argv)
    args.seed = SEEDS[args.seed] if args.seed in SEEDS else int(args.seed)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "camchoi", "__init__.py")):
        sys.stderr.write("error: no camchoi sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    os.makedirs(OUT, exist_ok=True)
    from tracer import PER_LAYER

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    record = {"env": env}
    if args.trace == 0:
        probes = Probes()
        st = run_workload(args.workload, args.seed, args.seconds, 1, False, args.wrong_oracle,
                          probes.between_passes)
        probes.finish()
        tail, tail_pct = _tail(st.walls)
        wall, ref = statistics.median(st.walls), statistics.median(probes.ref)
        metrics = {"wall_per_ref": wall / ref, "setup_s": statistics.median(probes.setup),
                   "peak_rss_mb": st.rss_mb}
        env.update(passes=len(st.walls), setup_probes=len(probes.setup), wall_s=wall, ref_s=ref)
        record.update(walls=st.walls, setup=probes.setup, ref=probes.ref, wall_tail_s=tail,
                      wall_tail_percentile=tail_pct)
        units = dict(END_TO_END)
    else:
        st = run_workload(args.workload, args.seed, args.seconds, TRACE_PASSES, True, args.wrong_oracle)
        layers = _mean_layers(st.layers[:TRACE_PASSES])
        # pass k untraced and pass k traced ran the same inputs back to back
        pairs = list(zip(st.walls, st.traced_walls))
        if pairs:
            layers["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
            layers["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs)
        metrics = {name: float(layers.get(name, 0.0)) for name, _u, _b in PER_LAYER}
        env.update(passes=len(st.walls), traced_passes=len(st.traced_walls), layer_passes=TRACE_PASSES)
        record.update(walls=st.walls, traced_walls=st.traced_walls)
        units = {name: unit for name, unit, _b in PER_LAYER}
    env["report_md5"] = st.md5
    env["attempted"], env["failed"] = st.attempted, st.failed
    env["fail_ratio"] = st.failed / st.attempted if st.attempted else 1.0
    record.update(metrics=metrics, errors=st.errors)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s, seed %d, %s" % (args.workload, args.seed, "traced" if args.trace else "untraced"))
    for name, value in metrics.items():
        print("  %-36s %14.6f %s" % (name, value, units[name]))
    if args.trace == 0:
        print("  wall_s %.6f s (median pass), ref_s %.6f s (median reference)" % (wall, ref))
        if record["wall_tail_s"] is not None:
            print("  wall_s p%.0f %.6f s over %d passes" % (record["wall_tail_percentile"],
                                                             record["wall_tail_s"], len(st.walls)))
        else:
            print("  wall_s tail: fewer than 11 passes (%d)" % len(st.walls))
    print("  fail_ratio %.6f (%d of %d tasks)" % (env["fail_ratio"], st.failed, st.attempted))
    for err in st.errors[:5]:
        print("  failed: %s" % err)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": st.failed == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
