"""Child processes of the benchmark; run.py starts them, one at a time.

    worker.py probe                 import camchoi, load the built-in library, exit
    worker.py reference             a fixed computation without camchoi, for the machine's speed
    worker.py loop WORKLOAD ...     closed loop of seeded passes after set-up
    worker.py suite JSON SUMMARY    one traced ``paper-suite`` run

``probe`` and ``loop`` print ``ready`` once ``import camchoi`` and
``load_builtin`` are done, so the parent can time set-up from process start.
``loop`` prints ``pass`` after each pass and waits for a line on standard
input, so that the parent can run a set-up probe between two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT = os.path.join(ROOT, ".perfbench-out")


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def probe(_args) -> int:
    import camchoi

    camchoi.load_builtin()
    _ready()
    return 0


def reference(_args) -> int:
    """A fixed computation that uses no camchoi code: Fraction arithmetic on
    tuple-keyed dicts, as the kernel does, and a sort of fresh objects."""
    from fractions import Fraction

    acc = {}
    for i in range(4000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 13 + 1)
    rows = sorted(((i * 7919) % 100003, str(i)) for i in range(30000))
    return 0 if rows and len(acc) == 61 * 7 else 1


def _between_passes() -> None:
    """Tell the parent a pass ended and wait until it has run its set-up probe."""
    sys.stdout.write("pass\n")
    sys.stdout.flush()
    sys.stdin.readline()


def _setup(tracer):
    """Import and parse, traced when a tracer is given; return (doc, spans)."""
    import camchoi

    if tracer is None:
        return camchoi.load_builtin(), []
    tracer.install()
    doc = camchoi.load_builtin()
    tracer.uninstall()
    return doc, tracer.take()


def _write_spans(path: str, passes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tid\tname\tstart\tend\tparent\tthread\n")
        for k, spans in enumerate(passes):
            for sid, name, start, end, parent, tid, _info in spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (k, sid, name, start, end, parent, tid))


def _run_pass(tasks, tracer) -> tuple:
    """Run one pass, traced when a tracer is given; return (wall time, outputs)."""
    outs = []
    if tracer:
        tracer.install()
    start = time.perf_counter()
    for task in tasks:
        try:
            outs.append((True, task.run()))
        except Exception as e:  # a raising task is a failed task
            outs.append((False, "%s: %s" % (type(e).__name__, e)))
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    return wall, outs


def loop(args) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    doc, setup_spans = _setup(tracer)
    _ready()
    from workloads import Numeric, Symbolic

    rng = random.Random(args.seed)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="numeric-", dir=OUT)
    gen = (Symbolic(doc, rng, args.wrong_oracle) if args.workload == "symbolic"
           else Numeric(doc, rng, scratch, args.wrong_oracle))
    walls, traced_walls, errors = [], [], []
    attempted = failed = 0
    traced, rhs_evals = [], 0
    deadline = time.perf_counter() + args.seconds
    try:
        while len(walls) < args.min_passes or time.perf_counter() < deadline:
            state = rng.getstate()
            # A traced run draws each pass twice from the same state and runs it
            # untraced and traced, in alternating order, so that the overhead is
            # taken on the same inputs and at the same time.
            modes = ((False,) if tracer is None
                     else (False, True) if len(walls) % 2 == 0 else (True, False))
            for traced_pass in modes:
                rng.setstate(state)
                tasks = gen.draw()
                wall, outs = _run_pass(tasks, tracer if traced_pass else None)
                if traced_pass:
                    traced_walls.append(wall)
                    spans = tracer.take()
                    if len(traced) < args.min_passes:
                        traced.append(spans)
                        rhs_evals = tracer.rhs_evals()
                else:
                    walls.append(wall)
                for task, (ran, out) in zip(tasks, outs):
                    attempted += 1
                    try:
                        good = ran and bool(task.check(out))
                    except Exception as e:
                        good, out = False, "%s in check: %s" % (type(e).__name__, e)
                    if not good:
                        failed += 1
                        errors.append("pass %d %s: %s" % (len(walls), task.kind, str(out)[:200]))
            _between_passes()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {"walls": walls, "traced_walls": traced_walls, "attempted": attempted, "failed": failed,
              "errors": errors[:5]}
    if tracer:
        from tracer import layer_metrics

        layers = layer_metrics(traced, rhs_evals)
        setup = layer_metrics([setup_spans], 0)
        for key in ("modelfile.parse_s", "modelfile.print_s", "modelfile.self_s"):
            layers[key] = setup.get(key, 0.0)
        layers["trace.spans"] = sum(len(s) for s in traced) / len(traced)
        result["layers"] = layers
        _write_spans(os.path.join(OUT, "spans-%s.tsv" % args.workload),
                     [setup_spans] + traced)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def suite(args) -> int:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    import camchoi.cli

    tracer.install()
    code = camchoi.cli.main(["paper-suite", "--json", args.json])
    tracer.uninstall()
    done = time.perf_counter()
    spans = tracer.take()
    layers = layer_metrics([spans], tracer.rhs_evals())
    layers["trace.spans"] = float(len(spans))
    _write_spans(os.path.join(OUT, "spans-paper-suite.tsv"), [spans])
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "layers": layers, "post_s": time.perf_counter() - done}, fh)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("probe").set_defaults(fn=probe)
    sub.add_parser("reference").set_defaults(fn=reference)
    lp = sub.add_parser("loop")
    lp.set_defaults(fn=loop)
    lp.add_argument("workload", choices=("symbolic", "numeric"))
    lp.add_argument("--seed", type=int, required=True)
    lp.add_argument("--seconds", type=float, required=True)
    lp.add_argument("--min-passes", type=int, default=1)
    lp.add_argument("--trace", type=int, default=0)
    lp.add_argument("--wrong-oracle", action="store_true")
    sp = sub.add_parser("suite")
    sp.set_defaults(fn=suite)
    sp.add_argument("json")
    sp.add_argument("summary")
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
