"""The closure tables of every 2-4-field subset of the built-in fields.

Run from the repository root:

    PYTHONPATH=src python tools/closure_sweep.py

The built-in fields are grouped by jet space; each group's subsets are
taken in block order (7900 in all).  For each subset the sweep writes one
line: its closed flag, each pair's decomposability with its coefficient
strings or, when the commutator does not decompose, the commutator itself,
and the witnesses; or, when ``closure_table`` refuses the subset, the
error's type and message.  It prints the subset count and the md5 of those
lines, and exits 1 when the digest differs from ``PINNED``, the digest at
commit c1c9469: a kernel change that keeps it leaves every closure verdict,
coefficient and bracket as it was.
"""

import hashlib
import sys
from itertools import combinations

from camchoi.expr import ExprError
from camchoi.library import load_builtin
from camchoi.modelfile import FieldBlock
from camchoi.symmetry import closure_table

PINNED = "f63f549f63aea871aac1291f55946082"


def subset_line(blocks) -> str:
    head = ",".join(b.name for b in blocks)
    try:
        report = closure_table([b.vf for b in blocks])
    except ExprError as exc:
        return "%s error %s: %s" % (head, type(exc).__name__, exc)
    pairs = []
    for (i, j), (bracket, dec) in sorted(report.table.items()):
        body = ",".join(dec.coefficient_strings()) if dec.ok else str(bracket)
        pairs.append("%d.%d %s %s" % (i, j, "ok" if dec.ok else "no", body))
    witnesses = ",".join("%d.%d" % (i, j) for i, j, _ in report.witnesses)
    return "%s closed=%s %s witnesses %s" % (head, report.closed, "; ".join(pairs), witnesses)


def main() -> int:
    groups = {}
    for b in load_builtin().blocks:
        if isinstance(b, FieldBlock):
            groups.setdefault(b.vf.ctx, []).append(b)
    digest = hashlib.md5()
    count = 0
    for blocks in groups.values():
        for size in (2, 3, 4):
            for subset in combinations(blocks, size):
                digest.update(subset_line(subset).encode() + b"\n")
                count += 1
    print(count, digest.hexdigest())
    return 0 if digest.hexdigest() == PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
