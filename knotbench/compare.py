"""Compare benchmark records of two commits.

    python3 knotbench/compare.py BEFORE AFTER

BEFORE and AFTER are record files written by run.py (.knotbench/*.json)
or directories holding them.  For every workload and metric the command
prints each side's median, its spread (quartile distance over median) and
the change of the medians.  It refuses, with exit status 2, to compare
records made with different kernel backends, Python versions, run lengths
or trace modes: their figures measure different programs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MUST_MATCH = ("kernel_backend", "python")


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare: no records in {path}")
    return [json.loads(f.read_text()) for f in files]


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = [load(arg) for arg in sys.argv[1:]]
    records = sides[0] + sides[1]
    for key in MUST_MATCH:
        seen = {r["environment"][key] for r in records}
        if len(seen) > 1:
            print(f"compare: refusing, records differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    for key in ("seconds", "trace"):
        seen = {r[key] for r in records}
        if len(seen) > 1:
            print(f"compare: refusing, records differ in {key}: {sorted(seen)}", file=sys.stderr)
            return 2
    grouped = [defaultdict(lambda: defaultdict(list)) for _ in sides]
    for side, recs in zip(grouped, sides):
        for r in recs:
            for name, value in r["metrics"].items():
                side[r["workload"]][name].append(value)
    for workload in sorted(set(grouped[0]) & set(grouped[1])):
        print(workload)
        for name in grouped[0][workload]:
            old, new = grouped[0][workload][name], grouped[1][workload].get(name)
            if not new:
                continue
            (m0, s0), (m1, s1) = summary(old), summary(new)
            change = f"{(m1 / m0 - 1) * 100:+.1f}%" if m0 else "n/a"
            print(
                f"  {name:<42} {m0:12.5g} (spread {s0:.3f}, n={len(old)})"
                f"  ->  {m1:12.5g} (spread {s1:.3f}, n={len(new)})  {change}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
