"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a result file written by run.py or a directory
of them (perfbench/out/results/ of two commits).  Only untraced runs
count.  For each workload and end-to-end metric of BENCHMARK.json it
prints both medians, the relative change, the base's run-to-run spread
(interquartile range over median) and a verdict:

* unresolved -- the spread of either side is wider than the metric's
  bound, unless every change run is better than every base run;
* worse      -- the change's median is worse by more than the bound;
* better     -- the change's median is better by more than the bound
  and than the base's spread;
* same       -- otherwise.

With fewer than four runs on a side the spread is unknown and the
verdict rests on the bound alone (marked '*').  Exits 1 if any verdict
is 'worse'.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    worse_by = sign * (c_med - b_med) / abs(b_med)
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    known = len(spreads) == 2
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if known and max(spreads) > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif -worse_by > max([bound] + spreads):
        word = "better"
    else:
        word = "same"
    return word + ("" if known else "*"), b_med, c_med, worse_by, spread(base)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    base, change = load(argv[0]), load(argv[1])
    any_worse = False
    print(f"{'workload':16s} {'metric':14s} {'base':>11s} {'change':>11s} {'delta':>8s} "
          f"{'spread':>7s} {'bound':>6s}  verdict  (runs)")
    for workload in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(workload, []), change.get(workload, [])
        if not b_runs or not c_runs:
            print(f"{workload:16s} only on one side")
            continue
        for m in metrics:
            b = [r["metrics_table"][m["name"]][0] for r in b_runs]
            c = [r["metrics_table"][m["name"]][0] for r in c_runs]
            word, b_med, c_med, worse_by, b_spread = verdict(b, c, m["better"], m["bound"])
            any_worse |= word.startswith("worse")
            s = "n/a" if b_spread is None else f"{100 * b_spread:.1f}%"
            print(f"{workload:16s} {m['name']:14s} {b_med:11.5g} {c_med:11.5g} "
                  f"{-100 * worse_by:+7.1f}% {s:>7s} {100 * m['bound']:5.0f}%  {word:9s}"
                  f"({len(b)}/{len(c)})")
    print("delta: change against base, positive = better; '*': spread unknown (< 4 runs)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
