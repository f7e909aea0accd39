#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or summarizes one.

Each set is a file of run.py result lines (perfbench/results.jsonl holds
every run; select a set with grep, e.g. by git_sha or source_digest).

    python3 perfbench/compare.py BASE.jsonl             # spread of one set
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

One row per workload and metric: each set's median and quartiles, the
metric's bound from BENCHMARK.json, and the change's wins over alternating
pairs (run i of BASE against run i of CHANGE, ties counting for neither).
The verdict is "unresolved" when the base spread (quartile distance over
the median) is wider than the bound, "worse" when the change's median is
worse by more than the bound, "better" when the change wins at least nine
tenths of the pairs and its median differs by more than the base spread,
and "same" otherwise. Per-layer metrics (traced runs) have no bound and
get no verdict.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    runs = defaultdict(list)  # (workload, trace) -> [metrics dict]
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec():
    bench = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = (m["better"], m.get("bound"))
    for m in bench["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def fmt(v):
    return f"{v:.4g}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = spec()
    base = load(argv[1])
    change = load(argv[2]) if len(argv) == 3 else None
    header = ["workload", "trace", "metric", "base median [q1, q3]", "spread",
              "bound"]
    if change is not None:
        header += ["change median [q1, q3]", "delta", "wins", "verdict"]
    rows = [header]
    exit_code = 0
    for key in sorted(base):
        for name, (better, bound) in metrics.items():
            a = [r["metrics"][name]["value"] for r in base[key]
                 if name in r["metrics"]]
            if not a:
                continue
            q1, med, q3 = quartiles(a)
            spread = (q3 - q1) / med if med else 0.0
            row = [key[0], str(key[1]), name,
                   f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] n={len(a)}",
                   f"{spread:.1%}", "-" if bound is None else f"{bound:.0%}"]
            if change is None and bound is not None and spread > bound and \
                    name != "setup_s":
                row[-1] += " UNSTEADY"
                exit_code = 1
            if change is not None:
                b = [r["metrics"][name]["value"]
                     for r in change.get(key, []) if name in r["metrics"]]
                if not b:
                    continue
                c1, cmed, c3 = quartiles(b)
                sign = 1 if better == "higher" else -1
                delta = (cmed - med) / med if med else 0.0
                pairs = list(zip(a, b))
                wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
                verdict = "-"
                if bound is not None:
                    if spread > bound:
                        verdict = "unresolved"
                    elif -sign * delta > bound:
                        verdict = "worse"
                        exit_code = 1
                    elif wins * 10 >= 9 * len(pairs) and \
                            abs(delta) > spread:
                        verdict = "better"
                    else:
                        verdict = "same"
                row += [f"{fmt(cmed)} [{fmt(c1)}, {fmt(c3)}] n={len(b)}",
                        f"{delta:+.1%}", f"{wins}/{len(pairs)}", verdict]
            rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
