"""Compare two result sets of the benchmark, parent against change.

A result set is one or more files (or directories of files) of captured
``run.py`` output; each run contributes its record line.  For every metric
the report prints one row per workload: each side's median and quartiles
over its runs, the change-to-parent ratio, the pair win count over seeds
run on both sides (ties count for neither), and a verdict:

* ``gain``: the change wins at least nine tenths of the pairs and its
  median differs from the parent's by more than the parent's quartile
  spread;
* ``regression``: an end-to-end median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread exceeds the bound, and not every
  change run beats every parent run;
* ``-``: none of these.

Pairs are runs of one workload and seed on both sides, so run the parent
and the change with the same seeds, alternating which side goes first.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

RECORD_KEY = "perfbench"


def load(path: str) -> dict:
    """{(workload, trace): {seed: record}} from files or directories."""
    p = Path(path)
    files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
    runs: dict = {}
    for f in files:
        for line in f.read_text().splitlines():
            if not line.startswith('{"' + RECORD_KEY + '"'):
                continue
            record = json.loads(line)[RECORD_KEY]
            runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound) -> tuple:
    """Wins over paired seeds and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        word = "gain"
    elif bound is not None and worse > bound:
        word = "regression"
    elif (bound is not None and pm and (p3 - p1) / abs(pm) > bound
          and not max(sign * v for v in change.values()) < min(sign * v for v in parent.values())):
        word = "unresolved"
    else:
        word = "-"
    return wins, len(seeds), word


def fmt(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def print_report(spec: dict, parent_path: str, change_path: str):
    parent, change = load(parent_path), load(change_path)
    workloads = [w["name"] for w in spec["workloads"]]
    groups = [(0, spec["end_to_end"]), (1, spec["per_layer"])]
    print("fail_frac (failed pipelines / attempted)")
    for name in workloads:
        cells = []
        for side in (parent, change):
            records = [r for t in (0, 1) for r in side.get((name, t), {}).values()]
            failed = sum(r["failed"] for r in records)
            attempted = sum(r["attempted"] for r in records)
            cells.append(f"{failed}/{attempted}")
        print(f"  {name:<16} parent {cells[0]:<10} change {cells[1]}")
    for trace, metrics in groups:
        for metric in metrics:
            bound = metric.get("bound")
            rows = []
            for name in workloads:
                sides = []
                for side in (parent, change):
                    runs = side.get((name, trace), {})
                    sides.append({seed: r["metrics"][metric["name"]]["value"]
                                  for seed, r in runs.items() if metric["name"] in r["metrics"]})
                if not (sides[0] or sides[1]):
                    continue
                if not (sides[0] and sides[1]):
                    rows.append(f"  {name:<16} missing on {'parent' if not sides[0] else 'change'}")
                    continue
                wins, pairs, word = verdict(sides[0], sides[1], metric["better"], bound)
                pm = statistics.median(sides[0].values())
                cm = statistics.median(sides[1].values())
                ratio = f"{cm / pm:.3f}" if pm else "-"
                rows.append(f"  {name:<16} parent {fmt(list(sides[0].values()))}"
                            f"  change {fmt(list(sides[1].values()))}"
                            f"  change/parent {ratio}  wins {wins}/{pairs}  {word}")
            if rows:
                print(f"\n{metric['name']} ({metric['unit']}, {metric['better']} is better"
                      + (f", bound {bound:.0%})" if bound is not None else ")"))
                print("\n".join(rows))
