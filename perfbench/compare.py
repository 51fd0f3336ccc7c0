#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds JSON results as `run.py --record` writes them
(<workload>-seed<n>-trace0.json). Runs pair up by seed; when the two sides
share no seed, they pair up in seed order. For every workload
and end-to-end metric it prints both sides' median and quartiles, the share
of pairs each side wins, both sides' fail ratio, and a verdict:

* regressed: the change's median is worse than the parent's by more than
  the bound;
* improved: otherwise, when there are at least 10 pairs, the change wins
  at least 9 in 10 of them (ties count for neither side), the medians
  differ by more than the parent's quartile spread, and the change's fail
  ratio is no higher than the parent's;
* unresolved: otherwise, when the parent's quartile spread (as a share of
  its median) is wider than the metric's bound, unless every change run
  beats every parent run;
* within bound: otherwise.

A result with "correct": false is refused: a run that failed its oracle
has no figures to compare.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {seed: result}} for the untraced results in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        m = re.match(r"(.+)-seed(\d+)-trace0\.json$", os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1])
        if result.get("correct") is not True:
            raise ValueError(f"{path}: the run failed its correctness check")
        runs.setdefault(m.group(1), {})[int(m.group(2))] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


MIN_PAIRS = 10


def verdict(parent, change, better, bound, fail=(0.0, 0.0)):
    """Verdict for paired samples (same length, pair i = seed i).

    `fail` is (parent, change) fail ratio.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    pairs = list(zip(parent, change))
    change_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (cm - pm)
    spread = p3 - p1
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pm != 0 and -gain / abs(pm) > bound:
        v = "regressed"
    elif (len(pairs) >= MIN_PAIRS and change_wins >= 0.9 * len(pairs)
          and gain > spread and fail[1] <= fail[0]):
        v = "improved"
    elif pm != 0 and spread / abs(pm) > bound and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return v, change_wins, parent_wins


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(attempted, 1)


def compare(parent_runs, change_runs, metrics):
    """Rows of (workload, metric, parent stats, change stats, wins, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p, c = parent_runs[workload], change_runs[workload]
        shared = sorted(set(p) & set(c))
        if shared:
            ps, cs = [p[s] for s in shared], [c[s] for s in shared]
        else:
            ps, cs = [p[s] for s in sorted(p)], [c[s] for s in sorted(c)]
            ps, cs = ps[:len(cs)], cs[:len(ps)]
        if not ps:
            continue
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            fail = (fail_ratio(ps), fail_ratio(cs))
            v, cw, pw = verdict(pv, cv, m["better"], m["bound"], fail)
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "parent": quartiles(pv), "change": quartiles(cv),
                "change_wins": cw / len(ps), "parent_wins": pw / len(ps),
                "pairs": len(ps), "verdict": v,
                "fail": fail,
            })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    try:
        rows = compare(load(args.parent), load(args.change), metrics)
    except ValueError as e:
        sys.exit(f"compare: {e}")
    if not rows:
        sys.exit("compare: no workload has runs on both sides")
    fmt = "{:<15} {:<16} {:>30} {:>30} {:>11} {:>13}  {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                     "wins c/p", "fail p/c", "verdict"))
    for r in rows:
        q = lambda t: "{:.4g}/{:.4g}/{:.4g}".format(*t)
        print(fmt.format(
            r["workload"], r["metric"], q(r["parent"]), q(r["change"]),
            "{:.0%}/{:.0%}".format(r["change_wins"], r["parent_wins"]),
            "{:.4f}/{:.4f}".format(*r["fail"]),
            "{} ({} pairs)".format(r["verdict"], r["pairs"]),
        ))


if __name__ == "__main__":
    main()
