#!/usr/bin/env python3
"""Compare two sets of dcode_bench runs, or report one set's spread.

Usage:
    compare.py BASE_DIR CHANGE_DIR   # verdict per workload x metric
    compare.py --spread DIR          # run-to-run spread of one set

Each directory holds the JSON documents of single runs, as written by
`bench/e2e/run.py --out DIR` (the bench::Telemetry --json format). Runs
pair up in seed order, so BASE and CHANGE should use the same seeds, run
alternately.

For every end-to-end metric of BENCHMARK.json and every workload the
comparison prints each side's median and quartiles, the fraction of pairs
the change won, and a verdict:
  improved    there are at least ten pairs, the change wins >= 9/10 of
              them (ties count for neither) and the medians differ by
              more than the base's interquartile distance;
  regressed   the change's median is worse than the base's by more than
              the metric's bound, or any change run failed verification;
  unresolved  a side's spread (interquartile distance / median) exceeds
              the bound and neither side beats every run of the other;
  unchanged   otherwise.
Per-layer metrics are listed with their medians only; they have no bound.
Exit status is 1 when any verdict is "regressed".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def load_runs(directory):
    """{(workload, kind): [run, ...]} in seed order; a run is a dict with
    'seed', 'failed', 'host' and 'metrics' {name: value}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            doc = json.load(f)
        if doc.get("bench") != "bench_dcode_e2e":
            continue
        per_doc = {}
        for row in doc["results"]:
            labels = row.get("labels", {})
            kind = labels.get("kind")
            if kind is None:
                continue
            key = (labels["workload"], kind)
            run = per_doc.setdefault(key, {"seed": int(labels["seed"]),
                                           "failed": 0, "host": None,
                                           "metrics": {}})
            if row["metric"] == "failed":
                run["failed"] = int(row["value"])
            elif row["metric"] == "host_nproc":
                run["host"] = (row["value"], labels.get("isa"),
                               labels.get("build_type"), labels.get("compiler"))
            elif "name" in labels and row["value"] is not None:
                run["metrics"][labels["name"]] = row["value"]
        for key, run in per_doc.items():
            runs.setdefault(key, []).append(run)
    for v in runs.values():
        v.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    frac = wins / len(pairs) if pairs else 0.0
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    worse = -sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (c - b) < 0 for c in change for b in base)
    if len(pairs) >= 10 and frac >= 0.9 and abs(cmed - bmed) > (b3 - b1):
        v = "improved"
    elif spread > bound:
        v = "regressed" if all_worse else "improved" if all_better \
            else "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, (b1, bmed, b3), (c1, cmed, c3), frac


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(base_dir, change_dir, bench):
    base, change = load_runs(base_dir), load_runs(change_dir)
    regressed = False
    hosts = {r["host"] for side in (base, change) for v in side.values()
             for r in v if r["host"]}
    if len(hosts) > 1:
        print(f"warning: runs come from different hosts/builds: {sorted(hosts)}")
    for (workload, kind) in sorted(set(base) & set(change)):
        a, b = base[(workload, kind)], change[(workload, kind)]
        n = min(len(a), len(b))
        print(f"\n== {workload} ({kind}, {len(a)} base / {len(b)} change runs)")
        if n < 10:
            print(f"  note: {n} pairs; \"improved\" needs at least ten")
        failed = sum(r["failed"] for r in b)
        if failed:
            print(f"  error_rate: {failed} failed ops in change runs  REGRESSED")
            regressed = True
        specs = bench["end_to_end"] if kind == "end_to_end" else \
            bench["per_layer"]
        for spec in specs:
            name = spec["name"]
            va = [r["metrics"][name] for r in a[:n] if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b[:n] if name in r["metrics"]]
            if not va or not vb:
                continue
            if "bound" not in spec:
                print(f"  {name:48s} {quartiles(va)[1]:>14.6g} -> "
                      f"{quartiles(vb)[1]:<14.6g} {spec['unit']}")
                continue
            v, qa, qb, frac = verdict(va, vb, spec["better"], spec["bound"])
            regressed |= v == "regressed"
            print(f"  {name:14s} {fmt(qa):>40s} -> {fmt(qb):<40s} "
                  f"{spec['unit']:6s} won {frac:4.0%}  {v}")
    return 1 if regressed else 0


def spread(directory, bench):
    runs = load_runs(directory)
    for (workload, kind) in sorted(runs):
        if kind != "end_to_end":
            continue
        rs = runs[(workload, kind)]
        print(f"\n== {workload} ({len(rs)} runs)")
        print(f"  {'metric':14s} {'median':>12s} {'iqr/med':>8s} "
              f"{'range/med':>9s} {'bound':>6s}")
        for spec in bench["end_to_end"]:
            vals = [r["metrics"][spec["name"]] for r in rs
                    if spec["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"  {spec['name']:14s} {med:12.6g} {(q3 - q1) / med:8.2%} "
                  f"{(max(vals) - min(vals)) / med:9.2%} {spec['bound']:6.0%}")
    return 0


def main(argv):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    if len(argv) == 2 and argv[0] == "--spread":
        return spread(argv[1], bench)
    if len(argv) == 2:
        return compare(argv[0], argv[1], bench)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
