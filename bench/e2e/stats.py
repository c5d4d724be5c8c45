#!/usr/bin/env python3
"""Repeat and compare tooling for the end-to-end benchmark.

  stats.py sets --bin BIN [--sets 2] [--runs 5] [--seconds N] [--seed-base S]
                [--workload W ...] [--trace 0|1] [--out FILE] [--append]
      Runs every selected workload --runs times per set, each run with its
      own seed (seed-base + run index, the same seeds in every set), and
      prints each metric's median and quartiles per set. Every end-to-end
      metric gets its spread (interquartile range / median) and the drift of
      each later set's median from the first, both judged against the
      metric's bound in BENCHMARK.json. Raw results go to --out.

  stats.py compare PARENT.json CHANGE.json
      Compares two result files written by `sets` and prints one row per
      workload with the verdict for each end-to-end metric: improved,
      unchanged, worse or unresolved.

run.sh wraps both; see README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def cmd_sets(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            runs = json.load(f)["runs"]
    for s in range(args.sets):
        for w in workloads:
            for r in range(args.runs):
                seed = args.seed_base + r
                res, wall = run_once(args.bin, w, seed, seconds, args.trace)
                runs.append({"set": s, "workload": w, "seed": seed, "wall_s": wall,
                             "result": res})
                print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall={wall:.1f}s", file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
    ok = report_sets(spec, runs, workloads, args.trace)
    print(f"\nraw results: {args.out}")
    return 0 if ok else 1


def by_workload_set(runs):
    table = {}
    for r in runs:
        table.setdefault(r["workload"], {}).setdefault(r["set"], []).append(r["result"])
    return table


def report_sets(spec, runs, workloads, trace):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = by_workload_set(runs)
    ok = True
    for w in workloads:
        sets = table.get(w, {})
        results = [r for s in sets.values() for r in s]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        ok = ok and failed == 0 and incorrect == 0
        print(f"\n== {w}: {len(results)} runs, {attempted} ops, {failed} failed, "
              f"{incorrect} incorrect runs")
        names = list(results[0]["metrics"]) if results else []
        print(f"{'metric':28s} {'set':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'drift':>7s} {'bound':>6s}")
        for name in names:
            first_median = None
            for s in sorted(sets):
                vals = [r["metrics"][name]["value"] for r in sets[s]]
                q1, med, q3 = quartiles(vals)
                sp = spread(vals)
                if first_median is None:
                    first_median = med
                drift = (med - first_median) / abs(first_median) if first_median else 0.0
                bound = bounds.get(name)
                flag = ""
                if bound is not None and not trace:
                    # setup_s is exempt from the spread rule, not from drift.
                    if name != "setup_s" and sp > bound:
                        flag = "  SPREAD>BOUND"
                    elif name != "setup_s" and sp > bound / 3:
                        flag = "  spread>bound/3"
                    if abs(drift) > bound:
                        flag += "  DRIFT>BOUND"
                    ok = ok and "BOUND" not in flag
                print(f"{name:28s} {s:3d} {q1:12.6g} {med:12.6g} {q3:12.6g}"
                      f" {sp:7.3f} {drift:+7.3f} "
                      f"{'' if bound is None else format(bound, '.2f'):>6s}{flag}")
    return ok


def verdict(parent, change, better, bound):
    """improved / unchanged / worse / unresolved for one metric."""
    n = min(len(parent), len(change))
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    gap = sign * (cm - pm)  # > 0: the change is better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent[:n], change[:n]))
    q1, _, q3 = quartiles(parent)
    if n >= 10 and wins >= 0.9 * n and gap > q3 - q1:
        return "improved"
    if -gap > bound * abs(pm):
        return "worse"
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def cmd_compare(args):
    spec = load_spec()
    with open(args.parent) as f:
        parent = by_workload_set(json.load(f)["runs"])
    with open(args.change) as f:
        change = by_workload_set(json.load(f)["runs"])
    metrics = spec["end_to_end"]
    print(f"{'workload':14s} " + " ".join(f"{m['name']:>12s}" for m in metrics))
    worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in parent or w not in change:
            continue
        p_runs = [r for s in parent[w].values() for r in s]
        c_runs = [r for s in change[w].values() for r in s]
        cells = []
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v = verdict(p, c, m["better"], m["bound"])
            worse = worse or v == "worse"
            cells.append(v)
        failed = sum(r["failed"] for r in c_runs) - sum(r["failed"] for r in p_runs)
        note = f"  ({failed:+d} failed ops)" if failed else ""
        print(f"{w:14s} " + " ".join(f"{c:>12s}" for c in cells) + note)
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sets")
    s.add_argument("--bin", required=True)
    s.add_argument("--sets", type=int, default=2)
    s.add_argument("--runs", type=int, default=5)
    s.add_argument("--seconds", type=int, default=0)
    s.add_argument("--seed-base", type=int, default=1)
    s.add_argument("--workload", action="append")
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--out", default=os.path.join(ROOT, "build-bench", "sets.json"))
    s.add_argument("--append", action="store_true")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    return cmd_sets(args) if args.cmd == "sets" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
