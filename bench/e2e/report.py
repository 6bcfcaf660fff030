#!/usr/bin/env python3
"""Suite runner and A/B verdicts for gs_bench (called by run.sh).

  report.py suite --bench BIN --benchmark-json FILE [--sets K] [--runs R]
            [--seconds S] [--out FILE] ...
      Runs every workload R times (seeds 1..R, one process per run,
      workloads interleaved) and once traced, per set. Prints
      `workload metric value unit` lines, writes/extends the result file,
      and summarises each end-to-end metric's median and quartile spread;
      with K >= 2 it states per metric and workload whether the sets agree
      within the BENCHMARK.json bound.

  report.py compare BENCHMARK.json PARENT.json CHANGE.json
      One row per workload: runs are paired by (set, seed). A metric is a
      gain when the change wins at least 9 of 10 pairs (ties count for
      neither) and the medians differ by more than the parent's quartile
      spread; a regression when the change median is worse than the parent
      median by more than the bound; unresolved when the parent's spread
      exceeds the bound (unless every change run beats every parent run).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def load_contract(path):
    with open(path) as f:
        contract = json.load(f)
    return contract, {m["name"]: m for m in contract["end_to_end"]}


def run_one(bench, workload, seed, seconds, trace, trace_dir):
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    build = next((l[len("# build: "):] for l in lines
                  if l.startswith("# build: ")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return proc.returncode, build, result


def suite(args):
    contract, e2e = load_contract(args.benchmark_json)
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]
    out = args.out or args.default_out
    data = {"runs": []}
    if os.path.exists(out):
        with open(out) as f:
            data = json.load(f)
    first_set = 1 + max((r["set"] for r in data["runs"]), default=0)
    failures = 0
    for s in range(first_set, first_set + args.sets):
        plan = [(w, seed, False) for seed in range(1, args.runs + 1)
                for w in workloads] + [(w, 1, True) for w in workloads]
        for workload, seed, trace in plan:
            rc, build, result = run_one(args.bench, workload, seed, seconds,
                                        trace, args.trace_dir)
            failures += rc != 0 or not result.get("correct", False)
            data["runs"].append({
                "set": s, "workload": workload, "seed": seed,
                "trace": int(trace), "exit": rc, "commit": args.commit,
                "build": build, "nproc": os.cpu_count(), "result": result})
            for name, m in result["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}"
                      f"{'' if trace else f'  (set {s} seed {seed})'}")
            if rc != 0 or not result.get("correct", False):
                print(f"{workload} FAILED: exit {rc}, "
                      f"{result.get('failed')} of {result.get('attempted')}"
                      " operations failed", file=sys.stderr)
            sys.stdout.flush()
            with open(out, "w") as f:
                json.dump(data, f, indent=1)
    summarize(data["runs"], workloads, e2e)
    print(f"results: {out}")
    return 1 if failures else 0


def values_of(runs, workload, metric, set_no=None):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and not r["trace"]
            and (set_no is None or r["set"] == set_no)
            and metric in r["result"]["metrics"]]


def summarize(runs, workloads, e2e):
    sets = sorted({r["set"] for r in runs})
    print("\nworkload       metric             set  median        spread  bound")
    for w in workloads:
        for name, m in e2e.items():
            medians = []
            for s in sets:
                v = values_of(runs, w, name, s)
                if not v:
                    continue
                _, med, _ = quartiles(v)
                medians.append(med)
                spread = rel_spread(v)
                flag = "" if name == "setup_s" or spread <= m["bound"] else \
                    "  SPREAD > BOUND"
                print(f"{w:<14} {name:<18} {s:>3}  {med:<12.6g} {spread:6.1%}"
                      f"  {m['bound']:.0%}{flag}")
            if len(medians) >= 2:
                a, b = medians[0], medians[-1]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                drift = abs(b - a) / a if a else 0.0
                verdict = "agree" if drift <= m["bound"] else (
                    "DISAGREE (worse)" if worse > m["bound"] else "DISAGREE")
                print(f"{w:<14} {name:<18} sets {sets[0]}/{sets[-1]}: "
                      f"{drift:.1%} apart, {verdict}")


def compare(args):
    contract, e2e = load_contract(args.benchmark_json)
    with open(args.parent) as f:
        parent = json.load(f)["runs"]
    with open(args.change) as f:
        change = json.load(f)["runs"]
    print("workload       " + "  ".join(e2e))
    for w in [x["name"] for x in contract["workloads"]]:
        row = []
        for name, m in e2e.items():
            key = lambda r: (r["set"], r["seed"])
            p = {key(r): r["result"]["metrics"][name]["value"] for r in parent
                 if r["workload"] == w and not r["trace"]
                 and name in r["result"]["metrics"]}
            c = {key(r): r["result"]["metrics"][name]["value"] for r in change
                 if r["workload"] == w and not r["trace"]
                 and name in r["result"]["metrics"]}
            pairs = [(p[k], c[k]) for k in sorted(p.keys() & c.keys())]
            if len(pairs) < 10:
                row.append(f"{name}: only {len(pairs)} pairs")
                continue
            better = (lambda a, b: b < a) if m["better"] == "lower" else \
                (lambda a, b: b > a)
            wins = sum(better(a, b) for a, b in pairs)
            pv = [a for a, _ in pairs]
            cv = [b for _, b in pairs]
            q1, pmed, q3 = quartiles(pv)
            _, cmed, _ = quartiles(cv)
            rel = (cmed - pmed) / pmed if pmed else 0.0
            worse = rel if m["better"] == "lower" else -rel
            if wins >= 0.9 * len(pairs) and abs(cmed - pmed) > q3 - q1:
                verdict = "gain"
            elif rel_spread(pv) > m["bound"]:
                verdict = ("better in every run"
                           if all(better(a, b) for a in pv for b in cv)
                           else "unresolved")
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            row.append(f"{name}: {verdict} ({rel:+.1%}, {wins}/{len(pairs)} "
                       "wins)")
        print(f"{w:<14} " + "; ".join(row))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("suite")
    s.add_argument("--bench", required=True)
    s.add_argument("--benchmark-json", required=True)
    s.add_argument("--commit", default="unknown")
    s.add_argument("--trace-dir", required=True)
    s.add_argument("--default-out", required=True)
    s.add_argument("--out")
    s.add_argument("--sets", type=int, default=1)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seconds", type=int)
    c = sub.add_parser("compare")
    c.add_argument("benchmark_json")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    return suite(args) if args.cmd == "suite" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
