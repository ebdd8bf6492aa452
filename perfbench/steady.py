#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, side by side.

Run from the repository root:

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --workloads serve --runs 5 --seconds 10
    python3 perfbench/steady.py --corrupt                 # must fail every workload

Each set runs every workload --runs times, each time with another seed
(set A from --seed, set B from --seed + 1000, so the second set also
runs new seeds through the same checks).  For every end-to-end metric,
and for the workload-specific figures of the "# detail" line, it prints
each set's median and quartiles, the spread (quartile distance over the
median, as statistics.quantiles(values, n=4) gives them) against a third
of the metric's bound in BENCHMARK.json, and how far set B's median
moved from set A's against the bound.  Every metric is held to these
limits, setup_s too.  For setup_s it also prints the spread of the
set-ups within each run (their quartile distance over their median),
as the median and the largest over the runs of a set.  Every run must
report correct = true and failed = 0.  Raw results go to
perfbench/out/.  Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["decide", "chase-bulk", "chase-derive", "serve"]
# figures of the detail line, checked with the bound of a related metric
DETAIL = {"op_ms.p99": "op_ms.p90", "write_ms.p50": "op_ms.p50", "read_ms.p50": "op_ms.p50"}


def run_once(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = detail = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    return {"workload": workload, "seed": seed, "exit": p.returncode, "wall_s": time.time() - t0,
            "result": result, "detail": detail, "stderr": p.stderr[-2000:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def steadiness(args, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    runs = {}
    sets = (("A", 0), ("B", 1000))
    for s, offset in sets:
        for w in workloads:
            for i in range(args.runs):
                r = run_once(w, args.seed + offset + i, args.seconds)
                runs.setdefault((w, s), []).append(r)
                res = r["result"] or {}
                print(f"set {s} {w} seed {r['seed']}: exit {r['exit']}, correct {res.get('correct')}, "
                      f"failed {res.get('failed')}, {r['wall_s']:.1f} s", file=sys.stderr)
    os.makedirs("perfbench/out", exist_ok=True)
    with open(f"perfbench/out/steady-{int(time.time())}.json", "w") as f:
        json.dump([r for rs in runs.values() for r in rs], f, indent=1)
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}"
              f"{'limit':>8}{'moved':>9}{'bound':>8}")
        for s, _ in sets:
            for r in runs[(w, s)]:
                res = r["result"]
                if r["exit"] != 0 or not res or not res["correct"] or res["failed"] != 0:
                    ok = False
                    print(f"  FAIL set {s} seed {r['seed']}: exit {r['exit']} {r['stderr'][-300:]}")
        all_runs = [r for s, _ in sets for r in runs[(w, s)]]
        names = list(metrics) + [d for d in DETAIL
                                 if all(r["detail"] and d in r["detail"] for r in all_runs)]
        for name in names:
            m = metrics[DETAIL.get(name, name)]
            rows = {}
            for s, _ in sets:
                vals = [r["result"]["metrics"][name]["value"] if name in metrics else r["detail"][name]
                        for r in runs[(w, s)] if r["result"]]
                if len(vals) < 2:
                    continue
                rows[s] = spread(vals)
            if len(rows) < len(sets):
                continue
            a_med = rows["A"][1]
            b_med = rows["B"][1]
            worse = (b_med - a_med) / a_med if m["better"] == "lower" else (a_med - b_med) / a_med
            for s in rows:
                q1, med, q3, sp = rows[s]
                flag = ""
                if sp > m["bound"] / 3:
                    flag = " spread"
                    ok = False
                moved = ""
                if s == "B":
                    moved = f"{worse:+9.3f}{m['bound']:8.2f}"
                    if worse > m["bound"]:
                        flag += " moved"
                        ok = False
                print(f"  {name:<16}{s:>4}{q1:12.5g}{med:12.5g}{q3:12.5g}{sp:9.3f}"
                      f"{m['bound'] / 3:8.3f}{moved}{flag}")
        for s, _ in sets:
            within = [spread(r["detail"]["setup_runs_s"])[3] for r in runs[(w, s)] if r["detail"]]
            if within:
                print(f"  set-ups within a run, set {s}: spread median {statistics.median(within):.3f}, "
                      f"largest {max(within):.3f}")
    return ok


def corrupt(args):
    ok = True
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        r = run_once(w, args.seed, 2, extra=["--corrupt-reference"])
        res = r["result"] or {}
        failed = r["exit"] != 0 and res.get("correct") is False and res.get("failed", 0) > 0
        print(f"{w}: corrupted reference -> exit {r['exit']}, correct {res.get('correct')}, "
              f"failed {res.get('failed')}: {'run failed as it must' if failed else 'NOT DETECTED'}")
        ok = ok and failed
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    ok = corrupt(args) if args.corrupt else steadiness(args, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
