#!/usr/bin/env python3
"""Runs the benchmark over a range of seeds and summarizes the end-to-end
metrics, for one checkout or for two checkouts compared pair by pair.

Run from the repository root:

    python3 bench/runset.py --out set.json --seeds 1-10
    python3 bench/runset.py --out cmp.json --seeds 1-10 --checkout ../parent --checkout .

For each workload and seed it runs bench/run.sh untraced in every
checkout, alternating which checkout goes first from one seed to the
next. It prints, per checkout, each metric's median, its quartiles
(statistics.quantiles with n=4) and its spread, the distance between the
quartiles over the median. With two checkouts it also prints how many
seeds the second checkout won, metric by metric, using the directions in
BENCHMARK.json. The runs and the summary are written to --out as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed, seconds):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed ({p.returncode}):\n{p.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--checkout", action="append", help="repository checkout to run in (repeatable, default .)")
    args = ap.parse_args()
    checkouts = args.checkout or ["."]
    spec = json.load(open(os.path.join(checkouts[0], "BENCHMARK.json")))
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = []
    for w in workloads:
        for i, s in enumerate(seeds(args.seeds)):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for c in order:
                r = run(c, w, s, spec["run_seconds"])
                runs.append({"checkout": c, "workload": w, "seed": s, "result": r})
                print(c, w, s, r["correct"], r["failed"],
                      " ".join(f"{k}={m['value']:.5g}" for k, m in sorted(r["metrics"].items())), flush=True)

    summary = {}
    for c in checkouts:
        for w in workloads:
            rs = [r["result"] for r in runs if r["checkout"] == c and r["workload"] == w]
            for name in better:
                s = summarize([r["metrics"][name]["value"] for r in rs])
                summary.setdefault(c, {}).setdefault(w, {})[name] = s
                print(f"{c} {w:13} {name:12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}")
    if len(checkouts) == 2:
        a, b = checkouts
        for w in workloads:
            for name, direction in better.items():
                pairs = {}
                for r in runs:
                    if r["workload"] == w:
                        pairs.setdefault(r["seed"], {})[r["checkout"]] = r["result"]["metrics"][name]["value"]
                wins = sum(1 for p in pairs.values() if (p[b] < p[a]) == (direction == "lower") and p[b] != p[a])
                ratio = summary[b][w][name]["median"] / summary[a][w][name]["median"]
                print(f"{b} vs {a} {w:13} {name:12} median ratio {ratio:.4f}  {b} better in {wins}/{len(pairs)} pairs")

    with open(args.out, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "seeds": args.seeds, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
