#!/usr/bin/env python3
"""Noise study: run the benchmark several times per workload, one seed per
run, and report each end-to-end metric's median and quartile spread.

    python3 perfbench/study.py --runs 10 --seconds 20 [--workloads a,b]
        [--first-seed 1] [--tag name] [--trace 0|1]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4). Results are also written to
.bench_build/study-<tag>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tag", default="study")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for wl in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "exit": p.returncode, **res})
            print(f"{wl} seed {seed}: exit {p.returncode} failed {res['failed']}",
                  file=sys.stderr)
        table = {}
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            table[m] = {"median": med, "q1": q[0], "q3": q[2],
                        "spread": (q[2] - q[0]) / med if med else 0.0,
                        "bound": bounds.get(m), "values": vals}
        report[wl] = {"runs": runs, "metrics": table}
        print(f"\n{wl}")
        for m, t in table.items():
            b = t["bound"]
            flag = "" if b is None or m == "setup_s" else (
                "  OK" if t["spread"] < b / 3 else ("  <bound" if t["spread"] <= b else "  OVER"))
            print(f"  {m:36s} median {t['median']:.6g}  IQR/median {t['spread']:.3f}"
                  f"  bound {b}{flag}")
    out = ROOT / ".bench_build" / f"study-{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
