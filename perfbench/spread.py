#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
(workload, seed), one after another, and prints per metric the median,
the quartiles and the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound in BENCHMARK.json.  It also prints the failed share of attempted
operations and the wall time of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls, shares = [], set()
        for seed in seeds(args.seeds):
            t0 = time.perf_counter()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(round(time.perf_counter() - t0, 1))
            lines = p.stdout.strip().splitlines()
            if p.returncode or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(json.dumps({"workload": w, "run_wall_s": walls,
                          "failed_share": sorted(shares)}))
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds.get(k, 0) / 3
            print(f"  {k:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f}"
                  + (f"  (bound/3 {limit:.3f}){'' if spread < limit else '  WIDE'}"
                     if k in bounds and k != "setup_s" else "")
                  + f"\n      values {[round(v, 3) for v in vs]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
