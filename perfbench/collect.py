"""Baseline and steadiness check: python3 perfbench/collect.py [--out FILE]

Runs the benchmark once per seed 0-9 and workload in BENCHMARK.json with
--trace 0, workloads interleaved so that slow spells of the host fall on
all of them, then one --trace 1 run per workload at seed 0.  For each
end-to-end metric it prints the median and the distance between the first
and third quartile as a share of the median (the spread), and exits 1 if
any spread, setup_s included, is above the metric's bound.  With --out,
it writes these figures, the per-module split, the core count and the
Python version as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(10)
    values = {name: {m["name"]: [] for m in spec["end_to_end"]} for name in names}
    for seed in seeds:
        for name in names:
            res = bench(name, seed, spec["run_seconds"], 0)
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: output gate failed")
            for key, m in res["metrics"].items():
                values[name][key].append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    ok = True
    for name in names:
        e2e = {}
        for m in spec["end_to_end"]:
            vals = values[name][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else (" (above a third of the bound)" if spread <= m["bound"]
                                                      else " (ABOVE THE BOUND)")
            ok = ok and spread <= m["bound"]
            print(f"{name} {m['name']}: median {statistics.median(vals):.4g} {m['unit']}, "
                  f"spread {spread:.3f} of bound {m['bound']}{flag}")
            e2e[m["name"]] = {"median": statistics.median(vals), "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"], "values": vals}
        traced = bench(name, 0, spec["run_seconds"], 1)
        report["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer_seed0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
