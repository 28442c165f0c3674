#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

Run from the repository root:

    python3 e2ebench/prove.py --runs 10 --first-seed 101
    python3 e2ebench/prove.py --runs 10 --confirm-seed 9001 --record e2ebench/RESULTS.json

Seeds are first-seed, first-seed + 1, ...; every run uses --trace 0 and the
run_seconds of BENCHMARK.json. --confirm-seed adds one run per workload on a
seed kept apart from tuning, for confirming later claims. With --record the
medians, spreads, seeds, confirming run and host fingerprint are written to
the given file. Exits 1 when a spread (other than setup_s) reaches its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(args)}: output check failed:\n{proc.stdout}")
    fingerprint = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("fingerprint "))
    return result, fingerprint


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--confirm-seed", type=int, default=0)
    ap.add_argument("--record", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": opts.runs, "seeds": list(range(opts.first_seed, opts.first_seed + opts.runs)),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in workloads:
        values = {name: [] for name in bounds}
        for seed in report["seeds"]:
            result, fp = run_once(bench["command"], wl, seed, bench["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        report["fingerprint"] = {k: v for k, v in fp.items() if k not in ("workload", "seed")}
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s" and spread >= bounds[name]:
                ok = False
            print(f"{wl:7s} {name:16s} median {med:12.4f} spread {spread:.4f} bound {bounds[name]}{flag}")
        if opts.confirm_seed:
            result, _ = run_once(bench["command"], wl, opts.confirm_seed, bench["run_seconds"])
            rows["confirm"] = {"seed": opts.confirm_seed,
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        report["workloads"][wl] = rows
    if opts.record:
        with open(opts.record, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
