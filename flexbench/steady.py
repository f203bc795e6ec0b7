#!/usr/bin/env python3
"""Repeat benchmark workloads and report how steady each metric is.

Run from the repository root:

    python3 flexbench/steady.py --runs 10 [--workloads nat-linerate,rack]
                                [--first-seed 1] [--seconds 10] [--trace 0]

Each run is the `BENCHMARK.json` command with `--workload <w> --seed
<n> --seconds <s> --trace <t>`, one seed per run (first-seed, first-seed
+ 1, ...). For every metric of every workload it prints the median,
the first and third quartiles (Python's `statistics.quantiles(n=4)`),
the quartile spread as a share of the median, and, for end-to-end
metrics, that spread against the metric's bound in `BENCHMARK.json`
(`ok` when the spread is under a third of the bound). It also prints
the share of failed operations, which must be the same in every run.
Exit status 1 when any run fails, prints no result, or a spread is not
under a third of its bound (`setup_s` excepted: its median is gated,
not its spread).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = [w for w in opts.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    healthy = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        shares, walls = set(), []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            out, wall = run_once(bench["command"], w, seed, seconds, opts.trace)
            walls.append(wall)
            shares.add((out["failed"], out["attempted"]) if out["failed"] else 0)
            if not out["correct"]:
                healthy = False
            for name in values:
                values[name].append(out["metrics"][name]["value"])
            print(f"  {w} seed {seed}: {wall:.1f}s wall, " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items() if len(v)), file=sys.stderr)
        fails = {s if s == 0 else s[0] / s[1] for s in shares}
        print(f"{w}: {opts.runs} runs, {statistics.median(walls):.1f}s median wall, "
              f"failed share {sorted(fails)}")
        if len(fails) != 1:
            healthy = False
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[m["name"]]
            verdict = ""
            if bound is not None:
                ok = m["name"] == "setup_s" or spread < bound / 3
                healthy &= ok
                verdict = f" bound {bound:.2f} -> {'ok' if ok else 'TOO WIDE'}"
            print(f"  {m['name']:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:7.2%}{verdict}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
