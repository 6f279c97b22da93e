#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarize each end-to-end metric.

    python3 bench/repeat.py --workloads sylow-route,wall-and-edge --seeds 0-9 [--out FILE]

Run from the repository root.  Per workload and metric it prints the
median, the quartiles, the spread (interquartile distance over the
median) and the highest percentile that still has at least ten runs
above it, with the run count.  --out writes the same as JSON, in the
form of one entry of bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def tail_percentile(values) -> tuple:
    """(q, value): the highest percentile q with at least ten runs above
    it; None when there are too few runs for one."""
    n = len(values)
    if n <= 10:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = max(0, math.ceil(q / 100 * n) - 1)
    return q, sorted(values)[rank]


def stats(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="0-9")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", default=str(run_seconds))
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(res)
            line = ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: {line}", flush=True)
        metrics = {
            name: dict(stats([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        report[wl] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, st in metrics.items():
            tail = next((f", {k} {v:.4g}" for k, v in st.items()
                         if k.startswith("p") and k[1:].isdigit()), "")
            print(f"  {wl} {name}: median {st['median']:.4g} {st['unit']}, "
                  f"q1 {st['q1']:.4g}, q3 {st['q3']:.4g}, "
                  f"spread {st['spread']:.3f}{tail} (n={st['n']})", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
