"""Median and quartiles of metrics over the result files of several runs.

    for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 perfbench/run.py --workload mc --seed $s --seconds 30 --trace 0
    done
    python3 perfbench/summarize.py [--out summary.json]

Reads perfbench/_out/result-*.json and prints, per workload and trace mode,
each metric's median, first and third quartile (statistics.quantiles, n=4),
and the quartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import run


def summarize(paths) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        runs[(result["workload"], result["trace"])].append(result)
    out = {}
    for (workload, trace), results in sorted(runs.items()):
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[f"{workload}/trace{trace}"] = {
            "runs": len(results),
            "seeds": sorted(r["seed"] for r in results),
            "seconds": results[0]["seconds"],
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "environment": results[0]["environment"],
            "metrics": metrics,
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="also write the summary as JSON here")
    args = p.parse_args()
    summary = summarize(sorted(run.OUT.glob("result-*.json")))
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['failed']}/{group['attempted']} failed")
        for name, m in group["metrics"].items():
            print(f"  {name:48s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
