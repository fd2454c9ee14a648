"""Alternating parent/change pairs of perfbench runs, summarized as one JSON record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload mc \
        --pairs 10 --seconds 30 --seed0 2300 --out BENCH_topic.json

Each pair runs ``python3 perfbench/run.py --trace 0`` once in each checkout,
one process at a time, with the same seed (seed0 + pair index): even pairs
run the parent first, odd pairs the change. The record keeps every run's
metrics, each side's per-metric median and quartiles, how many pairs the
change wins per metric (the direction and bound come from the change's
BENCHMARK.json), whether every run was correct and how many operations
failed (a run that exits non-zero is kept as not correct), and the machine.
``--out`` gains or replaces this workload's entry, so one file can hold
several workloads; without it the record is printed.
Standard library only; numpy's version and BLAS are read in a subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

MACHINE = """import json, numpy as np
cfg = np.show_config(mode="dicts")
blas = cfg.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"numpy": np.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))"""


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's record. A run that exits non-zero (a set-up error, a kill) is
    kept as not correct, with no metrics, its exit code and last stderr line,
    and so is a run that exits 0 with no JSON result on its last stdout line,
    with that line, so the pairs already measured are not lost."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    no_result = {"seed": seed, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if out.returncode != 0:
        return {**no_result, "exit_code": out.returncode, "stderr": _last_line(out.stderr)}
    last = _last_line(out.stdout)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return {**no_result, "exit_code": 0, "stdout": last}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def compare(parent: list, change: list, declared: dict) -> dict:
    """Per metric: each side's quartiles over the runs that measured it, the
    change's wins over the pairs where both runs did, and a verdict against
    the metric's bound (a relative change of the median). A parent quartile
    spread wider than the bound leaves the verdict unresolved, unless every
    run of the change reads better than every run of the parent."""
    out = {}
    names = [name for r in parent + change for name in r["metrics"]]
    for name in dict.fromkeys(names):
        a = [r["metrics"][name] for r in parent if name in r["metrics"]]
        b = [r["metrics"][name] for r in change if name in r["metrics"]]
        if not a or not b:
            out[name] = {"verdict": "unresolved: one side measured it in no run"}
            continue
        entry = {"parent": quartiles(a), "change": quartiles(b)}
        spec = declared.get(name)
        if spec:
            sign = 1 if spec["better"] == "higher" else -1
            med_a, med_b = entry["parent"]["median"], entry["change"]["median"]
            worse = sign * (med_a - med_b) / med_a if med_a else 0.0
            pairs = [(x["metrics"][name], y["metrics"][name]) for x, y in zip(parent, change)
                     if name in x["metrics"] and name in y["metrics"]]
            entry["better"], entry["bound"] = spec["better"], spec["bound"]
            entry["change_better_in_pairs"] = sum(sign * (y - x) > 0 for x, y in pairs)
            entry["relative_worsening"] = worse
            every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
            if entry["parent"]["spread"] > spec["bound"] and not every_run_better:
                entry["verdict"] = "unresolved: parent quartile spread exceeds the bound"
            else:
                entry["verdict"] = "worse beyond bound" if worse > spec["bound"] else "within bound"
        out[name] = entry
    return out


def machine(checkout: Path) -> dict:
    probe = subprocess.run(["python3", "-c", MACHINE], cwd=checkout, capture_output=True,
                           text=True, check=True)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpus_usable": usable, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), **json.loads(probe.stdout)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed0 + i, args.seconds))
            print(f"pair {i} {side}: {runs[side][-1]}", file=sys.stderr)

    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
                   f"--seconds {args.seconds} --trace 0",
        "pairs": args.pairs, "seeds": [args.seed0 + i for i in range(args.pairs)],
        "order": "even pairs parent first, odd pairs change first",
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": compare(runs["parent"], runs["change"], {m["name"]: m for m in declared}),
        "runs": runs,
    }
    if args.out is None:
        print(json.dumps({"machine": machine(sides["change"]), args.workload: record}, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = machine(sides["change"])
    doc.setdefault("workloads", {})[args.workload] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
