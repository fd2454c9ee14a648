"""Record the reference outputs that run.py compares operations against.

    python3 perfbench/record_reference.py --seeds 0-31

Run it at the commit whose outputs are the reference (the seed commit of the
benchmark); it runs pass 0 of every workload per seed, refuses outputs that
miss an invariant, and rewrites perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write_reference(path, recorded_at: dict, seeds: dict) -> None:
    """JSON with one line per seed and workload, so reviews diff by line."""
    lines = [f'{{"recorded_at": {json.dumps(recorded_at)},', ' "seeds": {']
    items = [(seed, workload, ops) for seed, by_workload in seeds.items()
             for workload, ops in by_workload.items()]
    for i, (seed, workload, ops) in enumerate(items):
        opener = f'  "{seed}": {{' if i == 0 or items[i - 1][0] != seed else "  "
        last_of_seed = i + 1 == len(items) or items[i + 1][0] != seed
        closer = ("}" + ("" if i + 1 == len(items) else ",")) if last_of_seed else ","
        lines.append(f'{opener}"{workload}": {json.dumps(ops)}{closer}')
    lines.append(" }}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seeds, required=True, help="N or N-M")
    args = p.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    np, ta = run._import_package()
    import workloads

    workdir = run.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = run.environment(np)
    seeds = {}
    for seed in args.seeds:
        seeds[str(seed)] = {}
        for workload in workloads.WORKLOADS:
            ctx = workloads.setup(ta, workload, seed, str(workdir))
            recorded = {}
            for op in workloads.pass_ops(ctx, 0):
                out = op.run()
                problems = op.invariants(out)
                if problems:
                    raise SystemExit(f"seed {seed}: {problems}")
                recorded[op.label] = op.summary(out)
            seeds[str(seed)][workload] = recorded
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    shutil.rmtree(workdir)
    write_reference(run.HERE / "reference.json",
                    {k: env[k] for k in ("git_commit", "src_sha256")}, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
