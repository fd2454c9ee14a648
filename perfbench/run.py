"""taskadc benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {search,design_io,mc} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  The
run sets up the workload (import, scenario, and for ``mc`` the design under
test), then repeats whole passes of the workload until the next pass would
end after ``--seconds``.  Every operation's output is checked; one that
raises or misses a check counts as failed.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps every
public package function (see tracer.py), runs an untraced warm-up pass, then
alternates traced and untraced passes, and reports the per-layer metrics.
Results and spans are written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
BLAS_THREADS = "1"
SETUP_REPEATS = 5  # set-ups per end-to-end run; setup_s is import time plus their median
TRACE_MIN_PASSES = 3  # warm-up, one traced and one untraced pass

E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}

# span name -> stats reported per traced pass
LAYER_SPANS = {
    "spectra.psd_sqrt": ("calls", "self_s"),
    "spectra.stack_aliases": ("calls", "self_s"),
    "spectra.SpectralMatrixFunction.sample": ("calls", "self_s"),
    "mmse.whitened_task_stack": ("calls", "self_s"),
    "mmse.task_energy": ("calls", "self_s"),
    "design.design_analog_filter": ("calls", "self_s"),
    "design.solve_waterfill_level": ("calls", "self_s"),
    "design.max_rank_bound": ("self_s",),
    "design.equalize_diagonal": ("calls",),
    "design.design_digital_filter": ("calls", "self_s"),
    "design.theoretical_mse": ("calls", "self_s"),
    "design.theoretical_mse_waterfilled": ("calls", "self_s"),
    "design.quantizer_noise": ("calls", "self_s"),
    "design.nyquist_analog_filter": ("self_s",),
    "design.FilterDesign.to_dict": ("self_s",),
    "design.FilterDesign.from_dict": ("self_s",),
    "search.rate_search": ("calls", "self_s"),
    "search.designed_shift_kernel": ("calls", "self_s"),
    "search.shift_mse_kernel": ("calls", "self_s"),
    "search.mse_at_shifts": ("calls",),
    "quantizer.quantize_midrise": ("calls", "self_s"),
    "quantizer.sample_dither": ("calls", "self_s"),
    "simulate.estimate_mse": ("calls", "self_s"),
}
SETUP_SPANS = {"scenarios.build_scenario": ("calls", "self_s")}
STAT_UNITS = {"calls": "count", "self_s": "s"}
EXTRA_UNITS = {
    "spectra.stack_aliases.bytes_computed": "bytes",
    "design.equalize_diagonal.calls_per_point": "ratio",
    "design.json_bytes": "bytes",
    "design.json_encode_s": "s",
    "design.json_decode_s": "s",
    "design.from_dict.fields_lost": "count",
    "search.cells": "count",
    "quantizer.quantize_midrise.samples": "count",
    "quantizer.overload_rate": "ratio",
    "simulate.trials": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    units = {}
    for spans in (LAYER_SPANS, SETUP_SPANS):
        for name, stats in spans.items():
            for stat in stats:
                units[f"{name}.{stat}"] = STAT_UNITS[stat]
    units.update(EXTRA_UNITS)
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "design_io", "mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _import_package():
    src = ROOT / "src"
    if not (src / "taskadc" / "__init__.py").is_file():
        raise SystemExit(f"error: no taskadc sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import numpy
    import taskadc

    if Path(taskadc.__file__).resolve().parent != src / "taskadc":
        raise SystemExit(f"error: imported taskadc from {taskadc.__file__}, not {src}")
    return numpy, taskadc


# -- the timed loop -----------------------------------------------------------


class Tally:
    """Operations attempted and failed, and what the passes measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.op_times: list = []  # (pass, position in pass, label, units, seconds)
        self.output_bytes: list = []
        self.json_bytes: list = []
        self.fields_lost: list = []
        self.overload: list = []
        self.first_pass_rss_mb = None  # peak RSS over set-up and the first pass

    def pass_units(self) -> int:
        """Operations in one pass."""
        return sum({j: units for _, j, _, units, _ in self.op_times}.values())

    def ops_per_s(self, passes=None) -> float:
        """A pass's operations over the sum of each operation's median time.

        Taking the median per position in the pass keeps a slow stretch of
        one operation from spilling into the others.  ``passes`` limits the
        medians to those pass indices.
        """
        times = defaultdict(list)
        for p, j, _, _, seconds in self.op_times:
            if passes is None or p in passes:
                times[j].append(seconds)
        return self.pass_units() / sum(statistics.median(t) for t in times.values())


def check(op, out, reference) -> list:
    problems = op.invariants(out)
    if reference is not None and op.label in reference:
        import workloads

        problems += workloads.compare_reference(op.summary(out), reference[op.label], op.label)
    return problems


def run_op(op, reference, tally: Tally, tracer=None, run_id=(0, 0)) -> None:
    """Run, time and check one operation."""
    import workloads

    tally.attempted += op.units
    if tracer is not None:
        tracer.run_id, tracer.active = run_id, True
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        out, problems = None, [f"{op.label} raised:\n{traceback.format_exc()}"]
    tally.op_times.append((*run_id, op.label, op.units, time.perf_counter() - start))
    if tracer is not None:
        tracer.active = False
    if out is not None:
        try:
            problems = check(op, out, reference)
        except Exception:
            problems = [f"{op.label} check raised:\n{traceback.format_exc()}"]
    if problems:
        tally.failed += op.units
        tally.problems += problems
        return
    tally.output_bytes.append(op.output_bytes(out))
    if isinstance(out, workloads.RoundTrip):
        tally.json_bytes.append(out.json_bytes)
        tally.fields_lost.append(workloads.fields_lost(out))
    if hasattr(out, "overload_rate"):
        tally.overload.append(out.overload_rate)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB.

    Not ``ru_maxrss``: Linux keeps that across ``exec``, so it is at least the
    resident set of whichever process started this one.  ``VmHWM`` belongs to
    this process's own memory map.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_passes(ctx, reference, seconds, tally, tracer=None, min_passes=1) -> int:
    """Whole passes until the next one would end past ``seconds``; returns their count.

    With a tracer, odd-numbered passes are traced and even-numbered ones not.
    """
    import workloads

    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        pass_tracer = tracer if index % 2 else None
        for j, op in enumerate(workloads.pass_ops(ctx, index)):
            run_op(op, reference, tally, pass_tracer, (index, j))
        index += 1
        if tally.first_pass_rss_mb is None:
            tally.first_pass_rss_mb = peak_rss_mb()
        now = time.perf_counter()
        if index >= min_passes and now - start + (now - pass_start) > seconds:
            return index


# -- metrics ------------------------------------------------------------------


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def layer_metrics(tracer, tally: Tally, traced_passes, untraced_passes) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    per_pass = []
    for p in traced_passes:
        times = tracer.self_times(lambda run_id, p=p: isinstance(run_id, tuple) and run_id[0] == p)
        counts = {}
        for run_id, keyed in tracer.counts.items():
            if isinstance(run_id, tuple) and run_id[0] == p:
                for key, amount in keyed.items():
                    counts[key] = counts.get(key, 0.0) + amount
        per_pass.append((times, counts))

    def median_of(fn):
        return _median([fn(times, counts) for times, counts in per_pass])

    metrics = {}
    for name, stats in LAYER_SPANS.items():
        for stat in stats:
            col = 0 if stat == "calls" else 1
            metrics[f"{name}.{stat}"] = median_of(
                lambda t, c, name=name, col=col: t.get(name, (0, 0.0))[col]
            )
    setup = tracer.self_times(lambda run_id: run_id == "setup")
    for name, stats in SETUP_SPANS.items():
        for stat in stats:
            metrics[f"{name}.{stat}"] = setup.get(name, (0, 0.0))[0 if stat == "calls" else 1]

    def per_point(t, c):
        points = c.get("design.unitary_points", 0.0)
        return t.get("design.equalize_diagonal", (0, 0.0))[0] / points if points else 0.0

    metrics.update({
        "spectra.stack_aliases.bytes_computed": median_of(
            lambda t, c: c.get("spectra.stack_aliases.bytes_computed", 0.0)),
        "design.equalize_diagonal.calls_per_point": median_of(per_point),
        "design.json_bytes": statistics.fmean(tally.json_bytes) if tally.json_bytes else 0.0,
        "design.json_encode_s": median_of(lambda t, c: t.get("bench.json_encode", (0, 0.0))[1]),
        "design.json_decode_s": median_of(lambda t, c: t.get("bench.json_decode", (0, 0.0))[1]),
        "design.from_dict.fields_lost": max(tally.fields_lost, default=0),
        "quantizer.quantize_midrise.samples": median_of(
            lambda t, c: c.get("quantizer.quantize_midrise.samples", 0.0)),
        "quantizer.overload_rate": _median(tally.overload),
        "trace.overhead_ratio": (tally.ops_per_s(untraced_passes)
                                 / tally.ops_per_s(traced_passes)),
    })
    return metrics


def _hooks():
    import numpy as np

    def stack_bytes(tracer, args, kwargs, result):
        tracer.count("spectra.stack_aliases.bytes_computed", result.blocks.nbytes)

    def quantized(tracer, args, kwargs, result):
        tracer.count("quantizer.quantize_midrise.samples", np.size(args[0]))

    def unitary_points(tracer, args, kwargs, result):
        with_unitary = kwargs.get("with_unitary", args[2] if len(args) > 2 else True)
        if with_unitary:
            tracer.count("design.unitary_points", result.h_bar.base_grid.n_points)

    return {
        "spectra.stack_aliases": stack_bytes,
        "quantizer.quantize_midrise": quantized,
        "design.design_analog_filter": unitary_points,
    }


# -- environment ----------------------------------------------------------------


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(np) -> dict:
    import hashlib

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "taskadc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def load_reference(args):
    with open(HERE / "reference.json") as fh:
        seeds = json.load(fh)["seeds"]
    return seeds.get(str(args.seed), {}).get(args.workload)


def setup_repeats(ta, args, workdir) -> list:
    """Seconds of further set-ups, each on its own channel seed so none reuses another."""
    import workloads

    samples = []
    for r in range(1, SETUP_REPEATS):
        start = time.perf_counter()
        workloads.setup(ta, args.workload, args.seed * SETUP_REPEATS + r, workdir)
        samples.append(time.perf_counter() - start)
    return samples


def measure(args, ctx, ta, import_s, build_s):
    """Timed passes, traced or not; returns (tally, metric units, metric values)."""
    import workloads
    from tracer import Tracer

    reference = load_reference(args)
    tally = Tally()
    if not args.trace:
        run_passes(ctx, reference, args.seconds, tally)
        builds = [build_s] + setup_repeats(ta, args, ctx.workdir)
        values = {
            "ops_per_s": tally.ops_per_s(),
            "setup_s": import_s + _median(builds),
            "peak_rss_mb": tally.first_pass_rss_mb,
            "output_mb": statistics.fmean(tally.output_bytes) / 1e6 if tally.output_bytes else 0.0,
        }
        return tally, E2E_UNITS, values

    tracer = Tracer(_hooks())
    ctx.tracer = tracer
    try:
        tracer.install()
        tracer.run_id, tracer.active = "setup", True
        workloads.setup(ta, args.workload, args.seed, ctx.workdir)
        tracer.active = False
        n_passes = run_passes(ctx, reference, args.seconds, tally, tracer, TRACE_MIN_PASSES)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # pass 0 warms up and is in neither set
    traced, untraced = range(1, n_passes, 2), range(2, n_passes, 2)
    values = layer_metrics(tracer, tally, traced, untraced)
    values["search.cells"] = tally.pass_units() if args.workload == "search" else 0.0
    values["simulate.trials"] = tally.pass_units() if args.workload == "mc" else 0.0
    return tally, layer_units(), values


def main(argv=None) -> int:
    args = _parse(argv)
    # numpy fixes its BLAS thread count when first imported, and set-up time
    # includes that import, so workloads.py (which imports numpy) is imported
    # only after this point
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    start = time.perf_counter()
    np, ta = _import_package()
    import workloads

    import_s = time.perf_counter() - start
    workdir = OUT / f"work-{os.getpid()}"  # the artifacts operations write
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        ctx = workloads.setup(ta, args.workload, args.seed, str(workdir))
        build_s = time.perf_counter() - start
        tally, units, values = measure(args, ctx, ta, import_s, build_s)
    finally:
        shutil.rmtree(workdir)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = environment(np)
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds,
                   "environment": env, "problems": tally.problems,
                   "op_times": tally.op_times, **result}, fh, indent=2)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
