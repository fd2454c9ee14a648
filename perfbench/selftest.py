"""Self-test of the benchmark itself (not of taskadc).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that corrupted or raising operations are counted as failed,
that the tracer records calls through every namespace binding and leaves no
patched name behind, and that the benchmark refuses to run without the
package sources.  The metric check runs every real workload with
``--seconds 1``: the fewest passes a run makes, with its reference outputs.
Takes about two minutes; exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import traceback

import run

FAILURES: list = []
WORKDIR = run.OUT / f"selftest-{os.getpid()}"


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def _run_benchmark(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def metrics_emitted(workloads) -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if trace == 1:
            check("per-layer metrics match the code's list", declared == run.layer_units(),
                  str(set(declared) ^ set(run.layer_units())))
        for workload in workloads.WORKLOADS:
            name = f"{workload} --trace {trace}"
            proc = _run_benchmark(["--workload", workload, "--seed", "0", "--seconds", "1",
                                   "--trace", str(trace)], run.ROOT)
            if proc.returncode != 0:
                check(name, False, proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(f"{name}: result keys", set(result) ==
                  {"correct", "attempted", "failed", "metrics"}, str(sorted(result)))
            check(f"{name}: correct with no failures",
                  result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, proc.stderr[-2000:])
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            check(f"{name}: every declared metric with its unit", got == declared,
                  str({n: (got.get(n), declared.get(n)) for n in set(got) | set(declared)
                       if got.get(n) != declared.get(n)}))
            values = [m["value"] for m in result["metrics"].values()]
            check(f"{name}: values are finite numbers", all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in values))
            if trace == 0:
                check(f"{name}: end-to-end values are positive", all(v > 0 for v in values))


def _corrupt(out, workloads):
    """A copy of an operation's output with one number made wrong."""
    if isinstance(out, workloads.RoundTrip):
        loaded = dataclasses.replace(out.loaded, water_level=out.loaded.water_level * 1.01)
        return dataclasses.replace(out, loaded=loaded)
    if hasattr(out, "empirical_nmse"):
        return dataclasses.replace(out, empirical_nmse=out.empirical_nmse * 10.0)
    table = tuple(dict(row) for row in out.table)
    table[0]["nmse"] = 1.5
    return dataclasses.replace(out, table=table)


def failures_counted(ta, workloads) -> None:
    for workload in workloads.WORKLOADS:
        ctx = workloads.setup(ta, workload, 0, str(WORKDIR))
        op = workloads.pass_ops(ctx, 0)[0]
        out = op.run()
        check(f"{workload}: genuine output passes", not op.invariants(out))

        tally = run.Tally()
        bad = dataclasses.replace(op, run=lambda out=out: _corrupt(out, workloads))
        run.run_op(bad, None, tally)
        check(f"{workload}: corrupted output counted as failed",
              tally.failed == op.units and tally.attempted == op.units)

        def boom():
            raise FloatingPointError("injected")

        tally = run.Tally()
        run.run_op(dataclasses.replace(op, run=boom), None, tally)
        check(f"{workload}: raising operation counted as failed", tally.failed == op.units)

        summary = op.summary(out)
        key = next(iter(summary))
        shifted = json.loads(json.dumps(summary))
        if isinstance(shifted[key], list):
            shifted[key][0][-1] *= 1.0 + 1e-6
        else:
            shifted[key] *= 1.0 + 1e-6
        problems = run.check(op, out, {op.label: shifted})
        check(f"{workload}: output departing from its reference is refused", bool(problems))
        check(f"{workload}: output equal to its reference is accepted",
              not run.check(op, out, {op.label: summary}))


def _bindings() -> dict:
    import inspect

    from tracer import _taskadc_modules

    seen = {}
    for mod in _taskadc_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if inspect.isclass(value):
                for cattr, cvalue in vars(value).items():
                    seen[(f"{mod.__name__}:{value.__qualname__}", cattr)] = cvalue
    return seen


def tracer_restores(ta) -> None:
    import numpy as np

    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    patched = tracer.install()
    try:
        check("tracer patches package functions", patched > 0)
        check("one wrapper per function across namespaces",
              ta.search.solve_waterfill_level is ta.design.solve_waterfill_level
              and ta.search.solve_waterfill_level is not before[("taskadc.design",
                                                                "solve_waterfill_level")])
        tracer.run_id, tracer.active = "probe", True
        spec = ta.QuantizerSpec(bits=3, dynamic_range=1.0)
        ta.simulate.quantize_midrise(np.zeros(4), spec)
        tracer.active = False
        names = [span[0] for span in tracer.spans]
        check("call through an importing module is recorded",
              names == ["quantizer.quantize_midrise"], str(names))
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    check("no patched name left behind", not changed and set(after) == set(before),
          str(changed[:5]))

    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 1), ("b", 1.0, 4.0, 0, 1), ("c", 2.0, 3.0, 1, 1),
                    ("b", 5.0, 6.0, 0, 1)]
    times = tracer.self_times()
    check("self time is span time minus direct children",
          times == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}, str(times))


def refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = _run_benchmark(["--workload", "search", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], bare)
        lines = proc.stdout.strip().splitlines()
        check("refuses to run without src/", proc.returncode != 0 and not any(
            line.startswith("{") for line in lines), proc.stdout[-500:])
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    np, ta = run._import_package()
    import workloads

    WORKDIR.mkdir(parents=True)
    for test in (lambda: tracer_restores(ta), lambda: failures_counted(ta, workloads),
                 refuses_without_sources, lambda: metrics_emitted(workloads)):
        try:
            test()
        except Exception:
            check("self-test step completed", False, traceback.format_exc())
    shutil.rmtree(WORKDIR)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
