"""The benchmark's three workloads on the 4x16 matched-filter scenario.

Each workload is a fixed *pass* of operations.  An operation runs one
user-level job through the package's public API, writes the artifact a user
would keep, and is then checked: invariants that hold for any seed, plus a
comparison with reference outputs recorded from the seed commit when the
seed is one of the recorded ones.

- ``search``: ``rate_search`` at 1.6e9 bit/s for the three architectures on
  b in SEARCH_BITS and every K (12 cells).  The full 16-resolution search
  (96 cells, about a minute) is longer than a run; b=1 gives the unaliased
  cells (fs >= f_nyq for every K) and b=16 the most aliased ones (alias
  order 2 to 8).
- ``design_io``: full design, ``to_dict``, JSON write, read and
  ``from_dict`` at the three DESIGN_POINTS.
- ``mc``: ``estimate_mse`` of the Nyquist design, MC_TRIALS trials per pass.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

SCENARIO = dict(n_streams=4, m_antennas=16, f_nyq=400e6, snr_db=10.0)
SIGMA_PHI_DEG = 1.0
RATE_BUDGET = 1.6e9
ARCHITECTURES = ("task_based", "analog_recovery", "digital_recovery")
SEARCH_BITS = (1, 16)
DESIGN_POINTS = ((4, 400e6, 4), (4, 100e6, 4), (2, 100e6, 8))  # (K, fs, b)
MC_POINT = (4, 400e6, 4)
MC_TRIALS = 500

REFERENCE_RTOL = 1e-9  # a refactor may move results by 1e-12 relative, not more
FORMS_RTOL = 1e-9  # acceptance criterion 03's gap between the two MSE forms
# empirical/theory at the eta schedule is 1.13 +- 0.05 over 10^4 trials (overload
# adds to the granular error); per-trial errors are heavy-tailed, so a pass of a
# few hundred trials can read 2x, and the band widens by MC_BAND_SE standard errors
MC_RATIO_RANGE = (0.5, 1.5)
MC_BAND_SE = 4.0

WORKLOADS = ("search", "design_io", "mc")


@dataclass
class Op:
    """One operation: ``run`` does the timed work, the rest checks its output."""

    label: str
    units: int  # operations it counts for: cells, round trips, or trials
    run: Callable[[], object]
    invariants: Callable[[object], list]  # output -> list of problems
    summary: Callable[[object], dict]  # output -> numbers kept as reference
    output_bytes: Callable[[object], int]


@dataclass
class Context:
    ta: object  # the imported taskadc package
    workload: str
    seed: int
    workdir: str
    model: object
    design: object = None  # mc: the design under test
    tracer: object = None


def setup(ta, workload: str, seed: int, workdir: str) -> Context:
    """Scenario for the seed, plus the design under test for ``mc``."""
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    spec = ta.ScenarioSpec(
        **SCENARIO, sigma_phi=math.radians(SIGMA_PHI_DEG), channel_seed=seed
    )
    model = ta.build_scenario(spec)
    ctx = Context(ta=ta, workload=workload, seed=seed, workdir=workdir, model=model)
    if workload == "mc":
        k, fs, b = MC_POINT
        ctx.design = ta.design_filters(model, ta.AdcConfig(k, fs, b))
    return ctx


def pass_ops(ctx: Context, index: int) -> list:
    """The operations of pass ``index``."""
    return {"search": _search_ops, "design_io": _design_ops, "mc": _mc_ops}[
        ctx.workload
    ](ctx, index)


def _span(ctx: Context, name: str):
    return nullcontext() if ctx.tracer is None else ctx.tracer.span(name)


# -- search -----------------------------------------------------------------


def _search_ops(ctx: Context, index: int) -> list:
    return [_search_op(ctx, arch) for arch in ARCHITECTURES]


def _search_op(ctx: Context, arch: str) -> Op:
    ta, model = ctx.ta, ctx.model
    k_values = {
        "task_based": range(1, model.n_task + 1),
        "analog_recovery": [model.n_task],
        "digital_recovery": [model.m_inputs],
    }[arch]
    cells = [(k, b) for k in k_values for b in SEARCH_BITS]
    path = os.path.join(ctx.workdir, f"rate_search_{arch}.csv")

    def run():
        spec = ta.SearchSpec(rate_budget=RATE_BUDGET, b_range=SEARCH_BITS,
                             architecture=arch)
        result = ta.rate_search(model, spec)
        result.to_csv(path)
        return result

    def invariants(result) -> list:
        problems = []
        got = [(row["k_adcs"], row["bits"]) for row in result.table]
        if got != cells:
            return [f"{arch}: cells {got} != {cells}"]
        for row in result.table:
            k, b = row["k_adcs"], row["bits"]
            if row["fs_hz"] != RATE_BUDGET / (k * b):
                problems.append(f"{arch} K={k} b={b}: fs {row['fs_hz']}")
            for key in ("nmse", "nmse_t0_0"):
                if not 0.0 <= row[key] <= 1.0:
                    problems.append(f"{arch} K={k} b={b}: {key}={row[key]} outside [0, 1]")
            # without aliasing the error does not depend on the shift
            aliased = ta.spectra.alias_order(row["fs_hz"], model.band_edge) > 0
            if not aliased and not _close(row["nmse"], row["nmse_t0_0"], 1e-12):
                problems.append(f"{arch} K={k} b={b}: unaliased average != t0=0 value")
        if result.best_nmse != min(row["nmse"] for row in result.table):
            problems.append(f"{arch}: best_nmse is not the table minimum")
        return problems

    def summary(result) -> dict:
        return {"rows": [[r["k_adcs"], r["bits"], r["nmse"], r["nmse_t0_0"]]
                         for r in result.table]}

    return Op(f"rate_search/{arch}", len(cells), run, invariants, summary,
              lambda result: os.path.getsize(path))


# -- design_io --------------------------------------------------------------


@dataclass
class RoundTrip:
    design: object
    loaded: object
    json_bytes: int


def _design_ops(ctx: Context, index: int) -> list:
    return [_design_op(ctx, *point) for point in DESIGN_POINTS]


def _design_op(ctx: Context, k: int, fs: float, b: int) -> Op:
    ta, model = ctx.ta, ctx.model
    cfg = ta.AdcConfig(k_adcs=k, fs=fs, bits=b)
    label = f"round_trip/K{k}_fs{fs / 1e6:g}MHz_b{b}"
    path = os.path.join(ctx.workdir, f"design_K{k}_fs{fs / 1e6:g}_b{b}.json")

    def run():
        design = ta.design_filters(model, cfg)
        data = design.to_dict()
        with _span(ctx, "bench.json_encode"):
            text = json.dumps(data, indent=2) + "\n"  # the CLI's design.json layout
            del data
            with open(path, "w") as fh:
                fh.write(text)
        del text
        with _span(ctx, "bench.json_decode"):
            with open(path) as fh:
                data = json.load(fh)
        loaded = ta.FilterDesign.from_dict(data)
        return RoundTrip(design, loaded, os.path.getsize(path))

    def invariants(rt: RoundTrip) -> list:
        d, loaded = rt.design, rt.loaded
        problems = []
        if not -1e-12 <= d.nmse <= 1.0 + 1e-9:
            problems.append(f"{label}: nmse={d.nmse} outside [0, 1]")
        n = d.h_bar.base_grid.n_points
        stack = ta.whitened_task_stack(model, cfg.fs, n)
        general = ta.theoretical_mse(d.h_bar, stack, cfg).mse
        if not _close(general, d.mse_theory, FORMS_RTOL):
            problems.append(f"{label}: MSE forms disagree: {general} vs {d.mse_theory}")
        for name in ("h_bar", "g_freq", "h", "nmse", "water_level"):
            if not _same(getattr(d, name), getattr(loaded, name)):
                problems.append(f"{label}: loaded {name} differs from the saved one")
        return problems

    def summary(rt: RoundTrip) -> dict:
        d = rt.design
        return {
            "nmse": d.nmse,
            "mse": d.mse_theory,
            "water_level": d.water_level,
            "dynamic_range": d.dynamic_range,
            "task_energy": d.task_energy,
            "h_bar_fro": float(np.linalg.norm(d.h_bar.blocks)),
            "g_fro": float(np.linalg.norm(d.g_freq.values)),
        }

    return Op(label, 1, run, invariants, summary, lambda rt: rt.json_bytes)


def fields_lost(rt: RoundTrip) -> int:
    """FilterDesign fields whose loaded value differs from the saved design."""
    return sum(
        not _same(getattr(rt.design, f.name), getattr(rt.loaded, f.name))
        for f in fields(rt.design)
    )


# -- mc ---------------------------------------------------------------------


def _mc_ops(ctx: Context, index: int) -> list:
    ta, design = ctx.ta, ctx.design
    run_seed = ctx.seed * 1000 + index
    path = os.path.join(ctx.workdir, "mc_report.json")

    def run():
        report = ta.estimate_mse(
            ta.SimulationRun("perfbench", ctx.model, design, n_trials=MC_TRIALS,
                             seed=run_seed)
        )
        report.to_json(path)
        return report

    def invariants(rep) -> list:
        problems = []
        if not 0.0 <= rep.empirical_nmse <= 1.0:
            problems.append(f"empirical nmse {rep.empirical_nmse} outside [0, 1]")
        if not rep.std_error > 0 or not 0.0 <= rep.overload_rate <= 1.0:
            problems.append("std_error or overload_rate out of range")
        if rep.theory_nmse != design.nmse or rep.n_trials != MC_TRIALS:
            problems.append("report does not describe the design under test")
        lo, hi = MC_RATIO_RANGE
        slack = MC_BAND_SE * rep.std_error
        if not lo * design.nmse - slack <= rep.empirical_nmse <= hi * design.nmse + slack:
            problems.append(f"empirical/theory {rep.empirical_nmse / design.nmse:.3f}, "
                            f"standard error {rep.std_error / design.nmse:.3f}")
        return problems

    def summary(rep) -> dict:
        return {
            "empirical_nmse": rep.empirical_nmse,
            "std_error": rep.std_error,
            "overload_rate": rep.overload_rate,
            "orthogonality_residual": rep.orthogonality_residual,
        }

    return [Op(f"estimate_mse/seed{run_seed}", MC_TRIALS, run, invariants, summary,
               lambda rep: os.path.getsize(path))]


# -- comparisons ------------------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _same(a, b) -> bool:
    """Exact equality of design fields: arrays, spectra, stacks, scalars."""
    if a is None or b is None:
        return a is b
    if hasattr(a, "blocks"):  # StackedSpectrum
        return (a.alias_order_ == b.alias_order_ and a.block_cols == b.block_cols
                and _same(a.base_grid.points, b.base_grid.points)
                and _same(a.blocks, b.blocks))
    if hasattr(a, "values") and hasattr(a, "grid"):  # SpectralMatrixFunction
        return a.kind == b.kind and _same(a.grid.points, b.grid.points) and _same(
            a.values, b.values
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


def compare_reference(got: dict, want: dict, label: str) -> list:
    """Problems where a summary departs from its recorded reference."""
    problems = []
    for key, ref in want.items():
        value = got.get(key)
        if isinstance(ref, list):
            flat_ref = np.asarray(ref, dtype=float).ravel()
            flat_val = np.asarray(value, dtype=float).ravel()
            ok = flat_ref.shape == flat_val.shape and all(
                _close(x, y, REFERENCE_RTOL) for x, y in zip(flat_val, flat_ref)
            )
        else:
            ok = value is not None and _close(value, ref, REFERENCE_RTOL)
        if not ok:
            problems.append(f"{label}: {key} departs from the reference")
    return problems
