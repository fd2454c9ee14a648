"""Acceptance suite.

Each test evaluates one numbered criterion at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).  The
multi-antenna scenario uses the documented channel seed 0; Monte-Carlo runs
use 10^4 trials with fixed seeds.  Full suite runtime is around ten minutes,
dominated by the rate-budget searches and their grid-doubling checks.
"""

import math

import numpy as np
import pytest

from taskadc.design import (
    AdcConfig,
    auto_grid_points,
    design_filters,
    max_rank_bound,
    theoretical_mse,
    theoretical_mse_waterfilled,
)
from taskadc.mmse import whitened_task_stack
from taskadc.quantizer import (
    QuantizerSpec,
    calibrate_dynamic_range,
    overload_probability_bound,
    quantize_midrise,
    sample_dither,
)
from taskadc.scenarios import ScenarioSpec, build_scenario, isotropic_scenario
from taskadc.search import (
    SearchSpec,
    _converged_time_average,
    baseline_design,
    rate_search,
)
from taskadc.simulate import SimulationRun, estimate_mse
from taskadc.spectra import StackedSpectrum

from conftest import random_flat_model

GRID = 4096
SIM_SEED = 123
F_NYQ = 400e6
NMSE_TARGET = 1e-2  # threshold for the rate-budget comparisons


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def scalar_model():
    spec = ScenarioSpec(
        n_streams=1, m_antennas=1, f_nyq=F_NYQ, snr_db=10.0,
        sigma_phi=math.radians(1.0), channel_seed=0,
    )
    return build_scenario(spec)


@pytest.fixture(scope="module")
def mimo_model():
    spec = ScenarioSpec(
        n_streams=4, m_antennas=16, f_nyq=F_NYQ, snr_db=10.0,
        sigma_phi=math.radians(1.0), channel_seed=0,
    )
    return build_scenario(spec)


@pytest.fixture(scope="module")
def scalar_sim_curves(scalar_model):
    """Dithered (b=1..9) and non-dithered (b=1..8) scalar Monte-Carlo runs."""
    dithered, plain, theory = {}, {}, {}
    for b in range(1, 10):
        cfg = AdcConfig(k_adcs=1, fs=F_NYQ, bits=b)  # eta follows the schedule
        design = design_filters(scalar_model, cfg, GRID)
        theory[b] = design.nmse
        dithered[b] = estimate_mse(
            SimulationRun("scalar", scalar_model, design, n_trials=10_000,
                          seed=SIM_SEED)
        ).empirical_nmse
        if b <= 8:
            plain[b] = estimate_mse(
                SimulationRun("scalar", scalar_model, design, n_trials=10_000,
                              seed=SIM_SEED, dithered=False)
            ).empirical_nmse
    return theory, dithered, plain


def test_criterion_01_dither_model_validity(scalar_sim_curves):
    theory, dithered, _ = scalar_sim_curves
    ratios = {b: dithered[b] / theory[b] for b in range(1, 7)}
    ok = all(0.95 <= r <= 1.15 for r in ratios.values())
    report(1, ok, "empirical/theory nmse ratios (b=1..6): "
           + ", ".join(f"{r:.3f}" for r in ratios.values()))


def test_criterion_02_non_dithered_advantage(scalar_sim_curves):
    _, dithered, plain = scalar_sim_curves
    below = all(plain[b] <= dithered[b] for b in range(1, 9))
    one_bit_ratio = plain[8] / dithered[9]
    ok = below and 0.75 <= one_bit_ratio <= 1.25
    report(2, ok, f"non-dithered below dithered at every b: {below}; "
           f"nodither(8)/dither(9) = {one_bit_ratio:.3f}")


def test_criterion_03_closed_form_self_consistency():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 9))
        model = random_flat_model(rng, n=n, m=m, n_points=256)
        cfg = AdcConfig(
            k_adcs=int(rng.integers(1, n + 1)),
            fs=float(rng.uniform(0.3, 2.5)),
            bits=int(rng.integers(1, 9)),
        )
        design = design_filters(model, cfg, 256)
        stack = whitened_task_stack(model, cfg.fs, 256)
        general = theoretical_mse(design.h_bar, stack, cfg).mse
        diagonal = theoretical_mse_waterfilled(design).mse
        worst = max(worst, abs(general - diagonal) / max(abs(diagonal), 1e-300))
    report(3, worst <= 1e-9, f"worst relative gap over 10 scenarios: {worst:.2e}")


def test_criterion_04_analog_design_optimality():
    worst = -np.inf
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 8))
        model = random_flat_model(rng, n=n, m=m, n_points=96)
        cfg = AdcConfig(
            k_adcs=int(rng.integers(1, n + 1)),
            fs=float(rng.uniform(0.4, 1.6)),
            bits=int(rng.integers(1, 6)),
        )
        stack = whitened_task_stack(model, cfg.fs, 96)
        design = design_filters(model, cfg, 96)
        base = theoretical_mse(design.h_bar, stack, cfg).mse
        u, s, vh = np.linalg.svd(stack.blocks, full_matrices=False)
        r = min(s.shape[1], cfg.k_adcs)
        from taskadc.quantizer import effective_loading

        budget = cfg.k_adcs / (effective_loading(cfg.eta, cfg.bits) * cfg.ts)
        w = stack.base_grid.weights
        for _ in range(100):
            factor = rng.uniform(0.4, 1.6, size=design.sigma_h.shape)
            prof = design.sigma_h * np.where(design.sigma_h > 0, factor, 1.0)
            prof *= np.sqrt(budget / float(w @ (prof**2).sum(axis=1)))
            blocks = np.zeros_like(design.h_bar.blocks)
            blocks[:, :r, :] = prof[:, :r, None] * vh[:, :r, :]
            rival = StackedSpectrum(
                base_grid=stack.base_grid, alias_order_=stack.alias_order_,
                blocks=blocks, block_cols=stack.block_cols, fs=stack.fs,
            )
            gap = theoretical_mse(rival, stack, cfg).mse - base
            worst = max(worst, -gap / design.task_energy)
    report(4, worst <= 1e-10,
           f"largest improvement by a rival profile: {worst:.2e} of task energy")


@pytest.fixture(scope="module")
def monotonicity_curves(mimo_model):
    def run(n_points):
        by_k = [
            baseline_design(mimo_model, AdcConfig(k, F_NYQ, 4), "task_based",
                            n_points).nmse
            for k in range(1, 17)
        ]
        by_b = [
            baseline_design(mimo_model, AdcConfig(4, F_NYQ, b), "task_based",
                            n_points).nmse
            for b in range(1, 17)
        ]
        over = [
            design_filters(mimo_model, AdcConfig(4, r * F_NYQ, 4), n_points).nmse
            for r in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0)
        ]
        # sub-Nyquist sweep at the integer band-to-rate ratios, the rates the
        # sampler actually realizes
        under = [
            design_filters(mimo_model, AdcConfig(4, F_NYQ / r, 4), n_points).nmse
            for r in (1, 2, 3, 4, 5, 6, 8)
        ]
        return {"K": by_k, "b": by_b, "fs_over": over, "fs_under": under}

    return run(GRID)


def test_criterion_05_monotonicity_suite(monotonicity_curves):
    c = monotonicity_curves
    non_inc = lambda xs: all(a >= b - 1e-12 * abs(a) for a, b in zip(xs, xs[1:]))
    spread = (max(c["fs_under"]) - min(c["fs_under"])) / min(c["fs_under"])
    ok = (
        non_inc(c["K"]) and non_inc(c["b"]) and non_inc(c["fs_over"])
        and spread <= 0.01
    )
    report(5, ok, f"K and b and oversampled-fs curves non-increasing; "
           f"sub-Nyquist spread {spread:.2e} (tol 1e-2)")


@pytest.fixture(scope="module")
def architecture_curves(mimo_model):
    def run(n_points):
        out = {"task_based": [], "analog_recovery": [], "digital_recovery": []}
        for b in range(1, 17):
            for arch, k in (
                ("task_based", 4), ("analog_recovery", 4), ("digital_recovery", 16)
            ):
                design = baseline_design(
                    mimo_model, AdcConfig(k, F_NYQ, b), arch, n_points
                )
                out[arch].append(design.nmse)
        return out

    return run(GRID)


def test_criterion_06_architecture_ordering(architecture_curves):
    c = architecture_curves
    ordered = all(
        d <= t + 1e-12 and t <= a + 1e-12
        for d, t, a in zip(c["digital_recovery"], c["task_based"],
                           c["analog_recovery"])
    )
    within = max(
        t / d for t, d in zip(c["task_based"], c["digital_recovery"])
    )
    ok = ordered and within <= 2.0
    report(6, ok, f"digital <= task <= analog at every b; "
           f"max task/digital ratio {within:.3f} (tol 2)")


@pytest.fixture(scope="module")
def budget_searches(mimo_model):
    """Searches for the rate-budget criteria; keyed (architecture, budget)."""
    results = {}

    def search(arch, budget):
        key = (arch, budget)
        if key not in results:
            results[key] = rate_search(
                mimo_model, SearchSpec(rate_budget=budget, architecture=arch)
            )
        return results[key]

    return search


def test_criterion_07_rate_budget_ordering(budget_searches):
    task_budgets = (1.2e9, 1.6e9, 2.0e9)
    task = {r: budget_searches("task_based", r).best_nmse for r in task_budgets}
    reaching = [r for r in task_budgets if r != 0 and task[r] <= NMSE_TARGET]
    assert reaching, "task-based never reached the target in the swept range"
    r_star = min(reaching)
    analog_at_star = budget_searches("analog_recovery", r_star).best_nmse
    digital_at_star = budget_searches("digital_recovery", r_star).best_nmse
    analog_at_2x = budget_searches("analog_recovery", 2 * r_star).best_nmse
    digital_at_5x = budget_searches("digital_recovery", 5 * r_star).best_nmse
    ok = (
        all(task[r] > NMSE_TARGET for r in task_budgets if r < r_star)
        and task[r_star] <= analog_at_star
        and task[r_star] <= digital_at_star
        and analog_at_2x > NMSE_TARGET
        and digital_at_5x > NMSE_TARGET
    )
    report(7, ok, f"task reaches {NMSE_TARGET:g} at R*={r_star:.3g} bit/s "
           f"(analog there {analog_at_star:.3g}, digital {digital_at_star:.3g}); "
           f"analog nmse at 2R* = {analog_at_2x:.3g}, "
           f"digital at 5R* = {digital_at_5x:.3g} (both above target)")


def test_criterion_08_selected_configurations(budget_searches, mimo_model):
    tight = budget_searches("task_based", 0.4e9)
    huge = budget_searches("task_based", 800e9)
    swept = [budget_searches("task_based", r) for r in (0.4e9, 1.2e9, 1.6e9, 2.0e9, 800e9)]
    bound = max_rank_bound(
        whitened_task_stack(mimo_model, mimo_model.f_nyq,
                            auto_grid_points(mimo_model.f_nyq, mimo_model.band_edge))
    )
    ok = (
        tight.best_fs < mimo_model.f_nyq
        and all(res.best_bits >= 2 for res in swept)
        and huge.best_k == bound
        and huge.best_bits == 16
    )
    report(8, ok, f"tight budget picks fs={tight.best_fs:.3g} < f_nyq; "
           f"b* >= 2 everywhere; top budget picks K={huge.best_k} "
           f"(rank bound {bound}), b={huge.best_bits}")


def test_criterion_09_asymptotics(mimo_model):
    fine = design_filters(mimo_model, AdcConfig(4, F_NYQ, 16), GRID).nmse
    curve = [
        design_filters(mimo_model, AdcConfig(4, m * F_NYQ, 1), GRID).nmse
        for m in (1, 2, 4, 8, 16, 32, 64)
    ]
    monotone = all(a >= b - 1e-12 * a for a, b in zip(curve, curve[1:]))
    ok = fine < 1e-6 and monotone and curve[-1] < curve[0] / 10
    report(9, ok, f"nmse(b=16) = {fine:.2e} < 1e-6; one-bit oversampling "
           f"curve monotone, x64 gain {curve[0] / curve[-1]:.1f} (> 10)")


def test_criterion_10_isotropic_construction():
    iso = isotropic_scenario(3, fs=1.0)
    cfg = AdcConfig(3, 1.0, 3)
    task = baseline_design(iso, cfg, "task_based", 512).nmse
    analog = baseline_design(iso, cfg, "analog_recovery", 512).nmse
    equal = abs(task - analog) <= 1e-9 * task
    bent = isotropic_scenario(3, fs=1.0, task_gains=np.array([math.sqrt(1.1), 1.0, 1.0]))
    task_b = baseline_design(bent, cfg, "task_based", 512).nmse
    analog_b = baseline_design(bent, cfg, "analog_recovery", 512).nmse
    broken = (analog_b - task_b) / task_b > 1e-4
    report(10, equal and broken,
           f"isotropic gap {abs(task - analog) / task:.2e} (tol 1e-9); "
           f"10% variance bump opens {((analog_b - task_b) / task_b):.2e} (> 1e-4)")


def test_criterion_11_quantizer_micro_suite():
    rng = np.random.default_rng(7)
    one_bit = QuantizerSpec(bits=1, dynamic_range=1.0)
    two_bit = QuantizerSpec(bits=2, dynamic_range=1.0)
    exact = (
        quantize_midrise(0.3, one_bit) == 0.5
        and quantize_midrise(1.7, one_bit) == 0.5
        and quantize_midrise(-0.2, two_bit) == -0.25
    )
    delta = 0.35
    draws = sample_dither(delta, rng, size=1_000_000)
    moments = (
        abs(draws.mean()) < 4 * (delta / math.sqrt(6)) / 1e3
        and abs((draws**2).mean() - delta**2 / 6) < 0.01 * delta**2 / 6
    )
    # additive-model error moments at negligible overload
    gamma = calibrate_dynamic_range(1.0, 6.0, 3)
    spec = QuantizerSpec(bits=3, dynamic_range=gamma)
    y = rng.normal(size=1_000_000)
    noisy = y + sample_dither(spec.step, rng, size=y.size)
    e = quantize_midrise(noisy, spec) - y
    prod = e * y
    model_ok = (
        abs(prod.mean()) < 3 * prod.std(ddof=1) / math.sqrt(y.size)
        and abs((e**2).mean() - spec.step**2 / 4) < 0.02 * spec.step**2 / 4
    )
    chebyshev = True
    for eta in (1.5, 2.0, 3.0):
        g = calibrate_dynamic_range(1.0, eta, 4)
        q = QuantizerSpec(bits=4, dynamic_range=g)
        w = rng.normal(size=200_000) + sample_dither(q.step, rng, size=200_000)
        chebyshev &= np.mean(np.abs(w) >= g) <= overload_probability_bound(eta)
    ok = exact and moments and model_ok and chebyshev
    report(11, ok, "mid-rise values bit-exact; dither moments within 1%; "
           "error moments within 2%; overload bound never violated")


def test_criterion_12_grid_convergence(
    mimo_model, monotonicity_curves, architecture_curves, budget_searches
):
    worst = 0.0

    def gap(a, b):
        return abs(a - b) / max(abs(a), 1e-300)

    # monotonicity sweeps at doubled density
    for k in range(1, 17):
        again = baseline_design(mimo_model, AdcConfig(k, F_NYQ, 4), "task_based",
                                2 * GRID).nmse
        worst = max(worst, gap(monotonicity_curves["K"][k - 1], again))
    for b in range(1, 17):
        again = baseline_design(mimo_model, AdcConfig(4, F_NYQ, b), "task_based",
                                2 * GRID).nmse
        worst = max(worst, gap(monotonicity_curves["b"][b - 1], again))
    for i, r in enumerate((1.0, 1.25, 1.5, 2.0, 3.0, 4.0)):
        again = design_filters(mimo_model, AdcConfig(4, r * F_NYQ, 4), 2 * GRID).nmse
        worst = max(worst, gap(monotonicity_curves["fs_over"][i], again))
    for i, r in enumerate((1, 2, 3, 4, 5, 6, 8)):
        again = design_filters(mimo_model, AdcConfig(4, F_NYQ / r, 4), 2 * GRID).nmse
        worst = max(worst, gap(monotonicity_curves["fs_under"][i], again))
    # architecture ordering curves at doubled density
    for i, b in enumerate(range(1, 17)):
        for arch, k in (
            ("task_based", 4), ("analog_recovery", 4), ("digital_recovery", 16)
        ):
            again = baseline_design(mimo_model, AdcConfig(k, F_NYQ, b), arch,
                                    2 * GRID).nmse
            worst = max(worst, gap(architecture_curves[arch][i], again))
    # best cells of every budget search at doubled (auto) density
    for arch, budget in (
        ("task_based", 0.4e9), ("task_based", 1.2e9), ("task_based", 1.6e9),
        ("task_based", 2.0e9), ("task_based", 800e9),
        ("analog_recovery", 4.0e9), ("digital_recovery", 10.0e9),
    ):
        result = budget_searches(arch, budget)
        cfg = AdcConfig(result.best_k, result.best_fs, result.best_bits)
        doubled = 2 * auto_grid_points(result.best_fs, mimo_model.band_edge)
        again, _ = _converged_time_average(mimo_model, cfg, arch, 16, doubled)
        worst = max(worst, gap(result.best_nmse, again))
    report(12, worst < 1e-4,
           f"largest doubling change across criteria 5-8 reports: {worst:.2e}")
