import numpy as np
import pytest

from taskadc.design import (
    AdcConfig,
    design_digital_filter,
    design_filters,
    theoretical_mse,
)
from taskadc.mmse import whitened_task_stack
from taskadc.scenarios import isotropic_scenario
from taskadc.search import (
    SearchSpec,
    baseline_design,
    designed_shift_kernel,
    mse_at_shifts,
    rate_search,
    shift_mse_kernel,
    shifted_task_design,
    time_averaged_nmse,
)
from taskadc.spectra import alias_order, psd_sqrt, stack_aliases

from conftest import random_flat_model


class TestShiftedTaskDesign:
    def test_zero_shift_is_identity(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.6, 3)  # sub-Nyquist on the unit band
        base = design_filters(model, cfg, 64)
        shifted = shifted_task_design(model, 0.0, cfg, base=base)
        assert abs(shifted.mse_theory - base.mse_theory) <= 1e-12 * base.mse_theory
        np.testing.assert_allclose(shifted.g_freq.values, base.g_freq.values, atol=1e-12)

    def test_period_is_sampling_interval(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.6, 3)
        base = design_filters(model, cfg, 64)
        at_zero = shifted_task_design(model, 0.0, cfg, base=base)
        at_period = shifted_task_design(model, cfg.ts, cfg, base=base)
        assert abs(at_period.nmse - at_zero.nmse) <= 1e-9 * at_zero.nmse

    def test_nyquist_sampling_is_shift_invariant(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 1.25, 8)  # above the unit-band Nyquist rate
        base = design_filters(model, cfg, 64)
        values = [
            shifted_task_design(model, t0, cfg, base=base).nmse
            for t0 in (0.0, 0.31 * cfg.ts, 0.77 * cfg.ts)
        ]
        assert max(values) - min(values) <= 1e-6 * max(values)

    def test_kernel_matches_full_path(self, rng):
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        cfg = AdcConfig(2, 0.45, 4)
        base = design_filters(model, cfg, 64)
        task_stack = whitened_task_stack(model, cfg.fs, 64)
        energy, kernel = shift_mse_kernel(base.h_bar, task_stack, cfg)
        t0s = np.array([0.0, 0.2, 0.55, 0.9]) * cfg.ts
        fast = mse_at_shifts(energy, kernel, cfg, t0s)
        slow = np.array(
            [shifted_task_design(model, float(t), cfg, base=base).mse_theory for t in t0s]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_designed_kernel_matches_general_kernel(self, rng):
        # the cancellation-free designed-filter kernel agrees with the
        # solve-based one wherever the latter is well conditioned
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        for fs, bits in ((0.45, 4), (1.2, 2), (0.7, 6)):
            cfg = AdcConfig(2, fs, bits)
            task_stack = whitened_task_stack(model, cfg.fs, 64)
            h_bar = design_filters(model, cfg, 64).h_bar
            c1, k1 = shift_mse_kernel(h_bar, task_stack, cfg)
            c2, k2 = designed_shift_kernel(task_stack, cfg)
            t0s = np.linspace(0.0, cfg.ts, 9)
            a = mse_at_shifts(c1, k1, cfg, t0s)
            b = mse_at_shifts(c2, k2, cfg, t0s)
            np.testing.assert_allclose(a, b, rtol=1e-9)


class TestTimeAveragedNmse:
    def test_oversampled_profile_is_flat(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=64)
        cfg = AdcConfig(2, 2.0, 12)
        avg = time_averaged_nmse(model, cfg, 16, "task_based", 64)
        base = design_filters(model, cfg, 64)
        assert abs(avg - base.nmse) <= 1e-6 * base.nmse

    def test_sub_nyquist_average_exceeds_snapshot(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.4, 4)
        avg = time_averaged_nmse(model, cfg, 16, "task_based", 64)
        base = design_filters(model, cfg, 64)
        assert avg > base.nmse

    def test_doubling_grid_converges(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.4, 4)
        a16 = time_averaged_nmse(model, cfg, 16, "task_based", 64)
        a32 = time_averaged_nmse(model, cfg, 32, "task_based", 64)
        assert abs(a32 - a16) <= 1e-3 * a16

    @pytest.mark.xfail(
        strict=True,
        reason="the t0 average stops when 16 and 32 midpoints agree, but at alias "
        "order >= 16 the harmonic 2*ups is a multiple of both grids",
    )
    def test_high_alias_order_matches_exact_average(self, rng):
        # mse(t0) = const - Re(p^T K conj(p)) averages exactly to const - Re tr K
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(3, 0.5 / 32, 16)
        assert alias_order(cfg.fs, model.band_edge) == 32
        spec = SearchSpec(rate_budget=cfg.rate, k_range=(3,), b_range=(16,),
                          architecture="digital_recovery", n_points=32)
        searched = rate_search(model, spec).table[0]["nmse"]
        task_stack = whitened_task_stack(model, cfg.fs, 32)
        h_bar = stack_aliases(psd_sqrt(model.input_psd), cfg.fs, model.band_edge, 32)
        const, kernel = shift_mse_kernel(h_bar, task_stack, cfg)
        exact = (const - np.trace(kernel).real) / const
        assert abs(searched - exact) <= 1e-9 * exact

    def test_minimum_grid(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        with pytest.raises(ValueError):
            time_averaged_nmse(model, AdcConfig(1, 1.0, 2), 4)

    @pytest.mark.filterwarnings("error")  # an empty t0 grid warns, then loops forever
    def test_search_rejects_empty_t0_grid(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        spec = SearchSpec(rate_budget=2.0, k_range=(1,), b_range=(2,), n_t0=0, n_points=32)
        with pytest.raises(ValueError, match="n_t0"):
            rate_search(model, spec)

    @pytest.mark.parametrize(
        "arch, k", [("task_based", 2), ("analog_recovery", 2), ("digital_recovery", 3)]
    )
    def test_equals_search_table(self, rng, arch, k):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        # alias order 10: a 16-point mean alone misreads the harmonic at 16*fs
        spec = SearchSpec(rate_budget=k * 3 * 0.05, k_range=(k,), b_range=(3,),
                          architecture=arch, n_points=32)
        row = rate_search(model, spec).table[0]
        cfg = AdcConfig(k, row["fs_hz"], 3)
        assert alias_order(cfg.fs, model.band_edge) == 10
        assert time_averaged_nmse(model, cfg, 16, arch, 32) == row["nmse"]


class TestRateSearch:
    def test_generous_budget_maxes_resolution(self, matched_model):
        spec = SearchSpec(rate_budget=800e9, n_t0=16, n_points=256)
        result = rate_search(matched_model, spec)
        assert result.best_bits == 16
        assert result.best_k == 4
        assert result.best_fs > matched_model.f_nyq

    def test_tight_budget_goes_sub_nyquist(self, matched_model):
        spec = SearchSpec(rate_budget=0.4e9, n_t0=16, n_points=256)
        result = rate_search(matched_model, spec)
        assert result.best_fs < matched_model.f_nyq

    def test_single_cell(self, rng, tmp_path):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        spec = SearchSpec(rate_budget=2.0, k_range=(1,), b_range=(2,), n_points=32)
        result = rate_search(model, spec)
        assert len(result.table) == 1
        assert result.best_bits == 2
        result.to_csv(tmp_path / "table.csv")
        result.to_json(tmp_path / "table.json")
        lines = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "k_adcs,bits,fs_hz,nmse,nmse_t0_0"
        assert len(lines) == 2

    def test_deterministic_and_covers_grid(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        spec = SearchSpec(rate_budget=6.0, b_range=tuple(range(1, 7)), n_points=32)
        first = rate_search(model, spec)
        second = rate_search(model, spec)
        assert first.table == second.table
        assert first.best_nmse == min(r["nmse"] for r in first.table)
        ks = {r["k_adcs"] for r in first.table}
        bs = {r["bits"] for r in first.table}
        assert bs == set(range(1, 7))
        assert ks == {1, 2}  # rank bound keeps K within the task dimension

    def test_empty_budget_rejected(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        with pytest.raises(ValueError):
            SearchSpec(rate_budget=0.0)
        for budget in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SearchSpec(rate_budget=budget)


class TestBaselineDesign:
    def test_architecture_constraints(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(3, 1.0, 2), "analog_recovery", 32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(3, 1.0, 2), "digital_recovery", 32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(2, 1.0, 2), "no_such_arch", 32)

    def test_isotropic_equality(self):
        model = isotropic_scenario(3, fs=1.0, n_points=32)
        cfg = AdcConfig(3, 1.0, 2)
        task = baseline_design(model, cfg, "task_based", 32)
        analog = baseline_design(model, cfg, "analog_recovery", 32)
        assert abs(task.nmse - analog.nmse) <= 1e-9 * task.nmse

    def test_digital_high_resolution_vanishes(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        design = baseline_design(model, AdcConfig(3, 1.0, 16), "digital_recovery", 32)
        assert design.nmse < 1e-6

    def test_unequal_task_variances_penalize_analog(self):
        model = isotropic_scenario(3, fs=1.0, n_points=32,
                                   task_gains=np.array([2.0, 1.0, 0.5]))
        cfg = AdcConfig(3, 1.0, 3)
        task = baseline_design(model, cfg, "task_based", 32)
        analog = baseline_design(model, cfg, "analog_recovery", 32)
        assert analog.nmse > task.nmse * (1 + 1e-6)

    @pytest.mark.parametrize("arch, k", [("analog_recovery", 2), ("digital_recovery", 3)])
    def test_filter_and_error_come_from_one_solve(self, rng, arch, k):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(k, 0.7, 3)
        design = baseline_design(model, cfg, arch, 32)
        task_stack = whitened_task_stack(model, cfg.fs, 32)
        g = design_digital_filter(design.h_bar, task_stack, cfg)
        report = theoretical_mse(design.h_bar, task_stack, cfg)
        assert np.array_equal(design.g_freq.values, g.values)
        assert (design.mse_theory, design.nmse) == (report.mse, report.nmse)

    def test_time_average_supports_all_architectures(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        for arch, k in (("task_based", 2), ("analog_recovery", 2), ("digital_recovery", 3)):
            value = time_averaged_nmse(model, AdcConfig(k, 0.7, 3), 16, arch, 32)
            assert 0.0 <= value <= 1.0 + 1e-9
