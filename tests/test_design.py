import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from taskadc.design import (
    RANK_TOL,
    AdcConfig,
    FilterDesign,
    analog_recovery_is_optimal,
    design_analog_filter,
    design_digital_filter,
    design_filters,
    equalize_diagonal,
    max_rank_bound,
    nyquist_analog_filter,
    quantizer_noise,
    solve_waterfill_level,
    theoretical_mse,
    theoretical_mse_waterfilled,
)
from taskadc.mmse import PINV_CUTOFF, TaskModel, task_energy, whitened_task_stack
from taskadc.quantizer import effective_loading
from taskadc.scenarios import build_scenario, isotropic_scenario
from taskadc.search import (
    baseline_design,
    designed_shift_kernel,
    mse_at_shifts,
    shift_mse_kernel,
    shifted_task_design,
)
from taskadc.spectra import (
    FrequencyGrid,
    SpectralMatrixFunction,
    StackedSpectrum,
    constant_spectrum,
    psd_sqrt,
    row_runs,
)

from conftest import (
    dense_row_runs,
    dense_rows_to_dict,
    dense_waterfilled_residual,
    piecewise_model,
    random_flat_model,
    unit_scalar_model,
)


def scalar_design(bits, eta=2.0, fs=1.0, n_points=128):
    model = unit_scalar_model(fs=fs, n_points=n_points)
    cfg = AdcConfig(k_adcs=1, fs=fs, bits=bits, eta=eta)
    return model, cfg, design_filters(model, cfg, n_points)


class TestAdcConfig:
    def test_rate(self):
        cfg = AdcConfig(k_adcs=4, fs=1e8, bits=3)
        assert cfg.rate == 12e8

    def test_schedule_default(self):
        assert AdcConfig(k_adcs=1, fs=1.0, bits=4).eta == 2.75

    def test_infeasible_loading(self):
        with pytest.raises(ValueError):
            AdcConfig(k_adcs=1, fs=1.0, bits=1, eta=3.0)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0])
    def test_eta_must_be_positive_and_finite(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            AdcConfig(k_adcs=1, fs=1.0, bits=4, eta=eta)

    def test_bits_whose_step_overflows_are_rejected(self):
        # 4**511 = 2**1022 is a finite float, 4**512 is not
        assert AdcConfig(2, 4e8, 511).bits == 511
        with pytest.raises(ValueError, match="bits"):
            AdcConfig(2, 4e8, 512)

    def test_numpy_integer_counts_reach_design_json(self, rng):
        cfg = AdcConfig(np.int64(2), 1.0, np.int32(3))
        assert (type(cfg.k_adcs), type(cfg.bits)) == (int, int)
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        data = json.loads(json.dumps(design_filters(model, cfg, 32).to_dict()))
        assert (data["k_adcs"], data["bits"]) == (2, 3)

    @pytest.mark.parametrize("kw", [
        dict(k_adcs=0), dict(bits=0), dict(fs=-1.0),
        # counts that are not whole numbers
        dict(bits=4.5), dict(k_adcs=2.5), dict(k_adcs=np.float64(2.0)), dict(bits=True),
    ])
    def test_invalid_fields(self, kw):
        base = dict(k_adcs=1, fs=1.0, bits=1)
        base.update(kw)
        with pytest.raises(ValueError):
            AdcConfig(**base)


class TestWaterfillLevel:
    def test_flat_scalar_one_bit(self):
        grid = FrequencyGrid(-0.5, 0.5, 32)
        cfg = AdcConfig(1, 1.0, 1, eta=2.0)
        sig = np.ones((32, 1))
        zeta = solve_waterfill_level(sig, np.arange(grid.n_points), grid, cfg)
        assert abs(zeta - (1 + 4.0 / 12.0)) < 1e-12

    def test_flat_scalar_four_bit(self):
        grid = FrequencyGrid(-0.5, 0.5, 32)
        cfg = AdcConfig(1, 1.0, 4, eta=2.0)
        zeta = solve_waterfill_level(np.ones((32, 1)), np.arange(32), grid, cfg)
        kappa = effective_loading(2.0, 4)
        assert abs(zeta - (1 + 256.0 / kappa)) < 1e-9

    def test_doubling_halves_level(self, rng):
        grid = FrequencyGrid(-0.5, 0.5, 64)
        cfg = AdcConfig(2, 1.0, 3, eta=2.0)
        sig = rng.uniform(0.5, 2.0, size=(64, 2))
        z1 = solve_waterfill_level(sig, np.arange(grid.n_points), grid, cfg)
        z2 = solve_waterfill_level(2 * sig, np.arange(grid.n_points), grid, cfg)
        if np.all(z1 * sig > 1):  # all modes active
            assert abs(z2 - z1 / 2) < 1e-10 * z1

    def test_zero_task_rejected(self):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        with pytest.raises(ValueError):
            solve_waterfill_level(np.zeros((8, 1)), np.arange(8), grid, AdcConfig(1, 1.0, 1))

    @pytest.mark.parametrize("starts, shape", [
        ([1, 4], (2, 1)),  # not from 0
        ([0, 4, 4], (3, 1)),  # not strictly rising
        ([0, 8], (2, 1)),  # past the grid
        ([], (0, 1)),
        ([0, 4], (3, 1)),  # a row without a run
        (range(8), (8,)),  # a one-dimensional profile
    ])
    def test_bad_runs_rejected(self, starts, shape):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        with pytest.raises(ValueError, match="must rise strictly|one row of singular values"):
            solve_waterfill_level(np.ones(shape), np.array(starts, dtype=int), grid,
                                  AdcConfig(1, 1.0, 1))

    def test_kinked_profile_residual(self, rng):
        # profile with many inactive modes still satisfies the constraint exactly
        grid = FrequencyGrid(-0.5, 0.5, 128)
        cfg = AdcConfig(3, 1.0, 2, eta=2.0)
        sig = rng.uniform(0.0, 1.0, size=(128, 3)) ** 4
        zeta = solve_waterfill_level(sig, np.arange(grid.n_points), grid, cfg)
        kappa = effective_loading(2.0, 2)
        lhs = (
            kappa
            * cfg.ts
            / cfg.k_adcs
            * np.sum(grid.weights[:, None] * np.maximum(zeta * sig - 1, 0.0) / 4.0**2)
        )
        assert abs(lhs - 1.0) < 1e-12


class TestEqualizeDiagonal:
    def test_already_equal(self):
        u = equalize_diagonal(3.0 * np.eye(4))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(np.diag(u @ (3 * np.eye(4)) @ u.conj().T), 3.0)

    def test_two_by_two(self):
        a = np.diag([1.0, 3.0])
        u = equalize_diagonal(a)
        out = u @ a @ u.conj().T
        np.testing.assert_allclose(np.diag(out).real, [2.0, 2.0], atol=1e-12)

    def test_random_hermitian(self, rng):
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = b @ b.conj().T
        u = equalize_diagonal(a)
        out = u @ a @ u.conj().T
        target = np.trace(a).real / 5
        assert np.abs(np.diag(out).real - target).max() <= 1e-12 * np.trace(a).real
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            equalize_diagonal(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestAnalogDesign:
    def test_scalar_flat_profile(self):
        _, cfg, design = scalar_design(bits=1)
        expected = (design.water_level - 1.0) / 4.0
        np.testing.assert_allclose(
            np.abs(design.h_bar.blocks[:, 0, 0]) ** 2, expected, rtol=1e-12
        )

    def test_high_resolution_activates_everything(self, rng):
        model = random_flat_model(rng, n=3, m=4, n_points=64)
        cfg = AdcConfig(k_adcs=3, fs=1.0, bits=16)
        stack = whitened_task_stack(model, 1.0, 64)
        design = design_analog_filter(stack, cfg)
        sig = design.sigma_task
        active = design.sigma_h > 0
        assert np.array_equal(active, sig > 1e-12 * sig.max())

    def test_isotropic_power_pattern(self):
        model = isotropic_scenario(3, fs=1.0)
        cfg = AdcConfig(k_adcs=3, fs=1.0, bits=3)
        stack = whitened_task_stack(model, 1.0, 32)
        design = design_analog_filter(stack, cfg)
        h_outer = design.h_bar.blocks @ design.h_bar.blocks.conj().swapaxes(-1, -2)
        g_outer = stack.blocks @ stack.blocks.conj().swapaxes(-1, -2)
        ratio = h_outer[0, 0, 0] / g_outer[0, 0, 0]
        np.testing.assert_allclose(h_outer, ratio * g_outer, atol=1e-12)

    def test_support_constraint_and_equal_rows(self, rng):
        model = random_flat_model(rng, n=3, m=6, n_points=64)
        cfg = AdcConfig(k_adcs=2, fs=1.3, bits=2)
        design = design_filters(model, cfg, 64)
        kappa = effective_loading(cfg.eta, cfg.bits)
        lhs = kappa * cfg.ts / cfg.k_adcs * float(
            design.h_bar.base_grid.weights @ (design.sigma_h**2).sum(axis=1)
        )
        assert abs(lhs - 1.0) < 1e-9
        outer = design.h_bar.blocks @ design.h_bar.blocks.conj().swapaxes(-1, -2)
        diags = np.diagonal(outer, axis1=1, axis2=2).real
        trace = diags.sum(axis=1)
        spread = np.abs(diags - trace[:, None] / cfg.k_adcs).max()
        assert spread <= 1e-9 * max(trace.max(), 1e-300)

    def test_too_many_converters(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=16)
        stack = whitened_task_stack(model, 1.0, 16)
        with pytest.raises(ValueError):
            design_analog_filter(stack, AdcConfig(k_adcs=4, fs=1.0, bits=2))

    def test_designed_noise_level_is_ts_scaled(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(k_adcs=2, fs=0.8, bits=3)
        design = design_filters(model, cfg, 64)
        noise_var, gamma = quantizer_noise(design.h_bar, cfg)
        assert abs(gamma**2 - cfg.ts) < 1e-12 * cfg.ts
        assert abs(noise_var - cfg.ts / 4.0**cfg.bits) < 1e-12 * noise_var


class TestDigitalFilter:
    def test_scalar_shrinkage(self):
        model, cfg, design = scalar_design(bits=2)
        stack = whitened_task_stack(model, cfg.fs, 128)
        g = design_digital_filter(design.h_bar, stack, cfg)
        noise_var, _ = quantizer_noise(design.h_bar, cfg)
        h = design.h_bar.blocks[:, 0, 0]
        s = stack.blocks[:, 0, 0] * np.conj(h)
        expected = s / (cfg.ts * np.abs(h) ** 2 + noise_var)
        np.testing.assert_allclose(g.values[:, 0, 0], expected, rtol=1e-12)

    def test_fine_quantization_projects_task(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(k_adcs=2, fs=1.0, bits=16)
        stack = whitened_task_stack(model, 1.0, 64)
        design = design_analog_filter(stack, cfg)
        g = design_digital_filter(design.h_bar, stack, cfg)
        # applying the digital filter to the sampled analog output recovers
        # the task response on its own range
        recovered = cfg.ts * (g.values @ design.h_bar.blocks)
        lhs = recovered @ stack.blocks.conj().swapaxes(-1, -2)
        rhs = stack.blocks @ stack.blocks.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-7 * np.abs(rhs).max())

    def test_zero_filter_gives_zero_recovery(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        stack = whitened_task_stack(model, 1.0, 16)
        zero = StackedSpectrum(
            base_grid=stack.base_grid,
            alias_order_=stack.alias_order_,
            blocks=np.zeros((16, 1, stack.stacked_cols), dtype=complex),
            block_cols=stack.block_cols,
        )
        cfg = AdcConfig(k_adcs=1, fs=1.0, bits=2)
        g = design_digital_filter(zero, stack, cfg)
        np.testing.assert_allclose(g.values, 0.0)
        report = theoretical_mse(zero, stack, cfg)
        assert abs(report.nmse - 1.0) < 1e-12
        assert abs(report.mse - task_energy(stack)) < 1e-12

    @pytest.mark.parametrize("solve", [design_digital_filter, theoretical_mse])
    def test_stacks_from_different_bands(self, matched_model, solve):
        # alias order 2 and 4096 points both, on [-50, 50] and [-45, 45] MHz
        cfg = AdcConfig(2, 100e6, 4)
        h_bar = design_filters(matched_model, cfg, 4096).h_bar
        task_stack = whitened_task_stack(matched_model, 90e6, 4096)
        with pytest.raises(ValueError, match="share the baseband grid"):
            solve(h_bar, task_stack, cfg)


class TestTheoreticalMse:
    def test_scalar_one_bit_closed_form(self):
        _, _, design = scalar_design(bits=1)
        assert abs(design.nmse - 0.75) < 1e-12

    def test_sixteen_bit_is_tiny(self):
        _, _, design = scalar_design(bits=16, eta=2.0)
        assert design.nmse < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_general_matches_diagonal_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 9))
        model = random_flat_model(rng, n=n, m=m, n_points=64)
        k = int(rng.integers(1, n + 1))
        fs = float(rng.uniform(0.4, 2.5))
        cfg = AdcConfig(k_adcs=k, fs=fs, bits=int(rng.integers(1, 9)))
        design = design_filters(model, cfg, 64)
        stack = whitened_task_stack(model, fs, 64)
        general = theoretical_mse(design.h_bar, stack, cfg)
        diagonal = theoretical_mse_waterfilled(design)
        assert abs(general.mse - diagonal.mse) <= 1e-9 * max(abs(diagonal.mse), 1e-300)

    def test_default_task_stack_shares_the_design_grid(self, matched_model):
        # whitened_task_stack's default density is the one the design used
        cfg = AdcConfig(4, 25e6, 4)
        design = design_filters(matched_model, cfg)
        stack = whitened_task_stack(matched_model, cfg.fs)
        assert stack.base_grid == design.h_bar.base_grid
        general = theoretical_mse(design.h_bar, stack, cfg).mse
        assert abs(general - design.mse_theory) <= 1e-9 * design.mse_theory

    def test_nmse_bounds(self, rng):
        model = random_flat_model(rng, n=2, m=5, n_points=32)
        for bits in (1, 3, 7):
            design = design_filters(model, AdcConfig(2, 1.0, bits), 32)
            assert -1e-12 <= design.nmse <= 1.0 + 1e-9

    def test_monotone_in_bits_and_converters(self, rng):
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        by_bits = [
            design_filters(model, AdcConfig(2, 1.0, b), 64).nmse for b in range(1, 9)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(by_bits, by_bits[1:]))
        by_k = [
            design_filters(model, AdcConfig(k, 1.0, 3), 64).nmse for k in range(1, 6)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(by_k, by_k[1:]))

    def test_nyquist_bits_beat_oversampling_at_fixed_rate(self, matched_model):
        # with the rate and converter count fixed, spending it on resolution
        # at the Nyquist rate never loses to oversampling at lower resolution
        f_nyq = matched_model.f_nyq
        k, b_nyq = 4, 6
        rate = k * f_nyq * b_nyq
        at_nyquist = design_filters(
            matched_model, AdcConfig(k, f_nyq, b_nyq), 512
        ).nmse
        for factor in (1.5, 2.0, 3.0):
            fs = factor * f_nyq
            bits = int(rate // (k * fs))
            rival = design_filters(matched_model, AdcConfig(k, fs, bits), 512).nmse
            assert at_nyquist <= rival + 1e-12 * rival

    def test_scaling_invariance(self, rng):
        # scaling the task: mse scales quadratically, nmse and the active set
        # stay, the water level shrinks by the same factor
        model = random_flat_model(rng, n=2, m=4, n_points=32)
        cfg = AdcConfig(2, 1.0, 3)
        stack = whitened_task_stack(model, 1.0, 32)
        scaled = StackedSpectrum(
            base_grid=stack.base_grid,
            alias_order_=stack.alias_order_,
            blocks=3.0 * stack.blocks,
            block_cols=stack.block_cols,
        )
        d1 = design_analog_filter(stack, cfg)
        d2 = design_analog_filter(scaled, cfg)
        r1 = theoretical_mse_waterfilled(d1)
        r2 = theoretical_mse_waterfilled(d2)
        assert abs(r2.mse - 9.0 * r1.mse) <= 1e-9 * abs(r2.mse)
        assert abs(r2.nmse - r1.nmse) <= 1e-9
        if np.all(d1.sigma_h > 0):
            assert abs(d2.water_level - d1.water_level / 3.0) <= 1e-9 * d1.water_level


class TestOptimality:
    def test_analog_filter_is_unbeaten(self, rng):
        # random feasible singular-value profiles never improve on the design
        model = random_flat_model(rng, n=2, m=4, n_points=48)
        cfg = AdcConfig(2, 1.0, 2)
        stack = whitened_task_stack(model, 1.0, 48)
        design = design_filters(model, cfg, 48)
        base = theoretical_mse(design.h_bar, stack, cfg)
        kappa = effective_loading(cfg.eta, cfg.bits)
        budget = cfg.k_adcs / (kappa * cfg.ts)
        w = stack.base_grid.weights
        for _ in range(40):
            factor = rng.uniform(0.5, 1.5, size=design.sigma_h.shape)
            perturbed = design.sigma_h * np.where(design.sigma_h > 0, factor, 1.0)
            total = float(w @ (perturbed**2).sum(axis=1))
            perturbed *= np.sqrt(budget / total)
            u, s, vh = np.linalg.svd(stack.blocks, full_matrices=False)
            r = min(s.shape[1], cfg.k_adcs)
            blocks = np.zeros_like(design.h_bar.blocks)
            blocks[:, :r, :] = perturbed[:, :r, None] * vh[:, :r, :]
            h_alt = StackedSpectrum(
                base_grid=stack.base_grid,
                alias_order_=stack.alias_order_,
                blocks=blocks,
                block_cols=stack.block_cols,
            )
            alt = theoretical_mse(h_alt, stack, cfg)
            assert alt.mse >= base.mse - 1e-10 * design.task_energy

    def test_digital_filter_is_unbeaten(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(2, 1.0, 3)
        stack = whitened_task_stack(model, 1.0, 32)
        design = design_filters(model, cfg, 32)
        g_opt = design.g_freq.values
        noise_var, _ = quantizer_noise(design.h_bar, cfg)
        h = design.h_bar.blocks
        c_out = cfg.ts * (h @ h.conj().swapaxes(-1, -2))
        c_out[:, np.arange(2), np.arange(2)] += noise_var
        s = stack.blocks @ h.conj().swapaxes(-1, -2)
        w = stack.base_grid.weights
        energy = design.task_energy

        def quadratic_mse(g):
            lin = np.einsum("jnk,jnk->j", g.conj(), s).real
            quad = np.einsum("jnk,jkl,jnl->j", g.conj(), c_out, g).real
            return energy - cfg.ts * float(w @ (2 * lin - quad))

        base = quadratic_mse(g_opt)
        assert abs(base - design.mse_theory) <= 1e-9 * max(abs(base), 1e-300)
        for _ in range(20):
            bump = rng.standard_normal(g_opt.shape) + 1j * rng.standard_normal(g_opt.shape)
            alt = quadratic_mse(g_opt + 0.1 * bump * np.abs(g_opt).mean())
            assert alt >= base - 1e-12 * energy


class TestRankAndIsotropy:
    def test_single_row_rank(self):
        model = unit_scalar_model(fs=1.0, n_points=16)
        assert max_rank_bound(whitened_task_stack(model, 1.0, 16)) == 1

    def test_zero_rank(self):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        stack = StackedSpectrum(
            base_grid=grid, alias_order_=0,
            blocks=np.zeros((8, 2, 3), dtype=complex), block_cols=3,
        )
        assert max_rank_bound(stack) == 0

    def test_matched_scenario_bound(self, matched_model):
        stack = whitened_task_stack(matched_model, matched_model.f_nyq, 128)
        assert max_rank_bound(stack) == 4

    def test_piecewise_flat_matches_dense_references(self, rng):
        # three flat pieces, one with a rank-1 task: per-run work must equal
        # per-point SVDs and solves bit for bit
        n_pts, n, m = 96, 2, 3
        piece = np.repeat(np.arange(3), n_pts // 3)
        a = rng.standard_normal((3, m, m))
        input_level = a @ a.swapaxes(-1, -2) + m * np.eye(m)
        cross_level = rng.standard_normal((3, n, m))
        cross_level[1, 1] = 2.0 * cross_level[1, 0]
        grid = FrequencyGrid(-0.5, 0.5, n_pts)

        def spectrum(levels, kind):
            return SpectralMatrixFunction(grid=grid, values=levels[piece], kind=kind)

        model = TaskModel(
            task_filter=spectrum(cross_level @ np.linalg.inv(input_level), "filter"),
            input_psd=spectrum(input_level, "psd"),
        )
        cfg = AdcConfig(2, 0.6, 4)
        stack = whitened_task_stack(model, cfg.fs, n_pts)
        assert stack.alias_order_ == 1
        assert 3 <= row_runs(stack.blocks)[0].size < n_pts

        s_ref = np.linalg.svd(stack.blocks, compute_uv=False)
        ranks = np.sum(s_ref > RANK_TOL * s_ref[:, :1], axis=1)
        assert max_rank_bound(stack) == ranks.max() == 2

        design = design_filters(model, cfg, n_pts)
        _, s_task, _ = np.linalg.svd(stack.blocks, full_matrices=False)
        assert np.array_equal(design.sigma_task, s_task)
        h = design.h_bar.blocks
        h_conj = h.conj().swapaxes(-1, -2)
        c_out = cfg.ts * (h @ h_conj)
        c_out[:, np.arange(2), np.arange(2)] += design.quant_noise_var
        g_ref = np.linalg.solve(c_out, (stack.blocks @ h_conj).conj().swapaxes(-1, -2))
        assert np.array_equal(design.g_freq.values, g_ref.conj().swapaxes(-1, -2))

    def test_isotropy_predicate(self):
        assert analog_recovery_is_optimal(3.0 * np.eye(4))
        assert not analog_recovery_is_optimal(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            analog_recovery_is_optimal(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _same_bits(a, b) -> bool:
    """Exact equality of design fields, down to the sign of zero."""
    if a is None or b is None:
        return a is b
    if isinstance(a, StackedSpectrum):
        return (a.alias_order_, a.block_cols, a.fs) == (b.alias_order_, b.block_cols, b.fs) and (
            _same_bits(a.base_grid.points, b.base_grid.points) and _same_bits(a.blocks, b.blocks)
        )
    if isinstance(a, SpectralMatrixFunction):
        return a.kind == b.kind and _same_bits(a.grid.points, b.grid.points) and (
            _same_bits(a.values, b.values)
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _json_round_trip(design: FilterDesign) -> FilterDesign:
    return FilterDesign.from_dict(json.loads(json.dumps(design.to_dict())))


def _fields_lost(design: FilterDesign, loaded: FilterDesign) -> list:
    """The fields whose loaded value differs from the saved one, bit for bit,
    as the benchmark's ``fields_lost`` counts them."""
    return [
        f.name for f in fields(design)
        if not _same_bits(getattr(design, f.name), getattr(loaded, f.name))
    ]


def _as_pairs(data: dict) -> dict:
    """design.json with ``h_bar`` and ``h`` rewritten from ``real_values`` to
    ``values`` of [re, im] pairs with +0.0 imaginary parts."""
    out = dict(data)
    for key in ("h_bar", "h"):
        field = data[key]
        if field is not None:
            field = dict(field)
            re = np.asarray(field.pop("real_values"), dtype=float)
            out[key] = dict(field, values=np.stack([re, np.zeros_like(re)], -1).ravel().tolist())
    return out


def _varying_model(rng, n_pts: int) -> TaskModel:
    """Smooth, non-flat spectra: every grid row differs from its neighbours."""
    grid = FrequencyGrid(-0.5, 0.5, n_pts)
    a = rng.standard_normal((3, 3))
    tilt = 1.0 + grid.points[:, None, None] ** 2
    input_psd = (a @ a.T + 3.0 * np.eye(3)) * tilt
    cross = rng.standard_normal((2, 3)) * (1.0 + 0.5 * grid.points[:, None, None])
    return TaskModel(
        task_filter=SpectralMatrixFunction(
            grid=grid, values=cross @ np.linalg.inv(input_psd), kind="filter"
        ),
        input_psd=SpectralMatrixFunction(grid=grid, values=input_psd, kind="psd"),
    )


class TestDesignJson:
    @pytest.mark.parametrize(
        "arch, k, fs",
        [
            ("task_based", 4, 400e6),  # unaliased
            ("task_based", 4, 100e6),  # alias order 2
            ("task_based", 1, 100e6),  # sigma_h and sigma_task runs differ
            ("analog_recovery", 4, 400e6),
            ("analog_recovery", 4, 100e6),
            ("digital_recovery", 16, 400e6),
            ("digital_recovery", 16, 100e6),
        ],
    )
    def test_round_trip_is_exact(self, matched_model, arch, k, fs):
        design = baseline_design(matched_model, AdcConfig(k, fs, 4), arch, 512)
        back = _json_round_trip(design)
        # run starts included; a tuple field would crash the benchmark's check
        assert _fields_lost(design, back) == []
        for f in fields(design):
            value = getattr(design, f.name)
            assert value is None or not isinstance(value, (tuple, list)), f.name
        # each profile's runs are those of its own dense rows
        for name in ("sigma_h", "sigma_task")[: 2 if arch == "task_based" else 1]:
            dense = getattr(design, name)
            assert np.array_equal(getattr(design, f"{name}_starts"), dense_row_runs(dense)[0])
        if arch == "task_based":
            assert theoretical_mse_waterfilled(back).nmse == design.nmse
        else:
            assert back.water_level is None and back.sigma_task is None
            assert back.sigma_task_starts is None

    def test_flat_design_stores_one_run(self, matched_model):
        data = design_filters(matched_model, AdcConfig(4, 400e6, 4), 512).to_dict()
        assert data["version"] == 2
        assert data["h_bar"]["rows"] == 4
        for key in ("h_bar", "sigma_h", "sigma_task", "g_freq", "h"):
            assert data[key]["run_starts"] == [0]

    def test_varying_psd_round_trip(self, rng):
        n_pts = 32
        design = design_filters(_varying_model(rng, n_pts), AdcConfig(2, 1.0, 4), n_pts)
        assert row_runs(design.h_bar.blocks)[0].size == n_pts  # one run per row
        back = _json_round_trip(design)
        for f in fields(design):
            assert _same_bits(getattr(design, f.name), getattr(back, f.name)), f.name

    def test_aliased_varying_psd_round_trip(self, rng):
        # alias order 2: no two neighbouring blocks agree, so every block is
        # stored as its own run, without block_starts
        n_pts = 32
        design = design_filters(_varying_model(rng, n_pts), AdcConfig(2, 0.3, 4), n_pts)
        assert design.h_bar.alias_order_ == 2
        assert "block_starts" not in design.to_dict()["h_bar"]
        back = _json_round_trip(design)
        for f in fields(design):
            assert _same_bits(getattr(design, f.name), getattr(back, f.name)), f.name

    def test_missing_h_bar_row_is_an_error(self, rng):
        self._check_missing_h_bar_row(rng, pairs=False)

    def test_missing_h_bar_row_in_pairs_layout_is_an_error(self, rng):
        self._check_missing_h_bar_row(rng, pairs=True)

    @staticmethod
    def _check_missing_h_bar_row(rng, pairs):
        # a 2-row h_bar of one run: its pairs one row short are exactly as
        # many numbers as its real parts, and must still raise; a row holds
        # the stored blocks of every row run
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        design = design_filters(model, AdcConfig(2, 0.7, 3), 32)
        data = _as_pairs(design.to_dict()) if pairs else design.to_dict()
        FilterDesign.from_dict(data)  # whole, it loads
        key = "values" if pairs else "real_values"
        h_bar = data["h_bar"]
        stored_blocks = sum(map(len, h_bar["block_starts"]))
        one_row = (2 if pairs else 1) * stored_blocks * design.h_bar.block_cols
        assert len(h_bar[key]) == 2 * one_row
        data["h_bar"] = dict(h_bar, **{key: h_bar[key][:-one_row]})
        with pytest.raises(ValueError, match="values length"):
            FilterDesign.from_dict(data)

    def test_value_layout_keys_are_checked(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        data = design_filters(model, AdcConfig(2, 0.7, 3), 32).to_dict()
        h_bar, sigma_h = data["h_bar"], data["sigma_h"]
        both = dict(h_bar, values=2 * h_bar["real_values"])
        real_float = {"run_starts": sigma_h["run_starts"], "real_values": sigma_h["values"]}
        for key, field in [("h_bar", both), ("sigma_h", real_float)]:
            with pytest.raises(ValueError, match="real_values for complex rows, not both"):
                FilterDesign.from_dict(dict(data, **{key: field}))

    @pytest.mark.parametrize("fs", [400e6, 100e6])  # with h, and aliased without
    def test_real_spectra_store_real_parts(self, matched_model, fs):
        design = design_filters(matched_model, AdcConfig(4, fs, 4), 512)
        data = design.to_dict()
        for key in ("h_bar", "h"):
            spectrum = getattr(design, key)
            if spectrum is None:
                continue
            rows = spectrum.run_blocks if key == "h_bar" else spectrum.run_values
            assert not np.signbit(rows.imag).any() and not rows.imag.any()
            assert "values" not in data[key]
            # h_bar stores the blocks that begin its block runs, h every run row
            stored = rows.size
            if key == "h_bar" and spectrum.alias_order_ > 0:
                stored_blocks = sum(map(len, data[key]["block_starts"]))
                stored = stored_blocks * spectrum.rows * spectrum.block_cols
            assert len(data[key]["real_values"]) == stored
        # the solve conjugates real values: -0.0 imaginary parts keep the pairs
        g = design.g_freq.run_values
        assert np.signbit(g.imag).any()
        assert len(data["g_freq"]["values"]) == 2 * g.size

    def test_shifted_design_keeps_pairs(self, matched_model):
        base = design_filters(matched_model, AdcConfig(4, 100e6, 4), 512)
        design = shifted_task_design(matched_model, base, 0.3 * base.cfg.ts)
        data = design.to_dict()
        assert len(data["g_freq"]["values"]) == 2 * design.g_freq.run_values.size
        back = _json_round_trip(design)
        for f in fields(design):
            assert _same_bits(getattr(design, f.name), getattr(back, f.name)), f.name

    def test_pairs_layout_loads(self, matched_model):
        # every complex field as [re, im] pairs, as older writers stored it
        design = design_filters(matched_model, AdcConfig(4, 400e6, 4), 512)
        data = json.loads(json.dumps(design.to_dict()))
        pairs = _as_pairs(data)
        assert len(pairs["h_bar"]["values"]) == 2 * len(data["h_bar"]["real_values"])
        back = FilterDesign.from_dict(pairs)
        for f in fields(design):
            assert _same_bits(getattr(design, f.name), getattr(back, f.name)), f.name

    def test_version_1_file_is_rejected(self, rng):
        # version 1 (no version key, or 1) never stored sigma_h: no lossless load
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        data = design_filters(model, AdcConfig(1, 1.0, 2), 16).to_dict()
        with pytest.raises(ValueError, match="version 1 is not 2"):
            FilterDesign.from_dict(dict(data, version=1))
        del data["version"]
        with pytest.raises(ValueError, match="version None is not 2"):
            FilterDesign.from_dict(data)

    @pytest.mark.parametrize(
        "key", ["g_freq", "mse", "nmse", "dynamic_range", "quant_noise_var"]
    )
    def test_null_required_field_is_rejected(self, rng, key):
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        data = design_filters(model, AdcConfig(1, 1.0, 2), 16).to_dict()
        with pytest.raises(ValueError, match=f"design.json has null {key}$"):
            FilterDesign.from_dict(dict(data, **{key: None}))

    def test_file_without_t0_loads_unshifted(self, rng):
        # design.json before the shift was stored: every saved design was unshifted
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        design = design_filters(model, AdcConfig(1, 1.0, 2), 16)
        data = design.to_dict()
        assert data.pop("t0") == 0.0
        back = FilterDesign.from_dict(data)
        for f in fields(design):
            assert _same_bits(getattr(design, f.name), getattr(back, f.name)), f.name

    @pytest.mark.parametrize("t0", ["0", True, math.nan, math.inf])
    def test_bad_t0_is_rejected(self, rng, t0):
        # "0" raised numpy's TypeError and True read as a 1 s shift
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        base = design_filters(model, AdcConfig(1, 1.0, 2), 16)
        with pytest.raises(ValueError, match="t0 must be a finite number"):
            FilterDesign.from_dict(dict(base.to_dict(), t0=t0))
        with pytest.raises(ValueError, match="t0 must be a finite number"):
            shifted_task_design(model, base, t0)

    def test_newer_version_is_rejected(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        data = design_filters(model, AdcConfig(1, 1.0, 2), 16).to_dict()
        with pytest.raises(ValueError, match="version"):
            FilterDesign.from_dict(dict(data, version=3))

    def test_missing_key_is_named(self, rng):
        # a bare KeyError used to escape; t0 alone may be missing
        model = random_flat_model(rng, n=1, m=2, n_points=16)
        data = design_filters(model, AdcConfig(1, 1.0, 2), 16).to_dict()
        keys = sorted(set(data) - {"version", "t0"})
        assert len(keys) == 16
        for key in keys:
            partial = {k: v for k, v in data.items() if k != key}
            with pytest.raises(ValueError, match=f"^design.json has no {key}$"):
                FilterDesign.from_dict(partial)
        incomplete = {k: v for k, v in data.items() if k not in ("mse", "h_bar")}
        with pytest.raises(ValueError, match="^design.json has no mse, h_bar$"):
            FilterDesign.from_dict(incomplete)


class TestProfileRuns:
    """A design keeps its singular-value profiles as runs, each with its own
    partition: the runs ``row_runs`` finds in the dense profile."""

    def test_profiles_with_their_own_runs(self, matched_model):
        # K = 1 at alias order 2: the task's singular values change in the
        # middle of the band, the single designed one does not
        design = design_filters(matched_model, AdcConfig(1, 100e6, 4), 512)
        assert design.sigma_h_starts.tolist() == [0]
        assert design.sigma_task_starts.tolist() == [0, 256]
        data = design.to_dict()
        for name in ("sigma_h", "sigma_task"):
            dense = getattr(design, name)
            assert json.dumps(data[name]) == json.dumps(dense_rows_to_dict(dense))

    @pytest.mark.parametrize("k, fs", [(1, 100e6), (2, 400e6), (4, 25e6)])
    def test_closed_form_matches_dense_profiles(self, matched_model, k, fs):
        design = design_filters(matched_model, AdcConfig(k, fs, 4), 512)
        grid = design.h_bar.base_grid
        dense = dense_waterfilled_residual(
            design.sigma_task, design.sigma_h, grid.weights, 4, np.arange(grid.n_points)
        )
        assert theoretical_mse_waterfilled(design).mse == dense == design.mse_theory

    def test_dense_profiles_are_read_only(self, matched_model):
        design = design_filters(matched_model, AdcConfig(2, 100e6, 4), 512)
        assert design.sigma_h is design.sigma_h  # expanded once
        for name in ("sigma_h", "sigma_task", "run_sigma_h", "sigma_h_starts"):
            assert not getattr(design, name).flags.writeable, name
        with pytest.raises(AttributeError):
            design.sigma_h = np.zeros((512, 2))


def dense_nyquist_analog_filter(
    design: FilterDesign, c_x: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """The Nyquist unstack on every grid row: the input-PSD root sampled at
    each base point, runs found in the dense rows of h_bar and the root."""
    grid = design.h_bar.base_grid
    sampled = psd_sqrt(c_x).sample(grid.points)
    starts, _ = row_runs(design.h_bar.blocks, sampled)
    inv = np.linalg.pinv(sampled[starts], rcond=PINV_CUTOFF, hermitian=True)
    values = design.h_bar.blocks[starts] @ inv
    return SpectralMatrixFunction(grid=grid, values=values, kind="filter", run_starts=starts)


def _assert_same_runs(a: SpectralMatrixFunction, b: SpectralMatrixFunction) -> None:
    assert np.array_equal(a.run_starts, b.run_starts)
    assert np.array_equal(a.run_values, b.run_values)


class TestNyquistUnstacking:
    @pytest.mark.parametrize("seed", [0, 40])
    @pytest.mark.parametrize("fs", [400e6, 1.6e9 / 3, 1.6e9])
    def test_matches_dense_unstack_on_scenario(self, matched_spec, seed, fs):
        model = build_scenario(replace(matched_spec, channel_seed=seed))
        for k in range(1, 5):
            design = design_filters(model, AdcConfig(k, fs, 4))
            _assert_same_runs(design.h, dense_nyquist_analog_filter(design, model.input_psd))

    @pytest.mark.parametrize("n_points", [64, 74, 101])
    def test_matches_dense_unstack_on_piecewise_psd(self, n_points):
        # 4 input-PSD runs, one rank-deficient, looked up on design grids
        # whose cells do not line up with the model's runs
        model = piecewise_model(n_points)
        for k in (1, 2):
            for fs in (1.0, 1.25, 2.0):
                for grid_points in (64, 74, 100):
                    design = design_filters(model, AdcConfig(k, fs, 3), grid_points)
                    dense = dense_nyquist_analog_filter(design, model.input_psd)
                    assert dense.run_starts.size > 1
                    _assert_same_runs(design.h, dense)

    def test_design_expands_no_dense_grid(self, matched_spec):
        model = build_scenario(matched_spec)
        design = design_filters(model, AdcConfig(4, matched_spec.f_nyq, 4))
        assert design.h is not None
        assert "blocks" not in design.h_bar.__dict__
        assert "values" not in model.input_psd.__dict__
        assert "values" not in model._input_root.__dict__

    def test_unstack_reuses_the_models_input_root(self, matched_spec, monkeypatch):
        import taskadc.design
        import taskadc.mmse

        model = build_scenario(matched_spec)
        cfg = AdcConfig(4, matched_spec.f_nyq, 4)
        first = design_filters(model, cfg)
        calls = []

        def counted(c):
            calls.append(c)
            return psd_sqrt(c)

        # both modules that build on the root: neither may compute it again
        for module in (taskadc.mmse, taskadc.design):
            monkeypatch.setattr(module, "psd_sqrt", counted, raising=False)
        again = design_filters(model, cfg)
        assert calls == []
        _assert_same_runs(again.h, first.h)

    def test_full_rank_recovery(self, rng):
        # h @ C_x^{1/2} must reproduce the stacked response (full-rank PSD)
        from taskadc.spectra import psd_sqrt

        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(2, 1.0, 4)
        design = design_filters(model, cfg, 32)
        assert design.h is not None
        l_root = psd_sqrt(model.input_psd).values[0]
        scale = np.abs(design.h_bar.blocks).max()
        np.testing.assert_allclose(
            design.h.values @ l_root, design.h_bar.blocks, atol=1e-9 * scale
        )

    def test_rank_deficient_nullspace(self):
        # input PSD with a dead direction: the analog filter ignores it
        grid = FrequencyGrid(-0.5, 0.5, 16)
        from taskadc.mmse import TaskModel

        psd = np.diag([1.0, 0.0])
        model = TaskModel(
            task_filter=constant_spectrum(grid, np.array([[1.0, 0.0]]), kind="filter"),
            input_psd=constant_spectrum(grid, psd),
        )
        design = design_filters(model, AdcConfig(1, 1.0, 2), 16)
        np.testing.assert_allclose(design.h.values[:, :, 1], 0.0, atol=1e-12)

    def test_scalar_ratio(self):
        model = unit_scalar_model(fs=1.0, n_points=32)
        c2 = constant_spectrum(model.input_psd.grid, np.array([[4.0]]))
        from taskadc.mmse import TaskModel

        model2 = TaskModel(
            task_filter=model.task_filter,
            input_psd=c2,
        )
        design = design_filters(model2, AdcConfig(1, 1.0, 3), 32)
        np.testing.assert_allclose(
            design.h.values[:, 0, 0],
            design.h_bar.blocks[:, 0, 0] / 2.0,
            rtol=1e-9,
        )

    def test_rejects_aliased_design(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        cfg = AdcConfig(1, 0.4, 2)  # sub-Nyquist for a unit band
        stack = whitened_task_stack(model, 0.4, 32)
        design = design_analog_filter(stack, cfg)
        with pytest.raises(ValueError):
            nyquist_analog_filter(design, model._input_root)


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def flat_configs(draw):
    """A random flat-band model with a converter count up to its task rank.

    Resolutions stay at 8 bits or below (the monotonicity test adds one):
    above that, theoretical_mse's energy-minus-recovered form can lose more
    than 1e-9 of the error to cancellation.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    model = random_flat_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n=n, m=m, n_points=32
    )
    cfg = AdcConfig(
        k_adcs=draw(st.integers(1, n)),
        fs=draw(st.sampled_from([0.3, 0.45, 0.7, 1.25])),  # alias orders 2, 1, 1, 0
        bits=draw(st.integers(1, 7)),
    )
    return model, cfg


class TestDesignProperties:
    @PROPERTY
    @given(flat_configs())
    def test_support_constraint_is_tight(self, case):
        model, cfg = case
        design = design_filters(model, cfg, 32)
        kappa = effective_loading(cfg.eta, cfg.bits)
        lhs = kappa * cfg.ts / cfg.k_adcs * float(
            design.h_bar.base_grid.weights @ (design.sigma_h**2).sum(axis=1)
        )
        assert abs(lhs - 1.0) <= 1e-12

    @PROPERTY
    @given(flat_configs())
    def test_mse_forms_agree(self, case):
        model, cfg = case
        design = design_filters(model, cfg, 32)
        stack = whitened_task_stack(model, cfg.fs, 32)
        general = theoretical_mse(design.h_bar, stack, cfg).mse
        assert abs(general - design.mse_theory) <= 1e-9 * design.mse_theory

    @PROPERTY
    @given(flat_configs())
    def test_designed_kernel_matches_general_kernel(self, case):
        model, cfg = case
        design = design_filters(model, cfg, 32)
        stack = whitened_task_stack(model, cfg.fs, 32)
        t0s = np.array([0.0, 0.15, 0.5, 0.8]) * cfg.ts
        designed = mse_at_shifts(*designed_shift_kernel(stack, cfg), cfg, t0s)
        general = mse_at_shifts(*shift_mse_kernel(design.h_bar, stack, cfg), cfg, t0s)
        np.testing.assert_allclose(designed, general, rtol=1e-9)

    @PROPERTY
    @given(flat_configs())
    def test_nmse_bounded_and_monotone_in_bits(self, case):
        model, cfg = case
        coarse = design_filters(model, cfg, 32).nmse
        finer = design_filters(
            model, AdcConfig(cfg.k_adcs, cfg.fs, cfg.bits + 1), 32
        ).nmse
        assert 0.0 <= finer <= coarse + 1e-12 and coarse <= 1.0 + 1e-12

    @PROPERTY
    @given(flat_configs())
    def test_nmse_monotone_in_converters(self, case):
        model, cfg = case
        assume(cfg.k_adcs < model.input_psd.shape[0])  # K + 1 converters fit M inputs
        fewer = design_filters(model, cfg, 32).nmse
        more = design_filters(model, replace(cfg, k_adcs=cfg.k_adcs + 1), 32).nmse
        assert more <= fewer + 1e-12
