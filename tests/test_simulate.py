import numpy as np
import pytest

from taskadc.design import AdcConfig, design_filters
from taskadc.quantizer import QuantizerSpec
from taskadc.search import shifted_task_design
from taskadc.simulate import (
    SimulationRun,
    estimate_mse,
    recover_task,
    run_acquisition,
    synthesize_process,
)
from taskadc.spectra import constant_spectrum, make_frequency_grid

from conftest import unit_scalar_model


def flat_psd(level, m=1, band=1.0, n_points=64):
    grid = make_frequency_grid(-band / 2, band / 2, n_points)
    return constant_spectrum(grid, level * np.eye(m))


class TestSynthesizeProcess:
    def test_flat_scalar_variance(self, rng):
        # Parseval: unit PSD over a width-1 band gives unit sample variance
        psd = flat_psd(1.0)
        samples = []
        for _ in range(400):
            block = synthesize_process(psd, 80.0, rng)
            samples.append(block.samples[0, ::7])
        stacked = np.concatenate(samples)
        var = stacked.var()
        se = np.sqrt(2.0 / 400) * 1.0  # loose scale for correlated samples
        assert abs(var - 1.0) < 3 * se / 10

    def test_zero_psd(self, rng):
        block = synthesize_process(flat_psd(0.0), 80.0, rng)
        np.testing.assert_allclose(block.samples, 0.0)

    def test_cross_channel_correlation(self, rng):
        rho = 0.6
        level = np.array([[1.0, rho], [rho, 1.0]])
        grid = make_frequency_grid(-0.5, 0.5, 64)
        psd = constant_spectrum(grid, level)
        xs, ys = [], []
        for _ in range(200):
            block = synthesize_process(psd, 80.0, rng)
            xs.append(block.samples[0])
            ys.append(block.samples[1])
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        corr = np.mean(x * y) / np.sqrt(np.mean(x * x) * np.mean(y * y))
        assert abs(corr - rho) < 0.03

    def test_too_short_block(self, rng):
        with pytest.raises(ValueError):
            synthesize_process(flat_psd(1.0), 10.0, rng)


class TestRunAcquisition:
    def test_transparent_chain(self, rng):
        # identity filter with a huge dynamic range: z reproduces Ts * x(n Ts)
        psd = flat_psd(1.0)
        block = synthesize_process(psd, 80.0, rng)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        grid = make_frequency_grid(-2.0, 2.0, 16)  # identity over the sim band
        ident = constant_spectrum(grid, np.eye(1), kind="filter")
        spec = QuantizerSpec(bits=60, dynamic_range=1e3, dithered=False)
        z, rate = run_acquisition(block, ident, cfg, spec, rng)
        expected = cfg.ts * block.samples[0, :: int(block.rate / cfg.fs)]
        np.testing.assert_allclose(z[0], expected, atol=1e-9)
        assert rate == 0.0

    def test_degenerate_zero_range(self, rng):
        psd = flat_psd(1.0)
        block = synthesize_process(psd, 80.0, rng)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        grid = make_frequency_grid(-2.0, 2.0, 16)
        ident = constant_spectrum(grid, np.eye(1), kind="filter")
        spec = QuantizerSpec(bits=2, dynamic_range=0.0, dithered=False)
        z, rate = run_acquisition(block, ident, cfg, spec, rng)
        np.testing.assert_allclose(z, 0.0)
        assert rate == 1.0  # every sample saturates a zero-range quantizer

    def test_overload_rate_matches_gaussian_tail(self, rng):
        # eta = 4 at b = 4: overload far below a tenth of a percent
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=4, eta=4.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("tail", model, design, n_trials=400, seed=3)
        )
        assert report.overload_rate < 1e-3

    def test_overload_bounds_on_gaussian_input(self):
        # Chebyshev bound holds, and the Gaussian tail keeps eta=2 under 5%
        from taskadc.quantizer import overload_probability_bound

        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=4, eta=2.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("chev", model, design, n_trials=2000, seed=8)
        )
        assert report.overload_rate <= overload_probability_bound(2.0)
        assert report.overload_rate <= 0.05

    def test_incompatible_rate_rejected(self, rng):
        block = synthesize_process(flat_psd(1.0), 80.0, rng)
        cfg = AdcConfig(1, 0.7, bits=2, eta=2.0)
        grid = make_frequency_grid(-2.0, 2.0, 16)
        ident = constant_spectrum(grid, np.eye(1), kind="filter")
        spec = QuantizerSpec(bits=2, dynamic_range=1.0)
        with pytest.raises(ValueError):
            run_acquisition(block, ident, cfg, spec, rng)


class TestRecoverTask:
    def test_zero_filter(self, rng):
        z = rng.standard_normal((1, 65))
        grid = make_frequency_grid(-0.5, 0.5, 16)
        zero = constant_spectrum(grid, np.zeros((1, 1)), kind="filter")
        np.testing.assert_allclose(recover_task(z, zero, 1.0, 32), 0.0)

    def test_fine_quantization_recovers_task(self):
        # Nyquist sampling, 16 bits, and a loading that rules out overload:
        # the digital estimate approaches the analog MMSE estimate
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=16, eta=6.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("fine", model, design, n_trials=200, seed=11)
        )
        assert report.empirical_nmse < 1e-6

    def test_shift_by_sampling_interval_is_stationary(self):
        # the task shifted by Ts has the same error statistics as unshifted
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=3, eta=2.0)
        base = design_filters(model, cfg, 64)
        shifted = shifted_task_design(model, cfg.ts, cfg, base=base)
        rep0 = estimate_mse(SimulationRun("s0", model, base, n_trials=2000, seed=5))
        rep1 = estimate_mse(
            SimulationRun("s1", model, shifted, n_trials=2000, seed=5, t0=cfg.ts)
        )
        # identical closed-form error and overlapping Monte-Carlo bands
        assert abs(shifted.nmse - base.nmse) <= 1e-9 * base.nmse
        gap = abs(rep1.empirical_nmse - rep0.empirical_nmse)
        assert gap < 3 * (rep0.std_error + rep1.std_error)

    def test_t0_outside_block_rejected(self, rng):
        z = rng.standard_normal((1, 65))
        grid = make_frequency_grid(-0.5, 0.5, 16)
        zero = constant_spectrum(grid, np.zeros((1, 1)), kind="filter")
        with pytest.raises(ValueError):
            recover_task(z, zero, 1.0, 32, t0=50.0, block_duration=65.0)


class TestEstimateMse:
    def test_zero_analog_filter_gives_unit_nmse(self):
        # no information reaches the converters: the error is the task energy
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        from dataclasses import replace

        from taskadc.spectra import StackedSpectrum

        zero_stack = StackedSpectrum(
            base_grid=design.h_bar.base_grid,
            alias_order_=0,
            blocks=np.zeros_like(design.h_bar.blocks),
            block_cols=design.h_bar.block_cols,
            fs=design.h_bar.fs,
        )
        zero_h = constant_spectrum(
            design.h_bar.base_grid, np.zeros((1, 1)), kind="filter"
        )
        zero_g = constant_spectrum(
            design.h_bar.base_grid, np.zeros((1, 1)), kind="filter"
        )
        crippled = replace(
            design, h_bar=zero_stack, h=zero_h, g_freq=zero_g,
            mse_theory=design.task_energy, nmse=1.0,
        )
        report = estimate_mse(SimulationRun("null", model, crippled, n_trials=2000, seed=2))
        assert abs(report.empirical_nmse - 1.0) < 3 * report.std_error

    def test_reproducible_given_seed(self):
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        r1 = estimate_mse(SimulationRun("r", model, design, n_trials=300, seed=9))
        r2 = estimate_mse(SimulationRun("r", model, design, n_trials=300, seed=9))
        assert r1.empirical_mse == r2.empirical_mse
        assert r1.overload_rate == r2.overload_rate

    def test_orthogonality_residual_without_overload(self):
        # overload-free loading: the recovery error is uncorrelated with the
        # quantizer outputs up to Monte-Carlo noise
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=3, eta=6.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("orth", model, design, n_trials=10_000, seed=21)
        )
        assert report.overload_rate < 1e-4
        assert report.orthogonality_residual < 3 * report.orthogonality_pooled_se

    def test_trial_count_guard(self):
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        with pytest.raises(ValueError):
            SimulationRun("few", model, design, n_trials=50)

    def test_trial_dump(self, tmp_path):
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        path = tmp_path / "trials.csv"
        estimate_mse(
            SimulationRun("dump", model, design, n_trials=150, seed=4),
            trial_dump=path,
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,sq_error,overloads"
        assert len(lines) == 151
