import numpy as np
import pytest

import taskadc.simulate as sim
from taskadc.design import analog_recovery_is_optimal
from taskadc.mmse import (
    PINV_CUTOFF,
    TaskModel,
    analog_mmse_filter,
    task_covariance,
    task_energy,
    whitened_task_stack,
)
from taskadc.scenarios import isotropic_scenario
from taskadc.spectra import FrequencyGrid, constant_spectrum, psd_sqrt, row_runs

from conftest import (
    piecewise_spectra, random_flat_model, sample_dc_and_bins, synthesize_block, unit_scalar_model,
)


class TestAnalogMmseFilter:
    def test_scalar_wiener_shrinkage(self):
        # x = s + n with unit flat spectra: the filter halves the observation
        grid = FrequencyGrid(-0.5, 0.5, 16)
        c_x = constant_spectrum(grid, np.array([[2.0]]))
        c_sx = constant_spectrum(grid, np.array([[1.0]]), kind="cross_psd")
        gamma = analog_mmse_filter(c_sx, c_x)
        np.testing.assert_allclose(gamma.values.real, 0.5, atol=1e-12)

    def test_identity_task(self, rng):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        a = rng.standard_normal((3, 3))
        c_x = constant_spectrum(grid, a @ a.T + np.eye(3))
        gamma = analog_mmse_filter(
        constant_spectrum(grid, c_x.values[0], kind="cross_psd"), c_x)
        np.testing.assert_allclose(gamma.values[0].real, np.eye(3), atol=1e-10)

    def test_rank_one_pseudo_inverse(self):
        grid = FrequencyGrid(-0.5, 0.5, 4)
        v = np.array([[1.0], [2.0]])
        c_x = constant_spectrum(grid, v @ v.T)
        c_sx = constant_spectrum(grid, v.T, kind="cross_psd")
        gamma = analog_mmse_filter(c_sx, c_x)
        np.testing.assert_allclose(
            gamma.values[0].real, v.T / float(v[:, 0] @ v[:, 0]), atol=1e-12
        )

    def test_shape_mismatch(self):
        grid = FrequencyGrid(-0.5, 0.5, 4)
        with pytest.raises(ValueError):
            analog_mmse_filter(
                constant_spectrum(grid, np.ones((1, 3)), kind="cross_psd"),
                constant_spectrum(grid, np.eye(2)),
            )

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="share a grid"):
            analog_mmse_filter(
                constant_spectrum(FrequencyGrid(-0.5, 0.5, 4), np.ones((1, 2)),
                                  kind="cross_psd"),
                constant_spectrum(FrequencyGrid(-0.5, 0.5, 8), np.eye(2)),
            )

    @pytest.mark.parametrize("n_points", [64, 74, 101])
    def test_matches_dense_pinv_bit_for_bit(self, n_points):
        # one pseudo-inverse per joint run equals one per grid row, exactly,
        # across a rank-deficient PSD run and runs the cross-PSD splits
        c_sx, c_x = piecewise_spectra(n_points)
        gamma = analog_mmse_filter(c_sx, c_x)
        dense = c_sx.values @ np.linalg.pinv(c_x.values, rcond=PINV_CUTOFF, hermitian=True)
        starts, _ = row_runs(dense)
        assert np.array_equal(gamma.run_starts, starts)
        assert np.array_equal(gamma.run_values, dense[starts])
        assert gamma.run_starts.size == 6


class TestTaskEnergy:
    def test_zero_task(self):
        grid = FrequencyGrid(-0.5, 0.5, 16)
        model = TaskModel(
            task_filter=constant_spectrum(grid, np.zeros((1, 1)), kind="filter"),
            input_psd=constant_spectrum(grid, np.eye(1)),
        )
        assert task_energy(whitened_task_stack(model, 1.0, 16)) == 0.0

    def test_flat_scalar_energy_is_bandwidth(self):
        model = unit_scalar_model(fs=3.0, n_points=64)
        assert abs(task_energy(whitened_task_stack(model, 3.0, 64)) - 3.0) < 1e-12

    def test_monte_carlo_variance(self, rng):
        # independent oracle: filter synthesized blocks with the task response
        # in the time-frequency domain and read the variance at the centre
        model = random_flat_model(rng, n=2, m=3, n_points=128, f_nyq=1.0)
        energy = task_energy(whitened_task_stack(model, 1.0, 128))
        plan = sim._plan_block(model.band_edge, model.f_nyq)
        root = psd_sqrt(model.input_psd)
        roots_dc, roots_pos = sample_dc_and_bins(root, plan)
        n = plan.n_samples
        freqs = np.fft.rfftfreq(n, d=1.0 / plan.sim_rate)
        gamma = model.task_filter.sample(freqs)
        w = np.full(freqs.size, 2.0)
        w[0] = 1.0
        if n % 2 == 0:
            w[-1] = 1.0
        phase = w * np.exp(2j * np.pi * np.arange(freqs.size) * (n // 2) / n)
        n_trials = 3000
        samples = np.empty((n_trials, 2))
        for t in range(n_trials):
            _, _, block = synthesize_block(roots_dc, roots_pos, plan, rng)
            filtered = np.einsum("pnm,mp->np", gamma, np.fft.rfft(block, axis=-1))
            samples[t] = (filtered @ phase).real / n
        var = np.sum(samples**2, axis=1)
        se = var.std(ddof=1) / np.sqrt(n_trials)
        assert abs(var.mean() - energy) < 3 * se


class TestTaskCovariance:
    def test_flat_scalar_closed_form(self):
        # Wiener gain 1/2 on a flat unit input over a width-2 band
        grid = FrequencyGrid(-1.0, 1.0, 32)
        model = TaskModel(
            task_filter=constant_spectrum(grid, np.array([[0.5]]), kind="filter"),
            input_psd=constant_spectrum(grid, np.array([[1.0]])),
        )
        cov = task_covariance(model)
        assert abs(cov[0, 0] - 2.0 * 0.25) < 1e-12

    def test_zero_filter(self):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        model = TaskModel(
            task_filter=constant_spectrum(grid, np.zeros((2, 2)), kind="filter"),
            input_psd=constant_spectrum(grid, np.eye(2)),
        )
        np.testing.assert_allclose(task_covariance(model), 0.0)

    def test_isotropic_construction(self):
        model = isotropic_scenario(3, fs=1.0)
        cov = task_covariance(model)
        assert analog_recovery_is_optimal(cov)

    @pytest.mark.parametrize("n_points", [40, 1000])
    def test_runs_match_dense_rows(self, n_points):
        # the task filter and input PSD change at different rows
        cross, psd = piecewise_spectra(n_points)
        model = TaskModel(task_filter=analog_mmse_filter(cross, psd), input_psd=psd)
        gamma = model.task_filter.values
        prod = gamma @ psd.values @ gamma.conj().swapaxes(-1, -2)
        dense = np.einsum("i,ijk->jk", psd.grid.weights, prod)
        dense = (0.5 * (dense + dense.conj().T)).real
        assert task_covariance(model).tobytes() == dense.tobytes()

    def test_trace_matches_energy(self, rng):
        model = random_flat_model(rng, n=3, m=5, n_points=128, f_nyq=2.0)
        cov = task_covariance(model)
        energy = task_energy(whitened_task_stack(model, 2.0, 128))
        assert np.all(np.linalg.eigvalsh(cov) > -1e-12 * cov.trace())
        assert abs(cov.trace() - energy) <= 1e-9 * energy


class TestTaskModelValidation:
    def test_inconsistent_filter_rejected(self):
        # a task filter must match the input PSD in its column count and its
        # grid; same point count on another band is another grid
        grid = FrequencyGrid(-0.5, 0.5, 8)
        psd = constant_spectrum(grid, np.array([[1.0]]))
        for task_filter, message in (
            (constant_spectrum(grid, np.ones((1, 2)), kind="filter"), "M x M"),
            (constant_spectrum(FrequencyGrid(-0.4, 0.4, 8), np.ones((1, 1)), kind="filter"),
             "share a grid"),
        ):
            with pytest.raises(ValueError, match=message):
                TaskModel(task_filter=task_filter, input_psd=psd)

    def test_projection_identity(self):
        # the MMSE filter of a cross-PSD in the input PSD's row space, here
        # across a rank-deficient run: filter @ input_psd @ filter^H equals
        # filter @ cross_psd^H pointwise
        c_sx, c_x = piecewise_spectra(32)
        gamma = analog_mmse_filter(c_sx, c_x).values
        lhs = gamma @ c_x.values @ gamma.conj().swapaxes(-1, -2)
        rhs = gamma @ c_sx.values.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10 * np.abs(rhs).max())
