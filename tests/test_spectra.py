import json

import numpy as np
import pytest

from taskadc.mmse import task_energy, whitened_task_stack
from taskadc.spectra import (
    SpectralMatrixFunction,
    StackedSpectrum,
    constant_spectrum,
    integrate_matrix,
    make_frequency_grid,
    multiply_spectra,
    psd_sqrt,
    row_runs,
    stack_aliases,
)

from conftest import unit_scalar_model


class TestFrequencyGrid:
    def test_midpoint_layout(self):
        grid = make_frequency_grid(-0.5, 0.5, 4)
        np.testing.assert_allclose(grid.points, [-0.375, -0.125, 0.125, 0.375])
        np.testing.assert_allclose(grid.weights, 0.25)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_frequency_grid(0.0, 1.0, 1)

    def test_weights_partition_band(self):
        grid = make_frequency_grid(-200e6, 200e6, 4096)
        assert abs(grid.weights.sum() - 400e6) <= 1e-12 * 400e6

    def test_non_finite_edges(self):
        with pytest.raises(ValueError):
            make_frequency_grid(float("-inf"), 0.0, 8)

    def test_symmetry(self):
        grid = make_frequency_grid(-1.0, 1.0, 9)
        rev = grid.reversal_index()
        np.testing.assert_allclose(grid.points[rev], -grid.points, atol=1e-15)


class TestIntegrateMatrix:
    def test_constant_identity(self):
        grid = make_frequency_grid(-0.5, 0.5, 64)
        f = constant_spectrum(grid, np.eye(2))
        np.testing.assert_allclose(integrate_matrix(f), np.eye(2), atol=1e-14)

    def test_odd_function_vanishes(self):
        grid = make_frequency_grid(-1.0, 1.0, 128)
        values = grid.points[:, None, None] * np.ones((1, 1))
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        assert abs(integrate_matrix(f)[0, 0]) < 1e-12

    def test_quadratic_matches_analytic(self):
        # midpoint rule on f^2 over (-1/2, 1/2); exact integral is 1/12
        grid = make_frequency_grid(-0.5, 0.5, 4096)
        values = (grid.points**2)[:, None, None] * np.ones((1, 1))
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        assert abs(integrate_matrix(f)[0, 0] - 1.0 / 12.0) < 1e-6


class TestPsdSqrt:
    def test_diagonal(self):
        grid = make_frequency_grid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, np.diag([4.0, 9.0])))
        np.testing.assert_allclose(root.values[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero(self):
        grid = make_frequency_grid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, np.zeros((2, 2))))
        np.testing.assert_allclose(root.values, 0.0)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psd = a @ a.conj().T
        grid = make_frequency_grid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, psd))
        rebuilt = root.values[0] @ root.values[0].conj().T
        np.testing.assert_allclose(rebuilt, psd, rtol=1e-9, atol=1e-12)

    def test_rejects_indefinite(self):
        grid = make_frequency_grid(-0.5, 0.5, 4)
        values = np.broadcast_to(np.diag([1.0, -0.5]), (4, 2, 2)).astype(complex)
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        with pytest.raises(ValueError):
            psd_sqrt(f.__class__(grid=grid, values=values, kind="psd"))


class TestRowRuns:
    def test_round_trip(self, rng):
        a = rng.standard_normal((12, 2, 3)) + 1j * rng.standard_normal((12, 2, 3))
        a[3:7] = a[3]
        a[9:] = a[9]
        b = np.zeros(12)
        b[5:] = -0.0  # equal to 0.0, but a different bit pattern
        starts, index = row_runs(a, b)
        np.testing.assert_array_equal(starts, [0, 1, 2, 3, 5, 7, 8, 9])
        assert np.array_equal(a[starts][index], a)
        assert np.array_equal(b[starts][index].view(np.uint64), b.view(np.uint64))

    def test_constant_spectrum_is_one_run(self, rng):
        a = rng.standard_normal((3, 3))
        f = constant_spectrum(make_frequency_grid(-0.5, 0.5, 64), a @ a.T)
        starts, index = row_runs(f.values)
        np.testing.assert_array_equal(starts, [0])
        np.testing.assert_array_equal(index, np.zeros(64))

    def test_varying_psd_matches_dense_eigh(self, rng):
        n = 32
        a = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
        values = a @ a.conj().swapaxes(-1, -2)
        f = SpectralMatrixFunction(
            grid=make_frequency_grid(-0.5, 0.5, n), values=values, kind="psd"
        )
        starts, _ = row_runs(f.values)
        assert starts.size == n
        vals, vecs = np.linalg.eigh(values)
        roots = np.sqrt(np.clip(vals, 0.0, None))
        dense = (vecs * roots[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        assert np.array_equal(psd_sqrt(f).values, dense)

    def test_matched_scenario_runs(self, matched_model):
        nyquist = whitened_task_stack(matched_model, matched_model.f_nyq, 512)
        assert row_runs(nyquist.blocks)[0].size == 1
        # five alias blocks; the outer ones cover the band on one side of 0 only
        aliased = whitened_task_stack(matched_model, 100e6, 512)
        assert aliased.alias_order_ == 2
        np.testing.assert_array_equal(row_runs(aliased.blocks)[0], [0, 256])


class TestStackAliases:
    def test_nyquist_no_aliasing(self):
        grid = make_frequency_grid(-1.0, 1.0, 64)
        f = constant_spectrum(grid, np.array([[2.0]]))
        stack = stack_aliases(f, fs=2.0, n_points=64)
        assert stack.alias_order_ == 0
        np.testing.assert_allclose(stack.blocks, f.values)

    def test_single_fold_layout(self):
        # fs equal to the band edge: three blocks, outer ones partially zero
        grid = make_frequency_grid(-1.0, 1.0, 64)
        f = constant_spectrum(grid, np.array([[3.0]]))
        stack = stack_aliases(f, fs=1.0, n_points=32)
        assert stack.alias_order_ == 1
        view = stack.block_view()[:, 0, :, 0]
        base = stack.base_grid.points
        for i, k in enumerate((-1, 0, 1)):
            shifted = base - k * 1.0
            expected = np.where(np.abs(shifted) <= 1.0, 3.0, 0.0)
            np.testing.assert_allclose(view[:, i].real, expected)
        # outer blocks carry both zero and non-zero samples
        assert np.any(view[:, 0] == 0) and np.any(view[:, 0] != 0)

    def test_power_folding(self):
        # flat scalar with fs = f_max/2: five blocks; row power sums alias powers
        grid = make_frequency_grid(-1.0, 1.0, 128)
        f = constant_spectrum(grid, np.array([[1.5]]))
        stack = stack_aliases(f, fs=0.5, n_points=16)
        assert stack.alias_order_ == 2
        base = stack.base_grid.points
        direct = np.zeros(base.size)
        for k in range(-2, 3):
            direct += np.where(np.abs(base - k * 0.5) <= 1.0, 1.5**2, 0.0)
        power = np.sum(np.abs(stack.blocks[:, 0, :]) ** 2, axis=1)
        np.testing.assert_allclose(power, direct)

    def test_invalid_rates(self):
        grid = make_frequency_grid(-1.0, 1.0, 8)
        f = constant_spectrum(grid, np.eye(1))
        with pytest.raises(ValueError):
            stack_aliases(f, fs=0.0)
        with pytest.raises(ValueError):
            stack_aliases(f, fs=1.0, f_max=-1.0)


class TestInvariants:
    def test_nyquist_stack_matches_unstacked_product(self):
        model = unit_scalar_model(fs=1.0, n_points=128)
        prod = multiply_spectra(model.task_filter, psd_sqrt(model.input_psd))
        stack = stack_aliases(prod, fs=1.0, n_points=128)
        assert stack.alias_order_ == 0
        np.testing.assert_allclose(stack.blocks, prod.values, atol=1e-12)

    def test_stacked_energy_matches_task_energy(self):
        model = unit_scalar_model(fs=1.0, n_points=128)
        stack = whitened_task_stack(model, 1.0, 128)
        outer = stack.blocks @ stack.blocks.conj().swapaxes(-1, -2)
        f = SpectralMatrixFunction(grid=stack.base_grid, values=outer, kind="psd")
        lhs = float(np.trace(integrate_matrix(f)).real)
        assert abs(lhs - task_energy(stack)) <= 1e-9 * max(lhs, 1e-300)

    def test_conjugate_symmetry_of_real_model(self, matched_model):
        assert matched_model.input_psd.conjugate_symmetry_error() < 1e-10

    def test_json_round_trip(self, rng):
        grid = make_frequency_grid(-2.0, 2.0, 16)
        values = rng.standard_normal((16, 2, 3)) + 1j * rng.standard_normal((16, 2, 3))
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        back = SpectralMatrixFunction.from_dict(f.to_dict())
        np.testing.assert_allclose(back.values, f.values, atol=0)
        assert back.kind == f.kind
        assert back.grid.n_points == 16

    def test_json_stores_runs_bit_for_bit(self, rng):
        level = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        level[0, 0] = 0.0
        values = np.repeat(level[None], 16, axis=0)
        values[6:, 0, 0] = complex(-0.0, 0.0)  # equal to 0.0, but other bits
        f = SpectralMatrixFunction(
            grid=make_frequency_grid(-1.0, 1.0, 16), values=values, kind="filter"
        )
        data = f.to_dict()
        assert data["run_starts"] == [0, 6]
        back = SpectralMatrixFunction.from_dict(json.loads(json.dumps(data)))
        assert back.values.tobytes() == f.values.tobytes()

    def test_stacked_json_round_trip_checks_length(self, rng):
        f = SpectralMatrixFunction(
            grid=make_frequency_grid(-2.0, 2.0, 16),
            values=rng.standard_normal((16, 2, 3)) + 1j * rng.standard_normal((16, 2, 3)),
            kind="filter",
        )
        stack = stack_aliases(f, 1.5, n_points=8)
        data = stack.to_dict()
        back = StackedSpectrum.from_dict(data, stack.alias_order_, stack.fs)
        assert stack.alias_order_ == 1
        assert np.array_equal(back.blocks, stack.blocks)
        with pytest.raises(ValueError, match="values length"):
            StackedSpectrum.from_dict(
                dict(data, values=data["values"][:-2]), stack.alias_order_, stack.fs
            )
