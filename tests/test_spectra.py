import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskadc.design import AdcConfig, design_filters
from taskadc.mmse import TaskModel, task_energy, whitened_task_stack
from taskadc.spectra import (
    FrequencyGrid,
    SpectralMatrixFunction,
    StackedSpectrum,
    _check_run_starts,
    _grid_from_dict,
    _grid_to_dict,
    _runs_to_dict,
    alias_order,
    constant_spectrum,
    integrate_matrix,
    joint_runs,
    multiply_spectra,
    psd_sqrt,
    row_runs,
    stack_aliases,
)

from conftest import dense_row_runs, random_flat_model, unit_scalar_model


class TestFrequencyGrid:
    def test_midpoint_layout(self):
        grid = FrequencyGrid(-0.5, 0.5, 4)
        np.testing.assert_allclose(grid.points, [-0.375, -0.125, 0.125, 0.375])
        np.testing.assert_allclose(grid.weights, 0.25)

    def test_points_and_weights_follow_from_the_edges(self):
        grid = FrequencyGrid(-45e6, 45e6, 4096)
        step = 90e6 / 4096
        assert dataclasses.astuple(grid) == (-45e6, 45e6, 4096)
        assert np.array_equal(grid.points, -45e6 + step * (np.arange(4096) + 0.5))
        assert np.array_equal(grid.weights, np.full(4096, step))
        for derived in (grid.points, grid.weights):
            with pytest.raises(ValueError, match="read-only"):
                derived[0] = 0.0

    def test_dict_round_trip_equals_the_grid(self):
        grid = FrequencyGrid(-45e6, 45e6, 4096)
        again = _grid_from_dict(json.loads(json.dumps(_grid_to_dict(grid))))
        assert again == grid and hash(again) == hash(grid)
        assert grid != FrequencyGrid(-50e6, 50e6, 4096)
        assert grid != FrequencyGrid(-45e6, 45e6, 4098)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            FrequencyGrid(0.0, 1.0, 1)

    def test_weights_partition_band(self):
        grid = FrequencyGrid(-200e6, 200e6, 4096)
        assert abs(grid.weights.sum() - 400e6) <= 1e-12 * 400e6

    def test_non_finite_edges(self):
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(float("-inf"), 0.0, 8)

    @pytest.mark.parametrize("f_lo, f_hi", [(1.0, 0.0), (1.0, 1.0)])
    def test_edges_out_of_order(self, f_lo, f_hi):
        with pytest.raises(ValueError, match="f_lo must be below f_hi"):
            FrequencyGrid(f_lo, f_hi, 8)

    def test_symmetry(self):
        # on a band symmetric about 0, reversing the points maps f to -f
        grid = FrequencyGrid(-1.0, 1.0, 9)
        np.testing.assert_allclose(grid.points[::-1], -grid.points, atol=1e-15)


class TestIntegrateMatrix:
    def test_constant_identity(self):
        grid = FrequencyGrid(-0.5, 0.5, 64)
        f = constant_spectrum(grid, np.eye(2))
        np.testing.assert_allclose(integrate_matrix(f), np.eye(2), atol=1e-14)

    def test_odd_function_vanishes(self):
        grid = FrequencyGrid(-1.0, 1.0, 128)
        values = grid.points[:, None, None] * np.ones((1, 1))
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        assert abs(integrate_matrix(f)[0, 0]) < 1e-12

    def test_quadratic_matches_analytic(self):
        # midpoint rule on f^2 over (-1/2, 1/2); exact integral is 1/12
        grid = FrequencyGrid(-0.5, 0.5, 4096)
        values = (grid.points**2)[:, None, None] * np.ones((1, 1))
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        assert abs(integrate_matrix(f)[0, 0] - 1.0 / 12.0) < 1e-6


class TestPsdSqrt:
    def test_diagonal(self):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, np.diag([4.0, 9.0])))
        np.testing.assert_allclose(root.values[0], np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero(self):
        grid = FrequencyGrid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, np.zeros((2, 2))))
        np.testing.assert_allclose(root.values, 0.0)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psd = a @ a.conj().T
        grid = FrequencyGrid(-0.5, 0.5, 8)
        root = psd_sqrt(constant_spectrum(grid, psd))
        rebuilt = root.values[0] @ root.values[0].conj().T
        np.testing.assert_allclose(rebuilt, psd, rtol=1e-9, atol=1e-12)

    def test_rejects_indefinite(self):
        grid = FrequencyGrid(-0.5, 0.5, 4)
        values = np.broadcast_to(np.diag([1.0, -0.5]), (4, 2, 2)).astype(complex)
        f = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        with pytest.raises(ValueError):
            psd_sqrt(f.__class__(grid=grid, values=values, kind="psd"))

    def test_rank_deficient_root_passes_psd_check(self, rng):
        # rank one on every row: the root's zero eigenvalues come out as
        # round-off of either sign, which the PSD check must accept
        n = 16
        v = rng.standard_normal((n, 3, 1)) + 1j * rng.standard_normal((n, 3, 1))
        values = v @ v.conj().swapaxes(-1, -2)
        f = SpectralMatrixFunction(
            grid=FrequencyGrid(-0.5, 0.5, n), values=values, kind="psd"
        )
        root = psd_sqrt(f)
        assert root.kind == "psd"
        rebuilt = root.values @ root.values.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(rebuilt, values, atol=1e-12 * np.abs(values).max())


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
        f = constant_spectrum(FrequencyGrid(-0.5, 0.5, 64), a @ a.T)
        starts, index = row_runs(f.values)
        np.testing.assert_array_equal(starts, [0])
        np.testing.assert_array_equal(index, np.zeros(64))
        np.testing.assert_array_equal(f.run_starts, [0])
        assert f.run_values.shape == (1, 3, 3)

    def test_varying_psd_matches_dense_eigh(self, rng):
        n = 32
        a = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
        values = a @ a.conj().swapaxes(-1, -2)
        f = SpectralMatrixFunction(
            grid=FrequencyGrid(-0.5, 0.5, n), values=values, kind="psd"
        )
        starts, _ = row_runs(f.values)
        assert starts.size == n
        vals, vecs = np.linalg.eigh(values)
        roots = np.sqrt(np.clip(vals, 0.0, None))
        dense = (vecs * roots[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        assert np.array_equal(psd_sqrt(f).values, dense)
        assert psd_sqrt(f).run_starts.size == n  # one run, and one eigh, per cell

    def test_matched_scenario_runs(self, matched_model):
        nyquist = whitened_task_stack(matched_model, matched_model.f_nyq, 512)
        assert row_runs(nyquist.blocks)[0].size == 1
        # five alias blocks; the outer ones cover the band on one side of 0 only
        aliased = whitened_task_stack(matched_model, 100e6, 512)
        assert aliased.alias_order_ == 2
        np.testing.assert_array_equal(row_runs(aliased.blocks)[0], [0, 256])


# float bit patterns that compare alike under == but not as bits: signed
# zeros, and NaNs of several signs and payloads
_NAN_BITS = np.array(
    [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
    dtype=np.uint64,
)
_POOLS = {
    "complex": np.concatenate([[0.0, -0.0, 1.0, np.inf], _NAN_BITS.view(float)]),
    "float": np.concatenate([[0.0, -0.0, 1.0, -np.inf], _NAN_BITS.view(float)]),
    "int32": np.array([0, 1, -1, 2**31 - 1, -(2**31)], dtype=np.int32),
    "bool": np.array([False, True]),
}


def _rows_with_runs(rng, kind: str, n: int, width: int) -> np.ndarray:
    """(n, width) rows of ``kind`` from its pool, each the row before it, that
    row with one entry redrawn, or a new draw; a complex row is ``width``
    floats viewed as complex, so ``width`` is even there.  Values are
    gathered from the pool, never computed, so every bit pattern survives."""
    pool = _POOLS[kind]
    idx = np.empty((n, width), dtype=int)
    idx[0] = rng.integers(pool.size, size=width)
    for i in range(1, n):
        idx[i] = idx[i - 1]
        step = rng.integers(3)
        if step == 1 and width:
            idx[i, rng.integers(width)] = rng.integers(pool.size)
        elif step == 2:
            idx[i] = rng.integers(pool.size, size=width)
    rows = pool[idx]
    return rows.view(complex) if kind == "complex" else rows


class TestRowRunsAgainstDense:
    """``row_runs`` takes the nonzeros of the whole comparison; the reference
    (``conftest.dense_row_runs``) reduces every row with ``any``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 30),
        layout=st.lists(
            st.tuples(st.sampled_from(sorted(_POOLS)), st.integers(0, 40)),
            min_size=1, max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, n, layout, seed):
        # widths of 0 to 40 words; int32 and bool rows take the uint8 view
        rng = np.random.default_rng(seed)
        arrays = [
            _rows_with_runs(rng, kind, n, width - width % 2 if kind == "complex" else width)
            for kind, width in layout
        ]
        starts, index = row_runs(*arrays)
        want_starts, want_index = dense_row_runs(*arrays)
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(index, want_index)

    def test_signed_zeros_and_nan_payloads_split_runs(self):
        rows = np.array([[0.0], [-0.0], [-0.0]] + [[x] for x in _NAN_BITS.view(float)])
        rows = np.concatenate([rows, rows[-1:]])
        starts, _ = row_runs(rows)
        np.testing.assert_array_equal(starts, [0, 1, 3, 4, 5, 6])
        np.testing.assert_array_equal(starts, dense_row_runs(rows)[0])

    def test_zero_width_rows_are_one_run(self):
        starts, index = row_runs(np.empty((5, 0)), np.empty((5, 3, 0), dtype=bool))
        np.testing.assert_array_equal(starts, [0])
        np.testing.assert_array_equal(index, np.zeros(5))

    @pytest.mark.parametrize(
        "starts",
        [[], [1, 3], [0, 2, 2], [0, 3, 2], [0, 8]],
        ids=["empty", "not from 0", "repeated", "falling", "past the grid"],
    )
    def test_bad_run_starts_are_refused(self, starts):
        with pytest.raises(
            ValueError, match="^run_starts must rise strictly from 0 within the grid$"
        ):
            _check_run_starts(np.array(starts, dtype=int), 8)

    def test_good_run_starts_pass(self):
        for starts in ([0], [0, 7], [0, 1, 2, 3, 4, 5, 6, 7]):
            _check_run_starts(np.array(starts), 8)


class TestStackAliases:
    def test_nyquist_no_aliasing(self):
        grid = FrequencyGrid(-1.0, 1.0, 64)
        f = constant_spectrum(grid, np.array([[2.0]]))
        stack = stack_aliases(f, fs=2.0, n_points=64)
        assert stack.alias_order_ == 0
        np.testing.assert_allclose(stack.blocks, f.values)

    def test_single_fold_layout(self):
        # fs equal to the band edge: three blocks, outer ones partially zero
        grid = FrequencyGrid(-1.0, 1.0, 64)
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
        grid = FrequencyGrid(-1.0, 1.0, 128)
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
        grid = FrequencyGrid(-1.0, 1.0, 8)
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
        # real signals: the value at -f is the conjugate of the value at f
        psd = matched_model.input_psd
        assert psd.grid.f_lo == -psd.grid.f_hi
        assert np.abs(psd.values[::-1] - psd.values.conj()).max() < 1e-10

    def test_json_round_trip(self, rng):
        grid = FrequencyGrid(-2.0, 2.0, 16)
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
            grid=FrequencyGrid(-1.0, 1.0, 16), values=values, kind="filter"
        )
        data = f.to_dict()
        assert data["run_starts"] == [0, 6]
        back = SpectralMatrixFunction.from_dict(json.loads(json.dumps(data)))
        assert back.values.tobytes() == f.values.tobytes()

    def test_json_drops_only_plus_zero_imaginary_parts(self, rng):
        grid = FrequencyGrid(-1.0, 1.0, 16)
        values = rng.standard_normal((16, 2, 3)).astype(complex)
        values[:8], values[8:] = values[0], values[8]
        real = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        data = real.to_dict()
        assert "values" not in data
        assert len(data["real_values"]) == 2 * 2 * 3  # two runs, real parts alone
        back = SpectralMatrixFunction.from_dict(json.loads(json.dumps(data)))
        assert back.values.tobytes() == real.values.tobytes()
        values = values.copy()  # the spectrum froze the first array
        values[5:, 1, 2] = complex(values[5, 1, 2].real, -0.0)
        signed = SpectralMatrixFunction(grid=grid, values=values, kind="filter")
        data = signed.to_dict()
        assert "real_values" not in data
        assert len(data["values"]) == 2 * 3 * 2 * 3  # three runs, [re, im] pairs
        back = SpectralMatrixFunction.from_dict(json.loads(json.dumps(data)))
        assert back.values.tobytes() == signed.values.tobytes()

    def test_stacked_json_round_trip_checks_length(self, rng):
        f = SpectralMatrixFunction(
            grid=FrequencyGrid(-2.0, 2.0, 16),
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


def dense_stack_reference(f, fs, f_max=None, n_points=64):
    """The per-shift sampling loop that ``stack_aliases`` replaced: every
    grid row of every alias block sampled on its own."""
    if f_max is None:
        f_max = max(abs(f.grid.f_lo), abs(f.grid.f_hi))
    ups = alias_order(fs, f_max)
    half = fs / 2.0 if ups > 0 else min(fs / 2.0, f_max)
    base = FrequencyGrid(-half, half, n_points)
    rows, cols = f.shape
    blocks = np.empty((n_points, rows, (2 * ups + 1) * cols), dtype=complex)
    for i, k in enumerate(range(-ups, ups + 1)):
        blocks[:, :, i * cols : (i + 1) * cols] = f.sample(base.points - k * fs)
    return base, ups, blocks


def dense_sample_reference(f, freqs):
    """A cell lookup in the dense grid rows: what ``sample`` must return."""
    grid = f.grid
    idx = np.clip(np.floor((freqs - grid.f_lo) / grid.spacing).astype(int), 0, grid.n_points - 1)
    inside = (freqs >= grid.f_lo) & (freqs <= grid.f_hi)
    return np.where(inside[:, None, None], f.values[idx], 0)


def both_forms(f):
    """The spectrum f built from every grid row and from its runs."""
    return (
        SpectralMatrixFunction(grid=f.grid, values=f.values, kind=f.kind),
        SpectralMatrixFunction(
            grid=f.grid, values=f.run_values, kind=f.kind, run_starts=f.run_starts
        ),
    )


def _flat_source(rng):
    a = rng.standard_normal((2, 3))
    return constant_spectrum(FrequencyGrid(-1.0, 1.0, 40), a, kind="filter")


def _smooth_source(rng):
    grid = FrequencyGrid(-1.0, 1.0, 40)
    a = rng.standard_normal((2, 3))
    values = np.cos(np.pi * grid.points)[:, None, None] * a
    return SpectralMatrixFunction(grid=grid, values=values, kind="filter")


def _complex_source(rng):
    # non-Hermitian, f and -f unrelated, and stepped so some rows repeat
    grid = FrequencyGrid(-1.0, 1.5, 50)
    steps = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    steps[2, 0, 1] = complex(-0.0, 0.0)
    return SpectralMatrixFunction(grid=grid, values=np.repeat(steps, 10, axis=0), kind="filter")


def _zero_edged_source(rng):
    # exact zeros next to the band edges: a lookup moving from them to out of
    # band starts a new source run but not a new stacked row
    values = np.zeros((40, 2, 3), dtype=complex)
    values[8:-8] = rng.standard_normal((2, 3))
    return SpectralMatrixFunction(
        grid=FrequencyGrid(-1.0, 1.0, 40), values=values, kind="filter"
    )


def _signed_zero_source(rng):
    # rows that differ only in the sign of a zero entry are different runs
    level = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    level[0, 0] = 0.0
    values = np.repeat(level[None], 40, axis=0)
    values[15:, 0, 0] = complex(-0.0, 0.0)
    values[30:, 0, 0] = complex(0.0, -0.0)
    return SpectralMatrixFunction(
        grid=FrequencyGrid(-1.0, 1.0, 40), values=values, kind="filter"
    )


SOURCES = {
    "flat": _flat_source,
    "smooth": _smooth_source,
    "complex": _complex_source,
    "zero_edged": _zero_edged_source,
    "signed_zero": _signed_zero_source,
}
SAMPLE_FREQS = np.concatenate([
    np.linspace(-2.0, 2.0, 101), [-1.0, 1.0, 1.5, np.nextafter(1.0, 9.0), np.nextafter(1.5, 9.0)]
])
RATES = [
    (2.0, None, 64),  # Nyquist: alias order 0, the grid covers the band only
    (3.0, None, 48),  # above Nyquist
    (0.7, None, 64),  # aliased, alias order 1
    (0.3, None, 37),  # alias order 3, odd grid
    (2.0 / 3.0, 1.0, 30),  # f_max = (ups + 1/2) fs, the alias-order boundary
    (1.0, None, 5),  # a base point at 0: the shifts by -fs and +fs land on the band edges
    (0.5, 3.0, 40),  # f_max past the source band: the outer shifts are all out of band
    (0.5, 0.4, 16),  # f_max inside the source band
]


def _json(data: dict) -> dict:
    return json.loads(json.dumps(data))


def _block_run_reference(stack: StackedSpectrum) -> list:
    """Each row run's block runs, found by the dense ``row_runs`` reference
    over its alias axis."""
    return [dense_row_runs(np.moveaxis(row, 1, 0))[0].tolist()
            for row in stack.block_view(stack.run_blocks)]


def _dense_layout(stack: StackedSpectrum) -> dict:
    """A stack written with every alias block stored, as before block runs."""
    return {
        "grid": _grid_to_dict(stack.base_grid), "rows": stack.rows,
        "block_cols": stack.block_cols, **_runs_to_dict(stack.run_starts, stack.run_blocks),
    }


class TestStackedJson:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("ups, n_points", [(1, 16), (2, 16), (8, 12), (2000, 6)])
    def test_round_trip_is_exact(self, source, ups, n_points):
        f = SOURCES[source](np.random.default_rng(2))
        f_max = max(abs(f.grid.f_lo), abs(f.grid.f_hi))
        stack = stack_aliases(f, f_max / (ups + 0.25), n_points=n_points)
        assert stack.alias_order_ == ups
        data = _json(stack.to_dict())
        firsts = _block_run_reference(stack)
        if all(len(row) == 2 * ups + 1 for row in firsts):
            assert "block_starts" not in data
        else:
            assert data["block_starts"] == firsts
        values = data.get("values", data.get("real_values"))
        stored = sum(map(len, firsts)) * stack.rows * stack.block_cols
        assert len(values) == stored * (2 if "values" in data else 1)
        back = StackedSpectrum.from_dict(data, ups, stack.fs)
        np.testing.assert_array_equal(back.run_starts, stack.run_starts)
        assert back.run_blocks.tobytes() == stack.run_blocks.tobytes()
        assert back.base_grid == stack.base_grid

    def test_flat_source_stores_few_blocks(self):
        # one in-band block between zeros past the band: three block runs
        f = SOURCES["flat"](np.random.default_rng(2))
        stack = stack_aliases(f, 1.0 / 2000.25, n_points=6)
        data = stack.to_dict()
        assert all(len(firsts) <= 3 for firsts in data["block_starts"])
        assert len(data["real_values"]) <= 3 * stack.run_starts.size * 2 * 3

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_file_without_block_starts_loads(self, source):
        f = SOURCES[source](np.random.default_rng(4))
        stack = stack_aliases(f, 0.45, n_points=16)
        assert source != "flat" or "block_starts" in stack.to_dict()
        data = _json(_dense_layout(stack))
        back = StackedSpectrum.from_dict(data, stack.alias_order_, stack.fs)
        np.testing.assert_array_equal(back.run_starts, stack.run_starts)
        assert back.run_blocks.tobytes() == stack.run_blocks.tobytes()

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_alias_order_0_has_no_block_starts(self, source):
        f = SOURCES[source](np.random.default_rng(4))
        stack = stack_aliases(f, 3.0, n_points=16)
        assert stack.alias_order_ == 0
        assert json.dumps(stack.to_dict()) == json.dumps(_dense_layout(stack))

    @pytest.mark.parametrize("block_starts, message", [
        ([[1, 3], [0, 2]], "block_starts must rise strictly from 0"),  # not from 0
        ([[0, 3, 3], [0, 2]], "block_starts must rise strictly from 0"),  # repeated
        ([[0, 3, 2], [0, 2]], "block_starts must rise strictly from 0"),  # falling
        ([[0, 5], [0, 2]], "block_starts must rise strictly from 0"),  # past 2u + 1
        ([[], [0, 2]], "block_starts must rise strictly from 0"),  # empty
        ([[0, 2]], "one list per row run"),
        ([[0, 2], [0, 2], [0, 2]], "one list per row run"),
    ])
    def test_malformed_block_starts_are_rejected(self, block_starts, message):
        data, ups, fs = self._two_runs()
        with pytest.raises(ValueError, match=message):
            StackedSpectrum.from_dict(dict(data, block_starts=block_starts), ups, fs)

    def test_short_values_are_rejected(self):
        data, ups, fs = self._two_runs()
        StackedSpectrum.from_dict(data, ups, fs)  # whole, it loads
        for cut in (1, 2, 2 * 3):  # half a pair, one entry, one block row
            with pytest.raises(ValueError, match="values length"):
                StackedSpectrum.from_dict(dict(data, values=data["values"][:-cut]), ups, fs)
        # one stored block too few, and the same values read as one too many
        fewer = [data["block_starts"][0][:-1], data["block_starts"][1]]
        more = [data["block_starts"][0] + [4], data["block_starts"][1]]
        for block_starts in (fewer, more):
            with pytest.raises(ValueError, match="values length"):
                StackedSpectrum.from_dict(dict(data, block_starts=block_starts), ups, fs)

    @staticmethod
    def _two_runs():
        """A 2x3 stack at alias order 2 with two row runs of block runs [0, 2]
        and [0, 2]: blocks 0, 1 equal and 2, 3, 4 equal within each row run."""
        grid = FrequencyGrid(-0.5, 0.5, 8)
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2, 2, 2, 3)) + 1j * rng.standard_normal((2, 2, 2, 3))
        rows = np.stack([np.stack([a[0], a[0], a[1], a[1], a[1]], axis=1),
                         np.stack([b[0], b[0], b[1], b[1], b[1]], axis=1)])
        stack = StackedSpectrum(grid, 2, rows.reshape(2, 2, 15), 3, fs=1.0, run_starts=[0, 5])
        data = _json(stack.to_dict())
        assert data["block_starts"] == [[0, 2], [0, 2]]
        return data, 2, 1.0


class TestRunNativeStack:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("fs, f_max, n_points", RATES)
    def test_matches_dense_reference_bitwise(self, source, fs, f_max, n_points):
        f = SOURCES[source](np.random.default_rng(7))
        stack = stack_aliases(f, fs, f_max, n_points)
        base, ups, blocks = dense_stack_reference(f, fs, f_max, n_points)
        assert stack.alias_order_ == ups
        assert stack.base_grid.points.tobytes() == base.points.tobytes()
        assert stack.blocks.tobytes() == blocks.tobytes()
        np.testing.assert_array_equal(stack.run_starts, row_runs(blocks)[0])
        # the source built from its grid rows or from its runs folds alike
        for form in both_forms(f):
            again = stack_aliases(form, fs, f_max, n_points)
            np.testing.assert_array_equal(again.run_starts, stack.run_starts)
            assert again.run_blocks.tobytes() == stack.run_blocks.tobytes()

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("fs, f_max, n_points", [
        (1.0 / 200.25, None, 24),  # alias order 200 (300 on the wider complex band)
        (2.0 / 1001.0, 1.0, 7),  # alias order 500 at f_max = (ups + 1/2) fs
        (0.004, 3.0, 16),  # alias order 750: most shifts fall past the source band
        # alias order 1 on a base band wider than the source band: at shift 0 the
        # first base point samples below the band, the last above it
        (3.0, 3.0, 16),
    ])
    def test_more_rates_match_dense_reference(self, source, fs, f_max, n_points):
        # a few shifts straddle a source run boundary, the rest sample one run
        self.test_matches_dense_reference_bitwise(source, fs, f_max, n_points)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_ratio=st.floats(-0.6, 2.3),
        n_points=st.integers(2, 40),
        edge=st.one_of(st.none(), st.floats(0.05, 0.99), st.floats(1.01, 1.5)),
    )
    def test_end_point_rule_matches_dense_reference(self, source, log_ratio, n_points, edge):
        # fs between the fixed RATES, from 4 times the band edge down to 1/200
        # of it (alias orders 0 to 300), and f_max at the source band edge,
        # inside it or past it
        grid = SOURCES[source](np.random.default_rng(7)).grid
        band_edge = max(abs(grid.f_lo), abs(grid.f_hi))
        f_max = None if edge is None else edge * band_edge
        fs = band_edge / 10.0**log_ratio
        self.test_matches_dense_reference_bitwise(source, fs, f_max, n_points)

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_runs_sample_like_the_dense_spectrum(self, source):
        f = SOURCES[source](np.random.default_rng(3))
        reference = dense_sample_reference(f, SAMPLE_FREQS).tobytes()
        for form in both_forms(f):
            assert form.sample(SAMPLE_FREQS).tobytes() == reference

    @pytest.mark.parametrize("source", sorted(SOURCES) + ["random_flat"])
    @pytest.mark.parametrize("fs, f_max, n_points", RATES + [(0.45, None, 20)])
    def test_sample_inverts_stacking(self, source, fs, f_max, n_points):
        # every base cell centre shifted by s*fs: the source's own lookup, bit
        # for bit, within the alias order; zero past it
        rng = np.random.default_rng(11)
        if source == "random_flat":
            f = random_flat_model(rng, n=2, m=3, n_points=40, f_nyq=2.0)._whitened
        else:
            f = SOURCES[source](rng)
        stack = stack_aliases(f, fs, f_max, n_points)
        ups = stack.alias_order_
        for s in range(-ups - 2, ups + 3):
            freqs = stack.base_grid.points + s * fs
            got = stack.sample(freqs)
            assert got.shape == freqs.shape + f.shape
            if abs(s) <= ups:
                assert got.tobytes() == f.sample(freqs).tobytes()
            else:
                assert not got.any()

    @pytest.mark.parametrize("source", ["flat", "smooth", "signed_zero"])
    def test_spectrum_stores_maximal_runs(self, source):
        f = SOURCES[source](np.random.default_rng(5))
        dense = np.array(f.values)
        reference = dense_sample_reference(f, SAMPLE_FREQS).tobytes()
        for form in both_forms(f):
            np.testing.assert_array_equal(form.run_starts, row_runs(dense)[0])
            assert form.values.tobytes() == dense.tobytes()
            assert form.sample(SAMPLE_FREQS).tobytes() == reference
        # cos(pi f) repeats only on the two cells next to f = 0
        runs = {"flat": 1, "smooth": 39, "signed_zero": 3}[source]
        assert f.run_starts.size == runs

    def test_flat_source_stores_few_rows(self, matched_model):
        stack = whitened_task_stack(matched_model, 25e6, 2168)
        assert stack.alias_order_ == 8
        assert stack.run_blocks.shape[0] == stack.run_starts.size == 2
        whitened = multiply_spectra(matched_model.task_filter, psd_sqrt(matched_model.input_psd))
        _, _, blocks = dense_stack_reference(whitened, 25e6, matched_model.band_edge, 2168)
        assert stack.blocks.tobytes() == blocks.tobytes()

    def test_dense_and_run_constructors_agree(self, rng):
        grid = FrequencyGrid(-0.5, 0.5, 12)
        rows = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        rows[2] = rows[1]  # neighbouring runs with identical rows merge
        starts = np.array([0, 3, 5, 9])
        runs = StackedSpectrum(grid, 1, rows, 1, fs=1.0, run_starts=starts)
        np.testing.assert_array_equal(runs.run_starts, [0, 3, 9])
        dense = StackedSpectrum(grid, 1, runs.blocks, 1, fs=1.0)
        np.testing.assert_array_equal(dense.run_starts, runs.run_starts)
        assert dense.run_blocks.tobytes() == runs.run_blocks.tobytes()
        np.testing.assert_array_equal(runs.run_index, row_runs(runs.blocks)[1])
        assert dense.outer_diagonal_integral().tobytes() == runs.outer_diagonal_integral().tobytes()
        with pytest.raises(ValueError, match="run_starts"):
            StackedSpectrum(grid, 1, rows, 1, fs=1.0, run_starts=[0, 3, 3, 9])
        with pytest.raises(ValueError, match="one row per run"):
            StackedSpectrum(grid, 1, rows[:3], 1, fs=1.0, run_starts=starts)

    def test_joint_runs_match_dense_row_runs(self, rng):
        f = SOURCES["complex"](rng)
        a = stack_aliases(f, 0.7, n_points=40)
        b = stack_aliases(_flat_source(rng), 0.7, 1.5, n_points=40)
        starts, index = joint_runs(a, b)
        ref_starts, ref_index = row_runs(a.blocks, b.blocks)
        np.testing.assert_array_equal(starts, ref_starts)
        np.testing.assert_array_equal(index, ref_index)
        assert a.rows_at(starts).tobytes() == a.blocks[starts].tobytes()

    def test_joint_runs_of_stacks_from_different_bands(self, matched_model):
        # alias order 2 and 4096 points both, on [-50, 50] and [-45, 45] MHz
        h_bar = design_filters(matched_model, AdcConfig(2, 100e6, 4), 4096).h_bar
        task_stack = whitened_task_stack(matched_model, 90e6, 4096)
        assert h_bar.alias_order_ == task_stack.alias_order_ == 2
        with pytest.raises(ValueError, match="share the baseband grid"):
            joint_runs(h_bar, task_stack)

    def test_piecewise_model_whitened_stack(self, rng):
        # the input PSD and the task filter change at different grid rows
        n_pts, n, m = 96, 2, 3
        grid = FrequencyGrid(-0.5, 0.5, n_pts)
        a = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
        psd = (a @ a.conj().swapaxes(-1, -2) + m * np.eye(m))[np.arange(n_pts) // 32]
        task = rng.standard_normal((2, n, m))[(np.arange(n_pts) >= 48).astype(int)]
        model = TaskModel(
            task_filter=SpectralMatrixFunction(grid=grid, values=task, kind="filter"),
            input_psd=SpectralMatrixFunction(grid=grid, values=psd, kind="psd"),
        )
        whitened = multiply_spectra(model.task_filter, psd_sqrt(model.input_psd))
        for fs in (1.0, 0.6, 0.25):
            stack = whitened_task_stack(model, fs, 40)
            _, _, blocks = dense_stack_reference(whitened, fs, model.band_edge, 40)
            assert stack.blocks.tobytes() == blocks.tobytes()
            np.testing.assert_array_equal(stack.run_starts, row_runs(blocks)[0])

    @pytest.mark.parametrize("fs", [400e6, 100e6, 25e6])
    def test_designed_h_bar_keeps_maximal_runs(self, matched_model, fs):
        design = design_filters(matched_model, AdcConfig(4, fs, 4))
        h_bar = design.h_bar
        np.testing.assert_array_equal(h_bar.run_starts, row_runs(h_bar.blocks)[0])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        extra=st.integers(0, 2),
        fs=st.sampled_from([0.2, 0.3, 0.45, 0.5, 0.7, 1.0, 1.25]),
        n_points=st.integers(2, 40),
    )
    def test_random_flat_model_whitened_stack(self, seed, n, extra, fs, n_points):
        model = random_flat_model(np.random.default_rng(seed), n=n, m=n + extra, n_points=16)
        stack = whitened_task_stack(model, fs, n_points)
        whitened = multiply_spectra(model.task_filter, psd_sqrt(model.input_psd))
        base, ups, blocks = dense_stack_reference(whitened, fs, model.band_edge, n_points)
        assert stack.alias_order_ == ups
        assert stack.blocks.tobytes() == blocks.tobytes()
        np.testing.assert_array_equal(stack.run_starts, row_runs(blocks)[0])
