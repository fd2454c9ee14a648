"""The design path's band integrals and water-fill level, per run, against
the dense references in conftest.py: every result bit for bit, on random
run layouts and end to end on the 4x16 scenario."""

import json
import sys

import numpy as np
import pytest
from conftest import (
    argsort_waterfill_level,
    dense_band_integral,
    dense_outer_integral,
    dense_quantizer_noise,
    dense_row_sums,
    dense_rows_to_dict,
    dense_task_energy,
    dense_waterfill_level,
    dense_waterfilled_residual,
)
from hypothesis import given, settings, strategies as st

from taskadc.design import (
    AdcConfig,
    DesignError,
    _band_integral,
    _waterfilled_residual,
    design_filters,
    quantizer_noise,
    solve_waterfill_level,
)
from taskadc.mmse import task_energy
from taskadc.search import ARCHITECTURES, SearchSpec, rate_search
from taskadc.spectra import FrequencyGrid, StackedSpectrum, _run_index

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def bits_of(*values) -> bytes:
    return b"".join(np.asarray(v).tobytes() for v in values)


@st.composite
def run_layouts(draw, max_points=40):
    """(grid, run starts, rng): 1 to n runs on an n-point grid."""
    n = draw(st.integers(2, max_points))
    n_runs = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.sort(np.concatenate([[0], rng.choice(np.arange(1, n), n_runs - 1, replace=False)]))
    return FrequencyGrid(-0.5, 0.5, n), starts.astype(int), rng


def signed_zeros(rng, x: np.ndarray) -> np.ndarray:
    """x with about a quarter of its entries set to +0.0 or -0.0."""
    zero = rng.random(x.shape) < 0.25
    return np.where(zero, np.where(rng.random(x.shape) < 0.5, 0.0, -0.0), x)


@st.composite
def stacks(draw):
    """A stack of random piecewise rows: 1x1 to 16x16 blocks, alias orders
    0-8, real and imaginary parts with +-0.0 entries."""
    grid, starts, rng = draw(run_layouts())
    rows, cols, ups = draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.integers(0, 8))
    shape = (starts.size, rows, (2 * ups + 1) * cols)
    blocks = signed_zeros(rng, rng.standard_normal(shape)) + 1j * signed_zeros(
        rng, rng.standard_normal(shape)
    )
    return StackedSpectrum(grid, ups, blocks, cols, fs=1.0, run_starts=starts)


@st.composite
def configs(draw):
    k, bits = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    return AdcConfig(k, draw(st.sampled_from([1.0, 0.45, 3e-3, 4e8])), bits)


class TestOuterDiagonal:
    @PROPERTY
    @given(stacks(), configs())
    def test_diagonal_trace_and_peak_match_full_gram(self, stack, cfg):
        full = dense_outer_integral(stack)
        assert stack.outer_diagonal_integral().tobytes() == np.diagonal(full).tobytes()
        assert bits_of(task_energy(stack)) == bits_of(dense_task_energy(stack))
        assert bits_of(*quantizer_noise(stack, cfg)) == bits_of(*dense_quantizer_noise(stack, cfg))

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("n_runs", [1, 37, None])
    def test_grids_beyond_the_einsum_buffer(self, rows, n_runs):
        # one or two stacked rows leave einsum a long reduction over the grid,
        # which numpy may split at its 8192-element buffer
        rng = np.random.default_rng(rows)
        for n in (20000, 50001):
            count = n if n_runs is None else n_runs
            starts = np.sort(rng.choice(np.arange(1, n), count - 1, replace=False))
            starts = np.concatenate([[0], starts]).astype(int)
            shape = (count, rows, 3)
            blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            grid = FrequencyGrid(-0.5, 0.5, n)
            stack = StackedSpectrum(grid, 1, blocks, 1, fs=1.0, run_starts=starts)
            full = dense_outer_integral(stack)
            assert stack.outer_diagonal_integral().tobytes() == np.diagonal(full).tobytes()


def outcome(solve, *args):
    """The level's bits, or the type and message of what was raised."""
    try:
        return bits_of(solve(*args))
    except (ValueError, DesignError) as exc:
        return type(exc), str(exc)


class TestWaterfillRuns:
    @PROPERTY
    @given(run_layouts(max_points=512), st.integers(1, 6), configs())
    def test_dense_profiles(self, layout, k, cfg):
        # every row its own run
        grid, _, rng = layout
        s = rng.uniform(0.0, 2.0, (grid.n_points, k)) ** 3
        want = outcome(argsort_waterfill_level, s, grid.weights, cfg)
        every_row = np.arange(grid.n_points)
        assert outcome(solve_waterfill_level, s, every_row, grid, cfg) == want

    @PROPERTY
    @given(run_layouts(max_points=512), st.integers(1, 6), configs())
    def test_piecewise_profiles_with_ties(self, layout, k, cfg):
        # few distinct values: ties within rows, within runs and across runs
        grid, starts, rng = layout
        runs = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], (starts.size, k))
        s = runs[_run_index(starts, grid.n_points)]
        want = outcome(argsort_waterfill_level, s, grid.weights, cfg)
        every_row = np.arange(grid.n_points)
        assert outcome(solve_waterfill_level, s, every_row, grid, cfg) == want

    @PROPERTY
    @given(run_layouts(max_points=512), st.integers(1, 6), configs())
    def test_profiles_given_by_runs(self, layout, k, cfg):
        # runs as a task stack holds them: neighbouring runs may share values
        grid, starts, rng = layout
        run_s = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], (starts.size, k))
        args = run_s, starts, grid, cfg
        assert outcome(solve_waterfill_level, *args) == outcome(dense_waterfill_level, *args)

    def test_one_dimensional_profile(self):
        grid = FrequencyGrid(-0.5, 0.5, 32)
        # a one-mode profile is one column of runs
        s = np.repeat([1.0, 3.0, 2.0, 3.0], 8)
        cfg = AdcConfig(1, 1.0, 2)
        assert bits_of(solve_waterfill_level(s[:, None], np.arange(32), grid, cfg)) == bits_of(
            argsort_waterfill_level(s, grid.weights, cfg)
        )


@st.composite
def run_profiles(draw, max_cols=16):
    """(weights, rows per run, index, rng): rows of non-negative values."""
    grid, starts, rng = draw(run_layouts(max_points=256))
    cols = draw(st.integers(1, max_cols))
    rows = np.abs(signed_zeros(rng, rng.standard_normal((starts.size, cols))))
    return grid.weights, rows, _run_index(starts, grid.n_points), rng


class TestPerRowTerms:
    @PROPERTY
    @given(run_profiles())
    def test_row_sums(self, profile):
        # the support-constraint power and the designed kernel's const
        w, rows, index, _ = profile
        got = _band_integral((rows**2).sum(axis=1), w, index)
        assert bits_of(got) == bits_of(dense_row_sums(rows**2, w, index))

    @PROPERTY
    @given(run_profiles(max_cols=8), st.integers(1, 8), st.integers(1, 16))
    def test_residual(self, profile, k, bits):
        w, sigma_task, index, rng = profile
        sigma_h = rng.uniform(0.0, 1.0, (sigma_task.shape[0], k))
        got = _band_integral(_waterfilled_residual(sigma_task, sigma_h, bits), w, index)
        want = dense_waterfilled_residual(sigma_task, sigma_h, w, bits, index)
        assert bits_of(got) == bits_of(want)


# the run-native functions on the design path and the dense references
# patched in for them
REFERENCES = {
    task_energy: dense_task_energy,
    quantizer_noise: dense_quantizer_noise,
    solve_waterfill_level: dense_waterfill_level,
    _band_integral: dense_band_integral,
}


def patch_references(monkeypatch) -> dict:
    """Bind every taskadc module's name for a run-native function to its
    dense reference; returns each reference's call count, filled as they run."""
    calls = {ref.__name__: 0 for ref in REFERENCES.values()}

    def counted(ref):
        def call(*args):
            calls[ref.__name__] += 1
            return ref(*args)
        return call

    wrapped = {new: counted(ref) for new, ref in REFERENCES.items()}
    for name, module in list(sys.modules.items()):
        if name == "taskadc" or name.startswith("taskadc."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[value])
    return calls


def end_to_end_outputs(model) -> list:
    """design.json text of the 4x16 designs and the rate-search tables.  Each
    design's profile entries are checked on the way against the profiles'
    dense rows written by ``conftest.dense_rows_to_dict``."""
    out = []
    for k in (1, 2, 3, 4):
        for bits in (1, 4, 16):
            for fs in (8e8, 4e8, 1e8, 2.5e7):
                design = design_filters(model, AdcConfig(k, fs, bits))
                data = design.to_dict()
                for name in ("sigma_h", "sigma_task"):
                    dense = dense_rows_to_dict(getattr(design, name))
                    assert json.dumps(data[name]) == json.dumps(dense), (k, bits, fs, name)
                out.append(json.dumps(data))
    for arch in ARCHITECTURES:
        spec = SearchSpec(rate_budget=4e8, b_range=(1, 8, 16), architecture=arch)
        out.append(repr(rate_search(model, spec).table))
    return out


def test_end_to_end_bytes_match_dense_references(matched_model, monkeypatch):
    # a change to a grid-order sum on the design path fails here
    new = end_to_end_outputs(matched_model)
    calls = patch_references(monkeypatch)
    dense = end_to_end_outputs(matched_model)
    assert all(count > 0 for count in calls.values()), calls
    assert len(new) == 51
    for got, want in zip(new, dense):
        assert got == want
