"""Analog MMSE filtering: the task filter, task energy, and task covariance.

The task energy and covariance are band integrals: their per-row products
run once per run of identical rows, and their sums over frequency run over
the dense grid in grid order."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectra import (
    SpectralMatrixFunction,
    StackedSpectrum,
    _check_shared_grid,
    _expand_runs,
    auto_grid_points,
    multiply_spectra,
    psd_sqrt,
    stack_aliases,
)

PINV_CUTOFF = 1e-12  # singular values below cutoff*largest count as zero


@dataclass(frozen=True)
class TaskModel:
    """Second-order description of the inputs and the linear task.

    task_filter is the N x M analog MMSE response, input_psd the M x M input
    PSD, both on one grid.  Only the whitened response task_filter @
    input_psd^(1/2) enters the design, so a model given by its cross-PSD is
    built with ``analog_mmse_filter(cross_psd, input_psd)``.
    """

    task_filter: SpectralMatrixFunction
    input_psd: SpectralMatrixFunction

    def __post_init__(self):
        n, m = self.task_filter.shape
        if n < 1 or m < 1:
            raise ValueError("task and input dimensions must be at least 1")
        if self.input_psd.shape != (m, m):
            raise ValueError("input_psd must be M x M")
        _check_shared_grid(self.task_filter.grid, self.input_psd.grid)

    @property
    def n_task(self) -> int:
        return self.task_filter.shape[0]

    @property
    def m_inputs(self) -> int:
        return self.task_filter.shape[1]

    @property
    def band_edge(self) -> float:
        g = self.input_psd.grid
        return max(abs(g.f_lo), abs(g.f_hi))

    @property
    def f_nyq(self) -> float:
        return 2.0 * self.band_edge

    @cached_property
    def _input_root(self) -> SpectralMatrixFunction:
        """input_psd^(1/2), computed once per model."""
        return psd_sqrt(self.input_psd)

    @cached_property
    def _whitened(self) -> SpectralMatrixFunction:
        """The whitened task response task_filter @ input_psd^(1/2), computed
        once per model."""
        return multiply_spectra(self.task_filter, self._input_root)


def analog_mmse_filter(
    c_sx: SpectralMatrixFunction, c_x: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Per-frequency cross_psd @ pinv(input_psd), one pseudo-inverse per run
    on which both spectra are constant.

    The pseudo-inverse maps null-space components of a rank-deficient input
    PSD to zero.
    """
    n, m = c_sx.shape
    if c_x.shape != (m, m):
        raise ValueError("input PSD shape must match the cross-PSD columns")
    _check_shared_grid(c_sx.grid, c_x.grid)
    return _times_pinv(c_sx.grid, c_sx, c_x)


def _times_pinv(grid, left, psd) -> SpectralMatrixFunction:
    """The filter left @ pinv(psd) on ``grid``, for run-form operands (a
    ``SpectralMatrixFunction`` or a ``StackedSpectrum``): one pseudo-inverse
    per joint run, the union of both run partitions, which is ``row_runs``
    of their dense rows taken together.  Singular values below
    PINV_CUTOFF*largest count as zero."""
    starts = np.union1d(left.run_starts, psd.run_starts)
    inv = np.linalg.pinv(psd.rows_at(starts), rcond=PINV_CUTOFF, hermitian=True)
    values = left.rows_at(starts) @ inv
    return SpectralMatrixFunction(grid=grid, values=values, kind="filter", run_starts=starts)


def whitened_task_stack(
    model: TaskModel, fs: float, n_points: int | None = None
) -> StackedSpectrum:
    """Alias-stacked whitened task response on the baseband [-fs/2, fs/2];
    n_points=None is ``auto_grid_points``, the density of every design."""
    if n_points is None:
        n_points = auto_grid_points(fs, model.band_edge)
    return stack_aliases(model._whitened, fs, model.band_edge, n_points)


def task_energy(task_stack: StackedSpectrum) -> float:
    """Variance of the analog MMSE estimate: the trace of the band integral
    of the stacked outer product, summed from its diagonal alone."""
    energy = float(task_stack.outer_diagonal_integral().sum().real)
    return max(energy, 0.0)


def task_covariance(model: TaskModel) -> np.ndarray:
    """Covariance of the analog MMSE estimate over the full signal band:
    gamma C gamma^H once per joint run of the two spectra, summed over every
    grid row in grid order."""
    grid = model.task_filter.grid
    starts = np.union1d(model.task_filter.run_starts, model.input_psd.run_starts)
    gamma = model.task_filter.rows_at(starts)
    prod = gamma @ model.input_psd.rows_at(starts) @ gamma.conj().swapaxes(-1, -2)
    prod = _expand_runs(prod, starts, grid.n_points)
    cov = np.einsum("i,ijk->jk", grid.weights, prod)
    cov = 0.5 * (cov + cov.conj().T)
    return cov.real
