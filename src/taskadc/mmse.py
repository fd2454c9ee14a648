"""Analog MMSE filtering: the task filter, task energy, and task covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import (
    DEFAULT_GRID_POINTS,
    SpectralMatrixFunction,
    StackedSpectrum,
    multiply_spectra,
    psd_sqrt,
    row_runs,
    stack_aliases,
    take_rows,
)

PINV_CUTOFF = 1e-12  # singular values below cutoff*largest count as zero


@dataclass(frozen=True)
class TaskModel:
    """Second-order description of the inputs and the linear task.

    task_filter is the N x M analog MMSE response, input_psd the M x M input
    PSD, cross_psd the N x M cross-PSD between task and inputs.
    """

    task_filter: SpectralMatrixFunction
    input_psd: SpectralMatrixFunction
    cross_psd: SpectralMatrixFunction

    def __post_init__(self):
        n, m = self.task_filter.shape
        if n < 1 or m < 1:
            raise ValueError("task and input dimensions must be at least 1")
        if self.input_psd.shape != (m, m):
            raise ValueError("input_psd must be M x M")
        if self.cross_psd.shape != (n, m):
            raise ValueError("cross_psd must be N x M")
        resid = self.task_filter.values @ self.input_psd.values - self.cross_psd.values
        scale = max(float(np.abs(self.cross_psd.values).max()), 1e-300)
        if float(np.abs(resid).max()) > 1e-8 * scale:
            raise ValueError("task_filter is inconsistent: filter @ input_psd != cross_psd")

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

    def whitened_task(self) -> SpectralMatrixFunction:
        """Pointwise task_filter @ input_psd^(1/2), the whitened task response."""
        return multiply_spectra(self.task_filter, psd_sqrt(self.input_psd))

    def to_dict(self) -> dict:
        return {
            "n_task": self.n_task,
            "m_inputs": self.m_inputs,
            "task_filter": self.task_filter.to_dict(),
            "input_psd": self.input_psd.to_dict(),
            "cross_psd": self.cross_psd.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskModel":
        return cls(
            task_filter=SpectralMatrixFunction.from_dict(data["task_filter"]),
            input_psd=SpectralMatrixFunction.from_dict(data["input_psd"]),
            cross_psd=SpectralMatrixFunction.from_dict(data["cross_psd"]),
        )


def analog_mmse_filter(
    c_sx: SpectralMatrixFunction, c_x: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Per-frequency cross_psd @ pinv(input_psd).

    The pseudo-inverse maps null-space components of a rank-deficient input
    PSD to zero.
    """
    n, m = c_sx.shape
    if c_x.shape != (m, m):
        raise ValueError("input PSD shape must match the cross-PSD columns")
    return _times_pinv(c_sx.grid, c_sx.values, c_x.values)


def _times_pinv(grid, left: np.ndarray, psd: np.ndarray) -> SpectralMatrixFunction:
    """The filter left @ pinv(psd) per grid row, one pseudo-inverse per run of
    identical rows; singular values below PINV_CUTOFF*largest count as zero."""
    starts, index = row_runs(left, psd)
    inv = np.linalg.pinv(take_rows(psd, starts), rcond=PINV_CUTOFF, hermitian=True)
    values = take_rows(left, starts) @ inv
    return SpectralMatrixFunction(grid=grid, values=take_rows(values, index), kind="filter")


def whitened_task_stack(
    model: TaskModel, fs: float, n_points: int = DEFAULT_GRID_POINTS
) -> StackedSpectrum:
    """Alias-stacked whitened task response on the baseband [-fs/2, fs/2]."""
    return stack_aliases(model.whitened_task(), fs, model.band_edge, n_points)


def task_energy(task_stack: StackedSpectrum) -> float:
    """Variance of the analog MMSE estimate: band integral of the stacked outer product."""
    energy = float(np.trace(task_stack.outer_integral()).real)
    return max(energy, 0.0)


def task_covariance(model: TaskModel) -> np.ndarray:
    """Covariance of the analog MMSE estimate over the full signal band."""
    gamma = model.task_filter.values
    prod = gamma @ model.input_psd.values @ gamma.conj().swapaxes(-1, -2)
    cov = np.einsum("i,ijk->jk", model.task_filter.grid.weights, prod)
    cov = 0.5 * (cov + cov.conj().T)
    return cov.real
