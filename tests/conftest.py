import math

import numpy as np
import pytest

from taskadc.mmse import TaskModel, analog_mmse_filter
from taskadc.scenarios import ScenarioSpec, build_scenario
from taskadc.spectra import (
    FrequencyGrid,
    SpectralMatrixFunction,
    constant_spectrum,
    multiply_spectra,
)


def unit_scalar_model(fs: float = 1.0, n_points: int = 256) -> TaskModel:
    """Noiseless identity task on a flat unit-PSD scalar input over [-fs/2, fs/2]."""
    grid = FrequencyGrid(-fs / 2.0, fs / 2.0, n_points)
    one = np.ones((1, 1))
    return TaskModel(
        task_filter=constant_spectrum(grid, one, kind="filter"),
        input_psd=constant_spectrum(grid, one, kind="psd"),
    )


def random_flat_model(rng: np.random.Generator, n: int, m: int, n_points: int = 256,
                      f_nyq: float = 1.0) -> TaskModel:
    """Random flat-band model with a well-conditioned input PSD."""
    a = rng.standard_normal((m, m))
    input_level = a @ a.T + m * np.eye(m)
    cross_level = rng.standard_normal((n, m))
    task_level = cross_level @ np.linalg.inv(input_level)
    grid = FrequencyGrid(-f_nyq / 2.0, f_nyq / 2.0, n_points)
    return TaskModel(
        task_filter=constant_spectrum(grid, task_level, kind="filter"),
        input_psd=constant_spectrum(grid, input_level, kind="psd"),
    )


def piecewise_spectra(
    n_points: int, seed: int = 0
) -> tuple[SpectralMatrixFunction, SpectralMatrixFunction]:
    """(cross-PSD, input PSD) of an N=2, M=4 model on [-0.5, 0.5]: the input
    PSD has 4 runs, the third of rank 2, and the cross-PSD is a task level
    that changes at other rows times that PSD."""
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(-0.5, 0.5, n_points)
    levels = []
    for rank in (4, 4, 2, 4):
        a = rng.standard_normal((4, rank))
        levels.append(a @ a.T + (0.1 * np.eye(4) if rank == 4 else 0.0))
    psd = SpectralMatrixFunction(
        grid, np.array(levels), "psd",
        run_starts=[0, n_points // 5, n_points // 2, 4 * n_points // 5],
    )
    task = SpectralMatrixFunction(
        grid, rng.standard_normal((3, 2, 4)), "filter",
        run_starts=[0, n_points // 3, 3 * n_points // 4],
    )
    product = multiply_spectra(task, psd)
    cross = SpectralMatrixFunction(
        grid, product.run_values, "cross_psd", run_starts=product.run_starts
    )
    return cross, psd


def piecewise_model(n_points: int, seed: int = 0) -> TaskModel:
    """The model of ``piecewise_spectra``: its task filter is
    ``analog_mmse_filter`` of the cross-PSD."""
    cross, psd = piecewise_spectra(n_points, seed)
    return TaskModel(task_filter=analog_mmse_filter(cross, psd), input_psd=psd)


def bin_freqs(plan):
    """A block plan's in-band DFT bins 0..m."""
    return np.arange(plan.n_pos_bins + 1) * plan.df


def sample_dc_and_bins(spectrum, plan):
    """A spectrum at DC and at a block plan's positive in-band DFT bins."""
    freqs = bin_freqs(plan)
    return spectrum.sample(freqs[:1])[0], spectrum.sample(freqs[1:])


def synthesize_block(roots_dc, roots_pos, plan, rng):
    """One trial's spectral increments and M-channel time block on a block plan.

    roots_dc (M, M) and roots_pos (m, M, M) are an input-PSD root at DC and at
    the plan's positive in-band bins. The draws follow ``estimate_mse``'s stream
    order: M normals for DC, then an (re, im) pair per channel and bin. Returns
    the increments at DC (M,) and at the bins (m, M), and the real block (M, L)
    at the simulation rate.
    """
    m_ch = roots_dc.shape[0]
    scale = np.sqrt(plan.df)
    xi_dc = (roots_dc.real @ rng.standard_normal(m_ch)) * scale
    noise = rng.standard_normal((plan.n_pos_bins, m_ch, 2))
    circ = (noise[..., 0] + 1j * noise[..., 1]) / np.sqrt(2.0)
    xi_pos = np.einsum("qmc,qc->qm", roots_pos, circ) * scale
    half = np.zeros((m_ch, plan.n_samples // 2 + 1), dtype=complex)
    half[:, 0] = xi_dc
    half[:, 1 : plan.n_pos_bins + 1] = xi_pos.T
    block = np.fft.irfft(half, n=plan.n_samples) * plan.n_samples
    return xi_dc, xi_pos, block


@pytest.fixture(scope="session")
def scalar_model():
    return unit_scalar_model()


@pytest.fixture(scope="session")
def matched_spec():
    return ScenarioSpec(
        n_streams=4, m_antennas=16, f_nyq=400e6, snr_db=10.0,
        sigma_phi=math.radians(1.0), channel_seed=0,
    )


@pytest.fixture(scope="session")
def matched_model(matched_spec):
    return build_scenario(matched_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
