import math

import numpy as np
import pytest

from taskadc.design import ACTIVE_TOL, DesignError
from taskadc.mmse import TaskModel, analog_mmse_filter
from taskadc.quantizer import effective_loading
from taskadc.scenarios import ScenarioSpec, build_scenario
from taskadc.spectra import (
    FrequencyGrid,
    SpectralMatrixFunction,
    _runs_to_dict,
    constant_spectrum,
    multiply_spectra,
    take_rows,
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


# Dense references: the band integrals and the water-fill level computed on
# every grid row, as the design path did before its per-row terms ran once per
# run.  The run-native code must match them bit for bit.


def dense_outer_integral(stack) -> np.ndarray:
    """The full rows x rows band integral of blocks(f) @ blocks(f)^H: the
    Gram product of every run, gathered to the grid and summed in grid order."""
    b = stack.run_blocks
    prod = take_rows(b @ b.conj().swapaxes(-1, -2), stack.run_index)
    return np.einsum("i,ijk->jk", stack.base_grid.weights, prod)


def dense_task_energy(task_stack) -> float:
    """``mmse.task_energy`` as the trace of the full Gram integral."""
    return max(float(np.trace(dense_outer_integral(task_stack)).real), 0.0)


def dense_quantizer_noise(h_bar, cfg) -> tuple[float, float]:
    """``design.quantizer_noise`` from the diagonal of Ts^2 times the full
    Gram integral."""
    c_y0 = cfg.ts**2 * dense_outer_integral(h_bar)
    peak = max(float(np.diag(c_y0).real.max(initial=0.0)), 0.0)
    gamma_sq = effective_loading(cfg.eta, cfg.bits) * peak
    return gamma_sq / 4.0**cfg.bits, float(np.sqrt(gamma_sq))


def argsort_waterfill_level(singvals, weights, cfg) -> float:
    """The water level of a dense profile, (rows, modes) or (rows,), on
    ``weights``, with every value of the profile sorted."""
    s = np.asarray(singvals, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    w = np.broadcast_to(np.asarray(weights, dtype=float)[:, None], s.shape)
    s_max = s.max(initial=0.0)
    if s_max <= 0.0:
        raise ValueError("all singular values are zero: task carries no energy")
    keep = s > ACTIVE_TOL * s_max
    order = np.argsort(s[keep])[::-1]
    flat_s, flat_w = s[keep][order], w[keep][order]
    kappa = effective_loading(cfg.eta, cfg.bits)
    target = cfg.k_adcs * 4.0**cfg.bits / (kappa * cfg.ts)
    w_cum = np.cumsum(flat_w)
    ws_cum = np.cumsum(flat_w * flat_s)
    cand = (target + w_cum) / ws_cum
    ok_lo = cand * flat_s >= 1.0 - 1e-9
    ok_hi = np.empty_like(ok_lo)
    ok_hi[:-1] = cand[:-1] * flat_s[1:] <= 1.0 + 1e-9
    ok_hi[-1] = True
    valid = np.flatnonzero(ok_lo & ok_hi)
    if valid.size == 0:
        raise DesignError("water-filling level bracketing failed")
    zeta = float(cand[valid[0]])
    achieved = float(np.sum(flat_w * np.maximum(zeta * flat_s - 1.0, 0.0)))
    if abs(achieved - target) > 1e-12 * target:
        raise DesignError("water-filling constraint residual exceeds tolerance")
    return zeta


def dense_waterfill_level(run_s, starts, grid, cfg) -> float:
    """``design.solve_waterfill_level``: the argsort level of the runs
    repeated over every grid row."""
    dense_s = np.repeat(run_s, np.diff(starts, append=grid.n_points), axis=0)
    return argsort_waterfill_level(dense_s, grid.weights, cfg)


def dense_band_integral(row_terms, weights, index) -> float:
    """``design._band_integral``: the per-run terms gathered to every grid
    row and summed in grid order."""
    return float(weights @ row_terms[index])


def dense_row_sums(rows, weights, index) -> float:
    """The support-constraint power and the designed shift kernel's const
    as computed on every grid row: the rows gathered to the grid before they
    are summed."""
    return float(weights @ take_rows(rows, index).sum(axis=1))


def dense_waterfilled_residual(sigma_task, sigma_h, weights, bits, index) -> float:
    """The closed-form residual as computed on every grid row: the profiles
    gathered to the grid before the per-row terms."""
    sigma_task, sigma_h = take_rows(sigma_task, index), take_rows(sigma_h, index)
    q = 4.0 ** (-bits)
    r_act = min(sigma_h.shape[1], sigma_task.shape[1])
    residual = sigma_task[:, :r_act] ** 2 * q / (sigma_h[:, :r_act] ** 2 + q)
    leak = (sigma_task[:, r_act:] ** 2).sum(axis=1)
    return float(weights @ (residual.sum(axis=1) + leak))


def dense_row_runs(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """``spectra.row_runs`` with each row's changes reduced by ``any``, as it
    found them before it took the nonzeros of the whole comparison."""
    n = arrays[0].shape[0]
    new_run = np.zeros(n, dtype=bool)
    new_run[:1] = True
    for a in arrays:
        rows = np.ascontiguousarray(a).reshape(n, -1)
        word = np.uint64 if rows.itemsize % 8 == 0 else np.uint8
        rows = rows.view(word)
        new_run[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(new_run), np.cumsum(new_run) - 1


def dense_rows_to_dict(values) -> dict:
    """The design.json entry of a profile given as every grid row, its runs
    found in the dense rows, as ``FilterDesign.to_dict`` wrote it when it
    stored dense profiles."""
    starts, _ = dense_row_runs(values)
    return _runs_to_dict(starts, values[starts])


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
