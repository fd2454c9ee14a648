"""MSE-minimizing analog/digital filter pair for a fixed ADC configuration.

The analog filter is assembled per frequency from the SVD of the stacked
whitened task response: a water-filling profile on the singular values, the
task's right-singular vectors, and a unitary that equalizes the quantizer
input variances.  The digital side is the linear MMSE recovery filter for the
additive quantization-noise model, with the noise level derived from the
actual analog filter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mmse import TaskModel, task_energy, whitened_task_stack
from .quantizer import effective_loading, eta_schedule
from .spectra import (
    DEFAULT_GRID_POINTS,
    SpectralMatrixFunction,
    StackedSpectrum,
    alias_order,
    interleave_re_im,
    make_frequency_grid,
    psd_sqrt,
    row_runs,
    take_rows,
)

RANK_TOL = 1e-10  # singular values below tol*largest do not count toward rank
ACTIVE_TOL = 1e-12  # modes below tol*largest are dropped before water-filling


class DesignError(RuntimeError):
    """Numerical failure inside a design computation."""


@dataclass(frozen=True)
class AdcConfig:
    """ADC resources: converter count, sampling rate, resolution, loading factor.

    eta defaults to the resolution-dependent schedule 0.25*b + 1.75.
    """

    k_adcs: int
    fs: float
    bits: int
    eta: float | None = None

    def __post_init__(self):
        if self.k_adcs < 1:
            raise ValueError("k_adcs must be at least 1")
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if not np.isfinite(self.fs) or self.fs <= 0:
            raise ValueError("fs must be positive")
        if self.eta is None:
            object.__setattr__(self, "eta", eta_schedule(self.bits))
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        effective_loading(self.eta, self.bits)  # raises when infeasible

    @property
    def ts(self) -> float:
        return 1.0 / self.fs

    @property
    def rate(self) -> float:
        """Total output bit rate k_adcs * fs * bits."""
        return self.k_adcs * self.fs * self.bits


class MseReport(NamedTuple):
    mse: float
    nmse: float


@dataclass(frozen=True)
class FilterDesign:
    """A designed acquisition chain and its predicted error."""

    cfg: AdcConfig
    h_bar: StackedSpectrum
    sigma_h: np.ndarray
    water_level: float | None
    task_energy: float
    sigma_task: np.ndarray | None = None
    g_freq: SpectralMatrixFunction | None = None
    h: SpectralMatrixFunction | None = None
    mse_theory: float | None = None
    nmse: float | None = None
    dynamic_range: float | None = None
    quant_noise_var: float | None = None

    def to_dict(self) -> dict:
        return {
            "k_adcs": self.cfg.k_adcs,
            "fs_hz": self.cfg.fs,
            "bits": self.cfg.bits,
            "eta": self.cfg.eta,
            "water_level": self.water_level,
            "mse": self.mse_theory,
            "nmse": self.nmse,
            "task_energy": self.task_energy,
            "dynamic_range": self.dynamic_range,
            "alias_order": self.h_bar.alias_order_,
            "h_bar": {
                "grid": {
                    "f_lo": self.h_bar.base_grid.f_lo,
                    "f_hi": self.h_bar.base_grid.f_hi,
                    "n": self.h_bar.base_grid.n_points,
                },
                "block_cols": self.h_bar.block_cols,
                "values": interleave_re_im(self.h_bar.blocks),
            },
            "g_freq": None if self.g_freq is None else self.g_freq.to_dict(),
            "h": None if self.h is None else self.h.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FilterDesign":
        cfg = AdcConfig(
            k_adcs=data["k_adcs"], fs=data["fs_hz"], bits=data["bits"], eta=data["eta"]
        )
        g = data["h_bar"]["grid"]
        grid = make_frequency_grid(g["f_lo"], g["f_hi"], g["n"])
        cols = data["h_bar"]["block_cols"]
        ups = data["alias_order"]
        flat = np.asarray(data["h_bar"]["values"], dtype=float)
        rows = flat.size // (2 * grid.n_points * (2 * ups + 1) * cols)
        blocks = (flat[0::2] + 1j * flat[1::2]).reshape(
            grid.n_points, rows, (2 * ups + 1) * cols
        )
        h_bar = StackedSpectrum(
            base_grid=grid, alias_order_=ups, blocks=blocks, block_cols=cols,
            fs=cfg.fs,
        )
        g_freq = (
            None
            if data.get("g_freq") is None
            else SpectralMatrixFunction.from_dict(data["g_freq"])
        )
        h = None if data.get("h") is None else SpectralMatrixFunction.from_dict(data["h"])
        sigma_h = np.zeros((grid.n_points, min(cfg.k_adcs, blocks.shape[2])))
        return cls(
            cfg=cfg,
            h_bar=h_bar,
            sigma_h=sigma_h,
            water_level=data["water_level"],
            task_energy=data["task_energy"],
            g_freq=g_freq,
            h=h,
            mse_theory=data["mse"],
            nmse=data["nmse"],
            dynamic_range=data["dynamic_range"],
        )


def auto_grid_points(fs: float, f_max: float, target: int = DEFAULT_GRID_POINTS) -> int:
    """Baseband grid density; shrinks for alias-heavy stackings so the total
    sample count across the physical band stays roughly constant."""
    ups = alias_order(fs, f_max)
    n = min(target, max(384, int(round(target * 9 / (2 * ups + 1)))))
    return n + (n % 2)


def solve_waterfill_level(
    singvals: np.ndarray, weights: np.ndarray, cfg: AdcConfig
) -> float:
    """Water-filling level making the quantizer-support constraint tight.

    Solves sum_j w_j sum_i (zeta*sigma_ij - 1)^+ = K * 4^b / (kappa * Ts) on
    the piecewise-linear left-hand side: candidate levels are evaluated on
    each breakpoint segment and the unique consistent one is returned.
    """
    s = np.asarray(singvals, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    w = np.broadcast_to(np.asarray(weights, dtype=float)[:, None], s.shape)
    s_max = s.max(initial=0.0)
    if s_max <= 0.0:
        raise ValueError("all singular values are zero: task carries no energy")
    keep = s > ACTIVE_TOL * s_max
    flat_s = s[keep]
    flat_w = w[keep]
    order = np.argsort(flat_s)[::-1]
    flat_s = flat_s[order]
    flat_w = flat_w[order]

    kappa = effective_loading(cfg.eta, cfg.bits)
    target = cfg.k_adcs * 4.0**cfg.bits / (kappa * cfg.ts)

    w_cum = np.cumsum(flat_w)
    ws_cum = np.cumsum(flat_w * flat_s)
    cand = (target + w_cum) / ws_cum
    # active set = top-m modes: level must sit between the bracketing breakpoints
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


def equalize_diagonal(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unitary U such that U @ a @ U^H has all diagonal entries equal.

    Pairs the largest and smallest remaining diagonal entries and applies a
    2x2 rotation that pins one of them exactly to trace/K; at most K-1
    rotations.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be square")
    scale = max(float(np.abs(a).max()), 1e-300)
    if float(np.abs(a - a.conj().T).max()) > 1e-10 * scale:
        raise ValueError("input must be Hermitian")
    k = a.shape[0]
    work = a.copy()
    u_total = np.eye(k, dtype=complex)
    target = float(np.trace(work).real) / k
    span = max(abs(target) * k, scale)
    fixed = np.zeros(k, dtype=bool)
    for _ in range(k - 1):
        live = np.flatnonzero(~fixed)
        d = np.diag(work).real[live]
        if d.max() - target <= tol * span and target - d.min() <= tol * span:
            break
        hi = int(live[np.argmax(d)])
        lo = int(live[np.argmin(d)])
        p, q = work[hi, hi].real, work[lo, lo].real
        off = work[hi, lo]
        mag = abs(off)
        phase = off / mag if mag > 0 else 1.0
        # rotation tangent solves (q-t) tau^2 + 2|off| tau + (p-t) = 0; the
        # cancellation-free root keeps tau finite when q sits on the target
        disc = np.sqrt(max(mag * mag - (q - target) * (p - target), 0.0))
        denom = mag + disc
        if denom == 0.0:
            raise DesignError("diagonal equalization hit a degenerate pivot pair")
        tau = -(p - target) / denom
        c = 1.0 / np.sqrt(1.0 + tau * tau)
        sn = tau * c
        # W = Givens(c, sn) after phasing the lo column real: diag(1, phase)
        rot = np.eye(k, dtype=complex)
        rot[hi, hi] = c
        rot[hi, lo] = sn * phase
        rot[lo, hi] = -sn
        rot[lo, lo] = c * phase
        work = rot @ work @ rot.conj().T
        work[hi, hi] = target  # exact by construction
        u_total = rot @ u_total
        fixed[hi] = True
    d = np.diag(work).real
    if np.abs(d - target).max() > 1e-12 * span + 1e-300:
        raise DesignError("diagonal equalization did not converge")
    return u_total


def _svd_gauge_fixed(blocks: np.ndarray):
    """Batched thin SVD (singular values, right vectors) with a deterministic phase.

    The largest-magnitude entry of every right-singular vector is made real
    and positive.
    """
    _, s, vh = np.linalg.svd(blocks, full_matrices=False)
    jmax = np.argmax(np.abs(vh), axis=-1)
    pivot = np.take_along_axis(vh, jmax[..., None], axis=-1)[..., 0]
    mag = np.abs(pivot)
    safe = mag > 0
    phase = np.where(safe, np.conj(pivot) / np.where(safe, mag, 1.0), 1.0)
    vh = vh * np.conj(phase)[..., None]
    return s, vh


def max_rank_bound(task_stack: StackedSpectrum) -> int:
    """Largest numerical rank of the stacked task response over the grid."""
    starts, _ = row_runs(task_stack.blocks)
    s = np.linalg.svd(take_rows(task_stack.blocks, starts), compute_uv=False)
    top = s[:, :1]
    ranks = np.sum(s > RANK_TOL * np.maximum(top, 1e-300), axis=1)
    return int(ranks.max(initial=0))


def analog_recovery_is_optimal(c_stilde: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the task covariance is a scaled identity (within tol*trace)."""
    c = np.asarray(c_stilde, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be square")
    if np.abs(c - c.T).max() > 1e-9 * max(np.abs(c).max(), 1e-300):
        raise ValueError("covariance must be symmetric")
    n = c.shape[0]
    tr = float(np.trace(c))
    resid = np.linalg.norm(c - (tr / n) * np.eye(n))
    return bool(resid <= tol * tr + 1e-300)


def quantizer_noise(h_bar: StackedSpectrum, cfg: AdcConfig) -> tuple[float, float]:
    """Quantization-noise variance step^2/4 and dynamic range for a filter.

    The dynamic range is calibrated to the largest sampled-output variance of
    this filter, so the additive-noise level is self-consistent with it.
    """
    c_y0 = cfg.ts**2 * h_bar.outer_integral()
    peak = float(np.diag(c_y0).real.max(initial=0.0))
    peak = max(peak, 0.0)
    kappa = effective_loading(cfg.eta, cfg.bits)
    gamma_sq = kappa * peak
    noise_var = gamma_sq / 4.0**cfg.bits  # (2*gamma/2^b)^2 / 4
    return noise_var, float(np.sqrt(gamma_sq))


def design_analog_filter(
    task_stack: StackedSpectrum, cfg: AdcConfig, with_unitary: bool = True
) -> FilterDesign:
    """MSE-minimizing analog filter for a stacked whitened task response.

    Per frequency: water-filled singular values on the task's right-singular
    directions, rotated so all quantizer inputs carry equal variance.
    """
    n_rows, m_cols = task_stack.rows, task_stack.block_cols
    k = cfg.k_adcs
    if k > m_cols:
        raise ValueError(f"k_adcs={k} exceeds the input count M={m_cols}")
    # per-frequency work runs once per run of identical rows; the water-fill
    # and everything FilterDesign stores stay on the dense grid
    starts, index = row_runs(task_stack.blocks)
    s_runs, vh = _svd_gauge_fixed(take_rows(task_stack.blocks, starts))
    s = take_rows(s_runs, index)
    n_pts = task_stack.base_grid.n_points
    k_eff = min(k, task_stack.stacked_cols)
    r = min(s.shape[1], k_eff)
    waterfill_input = np.zeros((n_pts, k_eff))
    waterfill_input[:, :r] = s[:, :r]

    zeta = solve_waterfill_level(waterfill_input, task_stack.base_grid.weights, cfg)
    sigma_h = np.sqrt(np.maximum(zeta * waterfill_input - 1.0, 0.0)) / 2.0**cfg.bits

    sigma_runs = take_rows(sigma_h, starts)
    core = sigma_runs[:, :r, None] * vh[:, :r, :]  # rows beyond the task rank stay zero
    if with_unitary:
        u_h = _batched_equalizers(sigma_runs**2, k)
        blocks = u_h[:, :, :r] @ core
    else:
        blocks = np.zeros((starts.size, k, task_stack.stacked_cols), dtype=complex)
        blocks[:, :r, :] = core
    h_bar = StackedSpectrum(
        base_grid=task_stack.base_grid,
        alias_order_=task_stack.alias_order_,
        blocks=take_rows(blocks, index),
        block_cols=m_cols,
        fs=task_stack.fs,
    )
    energy = task_energy(task_stack)
    return FilterDesign(
        cfg=cfg,
        h_bar=h_bar,
        sigma_h=sigma_h,
        water_level=zeta,
        task_energy=energy,
        sigma_task=s,
    )


def _batched_equalizers(diag_rows: np.ndarray, k: int) -> np.ndarray:
    """Equalizing unitaries for per-frequency diagonal matrices, deduplicated."""
    n_pts = diag_rows.shape[0]
    padded = np.zeros((n_pts, k))
    padded[:, : diag_rows.shape[1]] = diag_rows
    uniq, inverse = np.unique(padded, axis=0, return_inverse=True)
    us = np.empty((uniq.shape[0], k, k), dtype=complex)
    for i, row in enumerate(uniq):
        us[i] = equalize_diagonal(np.diag(row.astype(complex)))
    return us[inverse]


def _cross_and_output_spectra(h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig):
    """(s_cross, c_out, noise_var, index): cross-spectrum and sampled-output
    covariance once per run of identical rows of both stacks; ``index`` maps
    grid points to runs."""
    if h_bar.base_grid.n_points != task_stack.base_grid.n_points:
        raise ValueError("analog filter and task stacks must share the baseband grid")
    if h_bar.stacked_cols != task_stack.stacked_cols:
        raise ValueError("analog filter and task stacks must share the alias layout")
    noise_var, _ = quantizer_noise(h_bar, cfg)
    starts, index = row_runs(h_bar.blocks, task_stack.blocks)
    h = take_rows(h_bar.blocks, starts)
    h_conj = h.conj().swapaxes(-1, -2)
    s_cross = take_rows(task_stack.blocks, starts) @ h_conj  # N x K per run
    c_out = cfg.ts * (h @ h_conj)
    idx = np.arange(h_bar.rows)
    c_out[:, idx, idx] += noise_var
    return s_cross, c_out, noise_var, index


def design_digital_filter(
    h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig
) -> SpectralMatrixFunction:
    """Linear MMSE digital recovery filter frequency response on the baseband.

    Valid for any analog filter, not only the designed one; the quantization
    noise level is derived from the filter actually supplied.
    """
    s_cross, c_out, noise_var, index = _cross_and_output_spectra(h_bar, task_stack, cfg)
    if noise_var > 0:
        g = np.linalg.solve(c_out, s_cross.conj().swapaxes(-1, -2))
        g = g.conj().swapaxes(-1, -2)
    else:
        # zero-step quantizer: sample-output covariance may be singular
        g = s_cross @ np.linalg.pinv(c_out, rcond=1e-12, hermitian=True)
    return SpectralMatrixFunction(
        grid=h_bar.base_grid, values=take_rows(g, index), kind="filter"
    )


def theoretical_mse(
    h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig
) -> MseReport:
    """Recovery MSE of the optimal digital filter behind a given analog filter."""
    s_cross, c_out, noise_var, index = _cross_and_output_spectra(h_bar, task_stack, cfg)
    energy = task_energy(task_stack)
    if noise_var > 0:
        x = np.linalg.solve(c_out, s_cross.conj().swapaxes(-1, -2))
    else:
        x = np.linalg.pinv(c_out, rcond=1e-12, hermitian=True) @ s_cross.conj().swapaxes(-1, -2)
    # the per-row trace is taken on the dense grid: einsum's summation order
    # depends on the batch size, so gathering its result would not be exact
    gains = np.einsum(
        "jnk,jkn->j", take_rows(s_cross, index), take_rows(x, index)
    ).real
    recovered = cfg.ts * float(task_stack.base_grid.weights @ gains)
    mse = energy - recovered
    nmse = mse / energy if energy > 0 else 0.0
    return MseReport(mse=mse, nmse=nmse)


def theoretical_mse_waterfilled(design: FilterDesign) -> MseReport:
    """Closed-form MSE of the designed filter from its singular-value profile.

    Summed as small positive residuals per mode (never energy minus
    recovered), so it stays accurate far below the task energy.
    """
    if design.sigma_task is None:
        raise ValueError("design lacks the task singular values")
    sigma = design.sigma_task
    q = 4.0 ** (-design.cfg.bits)
    r_act = min(design.sigma_h.shape[1], sigma.shape[1])
    s2 = design.sigma_h[:, :r_act] ** 2
    residual = sigma[:, :r_act] ** 2 * q / (s2 + q)
    leak = (sigma[:, r_act:] ** 2).sum(axis=1)
    mse = float(design.h_bar.base_grid.weights @ (residual.sum(axis=1) + leak))
    nmse = mse / design.task_energy if design.task_energy > 0 else 0.0
    return MseReport(mse=mse, nmse=nmse)


def nyquist_analog_filter(
    design: FilterDesign, c_x: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Unstack the designed filter when sampling satisfies Nyquist.

    Right-multiplies by the pseudo-inverse of the input PSD square root;
    null-space columns of the PSD map to zero response.
    """
    if design.h_bar.alias_order_ != 0:
        raise ValueError("analog filter can only be unstacked at alias order 0")
    root = psd_sqrt(c_x)
    sampled = root.sample(design.h_bar.base_grid.points)
    starts, index = row_runs(design.h_bar.blocks, sampled)
    inv = np.linalg.pinv(take_rows(sampled, starts), rcond=1e-12, hermitian=True)
    values = take_rows(design.h_bar.blocks, starts) @ inv
    return SpectralMatrixFunction(
        grid=design.h_bar.base_grid, values=take_rows(values, index), kind="filter"
    )


def design_filters(
    model: TaskModel, cfg: AdcConfig, n_points: int | None = None
) -> FilterDesign:
    """Full design for a task model: analog filter, digital filter, and MSE."""
    if n_points is None:
        n_points = auto_grid_points(cfg.fs, model.band_edge)
    task_stack = whitened_task_stack(model, cfg.fs, n_points)
    design = design_analog_filter(task_stack, cfg)
    _check_support_constraint(design)
    g = design_digital_filter(design.h_bar, task_stack, cfg)
    report = theoretical_mse_waterfilled(design)
    noise_var, gamma = quantizer_noise(design.h_bar, cfg)
    h = None
    if design.h_bar.alias_order_ == 0:
        h = nyquist_analog_filter(design, model.input_psd)
    return replace(
        design,
        g_freq=g,
        h=h,
        mse_theory=report.mse,
        nmse=report.nmse,
        dynamic_range=gamma,
        quant_noise_var=noise_var,
    )


def _check_support_constraint(design: FilterDesign) -> None:
    """The designed singular values must saturate the quantizer-support constraint."""
    cfg = design.cfg
    kappa = effective_loading(cfg.eta, cfg.bits)
    lhs = (
        kappa
        * cfg.ts
        / cfg.k_adcs
        * float(design.h_bar.base_grid.weights @ (design.sigma_h**2).sum(axis=1))
    )
    if abs(lhs - 1.0) > 1e-9:
        raise DesignError(f"quantizer-support constraint violated: {lhs}")
