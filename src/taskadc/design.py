"""MSE-minimizing analog/digital filter pair for a fixed ADC configuration.

The analog filter is assembled per frequency from the SVD of the stacked
whitened task response: a water-filling profile on the singular values, the
task's right-singular vectors, and a unitary that equalizes the quantizer
input variances.  The digital side is the linear MMSE recovery filter for the
additive quantization-noise model, with the noise level derived from the
actual analog filter.

One modal core (``_waterfilled_modes``: SVD, water level, per-mode gains)
feeds the analog design, its closed-form MSE and the designed shift kernel;
one solve (``_solve_output``) feeds every digital filter, solve-based MSE and
general shift kernel.  One assembler (``_assemble``) builds every
``FilterDesign`` from its analog filter.  A design records the task shift t0
that its digital filter and error belong to: 0.0, unless
``search.shifted_task_design`` shifted it; design.json stores it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mmse import TaskModel, _times_pinv, task_energy, whitened_task_stack
from .quantizer import effective_loading, eta_schedule
from .spectra import (  # noqa: F401  auto_grid_points is re-exported
    SpectralMatrixFunction,
    StackedSpectrum,
    _rows_from_dict,
    _rows_to_dict,
    auto_grid_points,
    joint_runs,
    stack_aliases,
    take_rows,
)

RANK_TOL = 1e-10  # singular values below tol*largest do not count toward rank
ACTIVE_TOL = 1e-12  # modes below tol*largest are dropped before water-filling
EQUALIZE_TOL = 1e-12  # diagonal entries within tol*span of trace/K count as equal
ISOTROPY_TOL = 1e-9  # a covariance within tol*trace of a scaled identity is isotropic
DESIGN_JSON_VERSION = 2  # the only layout from_dict reads


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
        for name in ("k_adcs", "bits"):
            _check_count(name, getattr(self, name))
            # a numpy integer would not serialize to design.json
            object.__setattr__(self, name, int(getattr(self, name)))
        if not np.isfinite(self.fs) or self.fs <= 0:
            raise ValueError("fs must be positive")
        if self.eta is None:
            object.__setattr__(self, "eta", eta_schedule(self.bits))
        effective_loading(self.eta, self.bits)  # raises unless eta is finite, positive, feasible

    @property
    def ts(self) -> float:
        return 1.0 / self.fs

    @property
    def rate(self) -> float:
        """Total output bit rate k_adcs * fs * bits."""
        return self.k_adcs * self.fs * self.bits


def _check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a valid AdcConfig ``k_adcs`` or
    ``bits``: a whole number (Python or numpy, not bool), at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    if name == "bits" and value >= 512:
        # 4**bits = 2**(2*bits) overflows a float from 512 bits on
        raise ValueError("bits must be below 512: 4**bits overflows a float")


def _check_t0(t0) -> float:
    """``t0`` as a float; ValueError unless it is a finite real number (not bool)."""
    real = isinstance(t0, (int, float, np.integer, np.floating)) and not isinstance(t0, bool)
    # compared as a Python float: an int past the largest float is refused, not overflowed
    if not (real and abs(t0) <= float(np.finfo(float).max)):
        raise ValueError(f"t0 must be a finite number, got {t0!r}")
    return float(t0)


class MseReport(NamedTuple):
    mse: float
    nmse: float


def _report(mse: float, energy: float) -> MseReport:
    return MseReport(mse=mse, nmse=mse / energy if energy > 0 else 0.0)


@dataclass(frozen=True)
class FilterDesign:
    """A designed acquisition chain and its predicted error, built by
    ``_assemble``.  A baseline's fixed filter has no water level and no task
    singular values (None); the unstacked filter h is None above alias order 0."""

    cfg: AdcConfig
    h_bar: StackedSpectrum
    sigma_h: np.ndarray
    water_level: float | None
    task_energy: float
    sigma_task: np.ndarray | None
    g_freq: SpectralMatrixFunction
    h: SpectralMatrixFunction | None
    mse_theory: float
    nmse: float
    dynamic_range: float
    quant_noise_var: float
    t0: float  # task shift of g_freq and the error (search.shifted_task_design)

    def to_dict(self) -> dict:
        """design.json, version 2: every grid-sampled field stored as its runs
        of identical rows (``spectra._rows_to_dict``); a complex field whose
        imaginary parts are all +0.0 (``h_bar`` and ``h`` of a real
        scenario) keeps only its real parts, under ``real_values``."""
        return {
            "version": DESIGN_JSON_VERSION,
            "k_adcs": self.cfg.k_adcs,
            "fs_hz": self.cfg.fs,
            "bits": self.cfg.bits,
            "eta": self.cfg.eta,
            "t0": self.t0,
            "water_level": self.water_level,
            "mse": self.mse_theory,
            "nmse": self.nmse,
            "task_energy": self.task_energy,
            "dynamic_range": self.dynamic_range,
            "quant_noise_var": self.quant_noise_var,
            "alias_order": self.h_bar.alias_order_,
            "h_bar": self.h_bar.to_dict(),
            "sigma_h": _rows_to_dict(self.sigma_h),
            "sigma_task": None if self.sigma_task is None else _rows_to_dict(self.sigma_task),
            "g_freq": self.g_freq.to_dict(),
            "h": None if self.h is None else self.h.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FilterDesign":
        """Inverse of ``to_dict``, bit for bit; a complex field is read from
        its ``real_values`` (real parts alone) or its ``values`` ([re, im]
        pairs), so a file that stores every field as pairs loads too.  Any version
        but 2 is a ValueError: version 1 did not store ``sigma_h``; so is a
        null in a field every design has."""
        version = data.get("version")
        if version != DESIGN_JSON_VERSION:
            raise ValueError(f"design.json version {version} is not {DESIGN_JSON_VERSION}")
        required = ("g_freq", "mse", "nmse", "dynamic_range", "quant_noise_var")
        null = [key for key in required if data[key] is None]
        if null:
            raise ValueError(f"design.json has null {', '.join(null)}")
        cfg = AdcConfig(
            k_adcs=data["k_adcs"], fs=data["fs_hz"], bits=data["bits"], eta=data["eta"]
        )
        h_bar = StackedSpectrum.from_dict(data["h_bar"], data["alias_order"], cfg.fs)
        n, k_eff = h_bar.base_grid.n_points, min(cfg.k_adcs, h_bar.stacked_cols)
        sigma_h = _rows_from_dict(data["sigma_h"], n, (k_eff,), float)
        sigma_task = data["sigma_task"]
        if sigma_task is not None:
            sigma_task = _rows_from_dict(sigma_task, n, (-1,), float)
        h = None if data["h"] is None else SpectralMatrixFunction.from_dict(data["h"])
        return cls(
            cfg=cfg,
            h_bar=h_bar,
            sigma_h=sigma_h,
            water_level=data["water_level"],
            task_energy=data["task_energy"],
            sigma_task=sigma_task,
            g_freq=SpectralMatrixFunction.from_dict(data["g_freq"]),
            h=h,
            mse_theory=data["mse"],
            nmse=data["nmse"],
            dynamic_range=data["dynamic_range"],
            quant_noise_var=data["quant_noise_var"],
            t0=_check_t0(data.get("t0", 0.0)),  # older files held only unshifted designs
        )


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
    if not np.isfinite(target):
        raise ValueError(
            f"bits={cfg.bits}, K={cfg.k_adcs}, fs={cfg.fs:g}: the quantizer-support "
            "budget K*4**b/(kappa*Ts) overflows a float"
        )

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


def equalize_diagonal(a: np.ndarray) -> np.ndarray:
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
    tol = EQUALIZE_TOL * span
    fixed = np.zeros(k, dtype=bool)
    for _ in range(k - 1):
        live = np.flatnonzero(~fixed)
        d = np.diag(work).real[live]
        if d.max() - target <= tol and target - d.min() <= tol:
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


def _gauge_fixed(vh: np.ndarray) -> np.ndarray:
    """Right-singular vectors with a deterministic phase: the largest-magnitude
    entry of every vector is made real and positive."""
    jmax = np.argmax(np.abs(vh), axis=-1)
    pivot = np.take_along_axis(vh, jmax[..., None], axis=-1)[..., 0]
    mag = np.abs(pivot)
    safe = mag > 0
    phase = np.where(safe, np.conj(pivot) / np.where(safe, mag, 1.0), 1.0)
    return vh * np.conj(phase)[..., None]


def max_rank_bound(task_stack: StackedSpectrum) -> int:
    """Largest numerical rank of the stacked task response over the grid."""
    s = np.linalg.svd(task_stack.run_blocks, compute_uv=False)
    top = s[:, :1]
    ranks = np.sum(s > RANK_TOL * np.maximum(top, 1e-300), axis=1)
    return int(ranks.max(initial=0))


def analog_recovery_is_optimal(c_stilde: np.ndarray) -> bool:
    """True when the task covariance is a scaled identity (within
    ISOTROPY_TOL*trace)."""
    c = np.asarray(c_stilde, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be square")
    if np.abs(c - c.T).max() > 1e-9 * max(np.abs(c).max(), 1e-300):
        raise ValueError("covariance must be symmetric")
    n = c.shape[0]
    tr = float(np.trace(c))
    resid = np.linalg.norm(c - (tr / n) * np.eye(n))
    return bool(resid <= ISOTROPY_TOL * tr + 1e-300)


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


class _Modes(NamedTuple):
    s: np.ndarray  # task singular values on the dense grid
    vh: np.ndarray  # right vectors per run, LAPACK's phase; the design fixes it
    starts: np.ndarray  # the task stack's runs
    index: np.ndarray
    gain: np.ndarray  # (zeta*s - 1)^+ per grid point and converter slot
    sigma_h: np.ndarray  # designed singular values sqrt(gain) / 2^b
    zeta: float


def _waterfilled_modes(task_stack: StackedSpectrum, cfg: AdcConfig) -> _Modes:
    """SVD once per run of identical rows; the water level and the per-mode
    gains on the dense grid over the K largest singular values."""
    index = task_stack.run_index
    _, s_runs, vh = np.linalg.svd(task_stack.run_blocks, full_matrices=False)
    s = take_rows(s_runs, index)
    k_eff = min(cfg.k_adcs, task_stack.stacked_cols)
    r = min(s.shape[1], k_eff)
    waterfill_input = np.zeros((s.shape[0], k_eff))
    waterfill_input[:, :r] = s[:, :r]
    zeta = solve_waterfill_level(waterfill_input, task_stack.base_grid.weights, cfg)
    gain = np.maximum(zeta * waterfill_input - 1.0, 0.0)
    return _Modes(
        s, vh, task_stack.run_starts, index, gain, np.sqrt(gain) / 2.0**cfg.bits, zeta
    )


def _waterfilled_residual(
    sigma_task: np.ndarray, sigma_h: np.ndarray, weights: np.ndarray, bits: int
) -> float:
    """Band integral of sigma^2 4^-b / (sigma_h^2 + 4^-b) per filled mode plus the
    energy of the unfilled ones: small positive terms, never energy minus
    recovered, so it stays accurate far below the task energy."""
    q = 4.0 ** (-bits)
    r_act = min(sigma_h.shape[1], sigma_task.shape[1])
    s2 = sigma_h[:, :r_act] ** 2
    residual = sigma_task[:, :r_act] ** 2 * q / (s2 + q)
    leak = (sigma_task[:, r_act:] ** 2).sum(axis=1)
    return float(weights @ (residual.sum(axis=1) + leak))


def design_analog_filter(task_stack: StackedSpectrum, cfg: AdcConfig) -> FilterDesign:
    """Design for a stacked whitened task response: the MSE-minimizing analog
    filter, its digital filter and closed-form MSE; h is left None.

    Per frequency: water-filled singular values on the task's right-singular
    directions, rotated so all quantizer inputs carry equal variance.
    """
    k = cfg.k_adcs
    if k > task_stack.block_cols:
        raise ValueError(f"k_adcs={k} exceeds the input count M={task_stack.block_cols}")
    modes = _waterfilled_modes(task_stack, cfg)
    # the equalizer and the filter rows run once per run of identical rows;
    # h_bar keeps those runs, the arrays FilterDesign stores are dense.  Rows
    # beyond the task rank stay zero.
    r = min(modes.s.shape[1], modes.sigma_h.shape[1])
    sigma_runs = take_rows(modes.sigma_h, modes.starts)
    core = sigma_runs[:, :r, None] * _gauge_fixed(modes.vh[:, :r, :])
    # one equalizer per run; sigma_h has k columns, as k <= M
    u_h = np.stack([equalize_diagonal(np.diag(d.astype(complex))) for d in sigma_runs**2])
    h_bar = StackedSpectrum(
        base_grid=task_stack.base_grid,
        alias_order_=task_stack.alias_order_,
        blocks=u_h[:, :, :r] @ core,
        block_cols=task_stack.block_cols,
        fs=task_stack.fs,
        run_starts=modes.starts,
    )
    # the designed singular values must saturate the quantizer-support constraint
    power = float(task_stack.base_grid.weights @ (modes.sigma_h**2).sum(axis=1))
    lhs = effective_loading(cfg.eta, cfg.bits) * cfg.ts / k * power
    if abs(lhs - 1.0) > 1e-9:
        raise DesignError(f"quantizer-support constraint violated: {lhs}")
    return _assemble(cfg, task_stack, h_bar, None, modes)


def _assemble(
    cfg: AdcConfig,
    task_stack: StackedSpectrum,
    h_bar: StackedSpectrum,
    h: SpectralMatrixFunction | None,
    modes: _Modes | None = None,
) -> FilterDesign:
    """The design behind analog filter h_bar: the MMSE solve gives the digital
    filter, dynamic range and noise level.  With ``modes``, h_bar is their
    water-filled filter and the MSE their closed form; without, h_bar is a
    baseline's fixed filter and the MSE the solve's."""
    solve = _mmse_solve(h_bar, task_stack, cfg)
    energy = task_energy(task_stack)
    if modes is None:
        report = solve.report(task_stack, cfg.ts)
        # one SVD per run of identical rows
        sigma_h = take_rows(np.linalg.svd(h_bar.run_blocks, compute_uv=False), h_bar.run_index)
        water_level, sigma_task = None, None
    else:
        sigma_h, water_level, sigma_task = modes.sigma_h, modes.zeta, modes.s
        weights = task_stack.base_grid.weights
        report = _report(_waterfilled_residual(sigma_task, sigma_h, weights, cfg.bits), energy)
    return FilterDesign(
        cfg=cfg, h_bar=h_bar, sigma_h=sigma_h, water_level=water_level, task_energy=energy,
        sigma_task=sigma_task, g_freq=solve.filter(h_bar.base_grid), h=h,
        mse_theory=report.mse, nmse=report.nmse, dynamic_range=solve.dynamic_range,
        quant_noise_var=solve.noise_var, t0=0.0,
    )


def _solve_output(h: np.ndarray, cross: np.ndarray, ts: float, noise_var: float) -> np.ndarray:
    """x = c_out^-1 cross^H per run, c_out = Ts H H^H + noise_var I; h is
    (runs, K, cols), cross (runs, ..., N, K) with its middle axes broadcast."""
    c_out = ts * (h @ h.conj().swapaxes(-1, -2))
    idx = np.arange(h.shape[1])
    c_out[:, idx, idx] += noise_var
    c_out = c_out.reshape(c_out.shape[:1] + (1,) * (cross.ndim - 3) + c_out.shape[1:])
    rhs = cross.conj().swapaxes(-1, -2)
    if noise_var > 0:
        return np.linalg.solve(c_out, rhs)
    # zero-step quantizer: sample-output covariance may be singular
    return np.linalg.pinv(c_out, rcond=1e-12, hermitian=True) @ rhs


class _MmseSolve(NamedTuple):
    """One linear MMSE solve behind an analog filter, per run of identical rows."""

    s_cross: np.ndarray  # task-to-samples cross-spectrum, (runs, N, K)
    x: np.ndarray  # c_out^-1 s_cross^H, (runs, K, N)
    starts: np.ndarray  # first grid point of every run
    index: np.ndarray  # run of every grid point
    noise_var: float
    dynamic_range: float

    def filter(self, grid) -> SpectralMatrixFunction:
        """The recovery filter g = x^H."""
        return SpectralMatrixFunction(
            grid=grid, values=self.x.conj().swapaxes(-1, -2), kind="filter", run_starts=self.starts
        )

    def report(self, task_stack: StackedSpectrum, ts: float) -> MseReport:
        """Task energy minus the recovered energy Ts * integral of tr(s_cross x)."""
        energy = task_energy(task_stack)
        # the per-row trace is taken on the dense grid: einsum's summation order
        # depends on the batch size, so gathering its result would not be exact
        gains = np.einsum(
            "jnk,jkn->j", take_rows(self.s_cross, self.index), take_rows(self.x, self.index)
        ).real
        return _report(energy - ts * float(task_stack.base_grid.weights @ gains), energy)


def _mmse_solve(
    h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig
) -> _MmseSolve:
    """The solve behind the digital filter and its MSE; the quantization-noise
    level is derived from the filter actually supplied."""
    if h_bar.base_grid != task_stack.base_grid:
        raise ValueError("analog filter and task stacks must share the baseband grid")
    if h_bar.stacked_cols != task_stack.stacked_cols:
        raise ValueError("analog filter and task stacks must share the alias layout")
    noise_var, gamma = quantizer_noise(h_bar, cfg)
    starts, index = joint_runs(h_bar, task_stack)
    h = h_bar.rows_at(starts)
    s_cross = task_stack.rows_at(starts) @ h.conj().swapaxes(-1, -2)
    x = _solve_output(h, s_cross, cfg.ts, noise_var)
    return _MmseSolve(s_cross, x, starts, index, noise_var, gamma)


def design_digital_filter(
    h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig
) -> SpectralMatrixFunction:
    """Linear MMSE digital recovery filter frequency response on the baseband.

    Valid for any analog filter, not only the designed one; the quantization
    noise level is derived from the filter actually supplied.
    """
    return _mmse_solve(h_bar, task_stack, cfg).filter(h_bar.base_grid)


def theoretical_mse(
    h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig
) -> MseReport:
    """Recovery MSE of the optimal digital filter behind a given analog filter."""
    return _mmse_solve(h_bar, task_stack, cfg).report(task_stack, cfg.ts)


def theoretical_mse_waterfilled(design: FilterDesign) -> MseReport:
    """Closed-form MSE of the designed filter from its singular-value profile."""
    if design.sigma_task is None:
        raise ValueError("design lacks the task singular values")
    mse = _waterfilled_residual(
        design.sigma_task, design.sigma_h, design.h_bar.base_grid.weights, design.cfg.bits
    )
    return _report(mse, design.task_energy)


def nyquist_analog_filter(
    design: FilterDesign, root: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Unstack the designed filter when sampling satisfies Nyquist.

    Right-multiplies h_bar by the pseudo-inverse of ``root``, the input PSD's
    square root (``TaskModel._input_root``), one pseudo-inverse per joint run
    of the two: the root is looked up on the design's base grid as an
    alias-order-0 stack, so neither operand is expanded to the grid.
    Null-space columns of the PSD map to zero response.
    """
    h_bar = design.h_bar
    if h_bar.alias_order_ != 0:
        raise ValueError("analog filter can only be unstacked at alias order 0")
    grid = h_bar.base_grid
    # f_max at the base grid's edge rebuilds exactly this grid at alias order 0
    stack = stack_aliases(root, h_bar.fs, grid.f_hi, grid.n_points)
    return _times_pinv(grid, h_bar, stack)


def design_filters(
    model: TaskModel, cfg: AdcConfig, n_points: int | None = None
) -> FilterDesign:
    """Full design for a task model: ``design_analog_filter`` plus, at alias
    order 0, the unstacked analog filter h."""
    design = design_analog_filter(whitened_task_stack(model, cfg.fs, n_points), cfg)
    if design.h_bar.alias_order_ == 0:
        design = replace(design, h=nyquist_analog_filter(design, model._input_root))
    return design
