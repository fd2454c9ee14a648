"""Rate-budget configuration search, time-shifted tasks, and baselines.

The time-averaged error over a shift t0 in [0, Ts) is evaluated through the
exact harmonic expansion of the shifted cross-spectrum: the error is a finite
Fourier series in t0 with harmonics at multiples of fs, so midpoint averages
converge immediately once the grid outnumbers the harmonics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .design import (
    AdcConfig,
    FilterDesign,
    auto_grid_points,
    design_analog_filter,
    design_digital_filter,
    design_filters,
    max_rank_bound,
    quantizer_noise,
    solve_waterfill_level,
    theoretical_mse,
)
from .mmse import TaskModel, task_energy, whitened_task_stack
from .spectra import (
    StackedSpectrum,
    constant_spectrum,
    psd_sqrt,
    row_runs,
    stack_aliases,
    take_rows,
)

ARCHITECTURES = ("task_based", "analog_recovery", "digital_recovery")


def modulated_stack(stack: StackedSpectrum, t0: float) -> StackedSpectrum:
    """Apply the time-shift phase ramp e^{-j2*pi*(f - k*fs)*t0} per alias block."""
    ups = stack.alias_order_
    shifts = np.arange(-ups, ups + 1)
    f = stack.base_grid.points
    phases = np.exp(-2j * np.pi * (f[:, None] - shifts[None, :] * stack.fs) * t0)
    blocks = stack.block_view() * phases[:, None, :, None]
    return StackedSpectrum(
        base_grid=stack.base_grid,
        alias_order_=stack.alias_order_,
        blocks=blocks.reshape(stack.blocks.shape),
        block_cols=stack.block_cols,
        fs=stack.fs,
    )


def _arch_chain(model: TaskModel, cfg: AdcConfig, arch: str, n_points: int | None):
    """Task stack, analog-filter stack, and quantization-noise level for an architecture.

    For the task-based architecture the equalizing unitary is omitted: it
    cancels in every error expression, and the designed filter's noise level
    is Ts/4^b exactly once the support constraint is tight.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    if n_points is None:
        n_points = auto_grid_points(cfg.fs, model.band_edge)
    task_stack = whitened_task_stack(model, cfg.fs, n_points)
    if arch == "task_based":
        design = design_analog_filter(task_stack, cfg, with_unitary=False)
        return task_stack, design.h_bar, cfg.ts / 4.0**cfg.bits
    if arch == "analog_recovery":
        if cfg.k_adcs != model.n_task:
            raise ValueError("analog recovery needs k_adcs == n_task")
        h_bar = task_stack
    else:
        if cfg.k_adcs != model.m_inputs:
            raise ValueError("digital recovery needs k_adcs == m_inputs")
        h_bar = stack_aliases(
            psd_sqrt(model.input_psd), cfg.fs, model.band_edge, n_points
        )
    noise_var, _ = quantizer_noise(h_bar, cfg)
    return task_stack, h_bar, noise_var


def shift_mse_kernel(
    h_bar: StackedSpectrum,
    task_stack: StackedSpectrum,
    cfg: AdcConfig,
    noise_var: float | None = None,
):
    """(const, kernel) with mse(t0) = const - Re(p(t0)^T kernel conj(p(t0))).

    kernel[k, k'] integrates the per-alias cross terms against the inverse
    sampled-output covariance; p_k(t0) = e^{j*2*pi*k*fs*t0}.  Valid for any
    analog filter stack.
    """
    if noise_var is None:
        noise_var, _ = quantizer_noise(h_bar, cfg)
    energy = task_energy(task_stack)
    n_blocks = 2 * task_stack.alias_order_ + 1
    # cross terms and solves once per run of identical rows; the weighted
    # sum over frequency stays dense so its summation order is unchanged
    starts, index = row_runs(task_stack.blocks, h_bar.blocks)
    gv = take_rows(task_stack.block_view(), starts)
    hv = take_rows(h_bar.block_view(), starts)
    cross = np.einsum("jnpm,jkpm->jpnk", gv, hv.conj())  # (runs, P, N, K)
    h = take_rows(h_bar.blocks, starts)
    c_out = cfg.ts * (h @ h.conj().swapaxes(-1, -2))
    idx = np.arange(h_bar.rows)
    c_out[:, idx, idx] += noise_var
    rhs = cross.conj().swapaxes(-1, -2)  # (runs, P, K, N)
    if noise_var > 0:
        sol = np.linalg.solve(c_out[:, None], rhs)
    else:
        sol = np.linalg.pinv(c_out[:, None], rcond=1e-12, hermitian=True) @ rhs
    w = task_stack.base_grid.weights
    dense = starts.size == w.size
    kernel = np.zeros((n_blocks, n_blocks), dtype=complex)
    chunk = max(1, int(2**22 // max(1, n_blocks * n_blocks)))
    for lo in range(0, w.size, chunk):
        hi = lo + chunk
        rows = slice(lo, hi) if dense else index[lo:hi]
        kernel += np.einsum(
            "j,jpnk,jqkn->pq", w[lo:hi], cross[rows], sol[rows], optimize=True
        )
    return energy, cfg.ts * kernel


def designed_shift_kernel(task_stack: StackedSpectrum, cfg: AdcConfig):
    """(const, kernel) of the MSE-minimizing design, without a linear solve.

    The inverse output covariance of the designed filter diagonalizes in the
    task's right-singular frame, so the recovered energy folds into the
    per-mode weights sigma_h^2 / (sigma_h^2 + 4^-b).  Without aliasing the
    error is returned as a sum of small positive terms, which stays accurate
    far below the task energy.  With aliasing it is not cancellation-free:
    mse(t0) = const - Re(p^T kernel conj(p)) subtracts two task-energy-sized
    numbers, so when the error is small its relative accuracy is only about
    eps * const / mse, and any change to the summation order of const or
    kernel moves it by that much.
    """
    w = task_stack.base_grid.weights
    starts, index = row_runs(task_stack.blocks)
    _, s, vh = np.linalg.svd(take_rows(task_stack.blocks, starts), full_matrices=False)
    s = take_rows(s, index)
    vh = take_rows(vh, index)
    k_eff = min(cfg.k_adcs, task_stack.stacked_cols)
    r_act = min(k_eff, s.shape[1])
    sig_in = np.zeros((s.shape[0], k_eff))
    sig_in[:, :r_act] = s[:, :r_act]
    zeta = solve_waterfill_level(sig_in, w, cfg)
    q = 4.0 ** (-cfg.bits)
    alpha = q * np.maximum(zeta * sig_in[:, :r_act] - 1.0, 0.0)
    d = alpha / (alpha + q)
    if task_stack.alias_order_ == 0:
        # no aliasing: shift phases drop out and every term of the error is a
        # small positive quantity, so sum those instead of subtracting two
        # task-energy-sized numbers
        leak = float(w @ (s[:, r_act:] ** 2).sum(axis=1))
        kept = float(w @ ((1.0 - d) * s[:, :r_act] ** 2).sum(axis=1))
        return leak + kept, np.zeros((1, 1))
    const = float(w @ (s**2).sum(axis=1))
    n_blocks = 2 * task_stack.alias_order_ + 1
    v_blocks = (
        vh[:, :r_act, :]
        .conj()
        .reshape(s.shape[0], r_act, n_blocks, task_stack.block_cols)
    )
    gv = np.einsum(
        "jnpm,jrpm->jpnr", task_stack.block_view(), v_blocks, optimize=True
    )
    kernel = np.einsum(
        "j,jr,jpnr,jqnr->pq", w, d, gv, gv.conj(), optimize=True
    )
    return const, kernel


def mse_at_shifts(const: float, kernel: np.ndarray, cfg: AdcConfig, t0s) -> np.ndarray:
    """Evaluate mse(t0) from a shift kernel at arbitrary shifts."""
    t0s = np.atleast_1d(np.asarray(t0s, dtype=float))
    n_blocks = kernel.shape[0]
    ups = (n_blocks - 1) // 2
    shifts = np.arange(-ups, ups + 1)
    p = np.exp(2j * np.pi * shifts[None, :] * cfg.fs * t0s[:, None])  # (t, P)
    recovered = np.einsum("tp,pq,tq->t", p, kernel, p.conj()).real
    return const - recovered


def shifted_task_design(
    model: TaskModel,
    t0: float,
    cfg: AdcConfig,
    base: FilterDesign | None = None,
    n_points: int | None = None,
) -> FilterDesign:
    """Re-derive the digital filter and error for a task shifted to time t0.

    The analog hardware is held at the t0=0 design; only the recovery filter
    and the predicted error change.
    """
    if base is None:
        base = design_filters(model, cfg, n_points)
    grid_n = base.h_bar.base_grid.n_points
    task_stack = whitened_task_stack(model, cfg.fs, grid_n)
    shifted = modulated_stack(task_stack, t0)
    g = design_digital_filter(base.h_bar, shifted, cfg)
    report = theoretical_mse(base.h_bar, shifted, cfg)
    return replace(base, g_freq=g, mse_theory=report.mse, nmse=report.nmse)


def _shift_kernel_for(
    model: TaskModel, cfg: AdcConfig, arch: str, n_points: int | None
):
    """(energy, const, kernel) for an architecture's shifted-task error."""
    if arch == "task_based":
        if n_points is None:
            n_points = auto_grid_points(cfg.fs, model.band_edge)
        task_stack = whitened_task_stack(model, cfg.fs, n_points)
        const, kernel = designed_shift_kernel(task_stack, cfg)
        return task_energy(task_stack), const, kernel
    task_stack, h_bar, noise_var = _arch_chain(model, cfg, arch, n_points)
    const, kernel = shift_mse_kernel(h_bar, task_stack, cfg, noise_var)
    return const, const, kernel


def time_averaged_nmse(
    model: TaskModel,
    cfg: AdcConfig,
    n_t0: int = 16,
    arch: str = "task_based",
    n_points: int | None = None,
) -> float:
    """Midpoint average over t0 in [0, Ts) of the shifted-task nmse."""
    if n_t0 < 8:
        raise ValueError("n_t0 must be at least 8")
    energy, const, kernel = _shift_kernel_for(model, cfg, arch, n_points)
    t0s = (np.arange(n_t0) + 0.5) * cfg.ts / n_t0
    mses = mse_at_shifts(const, kernel, cfg, t0s)
    if energy <= 0:
        return 0.0
    return float(mses.mean() / energy)


@dataclass(frozen=True)
class SearchSpec:
    """Grid-search request under a total bit-rate budget.

    eta=None means the resolution-dependent schedule; fs is always the budget
    divided by k*b, so every cell saturates the budget exactly.
    """

    rate_budget: float
    k_range: tuple[int, ...] | None = None
    b_range: tuple[int, ...] = tuple(range(1, 17))
    eta: float | None = None
    architecture: str = "task_based"
    n_t0: int = 16
    n_points: int | None = None

    def __post_init__(self):
        if self.rate_budget <= 0:
            raise ValueError("rate budget must be positive")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if len(self.b_range) == 0:
            raise ValueError("empty resolution range")

    def to_dict(self) -> dict:
        return {
            "rate_budget": self.rate_budget,
            "k_range": None if self.k_range is None else list(self.k_range),
            "b_range": list(self.b_range),
            "eta": self.eta,
            "architecture": self.architecture,
            "n_t0": self.n_t0,
        }


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    best_k: int
    best_fs: float
    best_bits: int
    best_nmse: float
    table: tuple[dict, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "best": {
                "k_adcs": self.best_k,
                "fs_hz": self.best_fs,
                "bits": self.best_bits,
                "nmse": self.best_nmse,
            },
            "table": list(self.table),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def to_csv(self, path) -> None:
        """Full table as CSV: k_adcs, bits, fs_hz, nmse, nmse_t0_0."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k_adcs", "bits", "fs_hz", "nmse", "nmse_t0_0"])
            for row in self.table:
                writer.writerow(
                    [row["k_adcs"], row["bits"], repr(row["fs_hz"]),
                     repr(row["nmse"]), repr(row["nmse_t0_0"])]
                )


def _converged_time_average(model, cfg, arch, n_t0, n_points) -> tuple[float, float]:
    """(time-averaged nmse, nmse at t0=0), doubling the t0 grid until stable."""
    energy, const, kernel = _shift_kernel_for(model, cfg, arch, n_points)
    if energy <= 0:
        return 0.0, 0.0
    nmse0 = float(mse_at_shifts(const, kernel, cfg, 0.0)[0] / energy)

    def average(n):
        t0s = (np.arange(n) + 0.5) * cfg.ts / n
        return float(mse_at_shifts(const, kernel, cfg, t0s).mean() / energy)

    n = n_t0
    value = average(n)
    while n < 4096:
        n *= 2
        refined = average(n)
        if abs(refined - value) <= 1e-3 * max(abs(value), 1e-300):
            value = refined
            break
        value = refined
    return value, nmse0


def rate_search(model: TaskModel, spec: SearchSpec) -> SearchResult:
    """Exhaustive (K, b) grid search with fs = R/(K*b).

    The converter count for the task-based architecture is capped by the
    largest rank of the stacked task response; ties break toward fewer
    converters, then higher resolution.
    """
    if spec.k_range is not None:
        k_values = list(spec.k_range)
    elif spec.architecture == "task_based":
        k_values = list(range(1, model.n_task + 1))
    elif spec.architecture == "analog_recovery":
        k_values = [model.n_task]
    else:
        k_values = [model.m_inputs]
    if spec.architecture == "task_based":
        nyq_stack = whitened_task_stack(
            model, model.f_nyq, auto_grid_points(model.f_nyq, model.band_edge)
        )
        bound = max_rank_bound(nyq_stack)
        k_values = [k for k in k_values if k <= bound]

    rows = []
    for k in sorted(k_values):
        for b in sorted(spec.b_range):
            fs = spec.rate_budget / (k * b)
            if fs <= 0:
                continue
            try:
                cfg = AdcConfig(k_adcs=k, fs=fs, bits=b, eta=spec.eta)
            except ValueError:
                continue  # infeasible loading for this resolution
            avg, at_zero = _converged_time_average(
                model, cfg, spec.architecture, spec.n_t0, spec.n_points
            )
            rows.append(
                {
                    "k_adcs": k,
                    "bits": b,
                    "fs_hz": fs,
                    "nmse": avg,
                    "nmse_t0_0": at_zero,
                }
            )
    if not rows:
        raise ValueError("no feasible configuration under the rate budget")
    best = min(rows, key=lambda r: (r["nmse"], r["k_adcs"], -r["bits"]))
    return SearchResult(
        spec=spec,
        best_k=best["k_adcs"],
        best_fs=best["fs_hz"],
        best_bits=best["bits"],
        best_nmse=best["nmse"],
        table=tuple(rows),
    )


def baseline_design(
    model: TaskModel, cfg: AdcConfig, arch: str, n_points: int | None = None
) -> FilterDesign:
    """Design for one of the three architectures at a fixed configuration.

    Analog recovery fixes the analog filter to the task filter (k = N);
    digital recovery applies no analog processing (k = M); both then get the
    optimal digital filter with a self-consistently calibrated dynamic range.
    """
    if arch == "task_based":
        return design_filters(model, cfg, n_points)
    task_stack, h_bar, noise_var = _arch_chain(model, cfg, arch, n_points)
    g = design_digital_filter(h_bar, task_stack, cfg)
    report = theoretical_mse(h_bar, task_stack, cfg)
    _, gamma = quantizer_noise(h_bar, cfg)
    if arch == "analog_recovery":
        h = model.task_filter
    else:
        h = constant_spectrum(
            model.input_psd.grid, np.eye(model.m_inputs), kind="filter"
        )
    starts, index = row_runs(h_bar.blocks)
    sigma_h = take_rows(
        np.linalg.svd(take_rows(h_bar.blocks, starts), compute_uv=False), index
    )
    return FilterDesign(
        cfg=cfg,
        h_bar=h_bar,
        sigma_h=sigma_h,
        water_level=None,
        task_energy=task_energy(task_stack),
        g_freq=g,
        h=h,
        mse_theory=report.mse,
        nmse=report.nmse,
        dynamic_range=gamma,
        quant_noise_var=noise_var,
    )
