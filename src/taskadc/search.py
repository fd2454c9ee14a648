"""Rate-budget configuration search, time-shifted tasks, and baselines.

The shifted-task error is a finite Fourier series in t0 with harmonics at
k*fs, |k| <= 2*ups (ups the alias order), so its exact average over [0, Ts)
is const - Re(trace(kernel)).  The one time average (``time_averaged_nmse``,
the search table's ``nmse``) takes midpoint means instead, doubling from a
fixed ``T0_START`` = 16 shifts until two agree to 1e-3.  An n-point mean
misreads the harmonics at multiples of n, so from ups = 16, where 2*ups is a
multiple of both 16 and 32, the loop stops on a wrong value.
``_baseline_chain`` alone fixes the converter count and analog filter of
each baseline architecture.

Every sum over frequency in a shift kernel is dense, in grid order: on
aliased cells const - Re(kernel sum) cancels two task-energy-sized numbers,
so another summation order would move ``nmse_t0_0``.  ``_run_einsum`` keeps
that order and still works per run of identical rows: it replays numpy's
own einsum plan, runs the steps that keep the grid row j once per run, and
hands the first step that sums over j grid-sized operands laid out as the
dense call would lay them, so both kernels are bit-identical to their dense
einsums.  That reaches into numpy's einsum internals (``bmm_einsum``, which
numpy >= 2.4 calls for every pairwise step), imported here so that a numpy
without them fails at import rather than with other bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy._core.einsumfunc import _parse_eq_to_batch_matmul, bmm_einsum

from .design import (
    AdcConfig,
    FilterDesign,
    _assemble,
    _check_count,
    _check_t0,
    _mmse_solve,
    _solve_output,
    _waterfilled_modes,
    _waterfilled_residual,
    design_filters,
    max_rank_bound,
    quantizer_noise,
)
from .mmse import TaskModel, task_energy, whitened_task_stack
from .spectra import (
    StackedSpectrum,
    _rows_at,
    constant_spectrum,
    joint_runs,
    stack_aliases,
    take_rows,
)

ARCHITECTURES = ("task_based", "analog_recovery", "digital_recovery")
T0_START = 16  # midpoints of the first t0 grid of the time average


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


def _baseline_chain(model: TaskModel, arch: str):
    """(converter count, fixed analog filter) of a baseline architecture.

    Analog recovery puts N converters behind the task filter; digital
    recovery samples all M inputs with no analog filter (None).  The
    task-based filter is designed, not fixed: its error comes from
    ``design_filters`` and ``designed_shift_kernel``.
    """
    if arch == "analog_recovery":
        return model.n_task, model.task_filter
    if arch == "digital_recovery":
        return model.m_inputs, None
    raise ValueError(f"architecture must be one of {ARCHITECTURES}")


def _arch_chain(model: TaskModel, cfg: AdcConfig, arch: str, n_points: int | None):
    """Task stack and fixed analog-filter stack of a baseline architecture."""
    k, h = _baseline_chain(model, arch)
    if cfg.k_adcs != k:
        raise ValueError(f"{arch} needs k_adcs == {k}")
    task_stack = whitened_task_stack(model, cfg.fs, n_points)
    if h is not None:
        # the task filter whitened is the task stack itself
        return task_stack, task_stack
    n = task_stack.base_grid.n_points
    return task_stack, stack_aliases(model._input_root, cfg.fs, model.band_edge, n)


def _memory_order(x: np.ndarray) -> list[int]:
    """x's axes from the largest stride to the smallest."""
    return sorted(range(x.ndim), key=lambda axis: -x.strides[axis])


def _expand(x: np.ndarray, axis: int, counts, order: list[int]) -> np.ndarray:
    """x's runs (along ``axis``) repeated ``counts`` times, laid out in
    memory in axis ``order`` and returned in x's own axis order."""
    dense = np.repeat(x.transpose(order), counts, axis=order.index(axis))
    return dense.transpose(np.argsort(order))


def _matmul_order(x: np.ndarray, term: str, eq: str | None, shape) -> list[int]:
    """Axis order in which to lay out the grid-sized expansion of x, an
    operand of a pairwise einsum step, so it reaches matmul as the dense
    operand would.  ``eq`` and ``shape`` are ``bmm_einsum``'s transpose and
    reshape of x.  Where that reshape is a view, matmul reads the dense
    operand in its own memory order, which is that of its runs.  Where it
    copies, matmul reads the copy, C-ordered in the transposed axes: the
    expansion is laid out so, and the copy is saved.  View or copy depends
    only on which axes are adjacent in memory, so run-sized x decides it."""
    try:
        if shape is not None:
            np.reshape(x if eq is None else np.einsum(eq, x), shape, copy=False)
    except ValueError:
        desired = term if eq is None else eq.split("->")[1]
        return [term.index(i) for i in desired] + [
            axis for axis, i in enumerate(term) if i not in desired
        ]
    return _memory_order(x)


def _run_einsum(subscripts: str, run_operands, index: np.ndarray, lo: int, hi: int):
    """``np.einsum(subscripts, *dense, optimize=True)`` bit for bit, where
    ``dense`` holds grid rows lo..hi of ``run_operands`` gathered by
    ``index`` (the run of every grid row).  Every operand's subscripts, and
    the result's if it keeps j, begin with j, the grid row; ``run_operands``
    hold one row per run there.

    It replays einsum's own plan for the dense shapes, calling each
    pairwise step as einsum does, through ``bmm_einsum``.  Steps that keep j
    run once per run: a row's product depends only on that row.  The first
    step that sums over j gets grid-sized operands, each expanded from its
    runs in the layout the dense call hands to matmul (``_matmul_order``),
    so that sum and every later step are the dense ones.  When no step sums
    over j the result stays one row per run.  numpy drops a size-1 axis and
    then takes another path, so a single run goes in as two copies.
    """
    first, stop = index[lo], index[hi - 1] + 1
    ops = [x[first:stop] for x in run_operands]
    n_runs, n_rows = stop - first, hi - lo
    counts = np.bincount(index[lo:hi] - first)
    if n_runs == 1:
        ops = [_expand(x, 0, [2], _memory_order(x)) for x in ops]
        counts = [n_rows, 0]
    shapes = [np.broadcast_to(0.0, (n_rows,) + x.shape[1:]) for x in ops]
    _, steps = np.einsum_path(subscripts, *shapes, optimize=True, einsum_call=True)
    for inds, eq, _ in steps:
        args = [ops.pop(i) for i in inds]
        if counts is not None and "j" not in eq.split("->")[1]:
            # the first sum over j: grid-sized operands from here on
            terms = eq.split("->")[0].split(",")
            prep = _parse_eq_to_batch_matmul(eq, *(x.shape for x in args))
            args = [
                _expand(x, term.index("j"), counts, _matmul_order(x, term, eq_x, shape))
                if "j" in term else x
                for x, term, eq_x, shape in zip(args, terms, prep[:2], prep[2:4])
            ]
            counts = None
        ops.append(bmm_einsum(eq, *args))
    return ops[0] if counts is None else ops[0][:n_runs]


def shift_mse_kernel(h_bar: StackedSpectrum, task_stack: StackedSpectrum, cfg: AdcConfig):
    """(const, kernel) with mse(t0) = const - Re(p(t0)^T kernel conj(p(t0))).

    kernel[k, k'] integrates the per-alias cross terms against the inverse
    sampled-output covariance; p_k(t0) = e^{j*2*pi*k*fs*t0}.  Valid for any
    analog filter stack.  The cross terms and solves run once per run of
    identical rows, and the kernel sum over frequency is ``_run_einsum``'s,
    chunk by chunk: the dense sum's bits.
    """
    noise_var, _ = quantizer_noise(h_bar, cfg)
    energy = task_energy(task_stack)
    n_blocks = 2 * task_stack.alias_order_ + 1
    w = task_stack.base_grid.weights
    starts, index = joint_runs(task_stack, h_bar)
    h = h_bar.rows_at(starts)
    gv = task_stack.block_view(task_stack.rows_at(starts))
    cross = np.einsum("jnpm,jkpm->jpnk", gv, h_bar.block_view(h).conj())  # (runs, P, N, K)
    sol = _solve_output(h, cross, cfg.ts, noise_var)
    operands = (take_rows(w, starts), cross, sol)
    kernel = np.zeros((n_blocks, n_blocks), dtype=complex)
    chunk = max(1, int(2**22 // max(1, n_blocks * n_blocks)))
    for lo in range(0, w.size, chunk):
        hi = min(lo + chunk, w.size)
        kernel += _run_einsum("j,jpnk,jqkn->pq", operands, index, lo, hi)
    return energy, cfg.ts * kernel


def designed_shift_kernel(task_stack: StackedSpectrum, cfg: AdcConfig):
    """(const, kernel) of the MSE-minimizing design, without a linear solve.

    The inverse output covariance of the designed filter diagonalizes in the
    task's right-singular frame, so the recovered energy folds into the
    per-mode weights sigma_h^2 / (sigma_h^2 + 4^-b) of the design's own modal
    core.  Without aliasing the error is the design's closed-form MSE, which
    stays accurate far below the task energy.  With aliasing it is not
    cancellation-free: mse(t0) = const - Re(p^T kernel conj(p)) subtracts two
    task-energy-sized numbers, so when the error is small its relative
    accuracy is only about eps * const / mse, and any change to the summation
    order of const or kernel moves it by that much.

    So const is summed on the dense grid, and gv = G V and the kernel sum
    go through ``_run_einsum``: gv and the per-row steps of the kernel sum
    run once per run of identical task rows, and the sum over frequency is
    the dense one, bit for bit.
    """
    w = task_stack.base_grid.weights
    modes = _waterfilled_modes(task_stack, cfg)
    s = modes.s
    if task_stack.alias_order_ == 0:
        # no aliasing: the shift phases drop out
        return _waterfilled_residual(s, modes.sigma_h, w, cfg.bits), np.zeros((1, 1))
    r_act = min(modes.gain.shape[1], s.shape[1])
    q = 4.0 ** (-cfg.bits)
    alpha = q * modes.gain[:, :r_act]
    d = alpha / (alpha + q)
    const = float(w @ (s**2).sum(axis=1))
    n_blocks = 2 * task_stack.alias_order_ + 1
    starts, index = joint_runs(task_stack)
    g = task_stack.block_view(task_stack.rows_at(starts))
    vh = _rows_at(task_stack.run_starts, modes.vh[:, :r_act, :], starts).conj()
    v_blocks = vh.reshape(starts.size, r_act, n_blocks, task_stack.block_cols)
    gv = _run_einsum("jnpm,jrpm->jpnr", (g, v_blocks), index, 0, w.size)
    operands = (take_rows(w, starts), take_rows(d, starts), gv, gv.conj())
    kernel = _run_einsum("j,jr,jpnr,jqnr->pq", operands, index, 0, w.size)
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


def shifted_task_design(model: TaskModel, base: FilterDesign, t0: float) -> FilterDesign:
    """Re-derive the digital filter and error for a task shifted to time t0.

    The analog hardware is held at the design ``base`` (its cfg and grid);
    only the recovery filter, the predicted error and ``t0`` change.  The shift
    is absolute: a shifted ``base`` is shifted to t0, not by it.
    """
    t0 = _check_t0(t0)
    cfg = base.cfg
    task_stack = whitened_task_stack(model, cfg.fs, base.h_bar.base_grid.n_points)
    shifted = modulated_stack(task_stack, t0)
    solve = _mmse_solve(base.h_bar, shifted, cfg)
    report = solve.report(shifted, cfg.ts)
    return replace(
        base, g_freq=solve.filter(base.h_bar.base_grid), mse_theory=report.mse,
        nmse=report.nmse, t0=t0,
    )


def time_averaged_nmse(
    model: TaskModel, cfg: AdcConfig, arch: str = "task_based", n_points: int | None = None
) -> float:
    """Average over t0 in [0, Ts) of the shifted-task nmse: the value
    ``rate_search`` puts in its ``nmse`` column."""
    return _converged_time_average(model, cfg, arch, T0_START, n_points)[0]


@dataclass(frozen=True)
class SearchSpec:
    """Grid-search request under a total bit-rate budget.

    eta=None means the resolution-dependent schedule; fs is always the budget
    divided by k*b, so every cell saturates the budget exactly.  Every b_range
    entry must be a ``bits`` count ``AdcConfig`` accepts.  The converter
    counts are not chosen: a task-based search runs K = 1 up to the rank
    bound, a baseline its architecture's fixed K.
    """

    rate_budget: float
    b_range: tuple[int, ...] = tuple(range(1, 17))
    eta: float | None = None
    architecture: str = "task_based"
    n_points: int | None = None

    def __post_init__(self):
        if not 0 < self.rate_budget < np.inf:
            raise ValueError("rate budget must be positive and finite")
        # a bad eta would fail every cell and read as "no feasible configuration"
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if self.eta is not None and self.eta * self.eta == 0:
            raise ValueError(f"eta={self.eta} too small: its squared loading underflows to 0")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if len(self.b_range) == 0:
            raise ValueError("empty resolution range")
        for value in self.b_range:
            try:
                _check_count("bits", value)
            except ValueError as exc:
                raise ValueError(f"b_range: {exc}") from None


@dataclass(frozen=True)
class SearchResult:
    best_k: int
    best_fs: float
    best_bits: int
    best_nmse: float
    table: tuple[dict, ...] = field(repr=False)

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
    """(time-averaged nmse, nmse at t0=0), doubling the t0 grid from n_t0
    midpoints until two grids agree."""
    if arch == "task_based":
        task_stack = whitened_task_stack(model, cfg.fs, n_points)
        const, kernel = designed_shift_kernel(task_stack, cfg)
        energy = task_energy(task_stack)
    else:
        task_stack, h_bar = _arch_chain(model, cfg, arch, n_points)
        const, kernel = shift_mse_kernel(h_bar, task_stack, cfg)
        energy = const
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

    The task-based architecture runs K = 1 up to the largest rank of the
    stacked task response at the Nyquist rate (at most N; a task of rank 0
    runs K = 1, whose design reports the missing energy), each baseline its
    fixed converter count; ties break toward fewer converters, then higher
    resolution.
    """
    if spec.architecture == "task_based":
        rank = max_rank_bound(whitened_task_stack(model, model.f_nyq))
        k_values = range(1, max(rank, 1) + 1)
    else:
        k_values = [_baseline_chain(model, spec.architecture)[0]]

    rows = []
    for k in k_values:
        for b in sorted(spec.b_range):
            fs = spec.rate_budget / (k * b)
            try:
                cfg = AdcConfig(k_adcs=k, fs=fs, bits=b, eta=spec.eta)
            except ValueError:
                continue  # spec.eta is an infeasible loading at this resolution
            avg, at_zero = _converged_time_average(
                model, cfg, spec.architecture, T0_START, spec.n_points
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
    task_stack, h_bar = _arch_chain(model, cfg, arch, n_points)
    h = _baseline_chain(model, arch)[1]
    if h is None:
        h = constant_spectrum(model.input_psd.grid, np.eye(model.m_inputs), kind="filter")
    return _assemble(cfg, task_stack, h_bar, h)
