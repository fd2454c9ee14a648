"""Monte-Carlo validation of the closed-form error expressions.

Trials synthesize bandlimited Gaussian blocks with a prescribed matrix PSD by
drawing complex spectral increments on the block DFT grid (circular, so
filtering and decimation are exact for the periodic surrogate), run the
acquisition chain with real mid-rise quantizers, and compare the recovered
task against the analog MMSE estimate computed from the same increments.

Every block lives on one simulation grid at ``_OVERSAMPLE`` times the
Nyquist rate; a sampling rate must divide it so decimation is integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .design import AdcConfig, FilterDesign
from .mmse import TaskModel
from .quantizer import QuantizerSpec, quantize_midrise, sample_dither
from .spectra import SpectralMatrixFunction, psd_sqrt

RNG_NAME = "philox"  # counter-based; per-trial streams come from spawned seeds
_OVERSAMPLE = 4  # simulation rate in multiples of the Nyquist rate


@dataclass(frozen=True)
class Block:
    """A synthesized multichannel time block at the simulation rate."""

    samples: np.ndarray  # (..., M, L) real
    rate: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]


@dataclass(frozen=True)
class SimulationRun:
    """One Monte-Carlo experiment: a design validated on its scenario."""

    scenario_id: str
    model: TaskModel
    design: FilterDesign
    n_trials: int = 10_000
    seed: int = 0
    dithered: bool = True
    t0: float = 0.0  # task time shift carried by the design's digital filter

    def __post_init__(self):
        if self.n_trials < 100:
            raise ValueError("n_trials must be at least 100 for a reported MSE")

    @property
    def cfg(self) -> AdcConfig:
        return self.design.cfg


@dataclass(frozen=True)
class SimulationReport:
    empirical_mse: float
    empirical_nmse: float
    std_error: float  # of the nmse
    overload_rate: float
    orthogonality_residual: float
    orthogonality_pooled_se: float
    theory_nmse: float
    n_trials: int
    seed: int
    rng: str = RNG_NAME

    def __post_init__(self):
        if not self.std_error > 0:
            raise ValueError("std_error must be positive")
        if not 0.0 <= self.overload_rate <= 1.0:
            raise ValueError("overload_rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "empirical_mse": self.empirical_mse,
            "empirical_nmse": self.empirical_nmse,
            "std_error": self.std_error,
            "overload_rate": self.overload_rate,
            "orthogonality_residual": self.orthogonality_residual,
            "orthogonality_pooled_se": self.orthogonality_pooled_se,
            "theory_nmse": self.theory_nmse,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "rng": self.rng,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass(frozen=True)
class _BlockPlan:
    """Bin layout tying the signal band to the block DFT grid."""

    n_samples: int  # L, at the simulation rate
    sim_rate: float
    n_pos_bins: int  # positive in-band bins (plus DC makes 2m+1 across the band)
    decim: int
    n_out: int  # decimated length
    center: int  # output sample index taken as the t=0 reference

    @property
    def df(self) -> float:
        return self.sim_rate / self.n_samples

    @property
    def pos_freqs(self) -> np.ndarray:
        return np.arange(1, self.n_pos_bins + 1) * self.df


def _plan_block(band_edge: float, fs: float, duration: float | None) -> _BlockPlan:
    f_nyq = 2.0 * band_edge
    sim_rate = _OVERSAMPLE * f_nyq
    ratio = sim_rate / fs
    decim = int(round(ratio))
    if abs(ratio - decim) > 1e-9 or decim < 1:
        raise ValueError(
            "fs must divide the simulation rate so decimation is integer"
        )
    if duration is None:
        m = 256  # 513 DFT bins across the band
    else:
        m = int(round(band_edge * duration - 0.5))
    n_samples = (2 * m + 1) * _OVERSAMPLE
    if n_samples % decim != 0:
        # sub-Nyquist rates cannot keep the band edge mid-bin; pad to a
        # decimable length instead
        n_out = max(65, int(np.ceil(n_samples / decim)))
        n_samples = n_out * decim
        m = int(np.floor(band_edge * n_samples / sim_rate - 0.5))
    if 2 * m + 1 < 64:
        raise ValueError("block too short: fewer than 64 DFT bins across the band")
    n_out = n_samples // decim
    center = (n_out - 1) // 2
    return _BlockPlan(
        n_samples=n_samples,
        sim_rate=sim_rate,
        n_pos_bins=m,
        decim=decim,
        n_out=n_out,
        center=center,
    )


def _sample_dc_and_bins(spectrum: SpectralMatrixFunction, plan: _BlockPlan):
    """A spectrum at DC and at the block's positive in-band DFT bins."""
    return spectrum.sample(np.zeros(1))[0], spectrum.sample(plan.pos_freqs)


def _draw_increments(plan: _BlockPlan, roots_dc, roots_pos, rng):
    """Spectral increments for one trial: (xi_dc real (M,), xi_pos (m, M))."""
    m_ch = roots_dc.shape[0]
    scale = np.sqrt(plan.df)
    xi_dc = (roots_dc.real @ rng.standard_normal(m_ch)) * scale
    noise = rng.standard_normal((plan.n_pos_bins, m_ch, 2))
    circ = (noise[..., 0] + 1j * noise[..., 1]) / np.sqrt(2.0)
    xi_pos = np.einsum("qmc,qc->qm", roots_pos, circ) * scale
    return xi_dc, xi_pos


def _increments_to_block(plan: _BlockPlan, xi_dc, xi_pos) -> np.ndarray:
    """Real time block (..., M, L) from the positive-half spectral increments."""
    lead = xi_pos.shape[:-2]
    m_ch = xi_pos.shape[-1]
    half = np.zeros(lead + (m_ch, plan.n_samples // 2 + 1), dtype=complex)
    half[..., 0] = xi_dc
    half[..., 1 : plan.n_pos_bins + 1] = np.moveaxis(xi_pos, -1, -2)
    return np.fft.irfft(half, n=plan.n_samples, axis=-1) * plan.n_samples


def synthesize_process(
    c_x: SpectralMatrixFunction, duration: float, rng: np.random.Generator
) -> Block:
    """One bandlimited Gaussian block whose PSD matches c_x, on the simulation grid.

    Independent complex Gaussian spectral increments shaped by the PSD square
    root on the block DFT grid, Hermitian-symmetrized and inverse-transformed.
    """
    if c_x.kind != "psd":
        raise ValueError("synthesis needs a PSD")
    band_edge = max(abs(c_x.grid.f_lo), abs(c_x.grid.f_hi))
    f_nyq = 2.0 * band_edge
    plan = _plan_block(band_edge, f_nyq, duration)
    roots_dc, roots_pos = _sample_dc_and_bins(psd_sqrt(c_x), plan)
    xi_dc, xi_pos = _draw_increments(plan, roots_dc, roots_pos, rng)
    return Block(samples=_increments_to_block(plan, xi_dc, xi_pos), rate=plan.sim_rate)


def _acquire(samples, h_half, cfg: AdcConfig, spec: QuantizerSpec, dither, decim):
    """Filter, decimate with the Ts gain, dither, and quantize a block batch.

    h_half holds the analog response at the non-negative DFT bins (rfft
    layout); all signals are real so half spectra suffice.
    """
    n = samples.shape[-1]
    x_half = np.fft.rfft(samples, axis=-1)
    y_half = np.einsum("pkm,...mp->...kp", h_half, x_half)
    y = np.fft.irfft(y_half, n=n, axis=-1)
    sampled = cfg.ts * y[..., ::decim]
    noisy = sampled + dither
    z = quantize_midrise(noisy, spec)
    overloads = np.abs(noisy) >= spec.dynamic_range
    return z, overloads


def run_acquisition(
    block: Block,
    h: SpectralMatrixFunction,
    cfg: AdcConfig,
    spec: QuantizerSpec,
    rng: np.random.Generator,
):
    """Acquisition chain on one block: returns (z streams, overload rate).

    z has shape (..., K, L/decim); dither is drawn from rng when the spec
    asks for it.
    """
    ratio = block.rate / cfg.fs
    decim = int(round(ratio))
    if abs(ratio - decim) > 1e-9 or decim < 1:
        raise ValueError("fs must divide the block rate for integer decimation")
    if block.n_samples % decim != 0:
        raise ValueError("block length is not a multiple of the decimation factor")
    freqs = np.fft.rfftfreq(block.n_samples, d=1.0 / block.rate)
    h_half = h.sample(freqs)
    n_out = block.n_samples // decim
    out_shape = block.samples.shape[:-2] + (h.shape[0], n_out)
    if spec.dithered and spec.step > 0:
        dither = sample_dither(spec.step, rng, size=out_shape)
    else:
        dither = np.zeros(out_shape)
    z, overloads = _acquire(block.samples, h_half, cfg, spec, dither, decim)
    return z, float(np.mean(overloads))


def recover_task(
    z: np.ndarray,
    g_freq: SpectralMatrixFunction,
    fs: float,
    center: int,
    t0: float = 0.0,
    block_duration: float | None = None,
) -> np.ndarray:
    """Apply the digital filter over the block DFT and read the t=0 estimate.

    A non-zero t0 is carried by the modulated design inside g_freq; here it
    only guards that the shifted instant stays inside the block.
    """
    if block_duration is not None and abs(t0) > 0.4 * block_duration:
        raise ValueError("t0 falls outside the block interior")
    g_half, phases = _recovery_filter(g_freq, fs, z.shape[-1], center)
    return _recover(g_half, phases, z)


def _recovery_filter(g_freq: SpectralMatrixFunction, fs: float, n_out: int, center: int):
    """(g_half, phases): the digital filter at the rfft bins of an n_out-sample
    stream, and the conjugate-pair weights that read the output at ``center``."""
    freqs = np.fft.rfftfreq(n_out, d=1.0 / fs)
    weights = np.full(freqs.size, 2.0)
    weights[0] = 1.0
    if n_out % 2 == 0:
        weights[-1] = 1.0
    phases = weights * np.exp(2j * np.pi * np.arange(freqs.size) * center / n_out)
    return g_freq.sample(freqs), phases


def _recover(g_half: np.ndarray, phases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Recovered task (..., N) at the centre sample of streams z (..., K, n_out)."""
    z_half = np.fft.rfft(z, axis=-1) * phases
    return (np.einsum("pnk,...kp->...n", g_half, z_half) / z.shape[-1]).real


def estimate_mse(run: SimulationRun, trial_dump=None) -> SimulationReport:
    """Trial-averaged squared recovery error against the analog MMSE estimate.

    Ground truth and acquisition share the same spectral increments (common
    random numbers), and every trial draws from its own spawned stream so the
    result does not depend on chunking.  trial_dump, when given, is a CSV path
    receiving per-trial squared errors and overload counts.
    """
    model, design, cfg = run.model, run.design, run.cfg
    if design.h is None or design.g_freq is None:
        raise ValueError("simulation needs a design with unstacked h and g_freq")
    if design.dynamic_range is None or design.task_energy is None:
        raise ValueError("simulation needs a fully assembled design")
    plan = _plan_block(model.band_edge, cfg.fs, None)
    qspec = QuantizerSpec(
        bits=cfg.bits, dynamic_range=design.dynamic_range, dithered=run.dithered
    )

    roots_dc, roots_pos = _sample_dc_and_bins(psd_sqrt(model.input_psd), plan)
    gamma_dc, gamma_pos = _sample_dc_and_bins(model.task_filter, plan)

    sim_freqs = np.fft.rfftfreq(plan.n_samples, d=1.0 / plan.sim_rate)
    h_half = design.h.sample(sim_freqs)
    g_half, out_phases = _recovery_filter(design.g_freq, cfg.fs, plan.n_out, plan.center)
    # t = 0 reference sits at the center output sample; a design modulated by
    # e^{-j2*pi*f*t0} estimates the analog response at center - t0 (the error
    # statistics are even in the shift)
    center_time = plan.center * plan.decim / plan.sim_rate
    duration = plan.n_samples / plan.sim_rate
    if abs(run.t0) > 0.4 * duration:
        raise ValueError("t0 falls outside the block interior")
    task_phases = np.exp(2j * np.pi * plan.pos_freqs * (center_time - run.t0))

    children = np.random.SeedSequence(run.seed).spawn(run.n_trials)
    chunk = max(1, min(run.n_trials, 2**21 // plan.n_samples))

    sq_errors = np.empty(run.n_trials)
    trial_overloads = np.empty(run.n_trials, dtype=int)
    sample_total = 0
    orth_sum = None
    orth_sq = None

    for lo in range(0, run.n_trials, chunk):
        hi = min(lo + chunk, run.n_trials)
        size = hi - lo
        xi_dc = np.empty((size,) + roots_dc.shape[:1], dtype=complex)
        xi_pos = np.empty((size,) + roots_pos.shape[:2], dtype=complex)
        dither = np.zeros((size, cfg.k_adcs, plan.n_out))
        for t in range(size):
            rng_t = np.random.Generator(np.random.Philox(children[lo + t]))
            xi_dc[t], xi_pos[t] = _draw_increments(plan, roots_dc, roots_pos, rng_t)
            if run.dithered and qspec.step > 0:
                dither[t] = sample_dither(
                    qspec.step, rng_t, size=(cfg.k_adcs, plan.n_out)
                )
        blocks = _increments_to_block(plan, xi_dc, xi_pos)

        truth = (
            np.einsum("nm,tm->tn", gamma_dc, xi_dc)
            + 2.0
            * np.einsum("qnm,tqm,q->tn", gamma_pos, xi_pos, task_phases)
        ).real

        z, overloads = _acquire(blocks, h_half, cfg, qspec, dither, plan.decim)
        err = truth - _recover(g_half, out_phases, z)
        sq_errors[lo:hi] = np.sum(err * err, axis=1)
        trial_overloads[lo:hi] = overloads.sum(axis=(1, 2))
        sample_total += overloads.size
        outer = np.einsum("tn,tk->tnk", err, z[:, :, plan.center])
        if orth_sum is None:
            orth_sum = outer.sum(axis=0)
            orth_sq = (outer * outer).sum(axis=0)
        else:
            orth_sum += outer.sum(axis=0)
            orth_sq += (outer * outer).sum(axis=0)

    mse = float(sq_errors.mean())
    se = float(sq_errors.std(ddof=1) / np.sqrt(run.n_trials))
    energy = design.task_energy
    orth_mean = orth_sum / run.n_trials
    entry_var = orth_sq / run.n_trials - orth_mean**2
    pooled_se = float(np.sqrt(max(entry_var.sum(), 0.0) / run.n_trials))
    report = SimulationReport(
        empirical_mse=mse,
        empirical_nmse=mse / energy,
        std_error=se / energy,
        overload_rate=float(trial_overloads.sum() / sample_total),
        orthogonality_residual=float(np.linalg.norm(orth_mean)),
        orthogonality_pooled_se=pooled_se,
        theory_nmse=design.nmse if design.nmse is not None else float("nan"),
        n_trials=run.n_trials,
        seed=run.seed,
    )
    if trial_dump is not None:
        dump_trial_errors(trial_dump, sq_errors, trial_overloads)
    return report


def dump_trial_errors(path, sq_errors: np.ndarray, overloads: np.ndarray) -> None:
    """Write per-trial squared errors and overload counts as CSV."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "sq_error", "overloads"])
        for i, (e, o) in enumerate(zip(sq_errors, overloads)):
            writer.writerow([i, repr(float(e)), int(o)])
