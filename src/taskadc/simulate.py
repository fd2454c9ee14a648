"""Monte-Carlo validation of the closed-form error expressions.

Trials synthesize bandlimited Gaussian blocks with a prescribed matrix PSD by
drawing complex spectral increments on the block DFT grid (circular, so
filtering and decimation are exact for the periodic surrogate), run the
acquisition chain with real mid-rise quantizers, and compare the recovered
task against the analog MMSE estimate computed from the same increments.

Every block lives on one simulation grid at ``_OVERSAMPLE`` times the
Nyquist rate; a sampling rate must divide it so decimation is integer.

The acquisition chain runs on half spectra. ``estimate_mse`` never builds the
M-channel time block: each trial only draws its normals from its own stream.
One stacked (K+N)xM matrix per in-band bin 0..m composes the PSD root with
the analog filter and the task response, so one batched product per bin
turns a chunk's normals into the filtered converter spectra and the analog
truth together. Decimation folds the filtered bins onto the n_out-point grid
of the sampled stream, and one n_out-point inverse FFT returns to the time
domain for dither and quantization. The digital filter's read-out at the
reference sample is a precomputed FIR: one product with the quantized
streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .design import AdcConfig, FilterDesign
from .mmse import TaskModel
from .quantizer import QuantizerSpec, _triangular_dither, quantize_midrise
from .spectra import SpectralMatrixFunction

RNG_NAME = "philox"  # counter-based; per-trial streams come from spawned seeds
_OVERSAMPLE = 4  # simulation rate in multiples of the Nyquist rate
_CHUNK_DRAWS = 2**17  # draws per chunk of trials in estimate_mse: 1 MB, cache-sized


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


def _plan_block(band_edge: float, fs: float) -> _BlockPlan:
    f_nyq = 2.0 * band_edge
    sim_rate = _OVERSAMPLE * f_nyq
    ratio = sim_rate / fs
    decim = int(round(ratio))
    if abs(ratio - decim) > 1e-9 or decim < 1:
        raise ValueError(
            "fs must divide the simulation rate so decimation is integer"
        )
    m = 256  # 513 DFT bins across the band
    n_samples = (2 * m + 1) * _OVERSAMPLE
    if n_samples % decim != 0:
        # sub-Nyquist rates cannot keep the band edge mid-bin; pad to a
        # decimable length instead
        n_out = max(65, int(np.ceil(n_samples / decim)))
        n_samples = n_out * decim
        m = int(np.floor(band_edge * n_samples / sim_rate - 0.5))
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


def _pair_weights(p: int, n: int) -> np.ndarray:
    """Conjugate-pair weights of the first p rfft bins of a real n-sample
    signal: 1 at DC and at bin n/2, which are their own mirrors, else 2."""
    weights = np.full(p, 2.0)
    weights[0] = 1.0
    if 2 * (p - 1) == n:
        weights[-1] = 1.0
    return weights


def _fold(y_half, n, n_out):
    """Half spectrum (..., n_out//2 + 1) on the n_out-point grid of y[::n // n_out].

    y_half (..., P) holds the first P rfft bins of real n-sample signals, zero
    above. Decimation adds full-spectrum bin k onto k mod n_out, and the mirror
    of bin k onto (-k) mod n_out; irfft(fold, n_out) times n_out/n gives the
    decimated samples. Bins and mirrors that never meet leave a zero-pad, which
    the irfft does itself.
    """
    p = y_half.shape[-1]
    if 2 * (p - 1) < n_out:
        return y_half
    # one-sided fold F with every bin standing for its conjugate pair; the
    # fold of the full spectrum is the Hermitian part of F
    wraps = -(-p // n_out)
    f = np.zeros(y_half.shape[:-1] + (wraps * n_out,), dtype=complex)
    f[..., :p] = y_half * _pair_weights(p, n)
    f = f.reshape(y_half.shape[:-1] + (wraps, n_out)).sum(axis=-2)
    mirror = -np.arange(n_out // 2 + 1) % n_out
    return (f[..., : n_out // 2 + 1] + f[..., mirror].conj()) / 2.0


def _acquire(y_half, n, spec: QuantizerSpec, dither):
    """Decimate, dither, and quantize a batch of filtered block spectra.

    y_half (T, K, P) holds the first P rfft bins of T real K-channel n-sample
    blocks, zero above, scaled by Ts*n_out/n so that the sampled streams carry
    the Ts gain; dither (T, K, n_out) sets the decimated length n_out, which
    divides n. z and the overload mask come back as (T, K, n_out).
    """
    n_out = dither.shape[-1]
    noisy = np.fft.irfft(_fold(y_half, n, n_out), n=n_out) + dither
    z = quantize_midrise(noisy, spec)
    overloads = np.abs(noisy) >= spec.dynamic_range
    return z, overloads


def _recovery_filter(g_freq: SpectralMatrixFunction, fs: float, n_out: int, center: int):
    """FIR read-out (K*n_out, N): the digital filter's output at sample ``center``
    of n_out-sample streams z (..., K, n_out) is ``z.reshape(..., -1) @ fir``.

    The filter acts at the stream's rfft bins, each but DC and n_out/2 standing
    for its conjugate pair; for real z that sum is one real weight per sample.
    """
    freqs = np.fft.rfftfreq(n_out, d=1.0 / fs)
    phases = _pair_weights(freqs.size, n_out) * np.exp(
        2j * np.pi * np.arange(freqs.size) * center / n_out
    )
    g_half = g_freq.sample(freqs) * phases[:, None, None]
    taps = np.fft.fft(g_half, n=n_out, axis=0).real / n_out  # (n_out, N, K)
    return taps.transpose(2, 0, 1).reshape(-1, taps.shape[1])


def estimate_mse(run: SimulationRun) -> SimulationReport:
    """Trial-averaged squared recovery error against the analog MMSE estimate.

    Ground truth and acquisition share the same spectral increments (common
    random numbers). Every trial draws from its own spawned stream with one
    normal draw (DC normals, then in-band normals) and, when dithered, one
    uniform draw (its two dither blocks), so the draws do not depend on
    chunking. Trials run in chunks of ``_CHUNK_DRAWS // draws per trial``
    trials, at least one, so a chunk's working set stays cache-sized and
    memory does not grow with ``n_trials``. The chunk size changes only the
    rounding of the chunk's matrix products and of the orthogonality sums:
    across chunk sizes ``empirical_mse``, ``empirical_nmse``, ``std_error``
    and ``orthogonality_pooled_se`` agree to 1e-13 relative and the overload
    rate exactly. ``orthogonality_residual``, the norm of a mean that lies
    well inside its standard error, carries that rounding amplified by the
    cancellation: it agrees to 1e-12 of ``orthogonality_pooled_se``, not to
    1e-13 relative (4e-13 on 4x16, K = 1, b = 8, undithered). Each in-band
    bin has one stacked (K+N)xM matrix: the analog filter over the task
    response, times the PSD root. One batched product per bin maps the
    chunk's normals to the filtered converter spectrum and to the truth's
    share of that bin; no increment array and no M-channel time block is
    built. ``_fold`` puts the filtered bins on the n_out-point
    grid of the sampled streams: at or above the Nyquist rate they lie below
    n_out/2 and are only zero-padded; below it, as for the baseline designs,
    they wrap onto each other. One n_out-point inverse FFT then gives the
    sampled streams, and a precomputed FIR reads the recovered task at the
    reference sample.
    """
    model, design, cfg = run.model, run.design, run.cfg
    if design.h is None or design.g_freq is None:
        raise ValueError("simulation needs a design with unstacked h and g_freq")
    if design.dynamic_range is None or design.task_energy is None:
        raise ValueError("simulation needs a fully assembled design")
    plan = _plan_block(model.band_edge, cfg.fs)
    qspec = QuantizerSpec(bits=cfg.bits, dynamic_range=design.dynamic_range)

    roots_dc, roots_pos = _sample_dc_and_bins(model._input_root, plan)
    gamma_dc, gamma_pos = _sample_dc_and_bins(model.task_filter, plan)
    m_ch, k_adcs = roots_dc.shape[0], cfg.k_adcs

    in_band = plan.n_pos_bins + 1
    sim_freqs = np.fft.rfftfreq(plan.n_samples, d=1.0 / plan.sim_rate)[:in_band]
    # the factor L turns spectral increments into rfft bins of the block, and
    # n_out/L with the Ts gain decimates them onto the sampled stream's grid
    h_half = design.h.sample(sim_freqs) * (cfg.ts * plan.n_out)
    fir = _recovery_filter(design.g_freq, cfg.fs, plan.n_out, plan.center)
    # t = 0 reference sits at the center output sample; a design modulated by
    # e^{-j2*pi*f*t0} estimates the analog response at center - t0 (the error
    # statistics are even in the shift)
    center_time = plan.center * plan.decim / plan.sim_rate
    duration = plan.n_samples / plan.sim_rate
    if abs(run.t0) > 0.4 * duration:
        raise ValueError("t0 falls outside the block interior")
    task_phases = np.exp(2j * np.pi * plan.pos_freqs * (center_time - run.t0))
    # task response at bins 0..m with the reference delay and the
    # conjugate-pair weight folded in: truth is the real part of its bin sum
    task_weights = np.concatenate(([1.0], 2.0 * task_phases))
    gamma_w = np.concatenate((gamma_dc[None], gamma_pos)) * task_weights[:, None, None]
    # [analog filter; task response] times the PSD root per bin; the
    # increments' sqrt(df), and the 1/sqrt(2) that makes the (re, im) normal
    # pairs unit-variance circular, ride on it
    stacked = np.concatenate((h_half, gamma_w), axis=1)
    scale = np.sqrt(plan.df)
    comp_dc = stacked[0] @ roots_dc.real * scale
    comp_pos = np.matmul(stacked[1:], roots_pos) * (scale / np.sqrt(2.0))

    # one trial's draws in stream order: DC normals, (re, im) normal pairs per
    # in-band bin and channel, then the two uniform blocks of its dither
    n_normals = m_ch * (1 + 2 * plan.n_pos_bins)
    dithered = run.dithered and qspec.step > 0
    per_trial = n_normals + (2 * k_adcs * plan.n_out if dithered else 0)
    chunk = max(1, min(run.n_trials, _CHUNK_DRAWS // per_trial))
    normals = np.empty((chunk, n_normals))
    uniforms = np.empty((chunk, 2, k_adcs, plan.n_out)) if dithered else None
    seeds = np.random.SeedSequence(run.seed)

    sq_errors = np.empty(run.n_trials)
    overload_total = 0
    sample_total = 0
    orth_sum = np.zeros((stacked.shape[1] - k_adcs, k_adcs))
    orth_sq = np.zeros_like(orth_sum)

    for lo in range(0, run.n_trials, chunk):
        hi = min(lo + chunk, run.n_trials)
        size = hi - lo
        # spawning a chunk at a time yields the same children as spawning all
        for t, child in enumerate(seeds.spawn(size)):
            rng_t = np.random.Generator(np.random.Philox(child))
            rng_t.standard_normal(out=normals[t])
            if dithered:
                rng_t.random(out=uniforms[t])
        if dithered:
            dither = _triangular_dither(
                uniforms[:size, 0], uniforms[:size, 1], qspec.step
            )
        else:
            dither = np.zeros((size, k_adcs, plan.n_out))
        dc_noise = normals[:size, :m_ch]
        circ = normals[:size, m_ch:].reshape(size, plan.n_pos_bins, m_ch, 2)
        circ = circ.view(complex)[..., 0]
        # bins 0..m of the chunk: K filtered converter rows, then N task rows
        out = np.empty((in_band, stacked.shape[1], size), dtype=complex)
        out[0] = comp_dc @ dc_noise.T
        np.matmul(comp_pos, circ.transpose(1, 2, 0), out=out[1:])

        truth = out[:, k_adcs:].sum(axis=0).real.T
        z, overloads = _acquire(
            out[:, :k_adcs].transpose(2, 1, 0), plan.n_samples, qspec, dither
        )
        err = truth - z.reshape(size, -1) @ fir
        sq_errors[lo:hi] = np.sum(err * err, axis=1)
        overload_total += int(overloads.sum())
        sample_total += overloads.size
        outer = np.einsum("tn,tk->tnk", err, z[:, :, plan.center])
        # a sum over axis 0 adds row after row: with the running sum as row 0
        # the trials are added in order, whatever the chunk size
        orth_sum = np.concatenate((orth_sum[None], outer)).sum(axis=0)
        orth_sq = np.concatenate((orth_sq[None], outer * outer)).sum(axis=0)

    mse = float(sq_errors.mean())
    se = float(sq_errors.std(ddof=1) / np.sqrt(run.n_trials))
    energy = design.task_energy
    orth_mean = orth_sum / run.n_trials
    entry_var = orth_sq / run.n_trials - orth_mean**2
    pooled_se = float(np.sqrt(max(entry_var.sum(), 0.0) / run.n_trials))
    return SimulationReport(
        empirical_mse=mse,
        empirical_nmse=mse / energy,
        std_error=se / energy,
        overload_rate=overload_total / sample_total,
        orthogonality_residual=float(np.linalg.norm(orth_mean)),
        orthogonality_pooled_se=pooled_se,
        theory_nmse=design.nmse if design.nmse is not None else float("nan"),
        n_trials=run.n_trials,
        seed=run.seed,
    )
