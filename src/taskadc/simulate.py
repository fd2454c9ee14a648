"""Monte-Carlo validation of the closed-form error expressions.

Trials synthesize bandlimited Gaussian blocks with a prescribed matrix PSD by
drawing complex spectral increments on the block DFT grid (circular, so
filtering and decimation are exact for the periodic surrogate), run the
acquisition chain with real mid-rise quantizers, and compare the recovered
task against the analog MMSE estimate computed from the same increments, at
the task shift the design carries (``FilterDesign.t0``).

Every block lives on one simulation grid at ``_OVERSAMPLE`` times the
Nyquist rate; a sampling rate must divide it so decimation is integer
(``snap_to_divisor`` gives the nearest one that does).

The acquisition chain runs on half spectra. ``estimate_mse`` never builds the
M-channel time block: each trial only draws its normals from its own stream.
One stacked (K+N)xM matrix per in-band bin 0..m holds the design's whitened
analog filter ``h_bar`` over the model's whitened task response, both read at
the bin (``StackedSpectrum.sample`` undoes the alias stacking), so one batched
product per bin turns a chunk's normals into the filtered converter spectra
and the analog truth together. Decimation folds the filtered bins onto the
n_out-point grid of the sampled stream, and one n_out-point inverse FFT
returns to the time domain for dither and quantization. The digital filter's
read-out at the reference sample is a precomputed FIR: one product with the
quantized streams.

Trial i draws from the Philox stream that ``Generator(Philox(child))``
gives for child i of ``SeedSequence(seed)``. Every child starts from the
seed's pool, ``SeedSequence(seed).pool``; ``_child_keys`` mixes in each
child's spawn-key word and hashes the pool as ``generate_state`` does, for a
whole chunk in one vectorized pass, bit for bit (numpy keeps that hash
stable under NEP 19, and the tests pin it). A worker restarts one reused
generator on each key. numpy's own per-trial keys,
``SeedSequence(seed, spawn_key=(i,))``, give the same bits and cost the
``mc`` benchmark 4-7% of its trials/s.
Chunks run through four stages (``_draw``, ``_shape``, ``_acquire``,
``_read_out``) on one worker thread per usable CPU, as many as
``os.sched_getaffinity(0)`` lists (``os.cpu_count()`` where that call does
not exist); there is no option for it. The chunks' results are added in
chunk order, so every reported number is bit-identical at any CPU count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .design import AdcConfig, FilterDesign
from .mmse import TaskModel
from .quantizer import QuantizerSpec, _triangular_dither, quantize_midrise
from .spectra import SpectralMatrixFunction

RNG_NAME = "philox"  # counter-based; per-trial streams of spawned SeedSequence children
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

    def __post_init__(self):
        # checked here, before any trial runs: the streams take n_trials and
        # seed as SeedSequence spawn key and entropy without its checks
        for name in ("n_trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        if not 100 <= self.n_trials < 2**32:
            raise ValueError(
                "n_trials must be at least 100 for a reported MSE, and below 2**32 "
                f"(one spawn-key word), got {self.n_trials}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

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
        return asdict(self)

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


def _decimation(band_edge: float, fs: float) -> tuple[float, int]:
    """The simulation rate ``_OVERSAMPLE`` times Nyquist, and the whole
    decimation (at least 1) nearest to taking it down to fs."""
    sim_rate = _OVERSAMPLE * 2.0 * band_edge
    if not np.isfinite(sim_rate / fs):
        raise ValueError(f"fs={fs!r} is too small: simulation rate / fs is not finite")
    return sim_rate, max(1, round(sim_rate / fs))


def snap_to_divisor(fs: float, band_edge: float) -> float:
    """The rate nearest fs that divides the simulation rate, as
    ``estimate_mse`` needs: fs itself, up to rounding, when it divides."""
    sim_rate, decim = _decimation(band_edge, fs)
    return sim_rate / decim


def _plan_block(band_edge: float, fs: float) -> _BlockPlan:
    sim_rate, decim = _decimation(band_edge, fs)
    if abs(sim_rate / fs - decim) > 1e-9:
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


# -- per-trial streams --------------------------------------------------------
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which NEP 19
# keeps stable: a child's pool is its parent's pool with the spawn key mixed
# in; generate_state hashes the pool once more
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_ZEROS4 = np.zeros(4, dtype=np.uint64)


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix of ``value`` (a uint32 array) under hash
    constant ``const``."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two pool words."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _constants(const: int, mult: int, n: int) -> np.ndarray:
    """The hash constants of n successive hashmix calls from ``const``."""
    out = [const]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _seed_pool(seed: int):
    """The pool (4,) that every child of ``SeedSequence(seed)`` holds before
    its spawn key is mixed in, the parent's own (a spawn key pads the seed's
    words with zeros to the pool size), and the hash constant reached there:
    one step per pool word, per ordered pair of them, and per pool word for
    each seed word past the pool size."""
    words = max(1, -(-seed.bit_length() // 32))
    calls = _POOL_SIZE * (_POOL_SIZE + max(0, words - _POOL_SIZE))
    const = _INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32
    return np.random.SeedSequence(seed).pool, const


def _child_keys(seed_pool, start: int, stop: int) -> np.ndarray:
    """Philox keys (stop - start, 2) of children start..stop-1 of
    ``SeedSequence(seed)``, whose ``_seed_pool`` is ``seed_pool``: row i is
    ``SeedSequence(seed).spawn(stop)[start + i].generate_state(2, np.uint64)``,
    the key ``Philox(child)`` takes. stop is at most 2**32, so every spawn
    key is one 32-bit word."""
    pool, const = seed_pool
    index = np.arange(start, stop, dtype=np.uint32)
    # the spawn key is the word past the pool size: mixed into every pool word
    pool = _mix(pool, _hashmix(index[:, None], _constants(const, _MULT_A, _POOL_SIZE)))
    words = _hashmix(pool, _constants(_INIT_B, _MULT_B, _POOL_SIZE), _MULT_B)
    words = words.astype(np.uint64)
    # each 64-bit key word is a little-endian pair of 32-bit words
    return words[:, 0::2] | words[:, 1::2] << 32


def _restart(bitgen: np.random.Philox, key: np.ndarray) -> None:
    """Put ``bitgen`` where ``Philox`` of a child with this key starts:
    counter 0 and an empty buffer."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# -- the chunk stages ---------------------------------------------------------


class _Chain(NamedTuple):
    """What every chunk of one run shares (a NamedTuple: a frozen dataclass
    takes over 1 ms to define, which every import would pay)."""

    plan: _BlockPlan
    qspec: QuantizerSpec
    comp: np.ndarray  # (m+1, K+N, M): bins 0..m, whitened analog filter over whitened task
    fir: np.ndarray  # (K*n_out, N) read-out at the reference sample
    k_adcs: int
    dithered: bool
    seed_pool: tuple

    @property
    def m_ch(self) -> int:
        return self.comp.shape[2]

    @property
    def n_normals(self) -> int:
        """A trial's normals: DC, then a (re, im) pair per in-band bin and channel."""
        return self.m_ch * (1 + 2 * self.plan.n_pos_bins)

    @property
    def per_trial(self) -> int:
        """A trial's draws: its normals, then the two dither blocks if dithered."""
        return self.n_normals + (2 * self.k_adcs * self.plan.n_out if self.dithered else 0)


def _build_chain(run: SimulationRun) -> _Chain:
    model, design, cfg = run.model, run.design, run.cfg
    plan = _plan_block(model.band_edge, cfg.fs)
    qspec = QuantizerSpec(bits=cfg.bits, dynamic_range=design.dynamic_range)
    fir = _recovery_filter(design.g_freq, cfg.fs, plan.n_out, plan.center)
    # t = 0 reference sits at the center output sample; a design shifted to t0
    # (modulated by e^{-j2*pi*f*t0}) estimates the analog response at
    # center - t0 (the error statistics are even in the shift)
    center_time = plan.center * plan.decim / plan.sim_rate
    duration = plan.n_samples / plan.sim_rate
    if abs(design.t0) > 0.4 * duration:
        raise ValueError("t0 falls outside the block interior")
    freqs = np.arange(plan.n_pos_bins + 1) * plan.df
    # the factor L turns spectral increments into rfft bins of the block, and
    # n_out/L with the Ts gain decimates them onto the sampled stream's grid
    h_half = design.h_bar.sample(freqs) * (cfg.ts * plan.n_out)
    # the reference delay and the conjugate-pair weight folded into the task
    # response: truth is the real part of its bin sum
    task_weights = _pair_weights(freqs.size, plan.n_samples) * np.exp(
        2j * np.pi * freqs * (center_time - design.t0)
    )
    gamma_w = model._whitened.sample(freqs) * task_weights[:, None, None]
    # the whitened analog filter over the whitened task response per bin; the
    # increments' sqrt(df), and at bins 1..m the 1/sqrt(2) that makes the
    # (re, im) normal pairs unit-variance circular, ride on it
    scale = np.sqrt(plan.df) / np.where(freqs > 0, np.sqrt(2.0), 1.0)
    return _Chain(
        plan=plan,
        qspec=qspec,
        comp=np.concatenate((h_half, gamma_w), axis=1) * scale[:, None, None],
        fir=fir,
        k_adcs=cfg.k_adcs,
        dithered=run.dithered and qspec.step > 0,
        seed_pool=_seed_pool(int(run.seed)),
    )


class _Workspace:
    """A generator and draw buffers for one chunk, reused chunk after chunk."""

    def __init__(self, chain: _Chain, chunk: int):
        self.gen = np.random.Generator(np.random.Philox(0))
        self.normals = np.empty((chunk, chain.n_normals))
        shape = (chunk, 2, chain.k_adcs, chain.plan.n_out)
        self.uniforms = np.empty(shape) if chain.dithered else None


def _draw(chain: _Chain, space: _Workspace, start: int, stop: int):
    """Stage 1: the draws of trials start..stop-1, each from its own stream.

    Every trial restarts the workspace's generator on its child's key and makes
    one normal draw (DC, then in-band normals) and, when dithered, one
    uniform draw (its two dither blocks). Returns normals (T, n_normals) and
    dither (T, K, n_out), views of the workspace's buffers.
    """
    size = stop - start
    gen, normals = space.gen, space.normals[:size]
    uniforms = None if space.uniforms is None else space.uniforms[:size]
    bitgen = gen.bit_generator
    for t, key in enumerate(_child_keys(chain.seed_pool, start, stop)):
        _restart(bitgen, key)
        gen.standard_normal(out=normals[t])
        if uniforms is not None:
            gen.random(out=uniforms[t])
    if uniforms is None:
        return normals, np.zeros((size, chain.k_adcs, chain.plan.n_out))
    return normals, _triangular_dither(uniforms[:, 0], uniforms[:, 1], chain.qspec.step)


def _shape(chain: _Chain, normals: np.ndarray) -> np.ndarray:
    """Stage 2: bins 0..m (m+1, K+N, T) of the chunk, K filtered converter
    rows over N task rows, from one batched product per bin."""
    size, m_ch = normals.shape[0], chain.m_ch
    circ = normals[:, m_ch:].reshape(size, chain.plan.n_pos_bins, m_ch, 2)
    circ = circ.view(complex)[..., 0]
    bins = np.empty(chain.comp.shape[:2] + (size,), dtype=complex)
    bins[0] = chain.comp[0] @ normals[:, :m_ch].T
    np.matmul(chain.comp[1:], circ.transpose(1, 2, 0), out=bins[1:])
    return bins


def _read_out(chain: _Chain, bins: np.ndarray, z: np.ndarray):
    """Stage 4: each trial's squared error between the analog truth (the real
    part of the task rows' bin sum) and the FIR read-out of the quantized
    streams z (T, K, n_out), and the chunk's orthogonality sums (N, K): of
    the error's outer product with z at the reference sample, and of its
    square."""
    truth = bins[:, chain.k_adcs:].sum(axis=0).real.T
    err = truth - z.reshape(z.shape[0], -1) @ chain.fir
    ref = z[:, :, chain.plan.center]
    return np.sum(err * err, axis=1), err.T @ ref, (err * err).T @ (ref * ref)


def _run_chunk(chain: _Chain, space: _Workspace, start: int, stop: int):
    """Trials start..stop-1 through draw, shape, acquire (stage 3) and
    read-out: their squared errors, the overload and sample counts, and
    the chunk's two orthogonality sums."""
    normals, dither = _draw(chain, space, start, stop)
    bins = _shape(chain, normals)
    z, overloads = _acquire(
        bins[:, : chain.k_adcs].transpose(2, 1, 0), chain.plan.n_samples, chain.qspec, dither
    )
    sq_errors, orth, orth_sq = _read_out(chain, bins, z)
    return sq_errors, int(overloads.sum()), overloads.size, orth, orth_sq


def _usable_cpus() -> int:
    """CPUs this process may run on: ``estimate_mse``'s worker count."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_results(chain: _Chain, bounds: list):
    """Yield ``_run_chunk``'s result for every (start, stop) in ``bounds``, in
    order, computed on one worker thread per usable CPU.

    numpy releases the GIL in the draws, products and FFTs, so the chunks
    overlap. Each worker keeps one workspace for all its chunks and has at
    most one chunk queued behind the one it runs: at most 2 * workers chunks
    are submitted and not yet yielded, and at most ``workers`` hold working
    memory. One usable CPU, or one chunk, runs a one-thread pool.

    On 2 vCPUs (``mc`` benchmark): without the bound, ``Executor.map`` traced
    5.0 MB at 2000 trials and 7.6 MB at 20 000, and in windows of 4 * workers
    chunks it ran 7% slower. A workspace per chunk, not per thread, ran 7%
    slower. A one-thread pool raised peak RSS from 47.2 to 49.2 MB against
    running the chunks in the calling thread: the accepted cost, on one-CPU
    hosts, of one code path.
    """
    chunk = bounds[0][1] - bounds[0][0]
    workers = min(_usable_cpus(), len(bounds))
    # imported here, not with the module: concurrent.futures takes ~8 ms to
    # import, which every user of the package would pay
    import threading
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def job(start, stop):
        if not hasattr(local, "space"):
            local.space = _Workspace(chain, chunk)
        return _run_chunk(chain, local.space, start, stop)

    with ThreadPoolExecutor(workers) as pool:
        pending = []
        try:
            for start, stop in bounds:
                if len(pending) == 2 * workers:
                    yield pending.pop(0).result()
                pending.append(pool.submit(job, start, stop))
            while pending:
                yield pending.pop(0).result()
        finally:
            for future in pending:
                future.cancel()


def estimate_mse(run: SimulationRun) -> SimulationReport:
    """Trial-averaged squared recovery error against the analog MMSE estimate.

    Ground truth and acquisition share the same spectral increments (common
    random numbers), and each trial's draws come from its own stream, so
    they do not depend on chunking or on threads. Trials run in chunks of
    ``_CHUNK_DRAWS // draws per trial`` trials, at least one, so a chunk's
    working set stays cache-sized and memory does not grow with
    ``n_trials``. The chunk size changes only the rounding of the chunk's
    matrix products and of the orthogonality sums: across chunk sizes
    ``empirical_mse``, ``empirical_nmse``, ``std_error`` and
    ``orthogonality_pooled_se`` agree to 1e-13 relative and the overload
    rate exactly. ``orthogonality_residual``, the norm of a mean that lies
    well inside its standard error, carries that rounding amplified by the
    cancellation: it agrees to 1e-12 of ``orthogonality_pooled_se``, not to
    1e-13 relative (4e-13 on 4x16, K = 1, b = 8, undithered). Each chunk
    sums its trials' orthogonality products in one matrix product, and the
    chunk sums are added in chunk order, an order that enters only those two
    orthogonality fields: against adding the trials one by one, it moved
    them by at most 6.8e-16 relative on 1000-trial runs. Below the
    Nyquist rate ``_fold`` wraps the filtered bins onto each other on the
    sampled streams' grid; at or above it, it only zero-pads them.
    """
    chain = _build_chain(run)
    chunk = max(1, min(run.n_trials, _CHUNK_DRAWS // chain.per_trial))
    bounds = [(lo, min(lo + chunk, run.n_trials)) for lo in range(0, run.n_trials, chunk)]

    sq_errors = []
    overload_total = 0
    sample_total = 0
    orth_sum = np.zeros((chain.comp.shape[1] - chain.k_adcs, chain.k_adcs))
    orth_sq = np.zeros_like(orth_sum)
    for chunk_sq, overloads, samples, chunk_orth, chunk_orth_sq in _chunk_results(chain, bounds):
        sq_errors.append(chunk_sq)
        overload_total += overloads
        sample_total += samples
        orth_sum += chunk_orth
        orth_sq += chunk_orth_sq

    sq_errors = np.concatenate(sq_errors)
    mse = float(sq_errors.mean())
    se = float(sq_errors.std(ddof=1) / np.sqrt(run.n_trials))
    energy = run.design.task_energy
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
        theory_nmse=run.design.nmse,
        n_trials=run.n_trials,
        seed=run.seed,
    )
