import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import taskadc.simulate as sim
from taskadc.design import AdcConfig, FilterDesign, design_filters
from taskadc.quantizer import QuantizerSpec, quantize_midrise, sample_dither
from taskadc.search import baseline_design, shifted_task_design
from taskadc.simulate import SimulationReport, SimulationRun, estimate_mse
from taskadc.spectra import FrequencyGrid, SpectralMatrixFunction, constant_spectrum

from conftest import (
    bin_freqs, random_flat_model, sample_dc_and_bins, synthesize_block, unit_scalar_model,
)


def read_out_phases(n_out, center):
    """Conjugate-pair weights times the phase that reads rfft bins at ``center``."""
    weights = np.full(n_out // 2 + 1, 2.0)
    weights[0] = 1.0
    if n_out % 2 == 0:
        weights[-1] = 1.0
    return weights * np.exp(2j * np.pi * np.arange(weights.size) * center / n_out)


def rfft_read_out(g_half, phases, z):
    """The digital filter g_half (bins, N, K) applied over the rfft of streams
    z (..., K, n_out) and read at the sample that ``phases`` selects."""
    z_half = np.fft.rfft(z, axis=-1) * phases
    return (np.einsum("pnk,...kp->...n", g_half, z_half) / z.shape[-1]).real


def time_domain_reference(run):
    """The per-trial time-domain loop that ``estimate_mse`` replaced: every
    trial synthesizes its M-channel block at the simulation rate, and the
    analog filter acts on all rfft bins of that block."""
    model, design, cfg = run.model, run.design, run.cfg
    plan = sim._plan_block(model.band_edge, cfg.fs)
    spec = QuantizerSpec(bits=cfg.bits, dynamic_range=design.dynamic_range)
    roots_dc, roots_pos = sample_dc_and_bins(model._input_root, plan)
    gamma_dc, gamma_pos = sample_dc_and_bins(model.task_filter, plan)
    h_half = design.h.sample(np.fft.rfftfreq(plan.n_samples, d=1.0 / plan.sim_rate))
    out_freqs = np.fft.rfftfreq(plan.n_out, d=1.0 / cfg.fs)
    g_half = design.g_freq.sample(out_freqs)
    out_phases = read_out_phases(plan.n_out, plan.center)
    center_time = plan.center * plan.decim / plan.sim_rate
    task_phases = np.exp(2j * np.pi * bin_freqs(plan)[1:] * (center_time - design.t0))
    sq_errors, outers, overloads = [], [], []
    for child in np.random.SeedSequence(run.seed).spawn(run.n_trials):
        rng = np.random.Generator(np.random.Philox(child))
        xi_dc, xi_pos, block = synthesize_block(roots_dc, roots_pos, plan, rng)
        dither = 0.0
        if run.dithered and spec.step > 0:
            dither = sample_dither(spec.step, rng, size=(cfg.k_adcs, plan.n_out))
        y_half = np.einsum("pkm,mp->kp", h_half, np.fft.rfft(block))
        y = np.fft.irfft(y_half, n=plan.n_samples)
        noisy = cfg.ts * y[:, :: plan.decim] + dither
        z = quantize_midrise(noisy, spec)
        truth = (
            gamma_dc @ xi_dc
            + 2.0 * np.einsum("qnm,qm,q->n", gamma_pos, xi_pos, task_phases)
        ).real
        err = truth - rfft_read_out(g_half, out_phases, z)
        sq_errors.append(err @ err)
        outers.append(np.outer(err, z[:, plan.center]))
        overloads.append(np.abs(noisy) >= spec.dynamic_range)
    sq_errors = np.array(sq_errors)
    energy = design.task_energy
    return {
        "empirical_nmse": sq_errors.mean() / energy,
        "std_error": sq_errors.std(ddof=1) / np.sqrt(run.n_trials) / energy,
        "orthogonality_residual": np.linalg.norm(np.mean(outers, axis=0)),
        "overload_rate": np.mean(overloads),
    }


def assert_reports_close(got, want, rtol):
    for name in ("empirical_nmse", "std_error", "orthogonality_residual"):
        np.testing.assert_allclose(getattr(got, name), want[name], rtol=rtol, atol=0)
    assert got.overload_rate == want["overload_rate"]


def acquire(x, decim, spec, n_bins=None):
    """``sim._acquire`` on the first n_bins rfft bins of real blocks x (T, K, n),
    scaled to unit gain, without dither."""
    n = x.shape[-1]
    n_out = n // decim
    x_half = np.fft.rfft(x, axis=-1)[..., :n_bins] * (n_out / n)
    return sim._acquire(x_half, n, spec, np.zeros(x.shape[:-1] + (n_out,)))


def bandlimited_block(rng, n, n_bins):
    """A real block (1, 1, n) whose rfft is zero above bin n_bins - 1."""
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:n_bins] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    return np.fft.irfft(half, n=n)[None, None]


class TestSynthesizeProcess:
    """The input synthesis of ``estimate_mse``, seen through the analog truth."""

    def test_cross_channel_correlation(self, rng):
        # a correlated three-channel input and a zero digital filter: the error
        # is the analog truth, whose mean power is the task energy only if the
        # increments carry the input PSD's cross terms
        model = random_flat_model(rng, n=2, m=3, n_points=64)
        design = design_filters(model, AdcConfig(2, 1.0, bits=3), 64)
        zero_g = constant_spectrum(design.g_freq.grid, np.zeros((2, 2)), kind="filter")
        run = SimulationRun("corr", model, replace(design, g_freq=zero_g),
                            n_trials=2000, seed=2)
        report = estimate_mse(run)
        assert abs(report.empirical_nmse - 1.0) < 3 * report.std_error


class TestRunAcquisition:
    """Fold, decimation and quantization of ``estimate_mse`` (``sim._acquire``),
    fed the rfft of known blocks."""

    def test_transparent_chain(self, rng):
        # a block bandlimited below n_out/2 and a huge dynamic range: z
        # reproduces the decimated samples
        x = bandlimited_block(rng, 240, 21)
        spec = QuantizerSpec(bits=60, dynamic_range=1e3)
        z, overloads = acquire(x, 4, spec, n_bins=21)
        np.testing.assert_allclose(z, x[..., ::4], rtol=0, atol=1e-12)
        assert not overloads.any()

    @pytest.mark.parametrize("decim", [1, 2, 3, 4])
    def test_fold_of_unbandlimited_block(self, rng, decim):
        # white samples fill every rfft bin, the n/2 bin included, so decimation
        # folds bins onto each other; n_out is 60, 30, 20 and 15
        x = rng.standard_normal((1, 1, 60))
        spec = QuantizerSpec(bits=60, dynamic_range=1e3)
        z, _ = acquire(x, decim, spec)
        np.testing.assert_allclose(z, x[..., ::decim], rtol=0, atol=1e-12)

    def test_degenerate_zero_range(self, rng):
        x = bandlimited_block(rng, 240, 21)
        spec = QuantizerSpec(bits=2, dynamic_range=0.0)
        z, overloads = acquire(x, 4, spec, n_bins=21)
        np.testing.assert_allclose(z, 0.0)
        assert overloads.all()  # every sample saturates a zero-range quantizer

    def test_overload_rate_matches_gaussian_tail(self, rng):
        # eta = 4 at b = 4: overload far below a tenth of a percent
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=4, eta=4.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("tail", model, design, n_trials=400, seed=3)
        )
        assert report.overload_rate < 1e-3

    def test_overload_bounds_on_gaussian_input(self):
        # Chebyshev bound holds, and the Gaussian tail keeps eta=2 under 5%
        from taskadc.quantizer import overload_probability_bound

        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=4, eta=2.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("chev", model, design, n_trials=2000, seed=8)
        )
        assert report.overload_rate <= overload_probability_bound(2.0)
        assert report.overload_rate <= 0.05

    def test_incompatible_rate_rejected(self):
        # 1.5 Hz does not divide the 4 Hz simulation rate of a unit band
        model = unit_scalar_model(fs=1.0, n_points=64)
        design = design_filters(model, AdcConfig(1, 1.5, bits=2, eta=2.0), 64)
        with pytest.raises(ValueError, match="divide the simulation rate"):
            estimate_mse(SimulationRun("rate", model, design, n_trials=100))


class TestRecoverTask:
    """The digital filter's FIR read-out (``sim._recovery_filter``) and the
    recovered task of ``estimate_mse``."""

    def test_zero_filter(self):
        grid = FrequencyGrid(-0.5, 0.5, 16)
        zero = constant_spectrum(grid, np.zeros((1, 1)), kind="filter")
        np.testing.assert_array_equal(sim._recovery_filter(zero, 1.0, 65, 32), 0.0)

    @pytest.mark.parametrize("n_out", [63, 64])
    def test_fir_read_out_matches_rfft_weighted_sum(self, rng, n_out):
        # a filter that differs in every cell, read at a sample off the centre;
        # an even n_out has the n_out/2 bin, whose conjugate-pair weight is 1
        grid = FrequencyGrid(-0.5, 0.5, 40)
        values = rng.standard_normal((40, 2, 3)) + 1j * rng.standard_normal((40, 2, 3))
        g_freq = SpectralMatrixFunction(grid, values, kind="filter")
        z = rng.standard_normal((5, 3, n_out))
        g_half = g_freq.sample(np.fft.rfftfreq(n_out))
        want = rfft_read_out(g_half, read_out_phases(n_out, 20), z)
        got = z.reshape(5, -1) @ sim._recovery_filter(g_freq, 1.0, n_out, 20)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_fine_quantization_recovers_task(self):
        # Nyquist sampling, 16 bits, and a loading that rules out overload:
        # the digital estimate approaches the analog MMSE estimate
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=16, eta=6.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("fine", model, design, n_trials=200, seed=11)
        )
        assert report.empirical_nmse < 1e-6

    def test_shift_by_sampling_interval_is_stationary(self):
        # the task shifted by Ts has the same error statistics as unshifted
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=3, eta=2.0)
        base = design_filters(model, cfg, 64)
        shifted = shifted_task_design(model, base, cfg.ts)
        rep0 = estimate_mse(SimulationRun("s0", model, base, n_trials=2000, seed=5))
        rep1 = estimate_mse(SimulationRun("s1", model, shifted, n_trials=2000, seed=5))
        # identical closed-form error and overlapping Monte-Carlo bands
        assert abs(shifted.nmse - base.nmse) <= 1e-9 * base.nmse
        gap = abs(rep1.empirical_nmse - rep0.empirical_nmse)
        assert gap < 3 * (rep0.std_error + rep1.std_error)

    def test_t0_outside_block_rejected(self):
        # estimate_mse refuses a design shifted beyond 0.4 of the block duration
        model = unit_scalar_model(fs=1.0, n_points=64)
        base = design_filters(model, AdcConfig(1, 1.0, bits=2, eta=2.0), 64)
        plan = sim._plan_block(model.band_edge, 1.0)
        for t0 in np.array([0.41, -0.41]) * plan.n_samples / plan.sim_rate:
            design = shifted_task_design(model, base, t0)
            with pytest.raises(ValueError, match="t0 falls outside"):
                estimate_mse(SimulationRun("t0", model, design, n_trials=100))

    def test_shifted_design_survives_design_json(self, matched_model):
        # the shift travels with the design: the loaded design simulates the
        # same trials against the same shifted truth, close to its theory
        base = design_filters(matched_model, AdcConfig(2, matched_model.f_nyq, 3), 64)
        shifted = shifted_task_design(matched_model, base, 1e-9)
        back = FilterDesign.from_dict(json.loads(json.dumps(shifted.to_dict())))
        assert back.t0 == shifted.t0 == 1e-9
        reports = [
            estimate_mse(SimulationRun("json", matched_model, d, n_trials=400, seed=3))
            for d in (shifted, back)
        ]
        assert json.dumps(reports[0].to_dict()) == json.dumps(reports[1].to_dict())
        gap = abs(reports[0].empirical_nmse - shifted.nmse)
        assert gap < 4 * reports[0].std_error


class TestEstimateMse:
    def test_zero_analog_filter_gives_unit_nmse(self):
        # no information reaches the converters: the error is the task energy
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        from taskadc.spectra import StackedSpectrum

        zero_stack = StackedSpectrum(
            base_grid=design.h_bar.base_grid,
            alias_order_=0,
            blocks=np.zeros_like(design.h_bar.blocks),
            block_cols=design.h_bar.block_cols,
            fs=design.h_bar.fs,
        )
        zero_h = constant_spectrum(
            design.h_bar.base_grid, np.zeros((1, 1)), kind="filter"
        )
        zero_g = constant_spectrum(
            design.h_bar.base_grid, np.zeros((1, 1)), kind="filter"
        )
        crippled = replace(
            design, h_bar=zero_stack, h=zero_h, g_freq=zero_g,
            mse_theory=design.task_energy, nmse=1.0,
        )
        report = estimate_mse(SimulationRun("null", model, crippled, n_trials=2000, seed=2))
        assert abs(report.empirical_nmse - 1.0) < 3 * report.std_error

    def test_reproducible_given_seed(self):
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        r1 = estimate_mse(SimulationRun("r", model, design, n_trials=300, seed=9))
        r2 = estimate_mse(SimulationRun("r", model, design, n_trials=300, seed=9))
        assert r1.empirical_mse == r2.empirical_mse
        assert r1.overload_rate == r2.overload_rate

    def test_orthogonality_residual_without_overload(self):
        # overload-free loading: the recovery error is uncorrelated with the
        # quantizer outputs up to Monte-Carlo noise
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=3, eta=6.0)
        design = design_filters(model, cfg, 64)
        report = estimate_mse(
            SimulationRun("orth", model, design, n_trials=10_000, seed=21)
        )
        assert report.overload_rate < 1e-4
        assert report.orthogonality_residual < 3 * report.orthogonality_pooled_se

    @pytest.mark.parametrize("k, bits, decim", [
        (4, 4, 4), (2, 3, 4),
        # below the Nyquist rate (alias order 1): 266.7 MHz keeps the
        # 2052-sample block, 200 MHz pads it
        (4, 4, 6), (2, 3, 6), (4, 4, 8), (2, 3, 8),
    ], ids=["4-4", "2-3", "4-4-fs267M", "2-3-fs267M", "4-4-fs200M", "2-3-fs200M"])
    def test_mimo_closed_form_matches_monte_carlo(self, matched_model, k, bits, decim):
        # the 4x16 design at fs = 4 f_nyq / decim: within 3 standard errors
        cfg = AdcConfig(k, 4 * matched_model.f_nyq / decim, bits, eta=4.5)
        design = design_filters(matched_model, cfg)
        report = estimate_mse(SimulationRun("mimo", matched_model, design, n_trials=2000, seed=0))
        assert abs(report.empirical_nmse - design.nmse) <= 3 * report.std_error

    def test_trial_count_guard(self):
        model = unit_scalar_model(fs=1.0, n_points=64)
        cfg = AdcConfig(1, 1.0, bits=2, eta=2.0)
        design = design_filters(model, cfg, 64)
        with pytest.raises(ValueError):
            SimulationRun("few", model, design, n_trials=50)


class TestFrequencyDomainChain:
    @pytest.mark.parametrize("dithered", [True, False], ids=["dither", "no_dither"])
    @pytest.mark.parametrize("rate", [1, 2, 4], ids=["fs_nyq", "fs_2nyq", "fs_4nyq"])
    def test_matches_time_domain_reference(self, matched_model, rate, dithered):
        cfg = AdcConfig(2, rate * matched_model.f_nyq, bits=3)
        design = design_filters(matched_model, cfg, 64)
        run = SimulationRun("ref", matched_model, design, n_trials=120, seed=rate,
                            dithered=dithered)
        report = estimate_mse(run)
        assert report.overload_rate > 0  # the counts compared are not all zero
        assert_reports_close(report, time_domain_reference(run), 1e-11)

    def test_shifted_design_matches_time_domain_reference(self, matched_model):
        cfg = AdcConfig(2, matched_model.f_nyq, bits=3)
        base = design_filters(matched_model, cfg, 64)
        shifted = shifted_task_design(matched_model, base, 1e-9)
        run = SimulationRun("ref", matched_model, shifted, n_trials=120, seed=7)
        assert_reports_close(estimate_mse(run), time_domain_reference(run), 1e-11)

    @pytest.mark.parametrize("arch, k", [("analog_recovery", 4), ("digital_recovery", 16)])
    @pytest.mark.parametrize("decim", [5, 8])
    def test_sub_nyquist_baseline_matches_time_domain_reference(
        self, matched_model, arch, k, decim
    ):
        # fs = 4 f_nyq / decim is below the Nyquist rate (alias order 1), so the
        # filtered in-band bins wrap onto each other in the fold
        cfg = AdcConfig(k, 4 * matched_model.f_nyq / decim, bits=3)
        design = baseline_design(matched_model, cfg, arch, 64)
        plan = sim._plan_block(matched_model.band_edge, cfg.fs)
        assert 2 * plan.n_pos_bins >= plan.n_out
        run = SimulationRun("alias", matched_model, design, n_trials=120, seed=decim)
        report = estimate_mse(run)
        assert report.overload_rate > 0
        assert_reports_close(report, time_domain_reference(run), 1e-11)

    def test_h_bar_is_the_filter_times_the_psd_root(self, matched_model):
        # what the chain reads (h_bar) against what it used to compose (h R)
        # at the Monte-Carlo bins of the 4x16 design at the Nyquist rate
        design = design_filters(matched_model, AdcConfig(4, matched_model.f_nyq, 4))
        freqs = bin_freqs(sim._plan_block(matched_model.band_edge, design.cfg.fs))
        composed = design.h.sample(freqs) @ matched_model._input_root.sample(freqs)
        got = design.h_bar.sample(freqs)
        np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12 * np.abs(got).max())

    @pytest.mark.parametrize("fs, shortfall", [(400e6, 0.0), (320e6, 0.00146), (200e6, 0.00195)])
    def test_truth_power_against_task_energy(self, matched_model, fs, shortfall):
        # the truth's power is the squared norm of the chain's task rows, which
        # carry the conjugate-pair weights and df; a padded plan's bins reach
        # only (m + 1/2) df, short of the band edge, so the truth of the flat
        # 4x16 scenario misses that share of the task energy
        design = design_filters(matched_model, AdcConfig(2, fs, 3))
        chain = sim._build_chain(SimulationRun("power", matched_model, design, n_trials=100))
        task = slice(chain.k_adcs, None)
        power = np.sum(chain.comp[0, task].real ** 2) + np.sum(np.abs(chain.comp[1:, task]) ** 2)
        covered = (chain.plan.n_pos_bins + 0.5) * chain.plan.df / matched_model.band_edge
        assert abs(power / design.task_energy - covered) < 1e-12
        assert abs(1.0 - covered - shortfall) < 5e-6

    def test_report_does_not_depend_on_chunking(self, matched_model, monkeypatch):
        def reports(run):
            """Reports with chunks of 1, 7 and all trials."""
            plan = sim._plan_block(matched_model.band_edge, run.cfg.fs)
            # a trial's normals, then the two dither blocks of its K converters
            normals = matched_model.m_inputs * (1 + 2 * plan.n_pos_bins)
            draws = normals + (2 * run.cfg.k_adcs * plan.n_out if run.dithered else 0)
            out = []
            for trials_per_chunk in (1, 7, run.n_trials):
                monkeypatch.setattr(sim, "_CHUNK_DRAWS", trials_per_chunk * draws)
                out.append(estimate_mse(run))
            return out

        cfg = AdcConfig(2, matched_model.f_nyq, bits=3)
        design = design_filters(matched_model, cfg, 64)
        run = SimulationRun("chunks", matched_model, design, n_trials=120, seed=4)
        *chunked, whole = reports(run)
        for report in chunked:
            assert_reports_close(report, whole.to_dict(), 1e-13)

        # orthogonality_residual is the norm of a mean well inside its
        # standard error, so cancellation amplifies the products' rounding:
        # here chunks move it by 4e-13 relative, 2e-14 standard errors
        cfg = AdcConfig(1, matched_model.f_nyq, bits=8)
        design = design_filters(matched_model, cfg)
        run = SimulationRun(
            "chunks", matched_model, design, n_trials=137, seed=3, dithered=False
        )
        *chunked, whole = reports(run)
        want = whole.to_dict()
        for report in chunked:
            for name, value in report.to_dict().items():
                if name == "orthogonality_residual":
                    bound = 1e-12 * want["orthogonality_pooled_se"]
                    assert abs(value - want[name]) <= bound
                elif name == "overload_rate" or not isinstance(value, float):
                    assert value == want[name]
                else:
                    np.testing.assert_allclose(value, want[name], rtol=1e-13, atol=0)

    def test_memory_does_not_grow_with_trials(self, matched_model):
        # chunks hold a fixed number of trials: ten times the trials, same peak
        cfg = AdcConfig(4, matched_model.f_nyq, bits=4)
        design = design_filters(matched_model, cfg, 64)
        peaks = []
        for n_trials in (200, 2000):
            tracemalloc.start()
            try:
                estimate_mse(SimulationRun("mem", matched_model, design, n_trials=n_trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20


class TestTrialStreams:
    """Per-trial Philox keys derived in one pass (``sim._child_keys``) against
    numpy's own ``SeedSequence.spawn``, whose algorithm NEP 19 keeps stable."""

    # up to four words the seed fills the pool; 129, 201 and 301 bits add
    # one, three and six words, each mixed into every pool word
    SEEDS = [0, 1, 123, 2**32 - 1, 2**32 + 5, 2**64 + 12345, 2**106 + 987_654_321,
             2**128, 2**200 + 7, 2**300 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed):
        children = np.random.SeedSequence(seed).spawn(300)
        want = np.array([child.generate_state(2, np.uint64) for child in children])
        pool = sim._seed_pool(seed)
        np.testing.assert_array_equal(sim._child_keys(pool, 0, 300), want)
        # a block that starts after an offset, as a later chunk's does
        np.testing.assert_array_equal(sim._child_keys(pool, 157, 241), want[157:241])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**320), start=st.integers(0, 2**32 - 8),
           count=st.integers(1, 8))
    def test_keys_match_spawn_at_any_seed_and_offset(self, seed, start, count):
        # children start..start+count-1: what spawn gives once start were spawned
        children = np.random.SeedSequence(seed, n_children_spawned=start).spawn(count)
        want = np.array([child.generate_state(2, np.uint64) for child in children])
        got = sim._child_keys(sim._seed_pool(seed), start, start + count)
        np.testing.assert_array_equal(got, want)

    def test_keys_at_the_last_spawn_key(self):
        # n_trials stays below 2**32, so the last child's spawn key is 2**32 - 1
        want = [np.random.SeedSequence(9, spawn_key=(i,)).generate_state(2, np.uint64)
                for i in range(2**32 - 3, 2**32)]
        got = sim._child_keys(sim._seed_pool(9), 2**32 - 3, 2**32)
        np.testing.assert_array_equal(got, np.array(want))

    def test_draws_match_spawned_generator(self):
        # one reused generator, restarted per trial, draws what each child's
        # own Generator(Philox(child)) draws, whatever it drew before
        gen = np.random.Generator(np.random.Philox(0))
        keys = sim._child_keys(sim._seed_pool(42), 0, 5)
        for key, child in zip(keys, np.random.SeedSequence(42).spawn(5)):
            gen.integers(0, 7, size=3, dtype=np.uint32)  # leaves buffered (half) words
            sim._restart(gen.bit_generator, key)
            own = np.random.Generator(np.random.Philox(child))
            np.testing.assert_array_equal(gen.standard_normal(1001), own.standard_normal(1001))
            np.testing.assert_array_equal(gen.random((2, 3, 17)), own.random((2, 3, 17)))
            assert gen.integers(0, 7, dtype=np.uint32) == own.integers(0, 7, dtype=np.uint32)


def test_report_json_bytes(tmp_path):
    # the report file is the dataclass's fields in declaration order
    report = SimulationReport(
        empirical_mse=0.1234567890123, empirical_nmse=1e-17, std_error=2.5e-3,
        overload_rate=0.0, orthogonality_residual=3.0000000000000004,
        orthogonality_pooled_se=0.022, theory_nmse=0.05049043779072543, n_trials=10000,
        seed=2**130 + 11,
    )
    report.to_json(tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == (
        '{\n  "empirical_mse": 0.1234567890123,\n  "empirical_nmse": 1e-17,\n'
        '  "std_error": 0.0025,\n  "overload_rate": 0.0,\n'
        '  "orthogonality_residual": 3.0000000000000004,\n'
        '  "orthogonality_pooled_se": 0.022,\n  "theory_nmse": 0.05049043779072543,\n'
        '  "n_trials": 10000,\n  "seed": 1361129467683753853853498429727072845835,\n'
        '  "rng": "philox"\n}'
    )


class TestWorkers:
    """``estimate_mse`` spreads its chunks over one thread per usable CPU and
    sums them in trial order."""

    @pytest.mark.parametrize("case", ["4x16_k4", "4x16_k4_undithered", "scalar",
                                      "digital_sub_nyquist", "shifted"])
    def test_report_does_not_depend_on_worker_count(self, matched_model, monkeypatch, case):
        if case.startswith("4x16"):
            design = design_filters(matched_model, AdcConfig(4, matched_model.f_nyq, 4), 64)
            run = SimulationRun(case, matched_model, design, n_trials=333, seed=12,
                                dithered=case == "4x16_k4")
        elif case == "scalar":
            model = unit_scalar_model(fs=1.0, n_points=64)
            design = design_filters(model, AdcConfig(1, 1.0, bits=3, eta=2.0), 64)
            run = SimulationRun(case, model, design, n_trials=400, seed=13)
        elif case == "digital_sub_nyquist":
            # fs = 4 f_nyq / 5 pads the block (2055 samples)
            cfg = AdcConfig(16, 4 * matched_model.f_nyq / 5, bits=3)
            design = baseline_design(matched_model, cfg, "digital_recovery", 64)
            run = SimulationRun(case, matched_model, design, n_trials=120, seed=14)
        else:
            base = design_filters(matched_model, AdcConfig(2, matched_model.f_nyq, 3), 64)
            design = shifted_task_design(matched_model, base, 1e-9)
            run = SimulationRun(case, matched_model, design, n_trials=150, seed=15)
        chunk = sim._CHUNK_DRAWS // sim._build_chain(run).per_trial
        assert run.n_trials > 3 * chunk  # every worker count runs several chunks
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter lock often
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(sim, "_usable_cpus", lambda cpus=cpus: cpus)
                reports.append(json.dumps(estimate_mse(run).to_dict()))
        finally:
            sys.setswitchinterval(interval)
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_worker_failure_reaches_the_caller(self, matched_model, monkeypatch):
        design = design_filters(matched_model, AdcConfig(4, matched_model.f_nyq, 4), 64)
        run = SimulationRun("fail", matched_model, design, n_trials=200, seed=1)
        error = RuntimeError("read-out failed")
        read_out = sim._read_out
        raised_in = []

        def failing_read_out(chain, bins, z):
            if len(raised_in) == 0 and threading.current_thread() is not threading.main_thread():
                raised_in.append(threading.current_thread())
                raise error
            return read_out(chain, bins, z)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_read_out", failing_read_out)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            estimate_mse(run)
        assert excinfo.value is error
        assert raised_in  # the failure came from a worker thread
        assert threading.active_count() == threads


class TestRunValidation:
    """``SimulationRun`` rejects a bad field before any trial runs, naming it."""

    @pytest.fixture()
    def design_and_model(self):
        model = unit_scalar_model(fs=1.0, n_points=64)
        return design_filters(model, AdcConfig(1, 1.0, bits=2, eta=2.0), 64), model

    @pytest.mark.parametrize("field, value, message", [
        ("n_trials", 150.5, "n_trials must be a whole number"),
        ("n_trials", True, "n_trials must be a whole number"),
        ("n_trials", 99, "n_trials must be at least 100"),
        ("n_trials", 2**32, "below 2\\*\\*32"),
        ("seed", -3, "seed must be non-negative"),
        ("seed", 2.0, "seed must be a whole number"),
        ("seed", False, "seed must be a whole number"),
    ])
    def test_bad_field_raises(self, design_and_model, field, value, message):
        design, model = design_and_model
        with pytest.raises(ValueError, match=message):
            SimulationRun("bad", model, design, **{field: value})

    def test_numpy_integers_are_whole_numbers(self, design_and_model):
        design, model = design_and_model
        run = SimulationRun("np", model, design, n_trials=np.int64(100), seed=np.uint64(2**63))
        assert estimate_mse(run).to_dict() == estimate_mse(
            SimulationRun("np", model, design, n_trials=100, seed=2**63)
        ).to_dict()
