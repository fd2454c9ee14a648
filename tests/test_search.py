import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from taskadc.design import (
    AdcConfig,
    FilterDesign,
    _solve_output,
    _waterfilled_modes,
    auto_grid_points,
    design_digital_filter,
    design_filters,
    quantizer_noise,
    theoretical_mse,
)
from taskadc.mmse import TaskModel, task_energy, whitened_task_stack
from taskadc.scenarios import ScenarioSpec, build_scenario, isotropic_scenario
from taskadc.search import (
    ARCHITECTURES,
    SearchSpec,
    _arch_chain,
    _converged_time_average,
    _run_einsum,
    baseline_design,
    designed_shift_kernel,
    modulated_stack,
    mse_at_shifts,
    rate_search,
    shift_mse_kernel,
    shifted_task_design,
    time_averaged_nmse,
)
from taskadc.simulate import SimulationRun, estimate_mse
from taskadc.spectra import (
    FrequencyGrid,
    StackedSpectrum,
    alias_order,
    constant_spectrum,
    joint_runs,
    psd_sqrt,
    stack_aliases,
    take_rows,
)

from conftest import random_flat_model


class TestShiftedTaskDesign:
    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="1e400")])
    def test_non_finite_shift_rejected(self, rng, t0):
        # a non-finite shift used to read as a perfect design (nmse 0.0)
        model = random_flat_model(rng, n=2, m=4, n_points=32)
        base = design_filters(model, AdcConfig(2, 0.6, 3), 32)
        with pytest.raises(ValueError, match="t0 must be a finite number"):
            shifted_task_design(model, base, t0)

    def test_shift_is_absolute(self, rng):
        # shifting a shifted design gives the design shifted from the base
        model = random_flat_model(rng, n=2, m=4, n_points=32)
        base = design_filters(model, AdcConfig(2, 0.6, 3), 32)
        assert base.t0 == 0.0
        twice = shifted_task_design(model, shifted_task_design(model, base, 0.4), 0.9)
        once = shifted_task_design(model, base, 0.9)
        assert twice.t0 == once.t0 == 0.9
        assert np.array_equal(twice.g_freq.values, once.g_freq.values)
        assert twice.mse_theory == once.mse_theory

    def test_zero_shift_is_identity(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.6, 3)  # sub-Nyquist on the unit band
        base = design_filters(model, cfg, 64)
        shifted = shifted_task_design(model, base, 0.0)
        assert abs(shifted.mse_theory - base.mse_theory) <= 1e-12 * base.mse_theory
        np.testing.assert_allclose(shifted.g_freq.values, base.g_freq.values, atol=1e-12)

    def test_period_is_sampling_interval(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.6, 3)
        base = design_filters(model, cfg, 64)
        at_zero = shifted_task_design(model, base, 0.0)
        at_period = shifted_task_design(model, base, cfg.ts)
        assert abs(at_period.nmse - at_zero.nmse) <= 1e-9 * at_zero.nmse

    def test_nyquist_sampling_is_shift_invariant(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 1.25, 8)  # above the unit-band Nyquist rate
        base = design_filters(model, cfg, 64)
        values = [
            shifted_task_design(model, base, t0).nmse
            for t0 in (0.0, 0.31 * cfg.ts, 0.77 * cfg.ts)
        ]
        assert max(values) - min(values) <= 1e-6 * max(values)

    def test_kernel_matches_full_path(self, rng):
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        cfg = AdcConfig(2, 0.45, 4)
        base = design_filters(model, cfg, 64)
        task_stack = whitened_task_stack(model, cfg.fs, 64)
        energy, kernel = shift_mse_kernel(base.h_bar, task_stack, cfg)
        t0s = np.array([0.0, 0.2, 0.55, 0.9]) * cfg.ts
        fast = mse_at_shifts(energy, kernel, cfg, t0s)
        slow = np.array(
            [shifted_task_design(model, base, float(t)).mse_theory for t in t0s]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_designed_kernel_matches_general_kernel(self, rng):
        # the cancellation-free designed-filter kernel agrees with the
        # solve-based one wherever the latter is well conditioned
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        for fs, bits in ((0.45, 4), (1.2, 2), (0.7, 6)):
            cfg = AdcConfig(2, fs, bits)
            task_stack = whitened_task_stack(model, cfg.fs, 64)
            h_bar = design_filters(model, cfg, 64).h_bar
            c1, k1 = shift_mse_kernel(h_bar, task_stack, cfg)
            c2, k2 = designed_shift_kernel(task_stack, cfg)
            t0s = np.linspace(0.0, cfg.ts, 9)
            a = mse_at_shifts(c1, k1, cfg, t0s)
            b = mse_at_shifts(c2, k2, cfg, t0s)
            np.testing.assert_allclose(a, b, rtol=1e-9)


def dense_designed_shift_kernel(task_stack, cfg):
    """The aliased branch of ``designed_shift_kernel`` with gv computed on
    every grid row: the reference its per-run gv must match bit for bit."""
    w = task_stack.base_grid.weights
    modes = _waterfilled_modes(task_stack, cfg)
    s = take_rows(modes.s, modes.index)
    r_act = min(modes.gain.shape[1], s.shape[1])
    q = 4.0 ** (-cfg.bits)
    alpha = q * take_rows(modes.gain, modes.index)[:, :r_act]
    d = alpha / (alpha + q)
    const = float(w @ (s**2).sum(axis=1))
    n_blocks = 2 * task_stack.alias_order_ + 1
    v_blocks = (
        take_rows(modes.vh, modes.index)[:, :r_act, :]
        .conj()
        .reshape(s.shape[0], r_act, n_blocks, task_stack.block_cols)
    )
    gv = np.einsum("jnpm,jrpm->jpnr", task_stack.block_view(), v_blocks, optimize=True)
    kernel = np.einsum("j,jr,jpnr,jqnr->pq", w, d, gv, gv.conj(), optimize=True)
    return const, kernel


@pytest.fixture(scope="module")
def full_grid_matched_model(matched_spec):
    # the default grid, as the CLI and the benchmark build it
    return build_scenario(matched_spec)


class TestDesignedShiftKernelBits:
    """The per-run gv leaves const and kernel bit-identical to the dense form."""

    @staticmethod
    def check(task_stack, cfg):
        const, kernel = designed_shift_kernel(task_stack, cfg)
        ref_const, ref_kernel = dense_designed_shift_kernel(task_stack, cfg)
        assert np.array_equal(const, ref_const)
        assert np.array_equal(kernel, ref_kernel)

    @staticmethod
    def matched_stack(model, budget, k, bits):
        cfg = AdcConfig(k, budget / (k * bits), bits)
        n_points = auto_grid_points(cfg.fs, model.band_edge)
        return whitened_task_stack(model, cfg.fs, n_points), cfg

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matched_scenario_b16(self, full_grid_matched_model, k):
        task_stack, cfg = self.matched_stack(full_grid_matched_model, 1.6e9, k, 16)
        assert 2 <= task_stack.alias_order_ <= 8
        assert 1 < task_stack.run_starts.size < task_stack.base_grid.n_points
        self.check(task_stack, cfg)

    def test_single_run_single_mode(self, full_grid_matched_model):
        # a one-run batch would take einsum's size-1 path and move the last bit
        task_stack, cfg = self.matched_stack(full_grid_matched_model, 2e9, 1, 15)
        assert task_stack.alias_order_ >= 1
        assert task_stack.run_starts.size == 1
        modes = _waterfilled_modes(task_stack, cfg)
        assert min(modes.gain.shape[1], modes.s.shape[1]) == 1
        self.check(task_stack, cfg)

    @pytest.mark.parametrize("layout", ["one_run_per_row", "single_run"])
    def test_gemm_side_run_layouts(self, full_grid_matched_model, layout):
        # P > N*r: gv and its conjugate are expanded in the GEMM's memory order
        task_stack, cfg = self.matched_stack(full_grid_matched_model, 1.6e9, 4, 16)
        if layout == "one_run_per_row":
            task_stack = modulated_stack(task_stack, 0.3 * cfg.ts)
            assert task_stack.run_starts.size == task_stack.base_grid.n_points
        else:
            task_stack = StackedSpectrum(
                base_grid=task_stack.base_grid, alias_order_=task_stack.alias_order_,
                blocks=task_stack.run_blocks[:1], block_cols=task_stack.block_cols,
                fs=task_stack.fs, run_starts=[0],
            )
        modes = _waterfilled_modes(task_stack, cfg)
        r_act = min(modes.gain.shape[1], modes.s.shape[1])
        assert 2 * task_stack.alias_order_ + 1 > task_stack.rows * r_act
        self.check(task_stack, cfg)

    def test_matched_scenario_row_side(self, full_grid_matched_model):
        # P <= N*r: einsum multiplies row by row, then sums the rows in a GEMV
        task_stack, cfg = self.matched_stack(full_grid_matched_model, 4e8, 2, 1)
        modes = _waterfilled_modes(task_stack, cfg)
        r_act = min(modes.gain.shape[1], modes.s.shape[1])
        assert 2 * task_stack.alias_order_ + 1 == 3 <= task_stack.rows * r_act
        assert task_stack.run_starts.size == 2
        self.check(task_stack, cfg)

    def test_one_run_per_row(self, rng):
        model = random_flat_model(rng, n=3, m=5, n_points=64)
        cfg = AdcConfig(2, 0.45, 4)
        # the shift phase differs on every row
        task_stack = modulated_stack(whitened_task_stack(model, cfg.fs, 64), 0.3 * cfg.ts)
        assert task_stack.alias_order_ >= 1
        assert task_stack.run_starts.size == task_stack.base_grid.n_points
        self.check(task_stack, cfg)


def gathered_shift_mse_kernel(h_bar, task_stack, cfg):
    """``shift_mse_kernel`` with the per-run cross terms and solves gathered
    to the grid row-major, chunk by chunk: the reference its expansion in
    the GEMM's memory order must match bit for bit."""
    noise_var, _ = quantizer_noise(h_bar, cfg)
    n_blocks = 2 * task_stack.alias_order_ + 1
    starts, index = joint_runs(task_stack, h_bar)
    h = h_bar.rows_at(starts)
    gv = task_stack.block_view(task_stack.rows_at(starts))
    cross = np.einsum("jnpm,jkpm->jpnk", gv, h_bar.block_view(h).conj())
    sol = _solve_output(h, cross, cfg.ts, noise_var)
    w = task_stack.base_grid.weights
    kernel = np.zeros((n_blocks, n_blocks), dtype=complex)
    chunk = max(1, int(2**22 // max(1, n_blocks * n_blocks)))
    for lo in range(0, w.size, chunk):
        rows = index[lo:lo + chunk]
        kernel += np.einsum(
            "j,jpnk,jqkn->pq", w[lo:lo + chunk], cross[rows], sol[rows], optimize=True
        )
    return task_energy(task_stack), cfg.ts * kernel


class TestShiftMseKernelBits:
    """Expanding cross and sol in the GEMM's memory order leaves const and
    kernel bit-identical to the row-major gather."""

    @staticmethod
    def check(h_bar, task_stack, cfg):
        const, kernel = shift_mse_kernel(h_bar, task_stack, cfg)
        ref_const, ref_kernel = gathered_shift_mse_kernel(h_bar, task_stack, cfg)
        assert np.array_equal(const, ref_const)
        assert np.array_equal(kernel, ref_kernel)

    @staticmethod
    def gemm(task_stack, k):
        """True where einsum makes one GEMM: P = 2*ups + 1 exceeds N*K."""
        return 2 * task_stack.alias_order_ + 1 > task_stack.rows * k

    @pytest.mark.parametrize("arch, k", [("analog_recovery", 4), ("digital_recovery", 16)])
    @pytest.mark.parametrize("bits", [1, 16])
    def test_both_sides_of_the_gemm_rule(self, full_grid_matched_model, arch, k, bits):
        cfg = AdcConfig(k, 1.6e9 / (k * bits), bits)
        task_stack, h_bar = _arch_chain(full_grid_matched_model, cfg, arch, None)
        assert self.gemm(task_stack, k) == (bits == 16)
        self.check(h_bar, task_stack, cfg)

    def test_several_chunks(self, full_grid_matched_model):
        cfg = AdcConfig(16, 4e8 / (16 * 16), 16)
        task_stack, h_bar = _arch_chain(full_grid_matched_model, cfg, "digital_recovery", None)
        n_blocks = 2 * task_stack.alias_order_ + 1
        assert n_blocks == 257
        assert task_stack.base_grid.n_points > 2 * (2**22 // n_blocks**2)
        assert 1 < joint_runs(task_stack, h_bar)[0].size < task_stack.base_grid.n_points
        self.check(h_bar, task_stack, cfg)

    def test_one_run_per_row(self, full_grid_matched_model):
        cfg = AdcConfig(4, 1.6e9 / (4 * 16), 16)
        task_stack, h_bar = _arch_chain(full_grid_matched_model, cfg, "analog_recovery", None)
        # the shift phase differs on every row
        shifted = modulated_stack(task_stack, 0.3 * cfg.ts)
        assert self.gemm(shifted, 4)
        assert joint_runs(shifted, h_bar)[0].size == shifted.base_grid.n_points
        self.check(h_bar, shifted, cfg)

    def test_single_run(self, full_grid_matched_model):
        cfg = AdcConfig(16, 1.6e9 / (16 * 16), 16)
        task_stack, h_bar = _arch_chain(full_grid_matched_model, cfg, "digital_recovery", None)
        single = [
            StackedSpectrum(
                base_grid=s.base_grid, alias_order_=s.alias_order_, blocks=s.run_blocks[:1],
                block_cols=s.block_cols, fs=s.fs, run_starts=[0],
            )
            for s in (task_stack, h_bar)
        ]
        assert self.gemm(single[0], 16)
        assert joint_runs(*single)[0].size == 1
        self.check(single[1], single[0], cfg)


class TestRunEinsum:
    """``_run_einsum`` on run operands equals einsum on the grid rows they
    stand for, bit for bit, chunk by chunk."""

    N_ROWS = 64
    CHUNKS = (0, 16, 32, 48, 63, 64)  # three 16-row chunks, 15 rows, 1 row
    RUN_STARTS = {
        "one_run": [0],
        "one_run_per_row": list(range(64)),
        # runs 5..22 and 24..39 cross chunk edges, 40..62 spans one
        "runs_across_chunks": [0, 5, 23, 24, 40, 63],
    }
    REAL_TERMS = ("j", "jr")  # the quadrature weights and mode gains

    @classmethod
    def check(cls, rng, subscripts, sizes, layout):
        starts = np.array(cls.RUN_STARTS[layout])
        index = np.repeat(np.arange(starts.size), np.diff(starts, append=cls.N_ROWS))
        operands = []
        for term in subscripts.split("->")[0].split(","):
            shape = (starts.size,) + tuple(sizes[i] for i in term[1:])
            x = rng.standard_normal(shape)
            if term not in cls.REAL_TERMS:
                x = x + 1j * rng.standard_normal(shape)
            operands.append(x)
        for lo, hi in zip(cls.CHUNKS[:-1], cls.CHUNKS[1:]):
            rows = index[lo:hi]
            want = np.einsum(subscripts, *(x[rows] for x in operands), optimize=True)
            got = _run_einsum(subscripts, operands, index, lo, hi)
            if "j" in subscripts.split("->")[1]:
                got = got[rows - rows[0]]  # one row per run
            assert np.array_equal(got, want), (lo, hi)

    @staticmethod
    def row_side(subscripts, sizes) -> bool:
        """True where einsum's plan multiplies row by row and then sums the
        rows in a GEMV, False where it sums over j in one GEMM."""
        dense = [
            np.broadcast_to(0.0, tuple(sizes[i] for i in term))
            for term in subscripts.split("->")[0].split(",")
        ]
        steps = np.einsum_path(subscripts, *dense, optimize=True, einsum_call=True)[1]
        return steps[-1][1] == "pqj,j->pq"

    LAYOUTS = pytest.mark.parametrize("layout", list(RUN_STARTS))

    @LAYOUTS
    @pytest.mark.parametrize("p, k", [(17, 4), (5, 4), (5, 16)])
    def test_shift_mse_kernel_sum(self, rng, layout, p, k):
        sizes = dict(j=16, p=p, q=p, n=4, k=k)
        assert self.row_side("j,jpnk,jqkn->pq", sizes) == (p <= 4 * k)
        self.check(rng, "j,jpnk,jqkn->pq", sizes, layout)

    @LAYOUTS
    @pytest.mark.parametrize("p, r", [(17, 2), (3, 2), (9, 1)])
    def test_designed_kernel_sum(self, rng, layout, p, r):
        sizes = dict(j=16, p=p, q=p, n=4, r=r)
        assert self.row_side("j,jr,jpnr,jqnr->pq", sizes) == (p <= 4 * r)
        self.check(rng, "j,jr,jpnr,jqnr->pq", sizes, layout)

    @LAYOUTS
    def test_designed_kernel_gv(self, rng, layout):
        # j is never summed: the result stays one row per run
        self.check(rng, "jnpm,jrpm->jpnr", dict(n=4, p=5, m=16, r=2), layout)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestBenchmarkReference:
    """The benchmark's ``search``, ``design_io`` and ``mc`` outputs match
    ``perfbench/reference.json`` at its 1e-9, so reference drift fails here
    and not only in the benchmark."""

    @staticmethod
    def _reference(seed, workload):
        return json.loads(REFERENCE.read_text())["seeds"][str(seed)][workload]

    @staticmethod
    def _model(seed):
        return build_scenario(ScenarioSpec(
            n_streams=4, m_antennas=16, f_nyq=400e6, snr_db=10.0,
            sigma_phi=math.radians(1.0), channel_seed=seed,
        ))

    @staticmethod
    def _assert_close(got, ref):
        for key, value in got.items():
            assert abs(value - ref[key]) <= 1e-9 * max(abs(value), abs(ref[key])), key

    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_cells(self, seed):
        want = self._reference(seed, "search")
        model = self._model(seed)
        for arch in ARCHITECTURES:
            spec = SearchSpec(rate_budget=1.6e9, b_range=(1, 16), architecture=arch)
            got = [
                [row["k_adcs"], row["bits"], row["nmse"], row["nmse_t0_0"]]
                for row in rate_search(model, spec).table
            ]
            ref = want[f"rate_search/{arch}"]["rows"]
            assert [row[:2] for row in got] == [row[:2] for row in ref]
            for row, ref_row in zip(got, ref):
                for value, ref_value in zip(row[2:], ref_row[2:]):
                    assert abs(value - ref_value) <= 1e-9 * max(abs(value), abs(ref_value))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_design_round_trips(self, seed):
        want = self._reference(seed, "design_io")
        model = self._model(seed)
        for k, fs, b in ((4, 400e6, 4), (4, 100e6, 4), (2, 100e6, 8)):
            design = design_filters(model, AdcConfig(k, fs, b))
            d = FilterDesign.from_dict(json.loads(json.dumps(design.to_dict(), indent=2)))
            self._assert_close({
                "nmse": d.nmse,
                "mse": d.mse_theory,
                "water_level": d.water_level,
                "dynamic_range": d.dynamic_range,
                "task_energy": d.task_energy,
                "h_bar_fro": float(np.linalg.norm(d.h_bar.blocks)),
                "g_fro": float(np.linalg.norm(d.g_freq.values)),
            }, want[f"round_trip/K{k}_fs{fs / 1e6:g}MHz_b{b}"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mc_report(self, seed):
        want = self._reference(seed, "mc")[f"estimate_mse/seed{1000 * seed}"]
        model = self._model(seed)
        design = design_filters(model, AdcConfig(4, 400e6, 4))
        rep = estimate_mse(
            SimulationRun("perfbench", model, design, n_trials=500, seed=1000 * seed)
        )
        self._assert_close({
            "empirical_nmse": rep.empirical_nmse,
            "std_error": rep.std_error,
            "overload_rate": rep.overload_rate,
            "orthogonality_residual": rep.orthogonality_residual,
        }, want)


class TestTimeAveragedNmse:
    def test_oversampled_profile_is_flat(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=64)
        cfg = AdcConfig(2, 2.0, 12)
        avg = time_averaged_nmse(model, cfg, "task_based", 64)
        base = design_filters(model, cfg, 64)
        assert abs(avg - base.nmse) <= 1e-6 * base.nmse

    def test_sub_nyquist_average_exceeds_snapshot(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.4, 4)
        avg = time_averaged_nmse(model, cfg, "task_based", 64)
        base = design_filters(model, cfg, 64)
        assert avg > base.nmse

    def test_doubling_grid_converges(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=64)
        cfg = AdcConfig(2, 0.4, 4)
        a16 = time_averaged_nmse(model, cfg, "task_based", 64)
        a32, _ = _converged_time_average(model, cfg, "task_based", 32, 64)
        assert abs(a32 - a16) <= 1e-3 * a16

    @pytest.mark.xfail(
        strict=True,
        reason="the t0 average stops when 16 and 32 midpoints agree, but at alias "
        "order >= 16 the harmonic 2*ups is a multiple of both grids",
    )
    def test_high_alias_order_matches_exact_average(self, rng):
        # mse(t0) = const - Re(p^T K conj(p)) averages exactly to const - Re tr K
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(3, 0.5 / 32, 16)
        assert alias_order(cfg.fs, model.band_edge) == 32
        spec = SearchSpec(rate_budget=cfg.rate, b_range=(16,), architecture="digital_recovery",
                          n_points=32)
        searched = rate_search(model, spec).table[0]["nmse"]
        task_stack = whitened_task_stack(model, cfg.fs, 32)
        h_bar = stack_aliases(psd_sqrt(model.input_psd), cfg.fs, model.band_edge, 32)
        const, kernel = shift_mse_kernel(h_bar, task_stack, cfg)
        exact = (const - np.trace(kernel).real) / const
        assert abs(searched - exact) <= 1e-9 * exact

    @pytest.mark.parametrize(
        "arch, k", [("task_based", 2), ("analog_recovery", 2), ("digital_recovery", 3)]
    )
    def test_equals_search_table(self, rng, arch, k):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        # alias order 10: a 16-point mean alone misreads the harmonic at 16*fs
        spec = SearchSpec(rate_budget=k * 3 * 0.05, b_range=(3,), architecture=arch,
                          n_points=32)
        [row] = [r for r in rate_search(model, spec).table if r["k_adcs"] == k]
        cfg = AdcConfig(k, row["fs_hz"], 3)
        assert alias_order(cfg.fs, model.band_edge) == 10
        assert time_averaged_nmse(model, cfg, arch, 32) == row["nmse"]


class TestRateSearch:
    def test_generous_budget_maxes_resolution(self, matched_model):
        spec = SearchSpec(rate_budget=800e9, n_points=256)
        result = rate_search(matched_model, spec)
        assert result.best_bits == 16
        assert result.best_k == 4
        assert result.best_fs > matched_model.f_nyq

    def test_tight_budget_goes_sub_nyquist(self, matched_model):
        spec = SearchSpec(rate_budget=0.4e9, n_points=256)
        result = rate_search(matched_model, spec)
        assert result.best_fs < matched_model.f_nyq

    def test_single_cell(self, rng, tmp_path):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        spec = SearchSpec(rate_budget=2.0, b_range=(2,), n_points=32)  # N = 1: K = 1 only
        result = rate_search(model, spec)
        assert len(result.table) == 1
        assert result.best_bits == 2
        result.to_csv(tmp_path / "table.csv")
        lines = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "k_adcs,bits,fs_hz,nmse,nmse_t0_0"
        assert len(lines) == 2

    def test_deterministic_and_covers_grid(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        spec = SearchSpec(rate_budget=6.0, b_range=tuple(range(1, 7)), n_points=32)
        first = rate_search(model, spec)
        second = rate_search(model, spec)
        assert first.table == second.table
        assert first.best_nmse == min(r["nmse"] for r in first.table)
        ks = {r["k_adcs"] for r in first.table}
        bs = {r["bits"] for r in first.table}
        assert bs == set(range(1, 7))
        assert ks == {1, 2}  # rank bound keeps K within the task dimension

    def test_empty_budget_rejected(self, rng):
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        with pytest.raises(ValueError):
            SearchSpec(rate_budget=0.0)
        for budget in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SearchSpec(rate_budget=budget)

    @pytest.mark.parametrize("eta", [np.inf, -1.0, 0.0, np.nan])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            SearchSpec(rate_budget=4e8, eta=eta)

    def test_eta_whose_loading_underflows_rejected(self):
        with pytest.raises(ValueError, match="eta=1e-300 too small"):
            SearchSpec(rate_budget=4e8, eta=1e-300)

    @pytest.mark.parametrize("ranges, message", [
        (dict(b_range=(0, 4)), "b_range: bits must be at least 1"),
        (dict(b_range=(-3,)), "b_range: bits must be at least 1"),
        (dict(b_range=(600,)), "b_range: bits must be below 512"),
        (dict(b_range=(2.5,)), "b_range: bits must be a whole number, got 2.5"),
    ])
    def test_counts_that_adc_config_rejects(self, rng, ranges, message):
        # not a division by zero, "no feasible configuration" or a table row
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        with pytest.raises(ValueError, match=message):
            rate_search(model, SearchSpec(rate_budget=6.0, n_points=32, **ranges))

    def test_cells_infeasible_at_a_valid_eta_are_skipped(self, rng):
        # eta = 3 overloads the dithered 1-bit quantizer but not the 2-bit one
        model = random_flat_model(rng, n=1, m=2, n_points=32)
        spec = SearchSpec(rate_budget=4.0, b_range=(1, 2), eta=3.0, n_points=32)
        assert [row["bits"] for row in rate_search(model, spec).table] == [2]
        with pytest.raises(ValueError, match="no feasible configuration"):
            rate_search(model, replace(spec, b_range=(1,)))

    def test_zero_task_reports_its_missing_energy(self):
        # rank bound 0: K = 1 still runs, and its design names the cause
        # instead of "no feasible configuration"
        grid = FrequencyGrid(-0.5, 0.5, 32)
        model = TaskModel(
            task_filter=constant_spectrum(grid, np.zeros((2, 3)), kind="filter"),
            input_psd=constant_spectrum(grid, np.eye(3), kind="psd"),
        )
        spec = SearchSpec(rate_budget=6.0, b_range=(2,), n_points=32)
        with pytest.raises(ValueError, match="all singular values are zero"):
            rate_search(model, spec)


class TestBaselineDesign:
    def test_architecture_constraints(self, rng):
        model = random_flat_model(rng, n=2, m=4, n_points=32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(3, 1.0, 2), "analog_recovery", 32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(3, 1.0, 2), "digital_recovery", 32)
        with pytest.raises(ValueError):
            baseline_design(model, AdcConfig(2, 1.0, 2), "no_such_arch", 32)

    def test_isotropic_equality(self):
        model = isotropic_scenario(3, fs=1.0)
        cfg = AdcConfig(3, 1.0, 2)
        task = baseline_design(model, cfg, "task_based", 32)
        analog = baseline_design(model, cfg, "analog_recovery", 32)
        assert abs(task.nmse - analog.nmse) <= 1e-9 * task.nmse

    def test_digital_high_resolution_vanishes(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        design = baseline_design(model, AdcConfig(3, 1.0, 16), "digital_recovery", 32)
        assert design.nmse < 1e-6

    def test_unequal_task_variances_penalize_analog(self):
        model = isotropic_scenario(3, fs=1.0, task_gains=np.array([2.0, 1.0, 0.5]))
        cfg = AdcConfig(3, 1.0, 3)
        task = baseline_design(model, cfg, "task_based", 32)
        analog = baseline_design(model, cfg, "analog_recovery", 32)
        assert analog.nmse > task.nmse * (1 + 1e-6)

    @pytest.mark.parametrize("arch, k", [("analog_recovery", 2), ("digital_recovery", 3)])
    def test_filter_and_error_come_from_one_solve(self, rng, arch, k):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        cfg = AdcConfig(k, 0.7, 3)
        design = baseline_design(model, cfg, arch, 32)
        task_stack = whitened_task_stack(model, cfg.fs, 32)
        g = design_digital_filter(design.h_bar, task_stack, cfg)
        report = theoretical_mse(design.h_bar, task_stack, cfg)
        assert np.array_equal(design.g_freq.values, g.values)
        assert (design.mse_theory, design.nmse) == (report.mse, report.nmse)

    def test_time_average_supports_all_architectures(self, rng):
        model = random_flat_model(rng, n=2, m=3, n_points=32)
        for arch, k in (("task_based", 2), ("analog_recovery", 2), ("digital_recovery", 3)):
            value = time_averaged_nmse(model, AdcConfig(k, 0.7, 3), arch, 32)
            assert 0.0 <= value <= 1.0 + 1e-9
