import json
import math
from dataclasses import replace

import numpy as np
import pytest

from taskadc.design import AdcConfig, analog_recovery_is_optimal, max_rank_bound
from taskadc.mmse import task_covariance, whitened_task_stack
from taskadc.scenarios import (
    ScenarioSpec,
    build_scenario,
    isotropic_scenario,
    spatial_correlation,
)
from taskadc.search import baseline_design


class TestSpatialCorrelation:
    def test_diagonal_value(self):
        sigma = math.radians(1.0)
        corr = spatial_correlation(4, sigma)
        expected = 1.0 / (1.0 - math.exp(-math.sqrt(2) * math.pi / sigma))
        assert abs(corr[0, 0] - expected) < 1e-12
        assert abs(corr[0, 0] - 1.0) < 1e-12  # essentially 1 at small spread

    def test_adjacent_value(self):
        sigma = math.radians(1.0)
        corr = spatial_correlation(4, sigma)
        expected = 1.0 / (1.0 + 0.5 * sigma**2 * math.pi**2)
        assert abs(corr[0, 1] - expected) < 1e-12
        assert abs(corr[0, 1] - 0.99850) < 1e-4

    def test_symmetric_psd_decay(self):
        corr = spatial_correlation(16, math.radians(1.0))
        np.testing.assert_allclose(corr, corr.T, atol=0)
        assert np.linalg.eigvalsh(corr)[0] > 0
        assert np.all(np.abs(corr - np.diag(np.diag(corr))) < corr[0, 0])
        assert corr[0, 15] < corr[0, 1]

    def test_rejects_bad_spread(self):
        with pytest.raises(ValueError):
            spatial_correlation(4, 0.0)

    def test_rejects_a_spread_whose_scale_divides_by_zero(self):
        # 1 - exp(-sqrt(2)*pi/sigma) rounds to 0.0 above about 4e16 rad
        with pytest.raises(ValueError, match="too large for the correlation model"):
            spatial_correlation(4, 1e17)
        assert np.isfinite(spatial_correlation(4, 1e15)).all()


class TestBuildScenario:
    def test_noiseless_scalar_limit(self):
        spec = ScenarioSpec(
            n_streams=1, m_antennas=1, f_nyq=1.0, snr_db=200.0,
            sigma_phi=math.radians(1.0), channel_matrix=np.array([[1.0]]),
        )
        model = build_scenario(spec, n_points=32)
        assert abs(model.task_filter.values[0, 0, 0].real - 1.0) < 1e-9

    def test_two_antenna_closed_form(self):
        # hand-computed 2x2 chain: symmetric-Toeplitz square root, rank-one
        # input level, adjugate inverse
        sigma = math.radians(1.0)
        h_ch = np.array([[1.0], [0.5]])
        snr_db = 3.0
        spec = ScenarioSpec(
            n_streams=1, m_antennas=2, f_nyq=1.0, snr_db=snr_db,
            sigma_phi=sigma, channel_matrix=h_ch,
        )
        model = build_scenario(spec, n_points=16)

        scale = 1.0 / (1.0 - math.exp(-math.sqrt(2) * math.pi / sigma))
        rho = scale / (1.0 + 0.5 * sigma**2 * math.pi**2)
        # sqrt of [[a, b], [b, a]] via its eigenbasis (1, +-1)/sqrt(2)
        sp = math.sqrt(scale + rho)
        sm = math.sqrt(scale - rho)
        root = 0.5 * np.array([[sp + sm, sp - sm], [sp - sm, sp + sm]])
        f = root @ h_ch
        gram = float((f.T @ f)[0, 0])
        n0 = 2.0 * gram / 10.0 ** (snr_db / 10.0)
        level = f @ f.T + (n0 / 2.0) * np.eye(2)
        det = level[0, 0] * level[1, 1] - level[0, 1] * level[1, 0]
        adjugate = np.array(
            [[level[1, 1], -level[0, 1]], [-level[1, 0], level[0, 0]]]
        )
        expected_gamma = gram * f.T @ adjugate / det
        np.testing.assert_allclose(
            model.input_psd.values[0].real, level, rtol=1e-12
        )
        np.testing.assert_allclose(
            model.task_filter.values[0].real, expected_gamma, rtol=1e-10
        )

    def test_documented_seed_rank(self, matched_model):
        stack = whitened_task_stack(matched_model, matched_model.f_nyq, 256)
        assert max_rank_bound(stack) == 4

    def test_snr_round_trip(self, matched_spec, matched_model):
        # the derived noise level reproduces the requested SNR
        level = matched_model.input_psd.values[0].real
        # recover F F^T as input level minus the white-noise floor
        n0_half = np.linalg.eigvalsh(level).min()
        gram_tr = np.trace(level - n0_half * np.eye(16))
        snr_db = 10 * math.log10(gram_tr / n0_half)
        assert abs(snr_db - matched_spec.snr_db) < 1e-9

    def test_in_band_flatness(self, matched_model):
        for func in (matched_model.input_psd, matched_model.task_filter):
            spread = np.abs(func.values - func.values[:1]).max()
            assert spread <= 1e-12 * np.abs(func.values).max()

    @pytest.mark.parametrize("snr_db", [3100.0, -3300.0])
    def test_snr_without_a_linear_value_rejected(self, snr_db):
        # 10^(snr/10) overflows at +3100 dB and underflows to 0 at -3300 dB
        with pytest.raises(ValueError, match="no finite nonzero linear value"):
            ScenarioSpec(n_streams=1, m_antennas=2, f_nyq=1.0, snr_db=snr_db, sigma_phi=0.01)

    def test_infinite_noise_level_rejected(self, matched_spec):
        # -3100 dB is a subnormal linear SNR: N0 = 2*gram/snr overflows
        spec = replace(matched_spec, snr_db=-3100.0)
        with pytest.raises(ValueError, match="noise level N0 of inf"):
            build_scenario(spec, n_points=16)

    def test_channel_shape_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                n_streams=2, m_antennas=3, f_nyq=1.0, snr_db=10.0,
                sigma_phi=0.01, channel_matrix=np.ones((2, 3)),
            )


class TestIsotropicScenario:
    def test_single_stream(self):
        model = isotropic_scenario(1, fs=1.0, n_points=16)
        assert analog_recovery_is_optimal(task_covariance(model))

    def test_three_streams_optimal(self):
        model = isotropic_scenario(3, fs=1.0, n_points=32)
        assert analog_recovery_is_optimal(task_covariance(model))

    def test_analog_matches_task_based(self):
        model = isotropic_scenario(3, fs=1.0, n_points=32)
        cfg = AdcConfig(3, 1.0, 3)
        task = baseline_design(model, cfg, "task_based", 32)
        analog = baseline_design(model, cfg, "analog_recovery", 32)
        assert abs(task.nmse - analog.nmse) <= 1e-9 * task.nmse

    def test_gain_perturbation_breaks_isotropy(self):
        model = isotropic_scenario(3, fs=1.0, n_points=32,
                                   task_gains=np.array([1.1, 1.0, 1.0]))
        assert not analog_recovery_is_optimal(task_covariance(model))


class TestScenarioConfig:
    def test_from_config_degrees(self, tmp_path):
        config = {
            "N": 2, "M": 4, "f_nyq_hz": 1e8, "snr_db": 10.0,
            "sigma_phi_deg": 1.0, "channel": {"seed": 3},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        spec = ScenarioSpec.from_file(path)
        assert spec.sigma_phi == pytest.approx(math.radians(1.0))
        assert spec.channel_seed == 3
        build_scenario(spec, n_points=16)

    def test_channel_from_file(self, tmp_path, rng):
        channel = rng.standard_normal((4, 2))
        chan_path = tmp_path / "channel.txt"
        np.savetxt(chan_path, channel)
        config = {
            "N": 2, "M": 4, "f_nyq_hz": 1e8, "snr_db": 10.0,
            "sigma_phi_deg": 1.0, "channel": {"file": str(chan_path)},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        spec = ScenarioSpec.from_file(path)
        np.testing.assert_allclose(spec.channel_matrix, channel)

    @pytest.mark.parametrize("entry, message", [
        ({"N": True}, "N must be a number, not True"),
        ({"f_nyq_hz": True}, "f_nyq_hz must be a number, not True"),
        ({"channel": {"seed": False}}, "channel seed must be a number, not False"),
    ], ids=["N", "f_nyq_hz", "channel_seed"])
    def test_json_booleans_rejected(self, entry, message):
        # bool is an int subclass: N would pass as 1, f_nyq_hz as 1 Hz, a seed as 0
        config = {"N": 2, "M": 4, "f_nyq_hz": 1e8, "snr_db": 10.0, "channel": {"seed": 3}}
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_config(dict(config, **entry))
