import numpy as np
import pytest

from taskadc.quantizer import (
    QuantizerSpec,
    calibrate_dynamic_range,
    effective_loading,
    eta_schedule,
    overload_probability_bound,
    quantize_midrise,
    sample_dither,
)


class TestEffectiveLoading:
    def test_one_bit(self):
        assert abs(effective_loading(2.0, 1) - 12.0) < 1e-12

    def test_high_resolution_limit(self):
        assert abs(effective_loading(2.0, 16) - 4.0) < 1e-4

    def test_two_bit(self):
        assert abs(effective_loading(3.0, 2) - 14.4) < 1e-12

    def test_infeasible(self):
        with pytest.raises(ValueError):
            effective_loading(3.0, 1)  # dither alone exceeds the range

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_non_positive(self, eta):
        with pytest.raises(ValueError, match="positive and finite"):
            effective_loading(eta, 4)

    def test_schedule(self):
        assert eta_schedule(1) == 2.0
        assert eta_schedule(4) == 2.75


class TestQuantizeMidrise:
    def test_one_bit_values(self):
        spec = QuantizerSpec(bits=1, dynamic_range=1.0)
        assert quantize_midrise(0.3, spec) == 0.5
        assert quantize_midrise(1.7, spec) == 0.5  # saturation
        assert quantize_midrise(-0.3, spec) == -0.5

    def test_two_bit_value(self):
        spec = QuantizerSpec(bits=2, dynamic_range=1.0)
        assert quantize_midrise(-0.2, spec) == -0.25

    def test_boundary_saturates(self):
        spec = QuantizerSpec(bits=2, dynamic_range=1.0)
        assert quantize_midrise(1.0, spec) == 1.0 - 0.25

    def test_alphabet(self, rng):
        spec = QuantizerSpec(bits=3, dynamic_range=2.0)
        out = quantize_midrise(rng.uniform(-4, 4, size=2000), spec)
        levels = np.unique(out)
        assert levels.size <= 2**3
        half_steps = (levels / (spec.step / 2))
        np.testing.assert_allclose(half_steps, np.round(half_steps), atol=1e-12)
        assert np.all(np.abs(levels) <= spec.dynamic_range - spec.step / 2 + 1e-12)

    def test_idempotent(self, rng):
        spec = QuantizerSpec(bits=4, dynamic_range=1.5)
        x = rng.normal(size=1000)
        q1 = quantize_midrise(x, spec)
        np.testing.assert_allclose(quantize_midrise(q1, spec), q1, atol=0)

    def test_monotone(self, rng):
        spec = QuantizerSpec(bits=3, dynamic_range=1.0)
        x = np.sort(rng.normal(size=500))
        q = quantize_midrise(x, spec)
        assert np.all(np.diff(q) >= 0)

    def test_rejects_non_finite(self):
        spec = QuantizerSpec(bits=1, dynamic_range=1.0)
        with pytest.raises(ValueError):
            quantize_midrise(float("nan"), spec)


class TestDither:
    def test_moments_and_support(self, rng):
        delta = 0.7
        draws = sample_dither(delta, rng, size=1_000_000)
        assert np.all(np.abs(draws) <= delta)
        assert abs(draws.mean()) < 4 * (delta / np.sqrt(6)) / 1e3
        second = np.mean(draws**2)
        assert abs(second - delta**2 / 6) < 0.01 * delta**2 / 6

    def test_rejects_bad_step(self, rng):
        with pytest.raises(ValueError):
            sample_dither(0.0, rng)


class TestCalibrateDynamicRange:
    def test_direct_value(self):
        assert abs(calibrate_dynamic_range(1.0, 2.0, 2) - np.sqrt(4.8)) < 1e-12

    def test_zero_variance(self):
        assert calibrate_dynamic_range(0.0, 2.0, 4) == 0.0

    def test_high_resolution(self):
        assert abs(calibrate_dynamic_range(1.0, 2.0, 16) - 2.0) < 1e-4


class TestOverloadBound:
    @pytest.mark.parametrize("eta,expected", [(2.0, 0.25), (1.0, 1.0), (10.0, 0.01)])
    def test_values(self, eta, expected):
        assert overload_probability_bound(eta) == expected


class TestAdditiveNoiseModel:
    def test_error_moments(self, rng):
        # wide dynamic range so overload is essentially impossible; the
        # quantization error must then be uncorrelated with the input and
        # carry variance step^2/4
        bits, eta = 3, 6.0
        var = 1.0
        gamma = calibrate_dynamic_range(var, eta, bits)
        spec = QuantizerSpec(bits=bits, dynamic_range=gamma)
        n = 1_000_000
        y = rng.normal(scale=np.sqrt(var), size=n)
        w = sample_dither(spec.step, rng, size=n)
        noisy = y + w
        assert np.mean(np.abs(noisy) >= gamma) < 1e-4
        z = quantize_midrise(noisy, spec)
        e = z - y
        prod = e * y
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean()) < 3 * se
        target = spec.step**2 / 4
        assert abs(np.mean(e**2) - target) < 0.02 * target
