import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_rejects_a_loading_that_underflows(self):
        # eta^2 is 0.0, which would divide by zero in the water-fill level
        with pytest.raises(ValueError, match="eta=1e-300 too small"):
            effective_loading(1e-300, 4)
        assert effective_loading(1e-160, 4) > 0  # a subnormal square still loads

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, value):
        spec = QuantizerSpec(bits=1, dynamic_range=1.0)
        with pytest.raises(ValueError):
            quantize_midrise(value, spec)
        with pytest.raises(ValueError):
            quantize_midrise(np.array([0.1, value]), spec)


def where_quantize(x, spec):
    """Reference: the saturate-by-sign form ``quantize_midrise`` had before
    floor-then-clip, out of place: the cell midpoint inside the range,
    sign(x) * (gamma - delta/2) at or beyond it."""
    x = np.asarray(x, dtype=float)
    gamma = spec.dynamic_range
    delta = spec.step
    saturated = np.sign(x) * (gamma - delta / 2.0)
    if delta == 0.0:
        out = saturated
    else:
        inside = np.abs(x) < gamma
        out = np.where(inside, delta * (np.floor(x / delta) + 0.5), saturated)
    if out.ndim == 0:
        return float(out)
    return out


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # -0.0 included


def edge_inputs(spec):
    """Inputs at +-gamma, on every cell edge, one ulp either side of each, and
    signed zeros."""
    gamma, delta = spec.dynamic_range, spec.step
    edges = np.arange(-(2 ** (spec.bits - 1)), 2 ** (spec.bits - 1) + 1) * delta
    points = np.concatenate((edges, [gamma, -gamma, 2 * gamma, -2 * gamma, 0.0, -0.0]))
    return np.concatenate(
        (points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf))
    )


class TestQuantizeMidriseExpression:
    """``quantize_midrise`` equals the saturate-by-sign form bit for bit
    wherever the range is a normal float."""

    @pytest.mark.parametrize("bits", range(1, 17))
    @pytest.mark.parametrize("dynamic_range", [1.0, 0.7, 3.3, 1e-3, 2.5e5])
    def test_edges(self, bits, dynamic_range):
        spec = QuantizerSpec(bits=bits, dynamic_range=dynamic_range)
        x = edge_inputs(spec)
        kept = x.copy()
        assert_same_bits(quantize_midrise(x, spec), where_quantize(x, spec))
        assert_same_bits(x, kept)  # the input is not overwritten
        for value in x[:: max(1, x.size // 40)]:
            got = quantize_midrise(value, spec)
            assert type(got) is float
            assert_same_bits(got, where_quantize(value, spec))

    @pytest.mark.parametrize("dynamic_range", [0.0, 5e-324])
    def test_zero_step(self, dynamic_range):
        # a zero range, and a subnormal one whose step underflows to zero
        spec = QuantizerSpec(bits=4, dynamic_range=dynamic_range)
        assert spec.step == 0.0
        x = np.array([-1.0, -0.0, 0.0, 5e-324, 2.0])
        assert_same_bits(quantize_midrise(x, spec), where_quantize(x, spec))
        for value in x:
            assert_same_bits(quantize_midrise(value, spec), where_quantize(value, spec))

    @pytest.mark.parametrize("bits", [1, 4, 16])
    def test_subnormal_range_stays_in_range(self, bits):
        # the step is inexact here; clipping keeps every level within +-gamma,
        # where the saturate-by-sign form returned up to gamma + delta/2
        spec = QuantizerSpec(bits=bits, dynamic_range=1e-310)
        out = quantize_midrise(edge_inputs(spec), spec)
        top = spec.dynamic_range - spec.step / 2.0
        assert np.abs(out).max() == top <= spec.dynamic_range

    def test_shapes_and_layouts(self, rng):
        spec = QuantizerSpec(bits=3, dynamic_range=1.5)
        x = rng.normal(scale=1.5, size=(3, 4, 10))
        for view in (x, x.transpose(2, 0, 1), x[:, ::2], x[0, 0, :1]):
            assert_same_bits(quantize_midrise(view, spec), where_quantize(view, spec))
        assert quantize_midrise([0.3, -0.3], spec).shape == (2,)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        bits=st.integers(1, 20),
        dynamic_range=st.floats(1e-6, 1e6),
        x=st.lists(st.floats(-1e7, 1e7, allow_subnormal=True), min_size=1, max_size=20),
    )
    def test_random_inputs(self, bits, dynamic_range, x):
        spec = QuantizerSpec(bits=bits, dynamic_range=dynamic_range)
        assert_same_bits(quantize_midrise(x, spec), where_quantize(x, spec))


class TestDither:
    def test_moments_and_support(self, rng):
        delta = 0.7
        draws = sample_dither(delta, rng, size=1_000_000)
        assert np.all(np.abs(draws) <= delta)
        assert abs(draws.mean()) < 4 * (delta / np.sqrt(6)) / 1e3
        second = np.mean(draws**2)
        assert abs(second - delta**2 / 6) < 0.01 * delta**2 / 6

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_step(self, rng, delta):
        with pytest.raises(ValueError):
            sample_dither(delta, rng)

    @pytest.mark.parametrize("size", [None, 1, 7, (3, 5), (2, 4, 513)])
    def test_equals_two_uniform_draws(self, size):
        # the difference of two Generator.uniform blocks, bit for bit, and the
        # stream left where those two draws leave it
        for seed in range(40):
            for delta in (0.7, 1e-3, 3.3, 0.1171875, 2.5e5, 1e-300):
                child = np.random.SeedSequence(seed).spawn(3)[seed % 3]
                old = np.random.Generator(np.random.Philox(child))
                new = np.random.Generator(np.random.Philox(child))
                u = old.uniform(-delta / 2.0, delta / 2.0, size=size)
                v = old.uniform(-delta / 2.0, delta / 2.0, size=size)
                got = sample_dither(delta, new, size=size)
                assert type(got) is type(u - v)
                assert np.array_equal(got, u - v)
                assert new.random() == old.random()


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
