"""Scalar mid-rise uniform quantizer with optional triangular dither."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def eta_schedule(bits: int) -> float:
    """Default loading factor as a function of resolution: 0.25*b + 1.75."""
    return 0.25 * bits + 1.75


def effective_loading(eta: float, bits: int) -> float:
    """Squared loading inflated by dither power: eta^2 / (1 - 2*eta^2/(3*4^b)).

    This is the factor relating the quantizer dynamic range to the variance of
    the un-dithered input; it diverges when the dither power alone would fill
    the dynamic range.
    """
    if not np.isfinite(eta) or eta <= 0:
        raise ValueError("eta must be positive and finite")
    if bits < 1:
        raise ValueError("bits must be at least 1")
    denom = 1.0 - 2.0 * eta * eta / (3.0 * 4.0**bits)
    if denom <= 0:
        raise ValueError(f"eta={eta} too large for {bits}-bit dithered operation")
    return eta * eta / denom


@dataclass(frozen=True)
class QuantizerSpec:
    """Mid-rise quantizer parameters: resolution, dynamic range, dither flag."""

    bits: int
    dynamic_range: float
    dithered: bool = True

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if not np.isfinite(self.dynamic_range) or self.dynamic_range < 0:
            raise ValueError("dynamic range must be finite and non-negative")

    @property
    def step(self) -> float:
        return 2.0 * self.dynamic_range / 2.0**self.bits


def quantize_midrise(x, spec: QuantizerSpec):
    """Mid-rise quantization; inputs at or beyond the dynamic range saturate."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
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


def sample_dither(delta: float, rng: np.random.Generator, size=None):
    """Triangular dither on [-delta, delta]: difference of two uniforms."""
    if delta <= 0:
        raise ValueError("step must be positive")
    u = rng.uniform(-delta / 2.0, delta / 2.0, size=size)
    v = rng.uniform(-delta / 2.0, delta / 2.0, size=size)
    return u - v


def calibrate_dynamic_range(max_input_variance: float, eta: float, bits: int) -> float:
    """Dynamic range covering eta standard deviations of the dithered input.

    Uses the dither-inflated loading, which is why the effective loading and
    not eta^2 multiplies the input variance.
    """
    if max_input_variance < 0:
        raise ValueError("variance must be non-negative")
    return float(np.sqrt(effective_loading(eta, bits) * max_input_variance))


def overload_probability_bound(eta: float) -> float:
    """Chebyshev bound on the overload probability, capped at 1."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return min(1.0, 1.0 / (eta * eta))
