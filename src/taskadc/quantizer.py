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
    loading = eta * eta / denom
    if loading <= 0:
        raise ValueError(f"eta={eta} too small: its squared loading underflows to 0")
    return loading


@dataclass(frozen=True)
class QuantizerSpec:
    """Mid-rise quantizer parameters: resolution and dynamic range."""

    bits: int
    dynamic_range: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be at least 1")
        if not np.isfinite(self.dynamic_range) or self.dynamic_range < 0:
            raise ValueError("dynamic range must be finite and non-negative")

    @property
    def step(self) -> float:
        return 2.0 * self.dynamic_range / 2.0**self.bits


def quantize_midrise(x, spec: QuantizerSpec):
    """Mid-rise quantization; inputs at or beyond the dynamic range saturate.

    The cell midpoint (floor(x/delta) + 1/2)*delta, clipped to the outermost
    levels +-(gamma - delta/2), computed in place on one output buffer; x is
    left untouched and a scalar input returns a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    gamma = spec.dynamic_range
    delta = spec.step
    top = gamma - delta / 2.0
    # out= keeps 0-d inputs as arrays, so the in-place steps below hold for them
    if delta == 0.0:
        out = np.sign(x, out=np.empty_like(x))
        out *= top
    else:
        out = np.divide(x, delta, out=np.empty_like(x))
        np.floor(out, out=out)
        out += 0.5
        out *= delta
        np.clip(out, -top, top, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def _triangular_dither(u, v, delta: float):
    """Triangular dither u - v on [-delta, delta] from two equal-shape arrays
    (or floats) of uniforms on [0, 1), overwriting array u with the result.

    Each uniform is mapped as ``Generator.uniform(-delta/2, delta/2)`` maps
    it, low + (high - low) * r, so the dither equals the difference of two
    such ``uniform`` draws bit for bit.
    """
    low = -delta / 2.0
    width = delta / 2.0 - low
    u *= width
    u += low
    v *= width
    v += low
    u -= v
    return u


def sample_dither(delta: float, rng: np.random.Generator, size=None):
    """Triangular dither on [-delta, delta]: difference of two uniform
    blocks of ``size``, drawn one after the other."""
    if not 0 < delta < np.inf:
        raise ValueError("step must be positive and finite")
    u = rng.random(size)
    v = rng.random(size)
    return _triangular_dither(u, v, delta)


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
