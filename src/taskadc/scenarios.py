"""Multi-antenna matched-filtering scenario and synthetic test scenarios.

All scenario spectra are flat inside the band [-f_nyq/2, f_nyq/2] and zero
outside: the transmit shaping and the noise are brickwall-bandlimited, so the
in-band levels fully describe the model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .mmse import TaskModel
from .spectra import DEFAULT_GRID_POINTS, FrequencyGrid, constant_spectrum


@dataclass(frozen=True)
class ScenarioSpec:
    """Matched-filter scenario parameters.

    sigma_phi is the receive angular spread in radians; channel_matrix is the
    M x N channel (drawn from channel_seed when not supplied directly).
    """

    n_streams: int
    m_antennas: int
    f_nyq: float
    snr_db: float
    sigma_phi: float
    channel_matrix: np.ndarray | None = None
    channel_seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.f_nyq, self.snr_db, self.sigma_phi))):
            raise ValueError("f_nyq, snr_db and sigma_phi must be finite")
        try:
            snr_lin = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            snr_lin = math.inf
        if not 0.0 < snr_lin < math.inf:
            raise ValueError(f"snr_db={self.snr_db!r} has no finite nonzero linear value")
        if self.n_streams < 1 or self.m_antennas < 1:
            raise ValueError("stream and antenna counts must be at least 1")
        if self.f_nyq <= 0:
            raise ValueError("f_nyq must be positive")
        if self.sigma_phi <= 0:
            raise ValueError("angular spread must be positive")
        if self.channel_matrix is not None:
            mat = np.asarray(self.channel_matrix, dtype=float)
            if mat.shape != (self.m_antennas, self.n_streams):
                raise ValueError("channel matrix must be M x N")
            object.__setattr__(self, "channel_matrix", mat)

    @classmethod
    def from_config(cls, config: dict) -> "ScenarioSpec":
        """Build from the JSON config layout (sigma_phi given in degrees)."""
        if not isinstance(config, dict):
            raise ValueError("scenario must be a JSON object")
        missing = [key for key in ("N", "M", "f_nyq_hz", "snr_db") if key not in config]
        if missing:
            raise ValueError(f"scenario has no {', '.join(missing)}")
        channel = config.get("channel", {})
        if not isinstance(channel, dict):
            raise ValueError("channel must be a JSON object")
        matrix = None
        if channel.get("file"):
            matrix = np.loadtxt(channel["file"], ndmin=2)
        return cls(
            n_streams=_number(config["N"], "N", whole=True),
            m_antennas=_number(config["M"], "M", whole=True),
            f_nyq=_number(config["f_nyq_hz"], "f_nyq_hz"),
            snr_db=_number(config["snr_db"], "snr_db"),
            sigma_phi=math.radians(_number(config.get("sigma_phi_deg", 1.0), "sigma_phi_deg")),
            channel_matrix=matrix,
            channel_seed=_number(channel.get("seed", 0), "channel seed", whole=True),
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_config(json.load(fh))


def _number(value, name: str, whole: bool = False):
    """A scenario entry as a float, or as an int when ``whole``; a JSON
    boolean, a value that float() rejects, or a fractional count is a
    ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if whole and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, not {value!r}") from None
    if whole and not number.is_integer():
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    return int(number) if whole else number


def spatial_correlation(m: int, sigma_phi: float) -> np.ndarray:
    """Receive correlation of a uniform linear array for a small angular spread.

    Entry (i, j) decays as a Lorentzian in the element separation; the model
    is only accurate for small spreads (around a degree), which is the regime
    used here.
    """
    if sigma_phi <= 0:
        raise ValueError("angular spread must be positive")
    idx = np.arange(m)
    sep = idx[:, None] - idx[None, :]
    gap = 1.0 - math.exp(-math.sqrt(2.0) * math.pi / sigma_phi)
    if gap == 0:
        raise ValueError(f"angular spread {sigma_phi} rad is too large for the correlation model")
    scale = 1.0 / gap
    return scale / (1.0 + 0.5 * sigma_phi**2 * (math.pi * sep) ** 2)


def _psd_matrix_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    top = max(vals[-1], 0.0)
    if vals[0] < -1e-10 * top:
        raise ValueError("correlation matrix is not PSD")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def build_scenario(spec: ScenarioSpec) -> TaskModel:
    """Task model for estimating noiseless matched-filter outputs.

    In-band levels: input PSD F F^T + (N0/2) I and task filter cross-PSD @
    inv(input PSD), with cross-PSD (F^T F) F^T and the noise level N0
    derived from the requested SNR. Both spectra are one flat run on a
    ``DEFAULT_GRID_POINTS`` grid; designs resample them on their own grid,
    so the source grid's density enters no result.
    """
    n, m = spec.n_streams, spec.m_antennas
    if spec.channel_matrix is not None:
        channel = spec.channel_matrix
    else:
        channel = np.random.default_rng(spec.channel_seed).standard_normal((m, n))
    corr_root = _psd_matrix_sqrt(spatial_correlation(m, spec.sigma_phi))
    f_mat = corr_root @ channel
    gram = float(np.trace(f_mat @ f_mat.T))
    snr_lin = 10.0 ** (spec.snr_db / 10.0)
    if gram <= 0:
        raise ValueError("channel carries no energy; SNR is infeasible")
    n0 = 2.0 * gram / snr_lin
    if not math.isfinite(n0):
        raise ValueError(f"snr_db={spec.snr_db!r} gives a noise level N0 of {n0}")

    input_level = f_mat @ f_mat.T + (n0 / 2.0) * np.eye(m)
    cross_level = (f_mat.T @ f_mat) @ f_mat.T
    task_level = cross_level @ np.linalg.inv(input_level)
    # below the smallest normal float the design loses precision silently
    energy = spec.f_nyq * float(np.trace(task_level @ input_level @ task_level.T))
    if not energy >= np.finfo(float).tiny:
        raise ValueError(
            f"task energy {energy:.3g} (from f_nyq_hz={spec.f_nyq!r}, the channel and "
            f"snr_db={spec.snr_db!r}) is below the smallest normal float"
        )

    grid = FrequencyGrid(-spec.f_nyq / 2.0, spec.f_nyq / 2.0, DEFAULT_GRID_POINTS)
    return TaskModel(
        task_filter=constant_spectrum(grid, task_level, kind="filter"),
        input_psd=constant_spectrum(grid, input_level, kind="psd"),
    )


def isotropic_scenario(n: int, fs: float, task_gains: np.ndarray | None = None) -> TaskModel:
    """Identity-input scenario whose analog estimate has covariance c*I.

    With task_gains supplied, the per-stream responses are scaled and the
    covariance is diag(gains^2) * c instead, breaking the isotropy. As in
    ``build_scenario``, the spectra are one flat run on a
    ``DEFAULT_GRID_POINTS`` grid, whose density enters no result.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gains = np.ones(n) if task_gains is None else np.asarray(task_gains, dtype=float)
    if gains.shape != (n,):
        raise ValueError("task_gains must have length n")
    grid = FrequencyGrid(-fs / 2.0, fs / 2.0, DEFAULT_GRID_POINTS)
    task_level = np.diag(gains)
    return TaskModel(
        task_filter=constant_spectrum(grid, task_level, kind="filter"),
        input_psd=constant_spectrum(grid, np.eye(n), kind="psd"),
    )
