"""Frequency grids, matrix-valued spectra, and alias stacking.

All spectra are sampled matrix functions of frequency on a uniform midpoint
grid.  Each grid point represents the cell of width ``spacing`` centred on it,
so sampling at an arbitrary frequency is a cell lookup (piecewise-constant),
which is exact for the flat-in-band spectra used throughout and keeps every
downstream quadrature a plain weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GRID_POINTS = 4096

PSD_EIG_TOL = 1e-10  # eigenvalues in [-tol*max, 0] are round-off, below is an error

_KINDS = ("psd", "cross_psd", "filter")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform midpoint grid over a frequency band, with quadrature weights."""

    points: np.ndarray
    weights: np.ndarray
    f_lo: float
    f_hi: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not (np.isfinite(self.f_lo) and np.isfinite(self.f_hi)):
            raise ValueError("band edges must be finite")
        if not self.f_lo < self.f_hi:
            raise ValueError("f_lo must be below f_hi")
        if np.any(np.diff(points) <= 0):
            raise ValueError("points must be strictly increasing")
        if points[0] < self.f_lo or points[-1] > self.f_hi:
            raise ValueError("points must lie within [f_lo, f_hi]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        width = self.f_hi - self.f_lo
        if abs(weights.sum() - width) > 1e-12 * width:
            raise ValueError("weights must sum to the band width")
        points.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return (self.f_hi - self.f_lo) / self.n_points

    def is_symmetric(self) -> bool:
        """True when the band is symmetric about 0 (so f and -f pair up)."""
        tol = 1e-9 * self.spacing
        return abs(self.f_lo + self.f_hi) <= tol

    def reversal_index(self) -> np.ndarray:
        """Index array mapping each point to the point at -f (symmetric grids)."""
        if not self.is_symmetric():
            raise ValueError("grid is not symmetric about 0")
        return np.arange(self.n_points)[::-1]


def make_frequency_grid(f_lo: float, f_hi: float, n_points: int) -> FrequencyGrid:
    """Uniform midpoint grid: n_points cell centres, equal weights."""
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        raise ValueError("band edges must be finite")
    if f_lo >= f_hi:
        raise ValueError("f_lo must be below f_hi")
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    step = (f_hi - f_lo) / n_points
    points = f_lo + step * (np.arange(n_points) + 0.5)
    weights = np.full(n_points, step)
    return FrequencyGrid(points=points, weights=weights, f_lo=f_lo, f_hi=f_hi)


@dataclass(frozen=True)
class SpectralMatrixFunction:
    """A matrix of fixed shape sampled at every grid point.

    ``values`` has shape (n_points, rows, cols), complex.  ``kind`` tags the
    contract: 'psd' values must be Hermitian PSD at every frequency.
    """

    grid: FrequencyGrid
    values: np.ndarray
    kind: str
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 3 or values.shape[0] != self.grid.n_points:
            raise ValueError("values must have shape (n_points, rows, cols)")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.validate and self.kind == "psd":
            _check_psd(values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]

    def sample(self, freqs: np.ndarray) -> np.ndarray:
        """Cell lookup at arbitrary frequencies; zero matrices outside the band."""
        freqs = np.asarray(freqs, dtype=float)
        grid = self.grid
        idx = np.floor((freqs - grid.f_lo) / grid.spacing).astype(int)
        idx = np.clip(idx, 0, grid.n_points - 1)
        inside = (freqs >= grid.f_lo) & (freqs <= grid.f_hi)
        out = np.zeros(freqs.shape + self.shape, dtype=complex)
        out[inside] = self.values[idx[inside]]
        return out

    def conjugate_symmetry_error(self) -> float:
        """Max deviation of value(-f) from conj(value(f)), for real signals."""
        rev = self.grid.reversal_index()
        diff = self.values[rev] - self.values.conj()
        return float(np.abs(diff).max())

    def to_dict(self) -> dict:
        return {
            "grid": _grid_to_dict(self.grid),
            "shape": list(self.shape),
            "kind": self.kind,
            **_rows_to_dict(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralMatrixFunction":
        grid = _grid_from_dict(data["grid"])
        values = _rows_from_dict(data, grid.n_points, tuple(data["shape"]))
        return cls(grid=grid, values=values, kind=data["kind"])


def _grid_to_dict(grid: FrequencyGrid) -> dict:
    return {"f_lo": grid.f_lo, "f_hi": grid.f_hi, "n": grid.n_points}


def _grid_from_dict(data: dict) -> FrequencyGrid:
    return make_frequency_grid(data["f_lo"], data["f_hi"], data["n"])


def interleave_re_im(values: np.ndarray) -> list:
    """Flat list of an array in C order, complex entries as [re, im] pairs
    (the JSON layout); a real array flattens as it is."""
    return np.ascontiguousarray(values).view(float).ravel().tolist()


def _rows_to_dict(values: np.ndarray) -> dict:
    """A sampled array stored as its runs of identical rows: the first row of
    each run (``run_starts``) and those rows' values, flattened."""
    starts, _ = row_runs(values)
    return {
        "run_starts": starts.tolist(),
        "values": interleave_re_im(take_rows(values, starts)),
    }


def _rows_from_dict(
    data: dict, n_points: int, shape: tuple, dtype: type = complex
) -> np.ndarray:
    """Inverse of ``_rows_to_dict``, bit for bit: ``n_points`` rows of
    ``shape``.  A missing ``run_starts`` (version 1) means one run per row;
    one -1 in ``shape`` is inferred from the values length."""
    starts = np.asarray(data.get("run_starts", range(n_points)), dtype=int)
    widths = np.diff(starts, append=n_points)
    if starts.size == 0 or starts[0] != 0 or np.any(widths <= 0):
        raise ValueError("run_starts must rise strictly from 0 within the grid")
    flat = np.asarray(data["values"], dtype=float)
    per_row = math.prod(d for d in shape if d != -1) * (2 if dtype is complex else 1)
    count, rest = divmod(flat.size, starts.size * per_row)
    if rest or count == 0 or (-1 not in shape and count != 1):
        raise ValueError("values length does not match the grid, runs and shape")
    shape = tuple(count if d == -1 else d for d in shape)
    return np.repeat(flat.view(dtype).reshape((starts.size,) + shape), widths, axis=0)


def row_runs(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of consecutive rows (axis 0) that are bit-identical in every array.

    Returns ``(starts, index)``: the first row of each run, and for every row
    the run it belongs to, so ``a[starts][index]`` reproduces each ``a``
    exactly.  Per-row work done on ``a[starts]`` and gathered with ``[index]``
    is therefore bit-identical to the same work done on every row, provided
    a row's result does not depend on the batch it is computed in: true of
    numpy.linalg and matmul, not of every einsum.
    """
    n = arrays[0].shape[0]
    new_run = np.zeros(n, dtype=bool)
    new_run[:1] = True
    for a in arrays:
        if a.shape[0] != n:
            raise ValueError("arrays must share the row count")
        rows = np.ascontiguousarray(a).reshape(n, -1)
        # compare bit patterns: float == would merge -0.0 with 0.0
        word = np.uint64 if rows.itemsize % 8 == 0 else np.uint8
        rows = rows.view(word)
        new_run[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    index = np.cumsum(new_run) - 1
    return starts, index


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` for ``starts`` or ``index`` from :func:`row_runs`.

    Both are non-decreasing and cover every run, so a full-length one is the
    identity; then ``x`` itself is returned and nothing is copied.
    """
    return x if rows.size == x.shape[0] else x[rows]


def _check_psd(values: np.ndarray) -> None:
    starts, _ = row_runs(values)
    values = take_rows(values, starts)
    herm_err = np.abs(values - values.conj().swapaxes(-1, -2)).max()
    scale = max(np.abs(values).max(), 1.0)
    if herm_err > 1e-9 * scale:
        raise ValueError("psd values must be Hermitian")
    eigs = np.linalg.eigvalsh(values)
    lo = eigs[:, 0]
    hi = eigs[:, -1]
    bad = lo < -PSD_EIG_TOL * np.maximum(hi, 0.0) - 1e-300
    if np.any(bad):
        raise ValueError("psd values must be positive semi-definite")


def constant_spectrum(
    grid: FrequencyGrid, matrix: np.ndarray, kind: str = "psd"
) -> SpectralMatrixFunction:
    """Spectrum equal to one matrix at every grid point (flat in band)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    values = np.broadcast_to(matrix, (grid.n_points,) + matrix.shape).copy()
    return SpectralMatrixFunction(grid=grid, values=values, kind=kind)


def multiply_spectra(
    left: SpectralMatrixFunction, right: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Pointwise matrix product of two spectra on the same grid."""
    if left.grid.n_points != right.grid.n_points or not np.allclose(
        left.grid.points, right.grid.points
    ):
        raise ValueError("spectra must share a grid")
    if left.shape[1] != right.shape[0]:
        raise ValueError("inner matrix dimensions must agree")
    values = left.values @ right.values
    return SpectralMatrixFunction(grid=left.grid, values=values, kind="filter")


def integrate_matrix(f: SpectralMatrixFunction) -> np.ndarray:
    """Weighted sum over the grid: the band integral of the matrix function."""
    # fixed-order reduction keeps results deterministic
    return np.einsum("i,ijk->jk", f.grid.weights, f.values)


def psd_sqrt(c: SpectralMatrixFunction) -> SpectralMatrixFunction:
    """Per-frequency Hermitian PSD square root via eigendecomposition."""
    if c.kind != "psd":
        raise ValueError("psd_sqrt needs kind='psd'")
    starts, index = row_runs(c.values)
    eigvals, eigvecs = np.linalg.eigh(take_rows(c.values, starts))
    top = np.maximum(eigvals[:, -1], 0.0)
    if np.any(eigvals < -PSD_EIG_TOL * top[:, None] - 1e-300):
        raise ValueError("matrix is not PSD within tolerance")
    clipped = np.clip(eigvals, 0.0, None)
    roots = np.sqrt(clipped)
    values = (eigvecs * roots[:, None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    return SpectralMatrixFunction(
        grid=c.grid, values=take_rows(values, index), kind="psd", validate=False
    )


def alias_order(fs: float, f_max: float) -> int:
    """Smallest integer ups with (ups + 1/2)*fs covering the band edge f_max."""
    if fs <= 0:
        raise ValueError("fs must be positive")
    if f_max < 0:
        raise ValueError("f_max must be non-negative")
    return max(0, math.ceil(f_max / fs - 0.5 - 1e-9))


@dataclass(frozen=True)
class StackedSpectrum:
    """Horizontal concatenation of alias blocks on the baseband grid.

    blocks[j] = [B(f_j + ups*fs), ..., B(f_j), ..., B(f_j - ups*fs)] where the
    k-th block (k = -ups..+ups, left to right) samples the source at f_j - k*fs.
    With no aliasing the grid may cover only the source band, since every
    integrand built from the stack vanishes outside it.
    """

    base_grid: FrequencyGrid
    alias_order_: int
    blocks: np.ndarray
    block_cols: int
    fs: float | None = None

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        n_blocks = 2 * self.alias_order_ + 1
        if blocks.ndim != 3 or blocks.shape[0] != self.base_grid.n_points:
            raise ValueError("blocks must have shape (n_points, rows, stacked_cols)")
        if blocks.shape[2] != n_blocks * self.block_cols:
            raise ValueError("stacked column count must equal (2*ups+1) * block_cols")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        if self.fs is None:
            object.__setattr__(self, "fs", self.base_grid.f_hi - self.base_grid.f_lo)
        elif self.fs < self.base_grid.f_hi - self.base_grid.f_lo - 1e-9 * self.fs:
            raise ValueError("base grid cannot exceed the baseband width fs")

    @property
    def rows(self) -> int:
        return self.blocks.shape[1]

    @property
    def stacked_cols(self) -> int:
        return self.blocks.shape[2]

    def block_view(self) -> np.ndarray:
        """View with the alias axis split out: (n_points, rows, 2*ups+1, cols)."""
        n, r, _ = self.blocks.shape
        return self.blocks.reshape(n, r, 2 * self.alias_order_ + 1, self.block_cols)

    def to_dict(self) -> dict:
        """Grid, row count, block width and the blocks' runs; the alias order
        and fs are kept by the owner of the stack (``FilterDesign.to_dict``)."""
        return {
            "grid": _grid_to_dict(self.base_grid),
            "rows": self.rows,
            "block_cols": self.block_cols,
            **_rows_to_dict(self.blocks),
        }

    @classmethod
    def from_dict(cls, data: dict, alias_order_: int, fs: float) -> "StackedSpectrum":
        """Inverse of ``to_dict``; without ``rows`` (version 1) the row count
        follows from the values length."""
        grid = _grid_from_dict(data["grid"])
        cols = (2 * alias_order_ + 1) * data["block_cols"]
        blocks = _rows_from_dict(data, grid.n_points, (data.get("rows", -1), cols))
        return cls(
            base_grid=grid, alias_order_=alias_order_, blocks=blocks,
            block_cols=data["block_cols"], fs=fs,
        )

    def outer_integral(self) -> np.ndarray:
        """Band integral of blocks(f) @ blocks(f)^H, a rows x rows matrix."""
        starts, index = row_runs(self.blocks)
        b = take_rows(self.blocks, starts)
        prod = take_rows(b @ b.conj().swapaxes(-1, -2), index)
        return np.einsum("i,ijk->jk", self.base_grid.weights, prod)


def stack_aliases(
    f: SpectralMatrixFunction,
    fs: float,
    f_max: float | None = None,
    n_points: int = DEFAULT_GRID_POINTS,
) -> StackedSpectrum:
    """Fold a spectrum onto the baseband [-fs/2, fs/2] as concatenated alias blocks.

    Out-of-band shifts sample to zero matrices.  f_max defaults to the source
    band edge.
    """
    if f_max is None:
        f_max = max(abs(f.grid.f_lo), abs(f.grid.f_hi))
    ups = alias_order(fs, f_max)
    # no folding: the stack is supported on the source band only, so gridding
    # past the band edge would just sample zeros
    half = fs / 2.0 if ups > 0 else min(fs / 2.0, f_max)
    base = make_frequency_grid(-half, half, n_points)
    rows, cols = f.shape
    n_blocks = 2 * ups + 1
    blocks = np.empty((n_points, rows, n_blocks * cols), dtype=complex)
    for i, k in enumerate(range(-ups, ups + 1)):
        blocks[:, :, i * cols : (i + 1) * cols] = f.sample(base.points - k * fs)
    return StackedSpectrum(
        base_grid=base, alias_order_=ups, blocks=blocks, block_cols=cols, fs=fs
    )
