"""Frequency grids, matrix-valued spectra, and alias stacking.

All spectra are sampled matrix functions of frequency on a uniform midpoint
grid.  Each grid point represents the cell of width ``spacing`` centred on it,
so sampling at an arbitrary frequency is a cell lookup (piecewise-constant),
which is exact for the flat-in-band spectra used throughout and keeps every
downstream quadrature a plain weighted sum.

Flat-in-band spectra repeat one matrix over long runs of grid rows, so every
spectrum is stored as its runs: the first row of each run (``run_starts``,
always ``row_runs`` of the dense rows) and one value per run.  A spectrum
(``SpectralMatrixFunction``) and an alias stack (``StackedSpectrum``) are
both held that way, as are a design's singular-value profiles
(``_merged_runs``), and per-frequency work (eigendecompositions, products,
alias stacking, cell lookups) runs once per run.  An alias stack looks up
the source run of its first and last base point at every shift, and of
every base point only at the shifts where those two differ
(``stack_aliases``).  Runs are found by
comparing bit patterns, with one ``flatnonzero`` over all the rows'
differences (``_run_firsts``).  The dense grid
(``values``, ``blocks``) is expanded on first use, for the consumers whose
results depend on the batch they are computed in or that need every grid
row in order.  Sums over frequency stay dense and in grid order: a band
integral forms its per-row terms once per run and gathers only them to the
grid (``StackedSpectrum.outer_diagonal_integral``), so its bits are those of
the sum over every grid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

DEFAULT_GRID_POINTS = 4096

PSD_EIG_TOL = 1e-10  # eigenvalues in [-tol*max, 0] are round-off, below is an error

_KINDS = ("psd", "cross_psd", "filter")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform midpoint grid over [f_lo, f_hi]: ``n_points`` cells of equal
    width, each sampled at its centre and weighted by its width.  A grid is
    these three numbers, so grids compare and hash by value."""

    f_lo: float
    f_hi: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.f_lo) and np.isfinite(self.f_hi)):
            raise ValueError("band edges must be finite")
        if not self.f_lo < self.f_hi:
            raise ValueError("f_lo must be below f_hi")
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")

    @property
    def spacing(self) -> float:
        return (self.f_hi - self.f_lo) / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        """The cell centres, read-only."""
        points = self.f_lo + self.spacing * (np.arange(self.n_points) + 0.5)
        points.flags.writeable = False
        return points

    @cached_property
    def weights(self) -> np.ndarray:
        """The quadrature weights: every cell's width, read-only."""
        weights = np.full(self.n_points, self.spacing)
        weights.flags.writeable = False
        return weights


@dataclass(frozen=True, init=False)
class SpectralMatrixFunction:
    """A matrix of fixed shape sampled at every grid point.

    Stored as its runs of bit-identical grid rows: the first row of each run
    (``run_starts``, always ``row_runs(values)[0]``) and one matrix per run
    (``run_values``).  The constructor takes either every grid row as
    ``values`` or, with ``run_starts``, one row per run; neighbouring runs
    with identical rows are merged.  ``values`` is the dense complex
    (n_points, rows, cols) array, expanded on first use.  ``kind`` tags the
    contract: 'psd' values must be Hermitian PSD at every frequency.
    """

    grid: FrequencyGrid
    run_starts: np.ndarray = field(repr=False)
    run_values: np.ndarray = field(repr=False)
    kind: str

    def __init__(
        self,
        grid: FrequencyGrid,
        values: np.ndarray,
        kind: str,
        run_starts: np.ndarray | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        values = _store_runs(self, "values", values, run_starts, grid.n_points)
        if kind == "psd":
            _check_psd(values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kind", kind)

    @cached_property
    def values(self) -> np.ndarray:
        """Every grid row, (n_points, rows, cols); expanded on first use."""
        return _expand_runs(self.run_values, self.run_starts, self.grid.n_points)

    @property
    def run_index(self) -> np.ndarray:
        """The run of every grid row."""
        return _run_index(self.run_starts, self.grid.n_points)

    @property
    def shape(self) -> tuple[int, int]:
        return self.run_values.shape[1], self.run_values.shape[2]

    def rows_at(self, starts: np.ndarray) -> np.ndarray:
        """The values at the first grid rows ``starts`` of finer runs."""
        return _rows_at(self.run_starts, self.run_values, starts)

    def sample(self, freqs: np.ndarray) -> np.ndarray:
        """Cell lookup at arbitrary frequencies; zero matrices outside the band."""
        freqs = np.asarray(freqs, dtype=float)
        idx, inside = _cell_lookup(self.grid, freqs)
        out = np.zeros(freqs.shape + self.shape, dtype=complex)
        out[inside] = self.run_values[self.run_index[idx[inside]]]
        return out

    def to_dict(self) -> dict:
        return {
            "grid": _grid_to_dict(self.grid),
            "shape": list(self.shape),
            "kind": self.kind,
            **_runs_to_dict(self.run_starts, self.run_values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralMatrixFunction":
        grid = _grid_from_dict(data["grid"])
        starts, values = _runs_from_dict(data, grid.n_points, tuple(data["shape"]))
        return cls(grid=grid, values=values, kind=data["kind"], run_starts=starts)


def _store_runs(
    spectrum, name: str, rows: np.ndarray, run_starts: np.ndarray | None, n_points: int
) -> np.ndarray:
    """Set ``run_starts`` and ``run_<name>`` of a spectrum given as every
    grid row (``run_starts`` None; also kept as ``<name>``) or as one row per
    run, merging neighbouring runs of identical rows; returns the run rows."""
    rows = np.asarray(rows, dtype=complex)
    if run_starts is None:
        if rows.ndim != 3 or rows.shape[0] != n_points:
            raise ValueError(f"{name} must have shape (n_points, rows, cols)")
        rows.flags.writeable = False
        object.__setattr__(spectrum, name, rows)
        run_starts = np.arange(n_points)
    run_starts = np.asarray(run_starts, dtype=int)
    _check_run_starts(run_starts, n_points)
    if rows.ndim != 3 or rows.shape[0] != run_starts.size:
        raise ValueError(f"{name} must have one row per run: (runs, rows, cols)")
    run_starts, rows = _merged_runs(run_starts, rows)
    object.__setattr__(spectrum, "run_starts", run_starts)
    object.__setattr__(spectrum, f"run_{name}", rows)
    return rows


def _cell_lookup(grid: FrequencyGrid, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cell index clipped to the grid, inside the band) of each frequency."""
    idx = np.floor((freqs - grid.f_lo) / grid.spacing).astype(int)
    idx = np.clip(idx, 0, grid.n_points - 1)
    inside = (freqs >= grid.f_lo) & (freqs <= grid.f_hi)
    return idx, inside


def _grid_to_dict(grid: FrequencyGrid) -> dict:
    return {"f_lo": grid.f_lo, "f_hi": grid.f_hi, "n": grid.n_points}


def _grid_from_dict(data: dict) -> FrequencyGrid:
    return FrequencyGrid(data["f_lo"], data["f_hi"], data["n"])


def _runs_to_dict(starts: np.ndarray, rows: np.ndarray) -> dict:
    """The JSON layout of runs: their first rows, and their values as one
    flat list in C order.  Complex entries are [re, im] pairs under
    ``values``, unless every imaginary part is +0.0 (bit for bit, so -0.0
    keeps the pairs): then only the real parts are written, under
    ``real_values``."""
    key = "values"
    if np.iscomplexobj(rows) and not (rows.imag.any() or np.signbit(rows.imag).any()):
        rows, key = rows.real, "real_values"
    values = np.ascontiguousarray(rows).view(float).ravel().tolist()
    return {"run_starts": starts.tolist(), key: values}


def _runs_from_dict(
    data: dict, n_points: int, shape: tuple, dtype: type = complex
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``_runs_to_dict``, bit for bit: (run starts, one row of
    ``shape`` per run).  One -1 in ``shape`` is inferred from the values
    length."""
    starts = np.asarray(data["run_starts"], dtype=int)
    _check_run_starts(starts, n_points)
    values = _stored_values(data, dtype)
    per_row = math.prod(d for d in shape if d != -1)
    count, rest = divmod(values.size, starts.size * per_row)
    if rest or count == 0 or (-1 not in shape and count != 1):
        raise _length_mismatch()
    shape = tuple(count if d == -1 else d for d in shape)
    return starts, values.reshape((starts.size,) + shape)


def _stored_values(data: dict, dtype: type = complex) -> np.ndarray:
    """The flat values of ``_runs_to_dict``, bit for bit.  The key names the
    layout: complex ``values`` are [re, im] pairs, ``real_values`` (complex
    rows only) the real parts alone, rebuilt with +0.0 imaginary parts;
    exactly one of the two is stored."""
    real = "real_values" in data
    if real == ("values" in data) or (real and dtype is not complex):
        raise ValueError("runs need values, or real_values for complex rows, not both")
    flat = np.asarray(data["real_values" if real else "values"], dtype=float)
    if real:
        return flat.astype(complex)
    if dtype is complex and flat.size % 2:
        raise _length_mismatch()
    return flat.view(dtype)


def _length_mismatch() -> ValueError:
    return ValueError("values length does not match the grid, runs and shape")


def _check_run_starts(starts: np.ndarray, n_points: int, name: str = "run_starts") -> None:
    bounded = starts.size > 0 and starts[0] == 0 and starts[-1] < n_points
    if not (bounded and np.all(starts[1:] > starts[:-1])):
        raise ValueError(f"{name} must rise strictly from 0 within the grid")


def _expand_runs(rows: np.ndarray, starts: np.ndarray, n_points: int) -> np.ndarray:
    """One row per run repeated over its run: the ``n_points`` grid rows,
    read-only when ``rows`` are."""
    if starts.size == n_points:
        return rows
    dense = np.repeat(rows, np.diff(starts, append=n_points), axis=0)
    dense.flags.writeable = rows.flags.writeable
    return dense


def _rows_at(run_starts: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rows of the runs at ``run_starts`` taken at ``starts``, the first rows
    of runs that refine them; a refinement of the same size is the same runs."""
    return take_rows(rows, np.searchsorted(run_starts, starts, side="right") - 1)


def _run_index(starts: np.ndarray, n_points: int) -> np.ndarray:
    """The run of every grid row, as ``row_runs`` returns it."""
    return np.repeat(np.arange(starts.size), np.diff(starts, append=n_points))


def row_runs(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of consecutive rows (axis 0) that are bit-identical in every array.

    Returns ``(starts, index)``: the first row of each run, and for every row
    the run it belongs to, so ``a[starts][index]`` reproduces each ``a``
    exactly.  Rows are compared as bit patterns, so -0.0 and 0.0 differ, and
    so do NaNs of different payloads.  Per-row work done on ``a[starts]`` and
    gathered with ``[index]`` is therefore bit-identical to the same work
    done on every row, provided a row's result does not depend on the batch
    it is computed in: true of numpy.linalg and matmul, not of every einsum.
    """
    n = arrays[0].shape[0]
    new_run = np.zeros(n, dtype=bool)
    for a in arrays:
        if a.shape[0] != n:
            raise ValueError("arrays must share the row count")
        rows = np.ascontiguousarray(a).reshape(n, -1)
        # compare bit patterns: float == would merge -0.0 with 0.0
        word = np.uint64 if rows.itemsize % 8 == 0 else np.uint8
        new_run |= _run_firsts(rows.view(word))
    starts = np.flatnonzero(new_run)
    index = np.cumsum(new_run) - 1
    return starts, index


def _run_firsts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-D array that begin a run of identical rows,
    found from the nonzeros of the whole comparison: an ``any`` over each
    row costs numpy a reduction per row, ten times as long on rows of a few
    words."""
    first = np.zeros(rows.shape[0], dtype=bool)
    first[:1] = True
    if rows.shape[1]:
        first[np.flatnonzero(rows[1:] != rows[:-1]) // rows.shape[1] + 1] = True
    return first


def _merged_runs(starts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, rows) of runs given one row per run, with neighbouring runs of
    identical rows merged, both read-only: the runs ``row_runs`` finds in
    the rows expanded to the grid."""
    keep, _ = row_runs(rows)
    starts, rows = take_rows(starts, keep), take_rows(rows, keep)
    starts.flags.writeable = rows.flags.writeable = False
    return starts, rows


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` for ``starts`` or ``index`` from :func:`row_runs`.

    Both are non-decreasing and cover every run, so a full-length one is the
    identity; then ``x`` itself is returned and nothing is copied.
    """
    return x if rows.size == x.shape[0] else x[rows]


def _check_psd(values: np.ndarray) -> None:
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
    """Spectrum equal to one matrix at every grid point (flat in band): one run."""
    matrix = np.array(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return SpectralMatrixFunction(grid=grid, values=matrix[None], kind=kind, run_starts=[0])


def multiply_spectra(
    left: SpectralMatrixFunction, right: SpectralMatrixFunction
) -> SpectralMatrixFunction:
    """Pointwise matrix product of two spectra on the same grid, one product
    per run of rows on which both are constant."""
    _check_shared_grid(left.grid, right.grid)
    if left.shape[1] != right.shape[0]:
        raise ValueError("inner matrix dimensions must agree")
    starts = np.union1d(left.run_starts, right.run_starts)
    values = left.rows_at(starts) @ right.rows_at(starts)
    return SpectralMatrixFunction(grid=left.grid, values=values, kind="filter", run_starts=starts)


def _check_shared_grid(a: FrequencyGrid, b: FrequencyGrid) -> None:
    if a != b:
        raise ValueError("spectra must share a grid")


def integrate_matrix(f: SpectralMatrixFunction) -> np.ndarray:
    """Weighted sum over the grid: the band integral of the matrix function."""
    # fixed-order reduction keeps results deterministic
    return np.einsum("i,ijk->jk", f.grid.weights, f.values)


def psd_sqrt(c: SpectralMatrixFunction) -> SpectralMatrixFunction:
    """Per-frequency Hermitian PSD square root: one eigendecomposition per run."""
    if c.kind != "psd":
        raise ValueError("psd_sqrt needs kind='psd'")
    # c passed the PSD check when it was built: negative eigenvalues are round-off
    eigvals, eigvecs = np.linalg.eigh(c.run_values)
    roots = np.sqrt(np.clip(eigvals, 0.0, None))
    values = (eigvecs * roots[:, None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    return SpectralMatrixFunction(grid=c.grid, values=values, kind="psd", run_starts=c.run_starts)


def alias_order(fs: float, f_max: float) -> int:
    """Smallest integer ups with (ups + 1/2)*fs covering the band edge f_max."""
    if fs <= 0:
        raise ValueError("fs must be positive")
    if f_max < 0:
        raise ValueError("f_max must be non-negative")
    if not math.isfinite(f_max / fs):
        raise ValueError(f"fs={fs} is too small: f_max/fs = {f_max / fs} is not finite")
    return max(0, math.ceil(f_max / fs - 0.5 - 1e-9))


def auto_grid_points(fs: float, f_max: float) -> int:
    """Baseband grid density; shrinks for alias-heavy stackings so the total
    sample count across the physical band stays roughly constant."""
    ups = alias_order(fs, f_max)
    target = DEFAULT_GRID_POINTS
    n = min(target, max(384, int(round(target * 9 / (2 * ups + 1)))))
    return n + (n % 2)


@dataclass(frozen=True, init=False)
class StackedSpectrum:
    """Horizontal concatenation of alias blocks on the baseband grid.

    Grid row j is [B(f_j + ups*fs), ..., B(f_j), ..., B(f_j - ups*fs)] where
    the k-th block (k = -ups..+ups, left to right) samples the source at
    f_j - k*fs.  With no aliasing the grid may cover only the source band,
    since every integrand built from the stack vanishes outside it.

    The stack is stored as its runs of bit-identical grid rows: the first row
    of each run (``run_starts``, always ``row_runs(blocks)[0]``) and one row
    per run (``run_blocks``).  The constructor takes either every grid row as
    ``blocks`` or, with ``run_starts``, one row per run; neighbouring runs
    with identical rows are merged.  ``blocks`` is the dense
    (n_points, rows, stacked_cols) array, expanded on first use.
    """

    base_grid: FrequencyGrid
    alias_order_: int
    run_starts: np.ndarray = field(repr=False)
    run_blocks: np.ndarray = field(repr=False)
    block_cols: int
    fs: float

    def __init__(
        self,
        base_grid: FrequencyGrid,
        alias_order_: int,
        blocks: np.ndarray,
        block_cols: int,
        fs: float | None = None,
        run_starts: np.ndarray | None = None,
    ):
        blocks = _store_runs(self, "blocks", blocks, run_starts, base_grid.n_points)
        if blocks.shape[2] != (2 * alias_order_ + 1) * block_cols:
            raise ValueError("stacked column count must equal (2*ups+1) * block_cols")
        if fs is None:
            fs = base_grid.f_hi - base_grid.f_lo
        elif fs < base_grid.f_hi - base_grid.f_lo - 1e-9 * fs:
            raise ValueError("base grid cannot exceed the baseband width fs")
        for name, value in (
            ("base_grid", base_grid), ("alias_order_", alias_order_),
            ("block_cols", block_cols), ("fs", fs),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def blocks(self) -> np.ndarray:
        """Every grid row, (n_points, rows, stacked_cols); expanded on first use."""
        return _expand_runs(self.run_blocks, self.run_starts, self.base_grid.n_points)

    @property
    def run_index(self) -> np.ndarray:
        """The run of every grid row."""
        return _run_index(self.run_starts, self.base_grid.n_points)

    @property
    def rows(self) -> int:
        return self.run_blocks.shape[1]

    @property
    def stacked_cols(self) -> int:
        return self.run_blocks.shape[2]

    def block_view(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Stacked rows (default: every grid row) with the alias axis split
        out: (n, rows, 2*ups+1, cols)."""
        rows = self.blocks if rows is None else rows
        return rows.reshape(rows.shape[:2] + (2 * self.alias_order_ + 1, self.block_cols))

    def rows_at(self, starts: np.ndarray) -> np.ndarray:
        """The rows at the first grid rows ``starts`` of runs that refine
        this stack's runs, such as ``joint_runs``."""
        return _rows_at(self.run_starts, self.run_blocks, starts)

    def sample(self, freqs: np.ndarray) -> np.ndarray:
        """Inverse of ``stack_aliases``: for nu = f + s*fs, s the nearest whole
        shift, the block of the row at f that sampled the source at nu; zero
        matrices where |s| exceeds the alias order or f is off the base grid."""
        freqs = np.asarray(freqs, dtype=float)
        shift = np.rint(freqs / self.fs)
        idx, inside = _cell_lookup(self.base_grid, freqs - shift * self.fs)
        inside &= np.abs(shift) <= self.alias_order_
        out = np.zeros(freqs.shape + (self.rows, self.block_cols), dtype=complex)
        block = (self.alias_order_ - shift[inside]).astype(int)
        out[inside] = self.block_view(self.run_blocks)[self.run_index[idx[inside]], :, block]
        return out

    def to_dict(self) -> dict:
        """Grid, row count, block width and the blocks' runs, in two axes:
        the row runs (``run_starts``) and, within each, the runs of
        bit-identical neighbouring alias blocks (``block_starts``, one list
        per row run of the blocks at which its runs begin; written only when
        some row run has fewer block runs than blocks).  The values hold each
        row run's row cut to the blocks that begin a block run, in C order,
        so without ``block_starts`` they are the rows themselves.  The alias
        order and fs are kept by the owner of the stack
        (``FilterDesign.to_dict``)."""
        blocks = self.block_view(self.run_blocks)
        first = _block_run_firsts(blocks)
        stored = blocks[np.broadcast_to(first[:, None, :, None], blocks.shape)]
        data = {
            "grid": _grid_to_dict(self.base_grid),
            "rows": self.rows,
            "block_cols": self.block_cols,
            **_runs_to_dict(self.run_starts, stored),
        }
        if not first.all():
            data["block_starts"] = [np.flatnonzero(row).tolist() for row in first]
        return data

    @classmethod
    def from_dict(cls, data: dict, alias_order_: int, fs: float) -> "StackedSpectrum":
        """Inverse of ``to_dict``, bit for bit; without ``block_starts``
        every block is its own run."""
        grid = _grid_from_dict(data["grid"])
        rows, cols, n_blocks = data["rows"], data["block_cols"], 2 * alias_order_ + 1
        starts = np.asarray(data["run_starts"], dtype=int)
        _check_run_starts(starts, grid.n_points)
        block_starts = data.get("block_starts")
        if block_starts is None:  # every block its own run
            n_stored = starts.size * n_blocks
            block_starts = [range(n_blocks)] * starts.size
        else:
            block_starts = [np.asarray(firsts, dtype=int) for firsts in block_starts]
            if len(block_starts) != starts.size:
                raise ValueError("block_starts needs one list per row run")
            for firsts in block_starts:
                _check_run_starts(firsts, n_blocks, "block_starts")
            n_stored = sum(firsts.size for firsts in block_starts)
        values = _stored_values(data)
        if values.size != rows * cols * n_stored:
            raise _length_mismatch()
        blocks = np.empty((starts.size, rows, n_blocks, cols), dtype=complex)
        offset = 0
        for run, firsts in zip(blocks, block_starts):
            stored = values[offset : offset + rows * len(firsts) * cols]
            stored = stored.reshape(rows, len(firsts), cols)
            run[:] = np.repeat(stored, np.diff(firsts, append=n_blocks), axis=1)
            offset += stored.size
        return cls(
            base_grid=grid, alias_order_=alias_order_,
            blocks=blocks.reshape(starts.size, rows, -1), block_cols=cols, fs=fs,
            run_starts=starts,
        )

    def outer_diagonal_integral(self) -> np.ndarray:
        """Band integral of the diagonal of blocks(f) @ blocks(f)^H: the
        (rows,) complex energies of the stacked rows.  The Gram product
        runs once per run and only its diagonal is gathered to the grid, so
        the sum over frequency is the grid-order sum of the full product's
        ``np.einsum("i,ijk->jk", ...)`` restricted to its diagonal, bit for
        bit."""
        b = self.run_blocks
        gram = b @ b.conj().swapaxes(-1, -2)
        diagonal = np.diagonal(gram, axis1=1, axis2=2).copy()
        diagonal = _expand_runs(diagonal, self.run_starts, self.base_grid.n_points)
        # complex weights, as einsum would cast them, spare it a buffered loop
        weights = self.base_grid.weights.astype(complex)
        return np.einsum("i,ij->j", weights, diagonal)


def _block_run_firsts(blocks: np.ndarray) -> np.ndarray:
    """(row runs, blocks) mask of the alias blocks of (runs, rows, blocks,
    cols) that begin a run of bit-identical neighbouring blocks within their
    row run; bit patterns are compared, as in ``row_runs``, so -0.0 and 0.0
    differ."""
    words = np.ascontiguousarray(blocks).view(np.uint64)
    first = np.zeros((blocks.shape[0], blocks.shape[2]), dtype=bool)
    first[:, 0] = True
    changed = words[:, :, 1:] != words[:, :, :-1]
    runs, _, block, _ = np.unravel_index(np.flatnonzero(changed), changed.shape)
    first[runs, block + 1] = True
    return first


def joint_runs(*stacks: StackedSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(starts, index) of the runs on which every stack is constant: the
    union of their run boundaries, which is ``row_runs`` of their dense rows
    taken together."""
    grid = stacks[0].base_grid
    if any(s.base_grid != grid for s in stacks):
        raise ValueError("stacks must share the baseband grid")
    starts = reduce(np.union1d, (s.run_starts for s in stacks))
    return starts, _run_index(starts, grid.n_points)


def stack_aliases(
    f: SpectralMatrixFunction,
    fs: float,
    f_max: float | None = None,
    n_points: int = DEFAULT_GRID_POINTS,
) -> StackedSpectrum:
    """Fold a spectrum onto the baseband [-fs/2, fs/2] as concatenated alias blocks.

    Out-of-band shifts sample to zero matrices.  f_max defaults to the source
    band edge.  Each (base point, shift) pair samples the source run that
    ``sample`` looks up, but few pairs are looked up: at each shift that run
    is non-decreasing in the base point, so a shift whose first and last base
    points sample the same run samples it at every base point.  The two end
    points are looked up at every shift, O(alias order) integers beside the
    O(alias order * rows * cols) stacked rows, and only the shifts at which
    they differ are looked up at every base point; base points whose lookups
    agree share one stacked row, which is built once.
    """
    grid = f.grid
    if f_max is None:
        f_max = max(abs(grid.f_lo), abs(grid.f_hi))
    ups = alias_order(fs, f_max)
    # no folding: the stack is supported on the source band only, so gridding
    # past the band edge would just sample zeros
    half = fs / 2.0 if ups > 0 else min(fs / 2.0, f_max)
    base = FrequencyGrid(-half, half, n_points)
    rows, cols = f.shape
    n_runs = f.run_starts.size

    def source_run(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """Source run sampled at base points ``points`` shifted by ``shifts``
        (broadcast): -1 below the band and n_runs above it, so non-decreasing
        in the base point and non-increasing in the shift."""
        freqs = base.points[points] - shifts * fs
        idx, inside = _cell_lookup(grid, freqs)
        runs = np.searchsorted(f.run_starts, idx, side="right") - 1
        return np.where(inside, runs, np.where(freqs < grid.f_lo, -1, n_runs))

    padded = np.concatenate([f.run_values, np.zeros((1,) + f.shape, dtype=complex)])
    try:
        # one stacked row first: numpy refuses an impossible stack before any
        # shift is looked up, and np.empty touches no page of a possible one
        np.empty((rows, 2 * ups + 1, cols), dtype=complex)
        end_runs = source_run(np.array([[0], [n_points - 1]]), np.arange(-ups, ups + 1))
        active = np.flatnonzero(end_runs[0] != end_runs[1])
        # the zero row ends the padded runs, so -1 and n_runs both index it
        ids = source_run(np.arange(n_points)[:, None], active - ups) % (n_runs + 1)
        starts = np.flatnonzero(_run_firsts(ids))
        run_ids = np.repeat(end_runs[:1] % (n_runs + 1), starts.size, axis=0)
        run_ids[:, active] = ids[starts]
        # gathered straight into (runs, rows, shift, cols)
        blocks = padded.transpose(1, 0, 2)[np.arange(rows)[:, None], run_ids[:, None, :]]
    except (MemoryError, ValueError) as exc:
        raise _too_small(fs, ups, exc) from exc
    return StackedSpectrum(
        base_grid=base, alias_order_=ups, blocks=blocks.reshape(starts.size, rows, -1),
        block_cols=cols, fs=fs, run_starts=starts,
    )


def _too_small(fs: float, ups: int, exc: Exception) -> ValueError:
    return ValueError(
        f"fs={fs!r} is too small: alias order {ups} needs {2 * ups + 1} alias "
        f"blocks per grid point, more than numpy can allocate ({exc})"
    )
