"""Quantum potential of particle-density fields.

The hydrodynamic picture treats the squared wave-function modulus
n = |Psi|^2 as a fluid density whose curvature carries an elastic-like
energy, the quantum potential

    V_qu = -(hbar^2/2m) * laplacian(sqrt(n)) / sqrt(n).

This module evaluates it analytically for sinusoidal modes and
numerically on uniform grids with second-order central differences, plus
the relativistic wave-operator variant

    V_qu = -(hbar^2/m) * ((1/c^2) d^2/dt^2 - laplacian)(sqrt(n)) / sqrt(n)

whose closed form on a traveling mode of wavelength lambda and speed v is
-(hbar^2/m)(2*pi/lambda)^2 (1 - v^2/c^2); it vanishes identically for a
lightlike (v = c) mode.  Note the two conventions do not agree: the
density-curvature form is positive for cosine modes while the wave-operator
form is negative for every subluminal traveling mode.  Both are exposed
exactly as defined, without reconciliation.

Differences always act on sqrt(n), never on n, so a constant amplitude
factor cancels exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, SingularDensity

#: Evaluation points with density below this fraction of the grid maximum
#: are treated as nodes (where V_qu genuinely diverges).
SINGULAR_FRACTION = 1e-12

#: Minimum number of samples per spatial axis.
MIN_SAMPLES = 8


@dataclass(frozen=True)
class GridDensity:
    """Sampled particle density n(q) on a uniform grid.

    ``values`` holds non-negative samples; with ``time_axis`` set, axis 0
    enumerates time slices and the remaining axes are spatial.  ``spacing``
    is the common spatial grid step (m).  ``dims`` is the number of
    spatial dimensions (1 or 3).
    """

    values: np.ndarray
    spacing: float
    dims: int = 1
    periodic: bool = False
    time_axis: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if self.dims not in (1, 3):
            raise DomainError("dims must be 1 or 3")
        expected_ndim = self.dims + (1 if self.time_axis else 0)
        if arr.ndim != expected_ndim:
            raise DomainError(
                f"values must have {expected_ndim} axes for dims={self.dims}, "
                f"time_axis={self.time_axis}; got {arr.ndim}"
            )
        if not self.spacing > 0.0:
            raise DomainError("spacing must be > 0")
        if not np.all(np.isfinite(arr)):
            raise DomainError("density samples must be finite")
        if np.any(arr < 0.0):
            raise DomainError("density samples must be >= 0")
        spatial_shape = arr.shape[1:] if self.time_axis else arr.shape
        if any(ns < MIN_SAMPLES for ns in spatial_shape):
            raise DomainError(f"need at least {MIN_SAMPLES} samples per spatial axis")

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.values.ndim)) if self.time_axis else tuple(range(self.values.ndim))


@dataclass(frozen=True)
class TravelingMode:
    """Sinusoidal density mode sqrt(n) ~ cos((2*pi/wavelength)(q - v t)).

    ``velocity_ratio`` is v/c in [0, 1]; a massless mode must travel at
    exactly v = c.
    """

    wavelength: float
    velocity_ratio: float
    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise DomainError("wavelength must be finite and > 0")
        if not 0.0 <= self.velocity_ratio <= 1.0:
            raise DomainError("velocity_ratio must lie in [0, 1]")
        if self.mass < 0.0:
            raise DomainError("mass must be >= 0")
        if self.mass == 0.0 and self.velocity_ratio != 1.0:
            raise DomainError("a massless mode requires velocity_ratio == 1")


def vqu_sinusoid(wavelength: float, mass: float) -> float:
    """Quantum potential of a static sinusoidal mode: (hbar^2/2m)(2*pi/lambda)^2.

    The energy grows as the inverse square of the wavelength, which is what
    suppresses short-wavelength vacuum fluctuations.
    """
    if not wavelength > 0.0:
        raise DomainError("wavelength must be > 0")
    if not mass > 0.0:
        raise DomainError("mass must be > 0")
    k = 2.0 * math.pi / wavelength
    return (CONSTANTS.hbar**2 / (2.0 * mass)) * k**2


def vqu_traveling(mode: TravelingMode) -> float:
    """Wave-operator quantum potential of a traveling mode.

    Massive: -(hbar^2/m)(2*pi/lambda)^2 (1 - (v/c)^2).  Massless (v = c):
    exactly 0, the lightlike mode is annihilated by the wave operator.
    """
    if mode.mass == 0.0:
        return 0.0
    k = 2.0 * math.pi / mode.wavelength
    return -(CONSTANTS.hbar**2 / mode.mass) * k**2 * (1.0 - mode.velocity_ratio**2)


def _second_difference(arr: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """Central second difference along ``axis``; NaN on the boundary when
    the axis is not periodic."""
    if periodic:
        return (np.roll(arr, -1, axis) - 2.0 * arr + np.roll(arr, 1, axis)) / h**2
    out = np.full_like(arr, np.nan)
    mid = [slice(None)] * arr.ndim
    up = [slice(None)] * arr.ndim
    dn = [slice(None)] * arr.ndim
    mid[axis] = slice(1, -1)
    up[axis] = slice(2, None)
    dn[axis] = slice(None, -2)
    out[tuple(mid)] = (arr[tuple(up)] - 2.0 * arr[tuple(mid)] + arr[tuple(dn)]) / h**2
    return out


def _check_singular(values: np.ndarray, eval_mask: np.ndarray) -> None:
    threshold = SINGULAR_FRACTION * float(values.max(initial=0.0))
    bad = eval_mask & (values < threshold)
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularDensity(index)


def vqu_grid_nonrel(density: GridDensity, mass: float) -> np.ndarray:
    """Quantum potential -(hbar^2/2m) laplacian(sqrt(n))/sqrt(n) on a grid.

    Evaluated with second-order central differences at every grid point of
    a periodic grid, or at interior points otherwise (boundary entries are
    NaN).  Raises SingularDensity if the density at an evaluation point is
    below ``SINGULAR_FRACTION`` of the grid maximum.
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise DomainError("mass must be finite and > 0")
    if density.time_axis:
        raise DomainError("density has a time axis; use vqu_grid_dalembert")
    s = np.sqrt(density.values)
    lap = np.zeros_like(s)
    for axis in density.spatial_axes:
        lap = lap + _second_difference(s, density.spacing, axis, density.periodic)
    eval_mask = np.isfinite(lap)
    _check_singular(density.values, eval_mask)
    out = np.full_like(s, np.nan)
    out[eval_mask] = (
        -(CONSTANTS.hbar**2 / (2.0 * mass)) * lap[eval_mask] / s[eval_mask]
    )
    return out


def vqu_grid_dalembert(density: GridDensity, mass: float, dt: float) -> np.ndarray:
    """Wave-operator quantum potential on a spacetime grid.

    Applies -(hbar^2/m) ((1/c^2) d^2/dt^2 - laplacian) sqrt(n) / sqrt(n)
    with central differences; axis 0 of ``density.values`` is time with
    step ``dt``.  Only interior time slices are evaluated (NaN elsewhere,
    as for spatial boundaries of non-periodic grids).
    """
    if not (math.isfinite(mass) and mass > 0.0):
        raise DomainError("mass must be finite and > 0")
    if not density.time_axis:
        raise DomainError("density lacks a time axis; use vqu_grid_nonrel")
    if density.values.shape[0] < 3:
        raise DomainError("need at least 3 time slices")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError("dt must be finite and > 0")
    s = np.sqrt(density.values)
    d2t = _second_difference(s, dt, 0, periodic=False)
    lap = np.zeros_like(s)
    for axis in density.spatial_axes:
        lap = lap + _second_difference(s, density.spacing, axis, density.periodic)
    box = d2t / CONSTANTS.c**2 - lap
    eval_mask = np.isfinite(box)
    _check_singular(density.values, eval_mask)
    out = np.full_like(s, np.nan)
    out[eval_mask] = -(CONSTANTS.hbar**2 / mass) * box[eval_mask] / s[eval_mask]
    return out


def _integrate(arr: np.ndarray, h: float, periodic: bool) -> float:
    """Integral over all axes of ``arr``: rectangle rule for periodic data
    (exact on the closed loop), trapezoid otherwise."""
    if periodic:
        return float(arr.sum()) * h**arr.ndim
    out = arr
    for axis in reversed(range(arr.ndim)):
        out = np.trapezoid(out, dx=h, axis=axis)
    return float(out)


def _weighted_mean(n_region: np.ndarray, v_region: np.ndarray, h: float, periodic: bool) -> float:
    norm = _integrate(n_region, h, periodic)
    if not norm > 0.0:
        raise DomainError("density integrates to zero over the evaluated region")
    return _integrate(n_region * v_region, h, periodic) / norm


def mean_qp_energy(density: GridDensity, mass: float) -> float:
    """Density-weighted quantum-potential energy, integral of n * V_qu.

    The density is normalized to unit integral over the evaluated region
    first (it plays the role of a probability density), so the result for
    a mode with constant V_qu is that constant.
    """
    if density.time_axis:
        raise DomainError("density has a time axis; use mean_qp_energy_dalembert")
    vqu = vqu_grid_nonrel(density, mass)
    if density.periodic:
        n_region = density.values
        v_region = vqu
    else:
        interior = tuple(slice(1, -1) for _ in range(density.values.ndim))
        n_region = density.values[interior]
        v_region = vqu[interior]
    return _weighted_mean(n_region, v_region, density.spacing, density.periodic)


def mean_qp_energy_dalembert(density: GridDensity, mass: float, dt: float) -> float:
    """Density-weighted wave-operator quantum-potential energy.

    Each interior time slice is averaged spatially with its own density as
    weight (normalized per slice); the slice means are then averaged over
    time.
    """
    vqu = vqu_grid_dalembert(density, mass, dt)
    slice_means = []
    for i in range(1, density.values.shape[0] - 1):
        n_slice = density.values[i]
        v_slice = vqu[i]
        if not density.periodic:
            interior = tuple(slice(1, -1) for _ in range(n_slice.ndim))
            n_slice = n_slice[interior]
            v_slice = v_slice[interior]
        slice_means.append(_weighted_mean(n_slice, v_slice, density.spacing, density.periodic))
    return float(np.mean(slice_means))


# ---------------------------------------------------------------------------
# CSV ingestion

class ParsedDensity(NamedTuple):
    """Result of CSV ingestion: the grid, the time step when a time axis
    is present, and the coordinate of the first sample per axis."""

    density: GridDensity
    dt: float | None
    origin: tuple[float, ...]


_HEADERS_1D = ("q", "n")
_HEADERS_1D_TIME = ("t", "q", "n")
_HEADERS_3D = ("qx", "qy", "qz", "n")
_HEADERS = (_HEADERS_1D, _HEADERS_1D_TIME, _HEADERS_3D)

#: Relative tolerance for the uniform-spacing check of ingested grids.
SPACING_RTOL = 1e-9


def _uniform_step(coords: np.ndarray, label: str) -> float:
    if not np.all(np.isfinite(coords)):
        raise DomainError(f"column {label!r} must hold finite coordinates")
    diffs = np.diff(coords)
    if diffs.size == 0:
        raise DomainError(f"column {label!r} needs at least 2 distinct values")
    step = float(diffs.mean())
    if not step > 0.0:
        raise DomainError(f"column {label!r} must be strictly ascending")
    if np.max(np.abs(diffs - step)) > SPACING_RTOL * abs(step):
        raise DomainError(f"column {label!r} is not uniformly spaced (tolerance {SPACING_RTOL:g} relative)")
    return step


def _read_rows(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and data table of a density CSV, read with the ``csv`` module
    and ``float()``.

    This is the reference reader: it skips ``#`` comment lines and blank
    rows, accepts quoted cells and every literal ``float()`` accepts, and
    words the row-numbered errors for malformed files.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise DomainError(f"{path}: empty density file")
    header = tuple(c.strip() for c in rows[0])
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DomainError(f"{path}: malformed row {lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise DomainError(f"{path}: malformed row {lineno}: {','.join(row)!r}") from None
    if not data:
        raise DomainError(f"{path}: no data rows")
    return header, np.asarray(data, dtype=float)


def _read_table(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and data table of a density CSV.

    A file whose first line is a recognized header and whose body numpy's
    C reader parses into as many columns is read by that reader, which
    yields the same doubles as ``float()``.  Every other file (comments,
    quoted cells, literals only ``float()`` accepts, malformed rows) goes
    to ``_read_rows``, which also reports the errors.
    """
    with open(path, newline="") as fh:
        header = tuple(c.strip() for c in fh.readline().split(","))
        if header in _HEADERS:
            body = fh.tell()
            # An empty body would make loadtxt warn instead of raise.
            if fh.readline().strip():
                fh.seek(body)
                try:
                    table = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
                except ValueError:
                    pass
                else:
                    if table.shape[1] == len(header):
                        return header, table
    return _read_rows(path)


def read_density_csv(path: str) -> ParsedDensity:
    """Read a density grid from CSV.

    Recognized layouts (header row required):
      * ``q,n``          1-D grid
      * ``t,q,n``        1-D grid with a leading time axis (rows t-major)
      * ``qx,qy,qz,n``   3-D row-major lattice (qz fastest)

    ``#`` lines are full-line comments, cells may be quoted, and numbers
    are read to the exact double ``float()`` gives.  Returns a
    ParsedDensity carrying the grid, the time step (``t,q,n`` layout only)
    and the first coordinate per axis.  Grids are returned non-periodic;
    callers may flip the flag via ``dataclasses.replace``.
    """
    header, table = _read_table(path)

    if header == _HEADERS_1D:
        spacing = _uniform_step(table[:, 0], "q")
        density = GridDensity(table[:, 1], spacing, dims=1)
        return ParsedDensity(density, None, (float(table[0, 0]),))

    if header == _HEADERS_1D_TIME:
        t_vals = np.unique(table[:, 0])
        n_t = t_vals.size
        if n_t < 2:
            raise DomainError(f"{path}: time axis needs at least 2 slices")
        if table.shape[0] % n_t:
            raise DomainError(f"{path}: rows do not form a complete (t, q) lattice")
        n_q = table.shape[0] // n_t
        t_col = table[:, 0].reshape(n_t, n_q)
        q_col = table[:, 1].reshape(n_t, n_q)
        if np.any(t_col != t_col[:, :1]) or np.any(q_col != q_col[:1, :]):
            raise DomainError(f"{path}: rows must be t-major with identical q per slice")
        dt = _uniform_step(t_col[:, 0], "t")
        spacing = _uniform_step(q_col[0], "q")
        values = table[:, 2].reshape(n_t, n_q)
        density = GridDensity(values, spacing, dims=1, time_axis=True)
        return ParsedDensity(density, dt, (float(t_col[0, 0]), float(q_col[0, 0])))

    if header == _HEADERS_3D:
        axes = [np.unique(table[:, i]) for i in range(3)]
        shape = tuple(a.size for a in axes)
        if table.shape[0] != math.prod(shape):
            raise DomainError(f"{path}: rows do not form a complete lattice of shape {shape}")
        grids = np.meshgrid(*axes, indexing="ij")
        for i, label in enumerate(("qx", "qy", "qz")):
            if not np.array_equal(table[:, i].reshape(shape), grids[i]):
                raise DomainError(f"{path}: rows are not in row-major ({label} order) lattice layout")
        steps = [_uniform_step(a, label) for a, label in zip(axes, ("qx", "qy", "qz"))]
        if max(steps) - min(steps) > SPACING_RTOL * max(steps):
            raise DomainError(f"{path}: axes have unequal spacing; a single grid step is required")
        density = GridDensity(table[:, 3].reshape(shape), steps[0], dims=3)
        return ParsedDensity(density, None, tuple(float(a[0]) for a in axes))

    raise DomainError(
        f"{path}: unrecognized header {','.join(header)!r}; expected q,n or t,q,n or qx,qy,qz,n"
    )
