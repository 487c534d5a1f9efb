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

The points V_qu is evaluated at are decided in one place, ``_region``:
the interior time slices, and the interior of each spatial axis, or all
of it when the grid is periodic.  The stencil takes sqrt(n) once, wrapped
by one point at both ends of each axis the region covers whole, so the
region is the interior of every axis of that wrapped grid and each
neighbour is a view of it.  The singular-density check and the weighted
means work on the same region; the public grid functions return it
padded with NaN to the grid's shape.
"""

from __future__ import annotations

import csv
import lzma
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, SingularDensity, _owned_readonly, finite, positive

#: Evaluation points with zero density, or density below this fraction of
#: the grid maximum, are treated as nodes (where V_qu genuinely diverges).
SINGULAR_FRACTION = 1e-12

#: Minimum number of samples per spatial axis.
MIN_SAMPLES = 8


@dataclass(frozen=True)
class GridDensity:
    """Sampled particle density n(q) on a uniform grid.

    ``values`` holds non-negative samples; with ``time_axis`` set, axis 0
    enumerates time slices and the remaining axes are spatial.  ``spacing``
    is the common spatial grid step (m).  ``dims``, the number of spatial
    axes (1 or 3), is read from the array.
    """

    values: np.ndarray
    spacing: float
    periodic: bool = False
    time_axis: bool = False

    def __post_init__(self):
        arr = _owned_readonly(self.values)
        object.__setattr__(self, "values", arr)
        if self.dims not in (1, 3):
            raise DomainError(f"values must have 1 or 3 spatial axes (time_axis={self.time_axis}); got {self.dims}")
        positive("spacing", self.spacing)
        if not np.all(np.isfinite(arr)):
            raise DomainError("density samples must be finite")
        if np.any(arr < 0.0):
            raise DomainError("density samples must be >= 0")
        if any(arr.shape[axis] < MIN_SAMPLES for axis in self.spatial_axes):
            raise DomainError(f"need at least {MIN_SAMPLES} samples per spatial axis")

    @property
    def dims(self) -> int:
        return self.values.ndim - self.time_axis

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(self.time_axis, self.values.ndim))


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
        positive("wavelength", self.wavelength)
        if not 0.0 <= self.velocity_ratio <= 1.0:
            raise DomainError("velocity_ratio must lie in [0, 1]")
        if not 0.0 <= self.mass < math.inf:
            raise DomainError("mass must be finite and >= 0")
        if self.mass == 0.0 and self.velocity_ratio != 1.0:
            raise DomainError("a massless mode requires velocity_ratio == 1")


def vqu_sinusoid(wavelength: float, mass: float) -> float:
    """Quantum potential of a static sinusoidal mode: (hbar^2/2m)(2*pi/lambda)^2.

    The energy grows as the inverse square of the wavelength, which is what
    suppresses short-wavelength vacuum fluctuations.
    """
    k = 2.0 * math.pi / positive("wavelength", wavelength)
    positive("mass", mass)
    return finite("V_qu", lambda: (CONSTANTS.hbar**2 / (2.0 * mass)) * k**2)


def vqu_traveling(mode: TravelingMode) -> float:
    """Wave-operator quantum potential of a traveling mode.

    Massive: -(hbar^2/m)(2*pi/lambda)^2 (1 - (v/c)^2).  Massless (v = c):
    exactly 0, the lightlike mode is annihilated by the wave operator.
    """
    if mode.mass == 0.0:
        return 0.0
    k = 2.0 * math.pi / mode.wavelength
    return finite("V_qu", lambda: -(CONSTANTS.hbar**2 / mode.mass) * k**2 * (1.0 - mode.velocity_ratio**2))


def _region(density: GridDensity) -> tuple[slice, ...]:
    """Index of the grid points V_qu is evaluated at: the interior time
    slices, and on each spatial axis the interior points, or every point
    when the grid is periodic."""
    spatial = slice(None) if density.periodic else slice(1, -1)
    return tuple(
        slice(1, -1) if density.time_axis and axis == 0 else spatial
        for axis in range(density.values.ndim)
    )


def _second_difference(s: np.ndarray, axis: int, h: float, name: str) -> np.ndarray:
    """Central second difference along ``axis`` at the interior points of
    every axis of ``s``, whose neighbours on each axis are views of ``s``.
    ``name`` names the step ``h`` in the DomainError raised where h**2
    leaves the double range, by overflow or by an underflow below the
    smallest normal double, where dividing by it would overflow.
    """
    h2 = finite(f"{name}^2", lambda: h**2 if h**2 >= sys.float_info.min else math.inf)
    s = s[tuple(slice(None) if a == axis else slice(1, -1) for a in range(s.ndim))]
    lead = (slice(None),) * axis
    return (s[lead + (slice(2, None),)] - 2.0 * s[lead + (slice(1, -1),)] + s[lead + (slice(None, -2),)]) / h2


def _vqu_grid(density: GridDensity, coef: float, dt: float | None = None) -> np.ndarray:
    """-coef * D(sqrt(n)) / sqrt(n) on ``_region(density)`` and NaN off it,
    where D is the Laplacian, or (1/c^2) d^2/dt^2 minus the Laplacian when
    ``dt`` is given.

    Raises SingularDensity, with the full-grid index, at the first region
    point whose density is zero or below ``SINGULAR_FRACTION`` of the grid
    maximum (an all-zero grid is singular at its first region point).
    """
    region = _region(density)
    threshold = SINGULAR_FRACTION * float(density.values.max(initial=0.0))
    n = density.values[region]
    bad = (n <= 0.0) | (n < threshold)
    if np.any(bad):
        first = np.argwhere(bad)[0]
        raise SingularDensity(tuple(int(i) + (r.start or 0) for i, r in zip(first, region)))
    # np.pad copies, so the root is taken in place.
    s = np.pad(density.values, [(1, 1) if r == slice(None) else (0, 0) for r in region], mode="wrap")
    np.sqrt(s, out=s)
    op = sum(_second_difference(s, axis, density.spacing, "spacing") for axis in density.spatial_axes)
    if dt is not None:
        op = _second_difference(s, 0, dt, "dt") / CONSTANTS.c**2 - op
    out = np.full_like(density.values, np.nan)
    out[region] = -coef * op / s[(slice(1, -1),) * s.ndim]
    return out


def vqu_grid_nonrel(density: GridDensity, mass: float) -> np.ndarray:
    """Quantum potential -(hbar^2/2m) laplacian(sqrt(n))/sqrt(n) on a grid.

    Evaluated with second-order central differences at every grid point of
    a periodic grid, or at interior points otherwise (boundary entries are
    NaN).  Raises SingularDensity if the density at an evaluation point is
    zero or below ``SINGULAR_FRACTION`` of the grid maximum.
    """
    positive("mass", mass)
    if density.time_axis:
        raise DomainError("density has a time axis; use the _dalembert form")
    return _vqu_grid(density, CONSTANTS.hbar**2 / (2.0 * mass))


def vqu_grid_dalembert(density: GridDensity, mass: float, dt: float) -> np.ndarray:
    """Wave-operator quantum potential on a spacetime grid.

    Applies -(hbar^2/m) ((1/c^2) d^2/dt^2 - laplacian) sqrt(n) / sqrt(n)
    with central differences; axis 0 of ``density.values`` is time with
    step ``dt``.  Only interior time slices are evaluated (NaN elsewhere,
    as for spatial boundaries of non-periodic grids).
    """
    positive("mass", mass)
    if not density.time_axis:
        raise DomainError("density lacks a time axis; use vqu_grid_nonrel")
    if density.values.shape[0] < 3:
        raise DomainError("need at least 3 time slices")
    positive("dt", dt)
    return _vqu_grid(density, CONSTANTS.hbar**2 / mass, dt)


def _integrate(arr: np.ndarray, axes: tuple[int, ...], h: float, periodic: bool) -> np.ndarray:
    """Integral of ``arr`` over ``axes``: rectangle rule for periodic data
    (exact on the closed loop), trapezoid otherwise.  Either refuses a step
    whose power h**len(axes) overflows."""
    volume = finite(f"spacing^{len(axes)}", lambda: h**len(axes))
    if periodic:
        return arr.sum(axis=axes) * volume
    for axis in reversed(axes):
        arr = np.trapezoid(arr, dx=h, axis=axis)
    return arr


def _region_mean(density: GridDensity, vqu: np.ndarray) -> float:
    """Mean over time slices of the density-weighted spatial mean of V_qu,
    both taken over ``_region(density)``; a grid without a time axis is
    one slice."""
    region = _region(density)
    n = density.values[region]
    axes = density.spatial_axes
    norm = _integrate(n, axes, density.spacing, density.periodic)
    if not np.all(norm > 0.0):
        raise DomainError("density integrates to zero over the evaluated region")
    return float(np.mean(_integrate(n * vqu[region], axes, density.spacing, density.periodic) / norm))


def mean_qp_energy(density: GridDensity, mass: float) -> float:
    """Density-weighted quantum-potential energy, integral of n * V_qu.

    The density is normalized to unit integral over the evaluated region
    first (it plays the role of a probability density), so the result for
    a mode with constant V_qu is that constant.
    """
    return _region_mean(density, vqu_grid_nonrel(density, mass))


def mean_qp_energy_dalembert(density: GridDensity, mass: float, dt: float) -> float:
    """Density-weighted wave-operator quantum-potential energy.

    Each interior time slice is averaged spatially with its own density as
    weight (normalized per slice); the slice means are then averaged over
    time.
    """
    return _region_mean(density, vqu_grid_dalembert(density, mass, dt))


# ---------------------------------------------------------------------------
# CSV ingestion

class ParsedDensity(NamedTuple):
    """Result of CSV ingestion: the grid, the time step when a time axis
    is present, and the coordinate of the first sample per axis."""

    density: GridDensity
    dt: float | None
    origin: tuple[float, ...]


#: Recognized headers: the coordinate columns, then the density ``n``.
_HEADERS = (("q", "n"), ("t", "q", "n"), ("qx", "qy", "qz", "n"))

#: Relative tolerance for the uniform-spacing check of ingested grids.
SPACING_RTOL = 1e-9


def _uniform_step(axis: np.ndarray, label: str, path: str) -> float:
    """Step of an axis of sorted distinct finite values, which must be
    uniform and span less than the double range."""
    if axis.size < 2:
        raise DomainError(f"{path}: column {label!r} needs at least 2 distinct values")
    with np.errstate(over="ignore"):
        diffs = np.diff(axis)
        step = float(diffs.mean())
    if not math.isfinite(step):
        raise DomainError(f"{path}: column {label!r} spans more than the double range")
    if np.max(np.abs(diffs - step)) > SPACING_RTOL * abs(step):
        raise DomainError(f"{path}: column {label!r} is not uniformly spaced (tolerance {SPACING_RTOL:g} relative)")
    return step


def _read_rows(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and data table of a density CSV, read with the ``csv`` module
    and ``float()``.

    This is the reference reader: it skips ``#`` comment lines and blank
    rows, accepts quoted cells and every literal ``float()`` accepts, and
    words the errors for malformed files (row-numbered, or naming a file
    that is not UTF-8 text).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
    quoted cells, literals only ``float()`` accepts, malformed rows, bytes
    that are not UTF-8) goes to ``_read_rows``, which also reports the
    errors.

    ``np.loadtxt`` gets the path, not an open handle: only from a path
    does it read the file in chunks in C; from a handle it takes one
    Python string per line.  The path is made absolute because numpy
    opens a name that parses as ``scheme://host/...`` as a URL.  numpy also
    opens ``*.gz``, ``*.bz2`` and ``*.xz`` names through a decompressor, so
    a plain file so named fails there (OSError, LZMAError) and is read by
    ``_read_rows`` instead.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = tuple(c.strip() for c in fh.readline().split(","))
            # An empty body would make loadtxt warn instead of raise.
            first_row = fh.readline().strip()
        if header in _HEADERS and first_row:
            table = np.loadtxt(os.path.abspath(path), delimiter=",", skiprows=1, comments=None,
                               dtype=float, ndmin=2, encoding="utf-8")
            if table.shape[1] == len(header):
                return header, table
    except (ValueError, OSError, lzma.LZMAError):
        pass
    return _read_rows(path)


def read_density_csv(path: str) -> ParsedDensity:
    """Read a density grid from CSV.

    Recognized headers: ``q,n`` (1-D grid), ``t,q,n`` (1-D grid with a
    leading time axis) and ``qx,qy,qz,n`` (3-D grid).  Every column but
    ``n`` is a coordinate, and one rule covers all three layouts: the rows
    must be the complete row-major lattice over the sorted distinct values
    of each coordinate column (the last one fastest), each of these axes
    uniformly spaced, and the spatial axes sharing one step.

    ``#`` lines are full-line comments, cells may be quoted, and numbers
    are read to the exact double ``float()`` gives.  Returns a
    ParsedDensity carrying the grid, the time step (``t,q,n`` layout only)
    and the first coordinate per axis.  Grids are returned non-periodic;
    callers may flip the flag via ``dataclasses.replace``.
    """
    header, table = _read_table(path)
    if header not in _HEADERS:
        raise DomainError(
            f"{path}: unrecognized header {','.join(header)!r}; expected q,n or t,q,n or qx,qy,qz,n"
        )
    labels, coords = header[:-1], table[:, :-1]
    axes = [np.unique(coords[:, i]) for i in range(len(labels))]
    for axis, label in zip(axes, labels):
        if not np.isfinite(axis).all():
            raise DomainError(f"{path}: column {label!r} must hold finite coordinates")
    shape = tuple(a.size for a in axes)
    if table.shape[0] != math.prod(shape):
        raise DomainError(f"{path}: rows do not form a complete lattice of shape {shape}")
    for i, (axis, label) in enumerate(zip(axes, labels)):
        along_i = [-1 if j == i else 1 for j in range(len(shape))]
        if not np.all(coords[:, i].reshape(shape) == axis.reshape(along_i)):
            raise DomainError(f"{path}: rows are not in row-major ({label} order) lattice layout")
    steps = [_uniform_step(a, label, path) for a, label in zip(axes, labels)]
    dt = steps.pop(0) if labels[0] == "t" else None
    if max(steps) - min(steps) > SPACING_RTOL * max(steps):
        raise DomainError(f"{path}: axes have unequal spacing; a single grid step is required")
    density = GridDensity(_owned_readonly(table[:, -1].reshape(shape)), steps[0], time_axis=dt is not None)
    return ParsedDensity(density, dt, tuple(float(a[0]) for a in axes))
