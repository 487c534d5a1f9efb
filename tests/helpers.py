"""Plain helpers shared by the test modules (import them from here; the
fixtures stay in ``conftest.py``)."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import qvac
from qvac import CONSTANTS, GridDensity, SingularDensity, UnitMode, UnitSystem
from qvac import qpotential as qp

NATURAL = UnitSystem(UnitMode.NATURAL)

#: Planck-unit mass/length for "hbar = m = 1, lambda = 1" style checks.
PLANCK_MASS = CONSTANTS.planck_mass
PLANCK_LENGTH = CONSTANTS.planck_length


def node_distance(q: np.ndarray, wavelength: float) -> np.ndarray:
    """Distance from each position to the nearest node of cos(2*pi*q/lambda)."""
    u = np.mod(q - wavelength / 4.0, wavelength / 2.0)
    return np.minimum(u, wavelength / 2.0 - u)


def cos2_density(wavelength: float, points: int, periodic: bool = True) -> tuple[GridDensity, np.ndarray]:
    """cos^2 mode sampled on an offset grid (no sample sits on a node)."""
    h = wavelength / points
    q = (np.arange(points) + 0.5) * h
    values = np.cos(2.0 * math.pi * q / wavelength) ** 2
    return GridDensity(values, h, periodic=periodic), q


def offnode_mask(q: np.ndarray, wavelength: float, h: float, margin: float = 1.6) -> np.ndarray:
    """Keep points whose difference stencil cannot straddle a density node."""
    return node_distance(q, wavelength) > margin * h


def roll_stencil_vqu(density: GridDensity, mass: float, dt: float | None = None) -> np.ndarray:
    """V_qu as a stencil of ``np.roll`` copies evaluates it: each neighbour
    is the whole sqrt(n) grid rolled by one point and read on
    ``qp._region``, with the kernel's operations in its order, NaN off the
    region.  The nonrelativistic form without ``dt``, the wave-operator
    form with it; raises SingularDensity as the kernel does."""
    region = qp._region(density)
    n = density.values[region]
    bad = np.argwhere((n <= 0.0) | (n < qp.SINGULAR_FRACTION * float(density.values.max(initial=0.0))))
    if bad.size:
        raise SingularDensity(tuple(int(i) + (r.start or 0) for i, r in zip(bad[0], region)))
    s = np.sqrt(density.values)

    def second_difference(axis: int, h: float) -> np.ndarray:
        return (np.roll(s, -1, axis)[region] - 2.0 * s[region] + np.roll(s, 1, axis)[region]) / h**2

    op = sum(second_difference(axis, density.spacing) for axis in density.spatial_axes)
    coef = CONSTANTS.hbar**2 / (2.0 * mass)
    if dt is not None:
        op, coef = second_difference(0, dt) / CONSTANTS.c**2 - op, CONSTANTS.hbar**2 / mass
    out = np.full_like(density.values, np.nan)
    out[region] = -coef * op / s[region]
    return out


class Traced(NamedTuple):
    result: Any
    peak: int  # the most bytes traced at once during the call
    kept: int  # the bytes still traced when the call returned


def traced_peak(fn: Callable[[], Any]) -> Traced:
    """Call ``fn()`` with tracemalloc tracing Python-visible allocations
    (numpy arrays included) from the call's start."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, kept)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert that two float arrays hold the same bit patterns (so 0.0 and
    -0.0 differ, and equal NaNs match); a failure names the first
    differing index and both values in ``float.hex`` form."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, f"dtype {actual.dtype} != {expected.dtype}"
    assert actual.shape == expected.shape, f"shape {actual.shape} != {expected.shape}"
    bits = np.dtype(f"u{actual.dtype.itemsize}")
    differ = np.flatnonzero(np.ascontiguousarray(actual).view(bits) != np.ascontiguousarray(expected).view(bits))
    if differ.size:
        where = np.unravel_index(differ[0], actual.shape)
        raise AssertionError(
            f"{differ.size} of {actual.size} values differ in their bits; first at index {tuple(map(int, where))}: "
            f"{float(actual[where]).hex()} != {float(expected[where]).hex()}"
        )


def dispatch_levels() -> list[str]:
    """Values of numpy's NPY_DISABLE_CPU_FEATURES that select each SIMD
    dispatch level this CPU offers, from the highest (nothing disabled)
    down to numpy's baseline (every dispatch target disabled).

    numpy lists its dispatch targets in ascending order, so each level
    disables the targets above it.  The variable acts only in a new
    process, which must read it before importing numpy.
    """
    from numpy._core import _multiarray_umath

    offered = [name for name in _multiarray_umath.__cpu_dispatch__ if _multiarray_umath.__cpu_features__.get(name)]
    return [" ".join(offered[i:]) for i in range(len(offered), -1, -1)]


def loaded_modules(code: str) -> set[str]:
    """The ``sys.modules`` keys after ``code`` ran in a fresh interpreter
    that imports qvac from this checkout's sources.  A child that fails
    (an ``assert`` in ``code`` included) fails the calling test."""
    env = dict(os.environ, PYTHONPATH=str(Path(qvac.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())
