"""Plain helpers shared by the test modules (import them from here; the
fixtures stay in ``conftest.py``)."""

from __future__ import annotations

import math
import tracemalloc
from typing import Any, Callable, NamedTuple

import numpy as np

from qvac import CONSTANTS, GridDensity, UnitMode, UnitSystem

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
    return GridDensity(values, h, dims=1, periodic=periodic), q


def offnode_mask(q: np.ndarray, wavelength: float, h: float, margin: float = 1.6) -> np.ndarray:
    """Keep points whose difference stencil cannot straddle a density node."""
    return node_distance(q, wavelength) > margin * h


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
