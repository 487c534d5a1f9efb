"""Seeded input generators for the qvac benchmark.

Each generator is a pure function of its seed: the same seed gives the
same bytes.  Coordinates and samples are written with ``repr(float(x))``,
so ``qvac.qpotential.read_density_csv`` reads back exactly the floats
generated here and its lattice and uniform-spacing checks accept them.

The physical constants are CODATA-2018 values typed in here, not imported
from qvac, so the oracles that use them stay independent of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34  # J s
C = 2.99792458e8  # m/s
K_B = 1.380649e-23  # J/K
G_NEWTON = 6.67430e-11  # m^3/(kg s^2)
ELECTRON_MASS = 9.1093837015e-31  # kg
PLANCK_MASS = math.sqrt(HBAR * C / G_NEWTON)  # kg

#: Mass given to ``qpot`` for both grids (SI units).
QPOT_MASS = ELECTRON_MASS

LATTICE_POINTS = 64
LATTICE_SPACING = 1e-10  # m
SPACETIME_SLICES = 128
SPACETIME_POINTS = 1024
SPACETIME_SPACING = 1e-10  # m
#: Half the time light takes to cross one grid step.
SPACETIME_DT = 0.5 * SPACETIME_SPACING / C  # s

SAMPLER_TEMPERATURE = 300.0  # K


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass(frozen=True)
class DensityGrid:
    """A generated density and the CSV text that encodes it.

    ``values`` has shape (n, n, n) for a lattice and (slices, points) for
    a spacetime grid; ``spacing`` is the spatial step and ``dt`` the time
    step (None for a lattice).
    """

    text: str
    values: np.ndarray
    spacing: float
    dt: float | None


def _periodic_modes(rng: np.random.Generator, dims: int, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer wavevectors, amplitudes and phases of a few periodic modes."""
    wavevectors = rng.integers(-3, 4, size=(modes, dims))
    wavevectors[np.all(wavevectors == 0, axis=1), 0] = 1
    amplitudes = rng.uniform(0.05, 0.3, size=modes)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=modes)
    return wavevectors, amplitudes, phases


def density_lattice(seed: int, points: int = LATTICE_POINTS, spacing: float = LATTICE_SPACING) -> DensityGrid:
    """Smooth, strictly positive periodic ``qx,qy,qz,n`` lattice (qz fastest).

    n = exp(sum of a few random periodic cosine modes), so every sample is
    positive and the periodic finite differences see no seam.
    """
    rng = _rng(seed, 1)
    wavevectors, amplitudes, phases = _periodic_modes(rng, 3, modes=6)
    idx = np.arange(points)
    ix, iy, iz = np.meshgrid(idx, idx, idx, indexing="ij")
    log_n = np.zeros((points,) * 3)
    for kv, a, phi in zip(wavevectors, amplitudes, phases):
        log_n += a * np.cos(2.0 * math.pi * (kv[0] * ix + kv[1] * iy + kv[2] * iz) / points + phi)
    values = np.exp(log_n)
    coords = [repr(float(i) * spacing) for i in range(points)]
    samples = iter(repr(v) for v in values.ravel().tolist())
    lines = ["qx,qy,qz,n"]
    for cx in coords:
        for cy in coords:
            prefix = f"{cx},{cy},"
            lines.extend(f"{prefix}{cz},{next(samples)}" for cz in coords)
    return DensityGrid("\n".join(lines) + "\n", values, spacing, None)


def density_spacetime(
    seed: int,
    slices: int = SPACETIME_SLICES,
    points: int = SPACETIME_POINTS,
    spacing: float = SPACETIME_SPACING,
    dt: float = SPACETIME_DT,
) -> DensityGrid:
    """Smooth, strictly positive ``t,q,n`` grid, rows t-major.

    The density is a sum of waves periodic in q that travel at up to the
    speed of light, so both the time and the space differences matter.
    """
    rng = _rng(seed, 2)
    wavenumbers, amplitudes, phases = _periodic_modes(rng, 1, modes=4)
    speeds = rng.uniform(0.1, 1.0, size=len(amplitudes)) * C
    q = np.arange(points) * spacing
    t = np.arange(slices) * dt
    length = points * spacing
    log_n = np.zeros((slices, points))
    for kv, a, phi, v in zip(wavenumbers, amplitudes, phases, speeds):
        k = 2.0 * math.pi * kv[0] / length
        log_n += a * np.cos(k * (q[np.newaxis, :] - v * t[:, np.newaxis]) + phi)
    values = np.exp(log_n)
    t_text = [repr(float(i) * dt) for i in range(slices)]
    q_text = [repr(float(j) * spacing) for j in range(points)]
    samples = iter(repr(v) for v in values.ravel().tolist())
    lines = ["t,q,n"]
    for ct in t_text:
        lines.extend(f"{ct},{cq},{next(samples)}" for cq in q_text)
    return DensityGrid("\n".join(lines) + "\n", values, spacing, dt)


def correlation_length(mass: float, temperature: float) -> float:
    """Vacuum-noise correlation length 2*hbar/sqrt(2*m*k_B*T), in m."""
    return 2.0 * HBAR / math.sqrt(2.0 * mass * K_B * temperature)


def sampler_config(seed: int, grid_points: int = 1024, realizations: int = 4096) -> dict:
    """The README default config for an electron at 300 K, keyed by ``seed``."""
    lambda_c = correlation_length(ELECTRON_MASS, SAMPLER_TEMPERATURE)
    return {
        "grid_points": grid_points,
        "extent": 40.0 * lambda_c,
        "lambda_c": lambda_c,
        "seed": seed,
        "realizations": realizations,
    }


def blackhole_mass(seed: int) -> float:
    """A mass in Planck-mass units, log-uniform on [0.1, 10], so seeds give
    both stable and unstable holes."""
    return float(10.0 ** _rng(seed, 3).uniform(-1.0, 1.0))
