"""Thermal statistics of density-fluctuation modes.

A mode of wavelength lambda carries energy

    E(lambda) = m*gamma*c^2 * sqrt(1 - (hbar/(m*c))^2 (2*pi/lambda)^2)

valid for (hbar/(m*c))(2*pi/lambda) < 1; Boltzmann weighting of the
n-particle occupations then gives the usual Bose mean energy
E/(exp(E/kT) - 1) and, multiplied by the scalar mode density k^2/(2*pi^2),
the spectral density of the thermal vacuum fluctuations of a massive
field.  The photon branch (m = 0, one factor 2 for polarization) is a
separate code path that reproduces the classical black-body law; it is not
obtained as a limit of the massive formula, whose square root turns
imaginary for any wavelength as m -> 0.

All exponentials are evaluated through the dimensionless groups
x = hbar*omega/kT and mu = m*c^2/kT; Boltzmann weights with exponents
below -700 return exactly 0.0 instead of underflowing noisily.

The massive and photon formulas take a scalar (and return a Python float)
or an array of any shape (and return an array), with one rounding rule so
that both give the same bits: arithmetic and sqrt run as numpy ufuncs,
which are correctly rounded like Python float operations, and a square is
the product x*x, while exp and expm1 go element by element through libm
(the math module), because numpy's SIMD versions differ from libm in the
last bit for a few values in 10^4.  So the Bose mean energy of an array
maps only math.expm1 (math.exp past EXP_CUTOFF) over its elements and
divides in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, ThermalState
from .errors import DomainError, ImaginaryEnergy, WrongBranch, finite, positive
from .numerics import golden_section_max

#: Boltzmann exponents beyond this magnitude give an exact zero weight.
EXP_CUTOFF = 700.0


@dataclass(frozen=True)
class SpectralPoint:
    """Massive-branch spectrum at wavenumber(s) k: density of modes, mean
    thermal energy per mode, and their product (one polarization).  Each
    field is a float for a scalar k and an array for an array k."""

    k: float | np.ndarray
    mode_density: float | np.ndarray
    mean_energy: float | np.ndarray
    spectral_density: float | np.ndarray


def _value(x):
    """A scalar as a Python float, anything else as a float array."""
    return float(x) if isinstance(x, (int, float)) or np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _all(mask) -> bool:
    return mask if isinstance(mask, bool) else bool(mask.all())


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of ``x`` through libm."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _square(x, name: str):
    """x*x, correctly rounded; DomainError where it leaves the double range."""
    with np.errstate(over="ignore"):
        square = x * x
    if not _all(square < math.inf):
        raise DomainError(f"{name}^2 overflows the double range at these inputs")
    return square


def _bose(e, x):
    """Bose mean energy e/(exp(x) - 1) of a mode at x = e/kT, or e*exp(-x)
    past EXP_CUTOFF.  A float takes one libm call.  For arrays, math.expm1
    runs over the elements up to EXP_CUTOFF and math.exp(-x) over those past
    it, and the division and the product run in numpy: they are the same
    IEEE operations as Python's / and *, overflowing to inf just as quietly.
    A mode energy e past the double range is refused: inf * exp(-x) is NaN."""
    if not _all(x > 0.0):
        raise DomainError("E/(k_B*T) must be > 0; the mode energy underflows at these inputs")
    if not _all(e < math.inf):
        raise DomainError("mode energy leaves the double range at these inputs")
    if isinstance(x, float):
        return e * math.exp(-x) if x > EXP_CUTOFF else e / math.expm1(x)
    below, past = x <= EXP_CUTOFF, x > EXP_CUTOFF
    out = np.empty(x.shape)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out[below] = e[below] / _libm(math.expm1, x[below])
        out[past] = e[past] * _libm(math.exp, -x[past])
    return out


def _boltzmann(x: float) -> float:
    """Boltzmann weight exp(-x), exactly 0.0 past EXP_CUTOFF (x = +inf included)."""
    return 0.0 if x > EXP_CUTOFF else math.exp(-x)


def _sqrt_factor(wavelength, state: ThermalState):
    """sqrt(1 - (lambda_crit/lambda)^2) with the domain guard."""
    if state.mass == 0.0:
        raise WrongBranch("mass is zero; use the photon operations")
    wavelength = _value(wavelength)
    if not _all(wavelength > 0.0):
        raise DomainError("wavelength must be > 0")
    lambda_crit = 2.0 * math.pi * CONSTANTS.hbar / (state.mass * CONSTANTS.c)
    ratio = lambda_crit / wavelength
    if not _all(ratio < 1.0):
        raise ImaginaryEnergy(lambda_crit, np.asarray(wavelength)[np.asarray(ratio) >= 1.0][0])
    return (math.sqrt if isinstance(ratio, float) else np.sqrt)((1.0 - ratio) * (1.0 + ratio))


def mode_energy_massive(wavelength: float | np.ndarray, state: ThermalState) -> float | np.ndarray:
    """Relativistic mode energy m*gamma*c^2*sqrt(1 - (hbar k/(m c))^2) in J.

    Raises ImaginaryEnergy (carrying the critical wavelength
    2*pi*hbar/(m*c)) once the square root would turn imaginary, and
    WrongBranch for massless states.
    """
    return state.mass * state.gamma * CONSTANTS.c**2 * _sqrt_factor(wavelength, state)


def _energy_over_kt(wavelength, state: ThermalState):
    """E(lambda)/(k_B*T) computed in dimensionless groups (no overflow)."""
    mu = state.mass * CONSTANTS.c**2 / (CONSTANTS.k_boltzmann * state.temperature)
    return mu * state.gamma * _sqrt_factor(wavelength, state)


def mode_probability_nonrel(wavelength: float, state: ThermalState) -> float:
    """Boltzmann weight exp[-(hbar^2/(2 m k_B T)) (2*pi/lambda)^2].

    This is the Gaussian-in-wavenumber suppression of short modes; it
    equals gaussian_spectrum(k, correlation_length(m, T)) at k = 2*pi/lambda.
    """
    k = 2.0 * math.pi / positive("wavelength", wavelength)
    positive("mass", state.mass)
    return finite(
        "(hbar*k)^2/(2*m*k_B*T)",
        lambda: _boltzmann((CONSTANTS.hbar * k) ** 2 / (2.0 * state.mass * CONSTANTS.k_boltzmann * state.temperature)),
    )


def mode_probability_rel(wavelength: float, state: ThermalState) -> float:
    """Boltzmann weight exp[-E(lambda)/k_B T] of the relativistic mode."""
    return n_particle_weight(wavelength, 1, state)


def n_particle_weight(wavelength: float, n: int, state: ThermalState) -> float:
    """Weight exp[-n E(lambda)/k_B T] of the n-particle occupation."""
    if not (n >= 0 and n % 1 == 0):
        raise DomainError("n must be a non-negative integer")
    x = _energy_over_kt(wavelength, state)
    return finite("n*E/(k_B*T)", lambda: _boltzmann(n * x))


def mean_energy(wavelength: float | np.ndarray, state: ThermalState) -> float | np.ndarray:
    """Bose mean energy E/(exp(E/kT) - 1) of the massive mode, in J.

    Summing the geometric occupation series gives exactly this closed
    form; expm1 keeps it accurate in the equipartition limit E << kT.
    """
    return _bose(mode_energy_massive(wavelength, state), _energy_over_kt(wavelength, state))


def mode_density(k: float | np.ndarray) -> float | np.ndarray:
    """Independent modes per volume per wavenumber of a scalar field:
    k^2/(2*pi^2)."""
    k = positive("wavenumber", _value(k))
    return _square(k, "k") / (2.0 * math.pi**2)


def spectral_density_massive(k: float | np.ndarray, state: ThermalState) -> SpectralPoint:
    """Spectral density of massive-field vacuum fluctuations at wavenumber k.

    The product mode_density(k) * mean_energy(2*pi/k), with exactly one
    polarization for the scalar density field.
    """
    k = _value(k)
    nk = mode_density(k)
    me = mean_energy(2.0 * math.pi / k, state)
    return SpectralPoint(k=k, mode_density=nk, mean_energy=me, spectral_density=nk * me)


def photon_mean_energy(omega: float | np.ndarray, temperature: float) -> float | np.ndarray:
    """Planck mean energy hbar*omega/(exp(hbar*omega/kT) - 1), in J."""
    e = CONSTANTS.hbar * positive("omega", _value(omega))
    return _bose(e, e / positive("k_B*temperature", CONSTANTS.k_boltzmann * temperature))


def photon_spectrum(omega: float | np.ndarray, temperature: float) -> tuple:
    """``(photon_mean_energy, planck_spectral_density)`` at omega, with the
    Planck mean energy evaluated once for both."""
    omega = _value(omega)
    mean = photon_mean_energy(omega, temperature)
    return mean, (_square(omega, "omega") / (math.pi**2 * CONSTANTS.c**3)) * mean


def planck_spectral_density(omega: float | np.ndarray, temperature: float) -> float | np.ndarray:
    """Black-body energy density per angular frequency, J*s/m^3.

    (omega^2/(pi^2 c^3)) * hbar*omega/(exp(hbar*omega/kT) - 1); the factor
    2 for the photon polarizations is already included relative to the
    single-polarization scalar mode density.
    """
    return photon_spectrum(omega, temperature)[1]


def wien_peak(temperature: float) -> float:
    """Angular frequency maximizing planck_spectral_density, rad/s.

    The search runs by golden section in the dimensionless variable
    x = hbar*omega/kT, so hbar*omega_max/(k_B T) is bit-identical for
    every temperature; the bracket [0.05, 25] safely contains the single
    interior maximum near x = 2.8214.
    """
    positive("k_B*temperature", CONSTANTS.k_boltzmann * temperature)

    def neg_shape(x: float) -> float:
        return x**3 / math.expm1(x)

    x_peak = golden_section_max(neg_shape, 0.05, 25.0, rel_tol=1e-12)
    return finite("wien_peak", lambda: x_peak * CONSTANTS.k_boltzmann * temperature / CONSTANTS.hbar)
