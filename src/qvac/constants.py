"""Physical constants, unit systems, and the dimensionless groups used
throughout the package.

All internal physics is done with the dimensionless ratios

    x  = hbar*omega / (k_B*T)        (photon / frequency group)
    mu = m*c**2 / (k_B*T)            (rest-energy group)

because exp(m*c**2/(k_B*T)) overflows any float for everyday masses; SI
values appear only at the boundary of each computation.

Constant values are CODATA-2018 recommended values
(https://physics.nist.gov/cuu/Constants/).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

# CODATA-2018 SI values.
CODATA_HBAR = 1.054571817e-34  # J s, h/(2*pi) with h exact
CODATA_C = 2.99792458e8  # m/s, exact
CODATA_K_B = 1.380649e-23  # J/K, exact
CODATA_G = 6.67430e-11  # m^3/(kg s^2)
CODATA_PLANCK_MASS = 2.176434e-8  # kg, reference value (we recompute ours)

# Handy particle mass for examples and tests (CODATA-2018).
ELECTRON_MASS = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants plus the Planck mass derived from them.

    ``planck_mass`` is always recomputed as sqrt(hbar*c/G); construction
    fails if it does not reproduce the CODATA reference within 1e-4
    relative, which pins the source values against typos.
    """

    hbar: float
    c: float
    k_boltzmann: float
    g_newton: float
    planck_mass: float

    def __post_init__(self):
        for name in ("hbar", "c", "k_boltzmann", "g_newton", "planck_mass"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"constant {name} must be strictly positive")
        derived = math.sqrt(self.hbar * self.c / self.g_newton)
        if not math.isclose(self.planck_mass, derived, rel_tol=1e-12):
            raise AssertionError("planck_mass is not sqrt(hbar*c/G)")
        if not math.isclose(derived, CODATA_PLANCK_MASS, rel_tol=1e-4):
            raise AssertionError("derived Planck mass disagrees with CODATA reference")

    @property
    def planck_length(self) -> float:
        """hbar/(planck_mass*c) = sqrt(hbar*G/c^3), in m."""
        return self.hbar / (self.planck_mass * self.c)

    @property
    def planck_energy(self) -> float:
        """planck_mass*c^2, in J."""
        return self.planck_mass * self.c**2

    @property
    def planck_time(self) -> float:
        """hbar/(planck_mass*c^2), in s."""
        return self.hbar / self.planck_energy

    @property
    def planck_temperature(self) -> float:
        """planck_mass*c^2/k_B, in K."""
        return self.planck_energy / self.k_boltzmann


def constants() -> PhysicalConstants:
    """Return the CODATA-2018 constant set; the Planck mass is computed
    from (hbar, c, G), never hard-coded."""
    return PhysicalConstants(
        hbar=CODATA_HBAR,
        c=CODATA_C,
        k_boltzmann=CODATA_K_B,
        g_newton=CODATA_G,
        planck_mass=math.sqrt(CODATA_HBAR * CODATA_C / CODATA_G),
    )


#: Shared constant set.  All modules read from this instance.
CONSTANTS = constants()


class UnitMode(Enum):
    SI = "SI"
    NATURAL = "Natural"


def _natural_factors(k: PhysicalConstants) -> dict[str, float]:
    """SI value of one natural unit, per supported dimension.

    Natural units set hbar = c = k_B = 1 and measure mass in Planck
    masses, so lengths come out in Planck lengths, times in Planck times,
    energies in Planck energies and temperatures in Planck temperatures.
    """
    l_p = k.planck_length
    t_p = k.planck_time
    e_p = k.planck_energy
    return {
        "dimensionless": 1.0,
        "mass": k.planck_mass,
        "length": l_p,
        "time": t_p,
        "energy": e_p,
        "temperature": k.planck_temperature,
        "wavenumber": 1.0 / l_p,
        "angular_frequency": 1.0 / t_p,
        # energy per volume: J/m^3
        "energy_density": e_p / l_p**3,
        # modes per volume per wavenumber: 1/m^2
        "mode_density": 1.0 / l_p**2,
        # energy per volume per wavenumber: J/m^2
        "spectral_density_wavenumber": e_p / l_p**2,
        # energy per volume per angular frequency: J*s/m^3
        "spectral_density_frequency": e_p * t_p / l_p**3,
    }


_NATURAL_FACTORS = _natural_factors(CONSTANTS)


@dataclass(frozen=True)
class UnitSystem:
    """Conversion between SI and natural (hbar = c = k_B = 1, masses in
    Planck masses) units for the fixed set of dimensions this package
    emits.  Round trips are exact to within a floating rounding."""

    mode: UnitMode = UnitMode.SI

    def _factor(self, dimension: str) -> float:
        if self.mode is UnitMode.SI:
            return 1.0
        try:
            return _NATURAL_FACTORS[dimension]
        except KeyError:
            raise DomainError(f"unknown dimension {dimension!r}") from None

    def to_si(self, value: float, dimension: str) -> float:
        """Convert ``value`` expressed in this system's units to SI."""
        return value * self._factor(dimension)

    def from_si(self, value: float, dimension: str) -> float:
        """Convert an SI ``value`` to this system's units."""
        return value / self._factor(dimension)

    @classmethod
    def parse(cls, name: str) -> "UnitSystem":
        for mode in UnitMode:
            if name.lower() == mode.value.lower():
                return cls(mode)
        raise DomainError(f"unknown unit mode {name!r} (use SI or Natural)")


@dataclass(frozen=True)
class ThermalState:
    """Parameters of every spectral formula: particle mass m (kg),
    thermostat temperature T (K) and Lorentz factor gamma.

    ``mass = 0`` is legal and routes callers to the photon branch;
    ``gamma`` defaults to 1 (mode at rest with respect to the thermostat).
    """

    mass: float
    temperature: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.mass < 0.0 or not math.isfinite(self.mass):
            raise DomainError("mass must be finite and >= 0")
        if not (math.isfinite(self.temperature) and CONSTANTS.k_boltzmann * self.temperature > 0.0):
            raise DomainError("temperature must be finite, with k_B*T > 0")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise DomainError("gamma must be finite and >= 1")


def compton_wavenumber(mass: float) -> float:
    """m*c/hbar, the wavenumber bounding the massive-mode branch (1/m)."""
    if not mass > 0.0:
        raise DomainError("compton_wavenumber requires mass > 0")
    return mass * CONSTANTS.c / CONSTANTS.hbar


def dimensionless_groups(state: ThermalState, omega: float) -> tuple[float, float]:
    """Return (x, mu) = (hbar*omega/(k_B*T), m*c^2/(k_B*T))."""
    kt = CONSTANTS.k_boltzmann * state.temperature
    x = CONSTANTS.hbar * omega / kt
    mu = state.mass * CONSTANTS.c**2 / kt
    return x, mu
