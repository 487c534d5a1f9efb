"""Black-hole energetics under the quantum potential.

A black hole of mass m confines its density inside the gravitational
radius R_g = 2Gm/c^2; the longest confined mode then carries a positive
quantum-potential energy that scales as (m_p/m)^3, while the gravitational
energy is -(1/2) m c^2.  Their sum, the binding energy, changes sign at
m = (3/8)^(1/4) m_p: lighter holes are energetically hindered.

Two quantum-potential expressions are exposed deliberately:

* ``bh_vqu_printed``   -- (3/2) (m_p/2m)^3 m_p c^2, the scaling law that
  anchors the binding-energy chain and the threshold;
* ``bh_vqu_geometric`` -- 3 (hbar^2/m) (pi/(2 R_g))^2, the direct
  confined-mode evaluation, which is exactly pi^2 times larger.

The pi^2 ratio is pinned by tests as a regression-locked fact rather than
silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .constants import CONSTANTS
from .errors import DomainError, finite, positive
from .numerics import bisect_root

#: Closed-form minimum stable mass in Planck-mass units, the root of
#: -m/2 + (3/16) m_p^4/m^3 = 0.
THRESHOLD_PLANCK_UNITS = (3.0 / 8.0) ** 0.25


def gravitational_radius(mass: float) -> float:
    """Schwarzschild radius 2Gm/c^2 (equivalently 2*hbar*m/(m_p^2*c)), m."""
    positive("mass", mass)
    return 2.0 * CONSTANTS.g_newton * mass / CONSTANTS.c**2


def bh_vqu_printed(mass: float) -> float:
    """Confined-mode quantum-potential energy (3/2)(m_p/2m)^3 m_p c^2, J."""
    ratio = CONSTANTS.planck_mass / (2.0 * positive("mass", mass))
    return finite("vqu_printed", lambda: 1.5 * ratio**3 * CONSTANTS.planck_energy)


def bh_vqu_geometric(mass: float) -> float:
    """Quantum-potential energy evaluated from the confinement geometry,
    3 (hbar^2/m) (pi/(2 R_g))^2; exactly pi^2 * bh_vqu_printed(mass), J."""
    r_g = gravitational_radius(mass)
    return finite("vqu_geometric", lambda: 3.0 * (CONSTANTS.hbar**2 / mass) * (math.pi / (2.0 * r_g)) ** 2)


def gravitational_energy(mass: float) -> float:
    """Gravitational energy -(1/2) m c^2 of the hole, J (always < 0)."""
    positive("mass", mass)
    return finite("e_grav", lambda: -0.5 * mass * CONSTANTS.c**2)


def binding_energy(mass: float) -> float:
    """Binding energy E_b = gravitational_energy + bh_vqu_printed, J.

    Negative for heavy holes (gravity wins), positive below the stability
    threshold where the quantum term dominates.
    """
    return gravitational_energy(mass) + bh_vqu_printed(mass)


class ThresholdMass(NamedTuple):
    planck_units: float
    kg: float


def stability_threshold() -> ThresholdMass:
    """Minimum stable mass: unique root of the binding energy.

    Located by bisection on [0.1, 10] Planck masses (in dimensionless
    Planck units, to 1e-14 relative); analytically (3/8)^(1/4) m_p.
    """

    def scaled_binding(m_over_mp: float) -> float:
        return -0.5 * m_over_mp + 0.1875 / m_over_mp**3

    root = bisect_root(scaled_binding, 0.1, 10.0, rel_tol=1e-14)
    return ThresholdMass(planck_units=root, kg=root * CONSTANTS.planck_mass)


def is_stable(mass: float) -> bool:
    """True iff the binding energy is strictly negative (a vanishing
    binding energy counts as unstable)."""
    return binding_energy(mass) < 0.0


@dataclass(frozen=True)
class BlackHoleReport:
    """Full energetics summary for one hole."""

    mass_kg: float
    mass_planck: float
    gravitational_radius: float
    vqu_printed: float
    vqu_geometric: float
    e_grav: float
    e_binding: float
    stable: bool

    def __post_init__(self):
        positive("gravitational_radius", self.gravitational_radius)
        if self.stable != (self.e_binding < 0.0):
            raise DomainError("stable flag must equal e_binding < 0")
        if not self.vqu_printed > 0.0:
            raise DomainError("vqu_printed underflows to 0 at this mass")
        if not math.isclose(self.vqu_geometric / self.vqu_printed, math.pi**2, rel_tol=1e-12):
            raise DomainError("vqu_geometric/vqu_printed must equal pi^2")

    def as_dict(self) -> dict:
        return {
            "mass": {"kg": self.mass_kg, "m_p": self.mass_planck},
            "gravitational_radius": self.gravitational_radius,
            "vqu_printed": self.vqu_printed,
            "vqu_geometric": self.vqu_geometric,
            "e_grav": self.e_grav,
            "e_binding": self.e_binding,
            "stable": self.stable,
        }


def black_hole_report(mass: float) -> BlackHoleReport:
    """Assemble the report for a hole of ``mass`` kg."""
    e_b = binding_energy(mass)
    return BlackHoleReport(
        mass_kg=mass,
        mass_planck=mass / CONSTANTS.planck_mass,
        gravitational_radius=gravitational_radius(mass),
        vqu_printed=bh_vqu_printed(mass),
        vqu_geometric=bh_vqu_geometric(mass),
        e_grav=gravitational_energy(mass),
        e_binding=e_b,
        stable=e_b < 0.0,
    )
