"""Inputs at the edge of the double range given to the public value
functions: each is refused with DomainError, never answered with NaN, inf
or a wrong flag, and never with a bare arithmetic exception."""

import math

import pytest

from qvac import (
    ELECTRON_MASS,
    DomainError,
    ThermalState,
    black_hole_report,
    bh_vqu_printed,
    gravitational_radius,
    is_stable,
    n_particle_weight,
    photon_mean_energy,
    vqu_sinusoid,
)
from qvac.blackhole import bh_vqu_geometric

STATE = ThermalState(ELECTRON_MASS, 300.0)


@pytest.mark.parametrize("call", [
    lambda: n_particle_weight(1e-6, math.nan, STATE),  # was ValueError from int(nan)
    lambda: n_particle_weight(1e-6, math.inf, STATE),  # was OverflowError from int(inf)
    lambda: photon_mean_energy(math.inf, 300.0),  # was NaN: inf * exp(-inf)
    lambda: vqu_sinusoid(1e-300, 1e-30),  # was OverflowError: k**2
    lambda: bh_vqu_printed(1e-300),  # was OverflowError: (m_p/2m)**3
    lambda: bh_vqu_geometric(1e-300),  # was ZeroDivisionError: R_g underflows to 0
    lambda: black_hole_report(math.inf),  # was ZeroDivisionError: 0/0 in the pi^2 check
    lambda: black_hole_report(1e300),  # was ZeroDivisionError: vqu_printed underflows to 0
    lambda: gravitational_radius(math.inf),  # was inf
    lambda: is_stable(math.inf),  # was True
], ids=["weight-n-nan", "weight-n-inf", "photon-omega-inf", "sinusoid-overflow", "vqu-printed-overflow",
        "vqu-geometric-overflow", "report-inf", "report-underflow", "radius-inf", "stable-inf"])
def test_unrepresentable_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
