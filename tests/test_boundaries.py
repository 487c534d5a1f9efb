"""Inputs at the edge of the double range given to the public value
functions: each is refused with DomainError, never answered with NaN, inf
or a wrong flag, and never with a bare arithmetic exception."""

import math

import numpy as np
import pytest

from qvac import (
    ELECTRON_MASS,
    DomainError,
    GridDensity,
    ThermalState,
    TravelingMode,
    analytic_correlation,
    black_hole_report,
    bh_vqu_printed,
    correlation_length,
    gaussian_mode_spectrum,
    gravitational_energy,
    gravitational_radius,
    is_stable,
    mean_energy,
    mean_qp_energy,
    mode_probability_nonrel,
    mode_probability_rel,
    n_particle_weight,
    photon_mean_energy,
    vqu_grid_dalembert,
    vqu_grid_nonrel,
    vqu_sinusoid,
    vqu_traveling,
    wien_peak,
)
from qvac.blackhole import bh_vqu_geometric
from qvac.constants import compton_wavenumber

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
    lambda: compton_wavenumber(math.inf),  # was inf
    lambda: compton_wavenumber(1e300),  # was inf: m*c overflows
    lambda: wien_peak(math.inf),  # was inf
    lambda: wien_peak(1e300),  # was inf: k_B*T*x/hbar overflows
    lambda: wien_peak(1e-310),  # was 0.0: k_B*T underflows
    lambda: analytic_correlation(1.0, math.inf),  # was 1.0
    lambda: gaussian_mode_spectrum(math.inf),  # was a RuntimeWarning, then a k_grid error
    lambda: vqu_traveling(TravelingMode(1.0, 0.5, math.nan)),  # was nan
    lambda: vqu_traveling(TravelingMode(1.0, 0.5, math.inf)),  # was -0.0
    lambda: vqu_grid_nonrel(GridDensity(np.ones(8), math.inf), 1e-30),  # was -0.0 everywhere
    lambda: vqu_traveling(TravelingMode(1e-300, 0.5, ELECTRON_MASS)),  # was OverflowError: k**2
    lambda: mode_probability_nonrel(1e-300, STATE),  # was OverflowError: (hbar*k)**2
    lambda: gravitational_energy(1e300),  # was -inf
    lambda: n_particle_weight(1e-6, 10**400, STATE),  # was OverflowError: int to float
    lambda: vqu_grid_nonrel(GridDensity(np.ones(8), 1e200), 1e-30),  # was OverflowError: spacing**2
    lambda: vqu_grid_dalembert(GridDensity(np.ones((3, 8)), 0.1, time_axis=True), 1e-30, 1e300),  # was OverflowError: dt**2
    lambda: mean_qp_energy(GridDensity(np.ones((8, 8, 8)), 1e120, periodic=True), 1e-30),  # was OverflowError: spacing**3
    lambda: gravitational_radius(10**400),  # was OverflowError: int to float
    lambda: correlation_length(10**400, 1.0),  # was OverflowError: int to float
    lambda: vqu_grid_nonrel(GridDensity(np.linspace(1, 2, 8), 1e-200), 1e-30),  # was inf: spacing**2 underflows to 0
    lambda: vqu_grid_dalembert(GridDensity(np.ones((3, 8)), 0.1, time_axis=True), 1e-30, 1e-200),  # was nan: dt**2 is 0
    lambda: mean_energy(1.0, ThermalState(1e300, 300.0)),  # was nan: inf * exp(-inf)
    lambda: mean_energy(np.array([1.0, 2.0]), ThermalState(1e300, 300.0)),  # was [nan, nan]
    lambda: mean_qp_energy(GridDensity(np.ones((8, 8, 8)), 1e120), 1e-30),  # was 0.0: the trapezoid overflows
    lambda: vqu_grid_nonrel(GridDensity(np.linspace(1, 2, 8), 1e-160), 1e-30),  # was inf: spacing**2 is subnormal
    lambda: mean_qp_energy(GridDensity(np.linspace(1, 2, 8), 1e-160), 1e-30),  # was inf, likewise
    lambda: vqu_grid_dalembert(GridDensity(np.ones((3, 8)), 0.1, time_axis=True), 1e-30, 1e-160),  # dt**2 is subnormal
], ids=["weight-n-nan", "weight-n-inf", "photon-omega-inf", "sinusoid-overflow", "vqu-printed-overflow",
        "vqu-geometric-overflow", "report-inf", "report-underflow", "radius-inf", "stable-inf",
        "compton-inf", "compton-overflow", "wien-inf", "wien-overflow", "wien-underflow", "analytic-lambda-inf",
        "spectrum-lambda-inf", "traveling-mass-nan", "traveling-mass-inf", "grid-spacing-inf",
        "traveling-overflow", "nonrel-probability-overflow", "e-grav-overflow", "weight-n-huge",
        "grid-spacing-square-overflow", "dt-square-overflow", "grid-spacing-cube-overflow", "radius-huge-int",
        "correlation-length-huge-int", "grid-spacing-square-underflow", "dt-square-underflow", "mean-energy-overflow",
        "mean-energy-array-overflow", "non-periodic-spacing-cube-overflow", "grid-spacing-square-subnormal",
        "mean-spacing-square-subnormal", "dt-square-subnormal"])
def test_unrepresentable_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: mode_probability_rel(1.0, ThermalState(1e300, 300.0)),  # m*c^2/(k_B*T) overflows to inf
    lambda: mode_probability_rel(1e-6, ThermalState(ELECTRON_MASS, 1e-300)),  # likewise, through a tiny k_B*T
    lambda: n_particle_weight(1e-6, 1e308, STATE),  # n*E/(k_B*T) overflows to inf
    lambda: mode_probability_nonrel(1e-30, ThermalState(1e-200, 1e-100)),  # the division overflows to inf
], ids=["rel-huge-mass", "rel-tiny-temperature", "weight-n-huge-float", "nonrel-division-overflow"])
def test_overflowing_boltzmann_exponent_is_a_zero_weight(call):
    # exp(-inf) is exactly 0: an exponent past the double range is not an error.
    assert call() == 0.0
