import importlib
import math

import numpy as np
import pytest

from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    DomainError,
    ThermalState,
    UnitMode,
    UnitSystem,
    compton_wavenumber,
    constants,
    dimensionless_groups,
)
from qvac.constants import CODATA_G, CODATA_HBAR, CODATA_PLANCK_MASS, CODATA_C, _natural_factors


def test_planck_mass_derived_from_codata():
    k = constants()
    oracle = math.sqrt(CODATA_HBAR * CODATA_C / CODATA_G)
    assert k.planck_mass == oracle
    assert math.isclose(k.planck_mass, 2.1764e-8, rel_tol=1e-4)
    assert math.isclose(k.planck_mass, CODATA_PLANCK_MASS, rel_tol=1e-4)


def test_planck_mass_identity():
    k = constants()
    assert math.isclose(k.hbar * k.c / (k.planck_mass**2 * k.g_newton), 1.0, rel_tol=1e-12)


def test_all_constants_positive():
    k = constants()
    for value in (k.hbar, k.c, k.k_boltzmann, k.g_newton, k.planck_mass):
        assert value > 0.0


def test_compton_wavenumber_planck_mass():
    # m_p c/hbar is the inverse Planck length, ~6.187e34 1/m
    k_c = compton_wavenumber(CONSTANTS.planck_mass)
    assert math.isclose(k_c, 1.0 / 1.616255e-35, rel_tol=1e-5)


def test_compton_wavenumber_linearity():
    m0 = 3.1e-27
    assert compton_wavenumber(2.0 * m0) == pytest.approx(2.0 * compton_wavenumber(m0), rel=1e-15)


def test_compton_wavenumber_rejects_nonpositive_mass():
    with pytest.raises(DomainError):
        compton_wavenumber(0.0)
    with pytest.raises(DomainError):
        compton_wavenumber(-1e-30)


def test_dimensionless_groups_basics():
    state = ThermalState(mass=0.0, temperature=250.0)
    kt = CONSTANTS.k_boltzmann * 250.0
    x, mu = dimensionless_groups(state, kt / CONSTANTS.hbar)
    assert x == pytest.approx(1.0, rel=1e-15)
    assert mu == 0.0


def test_dimensionless_groups_electron_300k():
    state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
    _, mu = dimensionless_groups(state, 1.0)
    oracle = ELECTRON_MASS * CONSTANTS.c**2 / (CONSTANTS.k_boltzmann * 300.0)
    assert mu == pytest.approx(oracle, rel=1e-15)
    assert mu == pytest.approx(1.9766e7, rel=1e-4)


def test_thermal_state_validation():
    ThermalState(mass=0.0, temperature=1.0)  # photon branch is legal
    with pytest.raises(DomainError):
        ThermalState(mass=-1.0, temperature=1.0)
    with pytest.raises(DomainError):
        ThermalState(mass=1.0, temperature=0.0)
    with pytest.raises(DomainError):
        ThermalState(mass=1.0, temperature=1.0, gamma=0.5)


@pytest.mark.parametrize("field, value", [
    ("temperature", math.inf),
    ("temperature", math.nan),
    ("temperature", 1e-310),  # k_B*T underflows to 0
    ("gamma", math.inf),
    ("gamma", math.nan),
])
def test_thermal_state_rejects_non_finite_fields(field, value):
    with pytest.raises(DomainError, match=field):
        ThermalState(**{"mass": 1.0, "temperature": 1.0, field: value})


def test_natural_factor_table_is_built_once(monkeypatch):
    module = importlib.import_module("qvac.constants")  # qvac.constants is the function

    def rebuilt(_):
        raise AssertionError("natural-unit factors rebuilt on a conversion")

    monkeypatch.setattr(module, "_natural_factors", rebuilt)
    natural = UnitSystem(UnitMode.NATURAL)
    l_p = CONSTANTS.planck_length
    assert natural.from_si(l_p, "length") == 1.0
    assert natural.from_si(np.array([l_p, 2.0 * l_p]), "length").tolist() == [1.0, 2.0]


@pytest.mark.parametrize("dimension", sorted(_natural_factors(CONSTANTS)))
def test_unit_round_trip(dimension):
    natural = UnitSystem(UnitMode.NATURAL)
    si = UnitSystem(UnitMode.SI)
    for value in (1.0, 3.7e-19, 2.4e13, 9.99e-35):
        for system in (natural, si):
            back = system.from_si(system.to_si(value, dimension), dimension)
            assert back == pytest.approx(value, rel=1e-12)
            back2 = system.to_si(system.from_si(value, dimension), dimension)
            assert back2 == pytest.approx(value, rel=1e-12)


def test_natural_units_are_planck_scaled():
    natural = UnitSystem(UnitMode.NATURAL)
    assert natural.to_si(1.0, "mass") == CONSTANTS.planck_mass
    assert natural.to_si(1.0, "length") == CONSTANTS.planck_length
    assert natural.to_si(1.0, "energy") == CONSTANTS.planck_energy
    # hbar = c = k_B = 1 in natural units
    e_nat = natural.from_si(CONSTANTS.hbar / CONSTANTS.planck_time, "energy")
    assert e_nat == pytest.approx(1.0, rel=1e-12)
    v_nat = natural.from_si(CONSTANTS.c, "length") * natural.to_si(1.0, "time")
    assert v_nat == pytest.approx(1.0, rel=1e-12)


def test_unit_system_parse():
    assert UnitSystem.parse("natural").mode is UnitMode.NATURAL
    assert UnitSystem.parse("SI").mode is UnitMode.SI
    with pytest.raises(DomainError):
        UnitSystem.parse("cgs")
