import math

import numpy as np
import pytest

from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    DomainError,
    ImaginaryEnergy,
    ThermalState,
    WrongBranch,
    mean_energy,
    mode_density,
    mode_energy_massive,
    mode_probability_nonrel,
    mode_probability_rel,
    n_particle_weight,
    photon_mean_energy,
    photon_spectrum,
    planck_spectral_density,
    spectral_density_massive,
    wien_peak,
)
from qvac import modestats
from qvac.correlation import correlation_length

from helpers import assert_same_bits

HBAR = CONSTANTS.hbar
C = CONSTANTS.c
KB = CONSTANTS.k_boltzmann

LAMBDA_CRIT_E = 2.0 * math.pi * HBAR / (ELECTRON_MASS * C)


def state_with_mu(mu: float, mass: float = ELECTRON_MASS, gamma: float = 1.0) -> ThermalState:
    """Thermal state whose rest-energy group m c^2 / k_B T equals mu."""
    temperature = mass * C**2 / (KB * mu)
    return ThermalState(mass=mass, temperature=temperature, gamma=gamma)


class TestModeEnergy:
    def test_sqrt_evaluation(self):
        # (hbar/mc)(2*pi/lambda) = 0.6  ->  E = 0.8 m c^2
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        e = mode_energy_massive(LAMBDA_CRIT_E / 0.6, state)
        assert e == pytest.approx(0.8 * ELECTRON_MASS * C**2, rel=1e-12)

    def test_rest_energy_limit(self):
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        e = mode_energy_massive(1.0, state)  # lambda = 1 m >> lambda_crit
        assert e == pytest.approx(ELECTRON_MASS * C**2, rel=1e-12)

    def test_gamma_scales_linearly(self):
        lam = LAMBDA_CRIT_E / 0.3
        e1 = mode_energy_massive(lam, ThermalState(ELECTRON_MASS, 300.0, gamma=1.0))
        e2 = mode_energy_massive(lam, ThermalState(ELECTRON_MASS, 300.0, gamma=2.5))
        assert e2 == pytest.approx(2.5 * e1, rel=1e-12)

    def test_boundary_raises_imaginary_energy(self):
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        with pytest.raises(ImaginaryEnergy) as excinfo:
            mode_energy_massive(LAMBDA_CRIT_E, state)
        assert excinfo.value.lambda_crit == pytest.approx(LAMBDA_CRIT_E, rel=1e-12)
        with pytest.raises(ImaginaryEnergy):
            mode_energy_massive(0.5 * LAMBDA_CRIT_E, state)

    def test_zero_mass_routes_to_photon_branch(self):
        state = ThermalState(mass=0.0, temperature=300.0)
        with pytest.raises(WrongBranch):
            mode_energy_massive(1e-6, state)


class TestModeProbabilityNonrel:
    state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)

    def test_long_wavelength_limit(self):
        assert mode_probability_nonrel(1.0, self.state) == pytest.approx(1.0, rel=1e-12)

    def test_weight_at_pi_lambda_c(self):
        # exponent hits 1 exactly at lambda = pi * lambda_c
        lam_c = correlation_length(ELECTRON_MASS, 300.0)
        w = mode_probability_nonrel(math.pi * lam_c, self.state)
        assert w == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert w == pytest.approx(0.36788, rel=1e-4)

    def test_halving_wavelength_raises_to_fourth_power(self):
        lam = 5.0 * correlation_length(ELECTRON_MASS, 300.0)
        w = mode_probability_nonrel(lam, self.state)
        w_half = mode_probability_nonrel(lam / 2.0, self.state)
        assert w_half == pytest.approx(w**4, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mode_probability_nonrel(0.0, self.state)
        with pytest.raises(DomainError):
            mode_probability_nonrel(1.0, ThermalState(mass=0.0, temperature=300.0))


class TestModeProbabilityRel:
    def test_unit_exponent(self):
        # mu = 2 and sqrt factor 1/2 give E = k_B T exactly
        state = state_with_mu(2.0)
        lam = LAMBDA_CRIT_E / (math.sqrt(3.0) / 2.0)
        assert mode_probability_rel(lam, state) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_rest_energy_limit(self):
        state = state_with_mu(2.0)
        w = mode_probability_rel(1e6 * LAMBDA_CRIT_E, state)
        assert w == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_underflow_returns_zero(self):
        # electron at room temperature: mu ~ 2e7, weight underflows to 0
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        assert mode_probability_rel(1.0, state) == 0.0

    def test_matches_energy_composition(self):
        state = state_with_mu(5.0, gamma=1.5)
        for frac in (0.1, 0.5, 0.9):
            lam = LAMBDA_CRIT_E / frac
            e = mode_energy_massive(lam, state)
            expected = math.exp(-e / (KB * state.temperature))
            assert mode_probability_rel(lam, state) == pytest.approx(expected, rel=1e-12)

    def test_equals_the_one_particle_weight_bit_for_bit(self):
        # E/kT runs from ~1.4 to ~1000 and crosses EXP_CUTOFF = 700 on the way.
        state = state_with_mu(1000.0)
        crossed = set()
        for frac in np.linspace(0.999999, 0.01, 4001).tolist():
            lam = LAMBDA_CRIT_E / frac
            x = modestats._energy_over_kt(lam, state)
            crossed.add(x > modestats.EXP_CUTOFF)
            expected = 0.0 if x > modestats.EXP_CUTOFF else math.exp(-x)
            assert mode_probability_rel(lam, state).hex() == n_particle_weight(lam, 1, state).hex() == expected.hex()
        assert crossed == {False, True}


class TestMeanEnergy:
    def test_unit_exponent_value(self):
        state = state_with_mu(2.0)
        lam = LAMBDA_CRIT_E / (math.sqrt(3.0) / 2.0)
        kt = KB * state.temperature
        got = mean_energy(lam, state)
        assert got == pytest.approx(kt / (math.e - 1.0), rel=1e-12)
        assert got / kt == pytest.approx(0.581977, rel=1e-6)

    def test_equipartition_limit(self):
        # E/kT ~ 3.9e-7: mean energy approaches k_B T from below
        state = state_with_mu(1e-6)
        lam = LAMBDA_CRIT_E / 0.92  # sqrt factor ~ 0.392
        kt = KB * state.temperature
        x = 1e-6 * math.sqrt(1.0 - 0.92**2)
        assert mean_energy(lam, state) == pytest.approx(kt * (1.0 - x / 2.0), rel=1e-9)

    @pytest.mark.parametrize("x_target", [0.1, 0.5, 1.0, 3.0, 20.0])
    def test_geometric_series_oracle(self, x_target):
        # occupation-sum oracle: sum_n n E w^n / sum_n w^n with w = exp(-E/kT)
        state = state_with_mu(2.0 * x_target)
        lam = LAMBDA_CRIT_E / (math.sqrt(3.0) / 2.0)  # sqrt factor = 1/2
        e = mode_energy_massive(lam, state)
        kt = KB * state.temperature
        n = np.arange(0, 10**6 + 1, dtype=float)
        weights = np.exp(-n * (e / kt))
        oracle = e * float(np.sum(n * weights) / np.sum(weights))
        assert mean_energy(lam, state) == pytest.approx(oracle, rel=1e-9)

    def test_underflow_returns_zero(self):
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        assert mean_energy(1.0, state) == 0.0

    def test_monotonic_in_temperature(self):
        lam = LAMBDA_CRIT_E / 0.5
        temps = ELECTRON_MASS * C**2 / (KB * np.linspace(0.5, 20.0, 30))
        values = [mean_energy(lam, ThermalState(ELECTRON_MASS, float(t))) for t in sorted(temps)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotonic_decreasing_in_mode_energy(self):
        state = state_with_mu(3.0)
        # shorter wavelength -> smaller sqrt factor -> smaller E; scan E up
        fracs = np.linspace(0.95, 0.05, 25)
        energies = []
        means = []
        for frac in fracs:
            lam = LAMBDA_CRIT_E / frac
            energies.append(mode_energy_massive(lam, state))
            means.append(mean_energy(lam, state))
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_bounds(self):
        state = state_with_mu(4.0)
        kt = KB * state.temperature
        for frac in (0.05, 0.3, 0.7, 0.99):
            m = mean_energy(LAMBDA_CRIT_E / frac, state)
            assert 0.0 < m < kt


class TestNParticleWeight:
    state = state_with_mu(2.0)
    lam = LAMBDA_CRIT_E / (math.sqrt(3.0) / 2.0)  # E = k_B T

    def test_zero_particles(self):
        assert n_particle_weight(self.lam, 0, self.state) == 1.0

    def test_two_particles_squares_single(self):
        w1 = n_particle_weight(self.lam, 1, self.state)
        w2 = n_particle_weight(self.lam, 2, self.state)
        assert w2 == pytest.approx(w1**2, rel=1e-12)

    def test_three_particles_at_unit_exponent(self):
        w3 = n_particle_weight(self.lam, 3, self.state)
        assert w3 == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert w3 == pytest.approx(0.049787, rel=1e-4)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            n_particle_weight(self.lam, -1, self.state)


class TestModeDensity:
    def test_unit_wavenumber(self):
        assert mode_density(1.0) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-15)
        assert mode_density(1.0) == pytest.approx(0.0506606, rel=1e-5)

    def test_quadratic_scaling(self):
        assert mode_density(2.0e5) == pytest.approx(4.0 * mode_density(1.0e5), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mode_density(0.0)

    def test_lattice_counting_oracle(self):
        # periodic box, L = 1: modes k = 2*pi*(n1,n2,n3); count a shell and
        # compare count/(L^3 dk) with k^2/(2*pi^2)
        n = np.arange(-14, 15)
        nx, ny, nz = np.meshgrid(n, n, n, indexing="ij")
        radius = np.sqrt(nx**2 + ny**2 + nz**2)
        count = int(np.sum((radius >= 11.5) & (radius < 12.5)))
        dk = 2.0 * math.pi
        k_mid = 2.0 * math.pi * 12.0
        assert count / dk == pytest.approx(mode_density(k_mid), rel=0.03)


class TestSpectralDensityMassive:
    def test_composition_identity(self):
        state = state_with_mu(3.0)
        for frac in (0.2, 0.5, 0.8):
            k = frac * ELECTRON_MASS * C / HBAR
            point = spectral_density_massive(k, state)
            assert point.spectral_density == pytest.approx(
                mode_density(k) * mean_energy(2.0 * math.pi / k, state), rel=1e-12
            )

    def test_low_wavenumber_suppression(self):
        state = state_with_mu(3.0)
        k0 = 1e-4 * ELECTRON_MASS * C / HBAR
        rho_small = spectral_density_massive(k0, state).spectral_density
        rho_ref = spectral_density_massive(1e3 * k0, state).spectral_density
        assert rho_small < 1.1e-6 * rho_ref
        # in the k -> 0 regime the mean energy is constant, so rho ~ k^2
        rho_half = spectral_density_massive(k0 / 2.0, state).spectral_density
        assert rho_half == pytest.approx(rho_small / 4.0, rel=1e-6)

    def test_pinned_chain_value(self):
        # mu = 10, gamma = 1, hbar k/(m c) = 0.5:
        # E/kT = 10*sqrt(0.75), <E>/kT = x/(e^x - 1) evaluated independently
        state = state_with_mu(10.0)
        k = 0.5 * ELECTRON_MASS * C / HBAR
        point = spectral_density_massive(k, state)
        kt = KB * state.temperature
        x = 10.0 * math.sqrt(0.75)
        oracle = x / math.expm1(x)
        assert point.mean_energy / kt == pytest.approx(oracle, rel=1e-12)
        assert point.mean_energy / kt == pytest.approx(1.50143e-3, rel=1e-5)

    def test_array_point_is_the_exact_product(self):
        state = state_with_mu(3.0, gamma=1.5)
        k = np.geomspace(1e-4, 0.999, 257) * ELECTRON_MASS * C / HBAR
        point = spectral_density_massive(k, state)
        assert point.k.shape == point.mode_density.shape == point.mean_energy.shape == k.shape
        assert np.array_equal(point.spectral_density, point.mode_density * point.mean_energy)
        assert np.array_equal(point.mode_density, mode_density(k))


class TestPhotonBranch:
    def test_mean_energy_at_unit_exponent(self):
        t = 300.0
        omega = KB * t / HBAR
        assert photon_mean_energy(omega, t) == pytest.approx(KB * t / (math.e - 1.0), rel=1e-12)

    def test_rayleigh_jeans_limit(self):
        t = 300.0
        omega = 1e-8 * KB * t / HBAR
        assert photon_mean_energy(omega, t) == pytest.approx(KB * t, rel=1e-7)

    def test_wien_tail(self):
        t = 300.0
        omega = 10.0 * KB * t / HBAR
        expected = HBAR * omega / math.expm1(10.0)
        got = photon_mean_energy(omega, t)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got / (KB * t) == pytest.approx(10.0 * 4.54e-5, rel=1e-2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            photon_mean_energy(0.0, 300.0)
        with pytest.raises(DomainError):
            photon_mean_energy(1e14, 0.0)


class TestPlanckSpectralDensity:
    def test_rayleigh_jeans_form(self):
        t = 300.0
        omega = 1e-8 * KB * t / HBAR
        expected = omega**2 * KB * t / (math.pi**2 * C**3)
        assert planck_spectral_density(omega, t) == pytest.approx(expected, rel=1e-7)

    def test_consistency_with_mode_density(self):
        # rho(omega) = 2 * n(omega/c) * <E> / c links the three operations
        t = 545.0
        for x in (0.1, 1.0, 5.0, 20.0):
            omega = x * KB * t / HBAR
            composed = 2.0 * mode_density(omega / C) * photon_mean_energy(omega, t) / C
            assert planck_spectral_density(omega, t) == pytest.approx(composed, rel=1e-12)

    def test_positive_with_single_interior_maximum(self):
        t = 300.0
        x = np.geomspace(1e-3, 40.0, 400)
        rho = np.array([planck_spectral_density(float(w), t) for w in x * KB * t / HBAR])
        assert np.all(rho > 0.0)
        maxima = np.nonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] > rho[2:]))[0]
        assert maxima.size == 1


class TestWienPeak:
    def test_room_temperature_value(self):
        omega = wien_peak(300.0)
        assert omega == pytest.approx(2.821439 * KB * 300.0 / HBAR, rel=1e-6)
        assert omega == pytest.approx(1.1082e14, rel=1e-4)

    def test_doubling_temperature(self):
        assert wien_peak(600.0) == pytest.approx(2.0 * wien_peak(300.0), rel=1e-9)

    def test_scaled_peak_is_temperature_independent(self):
        ratios = [HBAR * wien_peak(t) / (KB * t) for t in (3.0, 300.0, 6000.0)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            wien_peak(-5.0)


# -- array evaluation -------------------------------------------------------
#
# Reference formulas written with the math module and Python floats, in the
# operation order of the package's formulas, squares as products: the array
# path must reproduce them bit for bit (numpy's SIMD exp/expm1 would not).

K_COMPTON_E = ELECTRON_MASS * C / HBAR


def _ref_sqrt_factor(lam, state):
    ratio = (2.0 * math.pi * HBAR / (state.mass * C)) / lam
    return math.sqrt((1.0 - ratio) * (1.0 + ratio))


def _ref_bose(e, x):
    return e * math.exp(-x) if x > 700.0 else e / math.expm1(x)


def _ref_mode_energy(lam, state):
    return state.mass * state.gamma * C**2 * _ref_sqrt_factor(lam, state)


def _ref_mean_energy(lam, state):
    x = state.mass * C**2 / (KB * state.temperature) * state.gamma * _ref_sqrt_factor(lam, state)
    return _ref_bose(_ref_mode_energy(lam, state), x)


def _ref_mode_density(k):
    return k * k / (2.0 * math.pi**2)


def _ref_photon_mean(omega, t):
    return _ref_bose(HBAR * omega, HBAR * omega / (KB * t))


def _ref_planck(omega, t):
    return (omega * omega / (math.pi**2 * C**3)) * _ref_photon_mean(omega, t)


#: E/kT runs from below 1e-5 to about 1e3 across these states; the
#: electron at 1.2e7 K with gamma = 2 crosses the EXP_CUTOFF branch.
MASSIVE_STATES = [
    ThermalState(ELECTRON_MASS, 1.2e7, gamma=2.0),
    state_with_mu(3.0, gamma=2.5),
    state_with_mu(1e-5),
]
#: log-spaced k from 1e-4 k_C up to within 1e-12 of the Compton wavenumber
K_GRID = np.concatenate([np.geomspace(1e-4, 0.999, 2000), 1.0 - np.geomspace(1e-3, 1e-12, 40)]) * K_COMPTON_E
OMEGA_X = np.geomspace(1e-8, 1e3, 4000)


class TestBoseArrayPath:
    """The array path of _bose (libm per element, numpy / and *) gives the
    bits of the scalar path in every regime."""

    CUT = modestats.EXP_CUTOFF
    X = np.array([5e-324, 1e-300, 1e-17, 1e-8, 0.5, 1.0, 30.0, 699.0,
                  np.nextafter(CUT, 0.0), CUT, np.nextafter(CUT, np.inf),
                  708.0, 740.0, 745.0, 1e3, 1e5, 1e300])

    @pytest.mark.parametrize("e_scale", [1.0, 1e-30, 1e300])
    def test_matches_scalar_bits_across_the_regimes(self, e_scale):
        # e / expm1(5e-324) overflows to inf at e = 1; exp(-x) goes subnormal
        # past x ~ 708 and underflows to 0 past ~745.
        e = e_scale * np.linspace(0.5, 2.0, self.X.size)
        expected = np.array([modestats._bose(float(a), float(b)) for a, b in zip(e, self.X)])
        assert_same_bits(modestats._bose(e, self.X), expected)
        assert_same_bits(modestats._bose(e.reshape(1, -1), self.X.reshape(1, -1))[0], expected)
        below = self.X <= self.CUT
        assert_same_bits(modestats._bose(e[below], self.X[below]), expected[below])

    def test_cutoff_neighbours_take_their_branches(self):
        e = np.ones(3)
        x = np.array([np.nextafter(self.CUT, 0.0), self.CUT, np.nextafter(self.CUT, np.inf)])
        got = modestats._bose(e, x)
        assert got.tolist() == [1.0 / math.expm1(x[0]), 1.0 / math.expm1(x[1]), math.exp(-x[2])]
        # The Boltzmann weight keeps exp(-x) up to the cutoff itself, and is 0.0 past it.
        weights = [modestats._boltzmann(float(v)) for v in x]
        assert weights == [math.exp(-float(x[0])), math.exp(-700.0), 0.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain_error_is_the_scalar_one(self, bad):
        with pytest.raises(DomainError) as scalar:
            modestats._bose(1.0, bad)
        with pytest.raises(DomainError) as array:
            modestats._bose(np.ones(3), np.array([1.0, bad, 800.0]))
        assert str(array.value) == str(scalar.value)


class TestArrayEvaluation:
    @pytest.mark.parametrize("state", MASSIVE_STATES, ids=["cutoff-gamma2", "mu3-gamma2.5", "equipartition"])
    def test_massive_formulas_match_scalar_bits(self, state):
        lam = 2.0 * math.pi / K_GRID
        energy = mode_energy_massive(lam, state)
        assert np.array_equal(energy, [mode_energy_massive(float(v), state) for v in lam])
        assert np.array_equal(energy, [_ref_mode_energy(float(v), state) for v in lam])
        mean = mean_energy(lam, state)
        assert np.array_equal(mean, [mean_energy(float(v), state) for v in lam])
        assert np.array_equal(mean, [_ref_mean_energy(float(v), state) for v in lam])
        point = spectral_density_massive(K_GRID, state)
        scalar = [spectral_density_massive(float(k), state) for k in K_GRID]
        for field in ("k", "mode_density", "mean_energy", "spectral_density"):
            assert np.array_equal(getattr(point, field), [getattr(p, field) for p in scalar])

    def test_cutoff_branch_is_exercised(self):
        state = MASSIVE_STATES[0]
        x = state.mass * C**2 / (KB * state.temperature) * state.gamma
        lam = 2.0 * math.pi / K_GRID
        xs = np.array([x * _ref_sqrt_factor(float(v), state) for v in lam])
        assert xs.min() < 700.0 < xs.max()

    def test_mode_density_matches_scalar_bits(self):
        nk = mode_density(K_GRID)
        assert np.array_equal(nk, [mode_density(float(k)) for k in K_GRID])
        assert np.array_equal(nk, [_ref_mode_density(float(k)) for k in K_GRID])

    @pytest.mark.parametrize("t", [300.0, 1.2e7, 1e-3])
    def test_photon_formulas_match_scalar_bits(self, t):
        omega = OMEGA_X * KB * t / HBAR
        mean = photon_mean_energy(omega, t)
        assert np.array_equal(mean, [photon_mean_energy(float(w), t) for w in omega])
        assert np.array_equal(mean, [_ref_photon_mean(float(w), t) for w in omega])
        rho = planck_spectral_density(omega, t)
        assert np.array_equal(rho, [planck_spectral_density(float(w), t) for w in omega])
        assert np.array_equal(rho, [_ref_planck(float(w), t) for w in omega])

    @pytest.mark.parametrize("t", [300.0, 1.2e7])
    def test_photon_spectrum_is_both_formulas(self, t):
        omega = OMEGA_X * KB * t / HBAR
        mean, rho = photon_spectrum(omega, t)
        assert np.array_equal(mean, photon_mean_energy(omega, t))
        assert np.array_equal(rho, planck_spectral_density(omega, t))
        assert photon_spectrum(float(omega[3]), t) == (mean[3], rho[3])

    def test_scalars_return_python_floats(self):
        state = MASSIVE_STATES[1]
        lam = 2.0 * math.pi / (0.5 * K_COMPTON_E)
        for value in (
            mode_energy_massive(lam, state),
            mean_energy(np.float64(lam), state),
            mode_density(2.0),
            photon_mean_energy(1e14, 300.0),
            planck_spectral_density(1e14, 300.0),
            *vars(spectral_density_massive(0.5 * K_COMPTON_E, state)).values(),
            # 0-d arrays: np.float64 above is a float subclass, these are not
            mode_energy_massive(np.array(lam), state),
            mean_energy(np.array(lam), state),
            mode_density(np.array(2.0)),
            photon_mean_energy(np.array(1e14), 300.0),
            planck_spectral_density(np.array(1e14), 300.0),
        ):
            assert type(value) is float

    def test_array_shape_is_kept(self):
        omega = np.geomspace(1e12, 1e15, 12).reshape(3, 4)
        assert planck_spectral_density(omega, 300.0).shape == (3, 4)
        assert mean_energy(2.0 * math.pi / K_GRID[:12].reshape(4, 3), MASSIVE_STATES[1]).shape == (4, 3)

    def test_array_domain_errors_name_the_first_bad_element(self):
        state = MASSIVE_STATES[1]
        lam = np.array([1.0, 0.5 * LAMBDA_CRIT_E, 0.25 * LAMBDA_CRIT_E])
        with pytest.raises(ImaginaryEnergy) as excinfo:
            mean_energy(lam, state)
        assert excinfo.value.wavelength == lam[1]
        with pytest.raises(DomainError):
            mode_density(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            photon_mean_energy(np.array([1e14, np.nan]), 300.0)
        with pytest.raises(WrongBranch):
            spectral_density_massive(K_GRID, ThermalState(0.0, 300.0))

    def test_underflowed_energy_is_a_domain_error(self):
        # hbar*omega underflows to 0 below omega ~ 5e-290 rad/s
        with pytest.raises(DomainError, match="underflows"):
            photon_mean_energy(np.array([1e14, 1e-300]), 300.0)
        with pytest.raises(DomainError, match="temperature"):
            photon_mean_energy(1e14, math.inf)

    def test_overflowing_power_is_a_domain_error(self):
        with pytest.raises(DomainError, match="leaves the double range"):
            planck_spectral_density(np.array([1e14, 1e200]), 300.0)
        with pytest.raises(DomainError, match="leaves the double range"):
            planck_spectral_density(1e200, 300.0)
        with pytest.raises(DomainError, match="leaves the double range"):
            mode_density(np.array([1.0, 1e160]))
