"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance,
prints one pass/fail line, and asserts.  Run with

    pytest -s tests/test_acceptance.py

to see the per-criterion lines.
"""

import math
import time

import numpy as np

from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    GridDensity,
    SamplerConfig,
    ThermalState,
    analytic_correlation,
    binding_energy,
    build_sample_report,
    correlation_from_spectrum,
    empirical_correlation,
    gaussian_mode_spectrum,
    gaussian_spectrum,
    gaussianity_check,
    mean_energy,
    mode_density,
    mode_energy_massive,
    mode_probability_nonrel,
    planck_spectral_density,
    report_json_bytes,
    sample_field,
    stability_threshold,
    vqu_grid_dalembert,
    vqu_grid_nonrel,
    vqu_sinusoid,
    wien_peak,
)
from qvac.blackhole import bh_vqu_geometric, bh_vqu_printed

from helpers import cos2_density, offnode_mask

HBAR = CONSTANTS.hbar
C = CONSTANTS.c
KB = CONSTANTS.k_boltzmann
MP = CONSTANTS.planck_mass
EP = CONSTANTS.planck_energy


def _criterion(number: int, description: str, ok: bool, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} | {detail} | {elapsed:.2f}s (< {budget:g}s)")
    assert ok, f"criterion {number}: {detail}"
    assert in_budget, f"criterion {number}: runtime {elapsed:.2f}s exceeds {budget:g}s"


def test_criterion_01_wien_peak():
    start = time.perf_counter()
    temperatures = (3.0, 300.0, 6000.0)
    x_values = [HBAR * wien_peak(t) / (KB * t) for t in temperatures]
    peak_ok = all(abs(x - 2.821439) <= 1e-6 for x in x_values)
    spread = max(abs(a / b - 1.0) for a in x_values for b in x_values)
    ratio_ok = spread <= 1e-9
    _criterion(
        1,
        "Wien peak x* = 2.821439 +/- 1e-6 at 3/300/6000 K, ratio invariant to 1e-9",
        peak_ok and ratio_ok,
        f"x* = {x_values[1]:.8f}, max T-spread = {spread:.2e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_02_stefan_boltzmann():
    start = time.perf_counter()
    temperature = 300.0
    x = np.geomspace(1e-4, 50.0, 100000)
    omega = x * KB * temperature / HBAR
    rho = np.array([planck_spectral_density(float(w), temperature) for w in omega])
    integral = float(np.trapezoid(rho, omega))
    reference = (math.pi**2 / 15.0) * (KB * temperature) ** 4 / (HBAR**3 * C**3)
    rel = abs(integral / reference - 1.0)
    _criterion(
        2,
        "Stefan-Boltzmann: trapezoid integral matches (pi^2/15)(kT)^4/(hbar^3 c^3) to 1e-4",
        rel <= 1e-4,
        f"rel error = {rel:.2e} (pi^4/15 = {math.pi**4 / 15.0:.9f})",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_03_bose_occupancy_oracle():
    start = time.perf_counter()
    lambda_crit = 2.0 * math.pi * HBAR / (ELECTRON_MASS * C)
    wavelength = lambda_crit / (math.sqrt(3.0) / 2.0)  # sqrt factor = 1/2
    n = np.arange(0, 10**6 + 1, dtype=float)
    worst = 0.0
    for x_target in (0.1, 0.5, 1.0, 3.0, 10.0):
        # mu = 2*x so that E/kT = x exactly
        temperature = ELECTRON_MASS * C**2 / (KB * 2.0 * x_target)
        state = ThermalState(mass=ELECTRON_MASS, temperature=temperature)
        e = mode_energy_massive(wavelength, state)
        weights = np.exp(-n * (e / (KB * temperature)))
        oracle = e * float(np.sum(n * weights) / np.sum(weights))
        worst = max(worst, abs(mean_energy(wavelength, state) / oracle - 1.0))
    _criterion(
        3,
        "closed-form Bose mean energy matches n<=1e6 geometric series to 1e-9",
        worst <= 1e-9,
        f"worst rel deviation = {worst:.2e} over E/kT in {{0.1,0.5,1,3,10}}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_04_lattice_mode_density():
    start = time.perf_counter()
    # periodic box L = 1: modes k = 2*pi*(n1,n2,n3); shell at k L/(2*pi) = 20
    n = np.arange(-23, 24)
    nx, ny, nz = np.meshgrid(n, n, n, indexing="ij")
    radius = np.sqrt(nx**2 + ny**2 + nz**2)
    count = int(np.sum((radius >= 19.5) & (radius < 20.5)))
    delta_k = 2.0 * math.pi  # one lattice step in k
    estimate = count / delta_k
    reference = mode_density(2.0 * math.pi * 20.0)
    rel = abs(estimate / reference - 1.0)
    _criterion(
        4,
        "brute-force lattice counting at k L/(2 pi) = 20 matches k^2/(2 pi^2) to 2%",
        rel <= 0.02,
        f"count = {count}, rel deviation = {rel:.2%}",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_05_quantum_potential_convergence():
    start = time.perf_counter()
    wavelength = 1e-9
    target = vqu_sinusoid(wavelength, ELECTRON_MASS)
    errors = []
    for points in (64, 128, 256):
        density, q = cos2_density(wavelength, points)
        v = vqu_grid_nonrel(density, ELECTRON_MASS)
        keep = offnode_mask(q, wavelength, density.spacing)
        errors.append(float(np.max(np.abs(v[keep] - target))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = all(1.8 <= p <= 2.2 for p in orders)
    _criterion(
        5,
        "finite-difference V_qu of the cos^2 mode converges at order 2.0 +/- 0.2",
        ok,
        f"observed orders = {orders[0]:.3f}, {orders[1]:.3f}; target (hbar^2/2m)k^2 = {target:.6e} J",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_06_photon_nullity():
    start = time.perf_counter()
    wavelength = 1e-9
    points = 64
    h = wavelength / points
    dt = h / C  # matched spacetime grid: c*dt = h
    q = (np.arange(points) + 0.5) * h
    t = (np.arange(3) - 1) * dt
    phase = 2.0 * math.pi * (q[None, :] - C * t[:, None]) / wavelength
    density = GridDensity(np.cos(phase) ** 2, h, dims=1, periodic=True, time_axis=True)
    v = vqu_grid_dalembert(density, ELECTRON_MASS, dt)[1]
    static_magnitude = (HBAR**2 / ELECTRON_MASS) * (2.0 * math.pi / wavelength) ** 2
    ratio = float(np.max(np.abs(v))) / static_magnitude
    _criterion(
        6,
        "wave-operator V_qu of a lightlike cos^2 mode is < 1e-8 of the static magnitude",
        ratio < 1e-8,
        f"max |V|/static = {ratio:.2e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_07_correlation_fourier_pair():
    start = time.perf_counter()
    worst_abs = 0.0
    worst_length = 0.0
    for lambda_c in np.logspace(-12.0, -6.0, 7):
        spectrum = gaussian_mode_spectrum(float(lambda_c))
        xi = np.linspace(0.0, 3.0 * lambda_c, 311)
        result = correlation_from_spectrum(spectrum, xi)
        worst_abs = max(worst_abs, float(np.max(np.abs(result.g_values - analytic_correlation(xi, float(lambda_c))))))
        worst_length = max(worst_length, abs(result.lambda_c / lambda_c - 1.0))
    ok = worst_abs < 1e-6 and worst_length < 1e-3
    _criterion(
        7,
        "numeric G matches exp[-(xi/lambda_c)^2] to 1e-6 over 1e-12..1e-6 m; 1/e lag to 0.1%",
        ok,
        f"max abs error = {worst_abs:.2e}, worst recovered-length rel = {worst_length:.2e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_08_sampler_statistics():
    start = time.perf_counter()
    lambda_c = 1e-9
    config = SamplerConfig(
        grid_points=1024, extent=40.0 * lambda_c, lambda_c=lambda_c, seed=3, realizations=4096
    )
    field = sample_field(config)
    corr = empirical_correlation(field)
    at_lc = float(np.interp(lambda_c, corr.xi_grid, corr.g_values))
    corr_ok = abs(at_lc - math.exp(-1.0)) <= 0.02
    gauss = gaussianity_check(field)
    first = report_json_bytes(build_sample_report(config, field))
    second = report_json_bytes(build_sample_report(config, sample_field(config)))
    repro_ok = first == second
    _criterion(
        8,
        "4096x1024 sampler: G(lambda_c) in 1/e +/- 0.02, gaussianity at 5 sigma, byte-identical reports",
        corr_ok and gauss.passed and repro_ok,
        f"G(lambda_c) = {at_lc:.5f} (1/e = {math.exp(-1.0):.5f}), skew = {gauss.skewness:+.2e}, "
        f"kurt = {gauss.excess_kurtosis:+.2e}, reports identical = {repro_ok}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_09_black_hole_threshold():
    start = time.perf_counter()
    threshold = stability_threshold()
    closed_form = (3.0 / 8.0) ** 0.25
    root_ok = abs(threshold.planck_units / closed_form - 1.0) <= 1e-12
    quoted_ok = abs(threshold.planck_units / (1.11 / math.sqrt(2.0)) - 1.0) <= 5e-3
    e_b = binding_energy(MP)
    binding_ok = abs(e_b / (-0.3125 * EP) - 1.0) <= 1e-14
    masses = np.logspace(-1.0, 1.0, 100) * MP
    values = np.array([binding_energy(float(m)) for m in masses])
    monotone_ok = bool(np.all(np.diff(values) < 0.0))
    unique_root_ok = int(np.sum(np.sign(values[:-1]) != np.sign(values[1:]))) == 1
    _criterion(
        9,
        "threshold = (3/8)^(1/4) m_p to 1e-12, ~1.11 m_p/sqrt(2) to 0.5%; E_b(m_p) = -0.3125 m_p c^2",
        root_ok and quoted_ok and binding_ok and monotone_ok and unique_root_ok,
        f"root = {threshold.planck_units:.15f} m_p, E_b(m_p)/(m_p c^2) = {e_b / EP:.17f}, "
        f"monotone = {monotone_ok}, single sign change = {unique_root_ok}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_10_internal_consistency_pins():
    start = time.perf_counter()
    masses = (0.3 * MP, (3.0 / 8.0) ** 0.25 * MP, MP, 10.0 * MP, 1e3 * MP)
    pi2 = math.pi**2
    ratio_dev = max(abs(bh_vqu_geometric(m) / bh_vqu_printed(m) / pi2 - 1.0) for m in masses)
    ratio_ok = ratio_dev <= 1e-12
    state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
    from qvac import correlation_length

    lambda_c = correlation_length(ELECTRON_MASS, 300.0)
    spectrum_dev = 0.0
    for k in np.geomspace(1e-3, 4.0, 50) / lambda_c:
        s = gaussian_spectrum(float(k), lambda_c)
        p = mode_probability_nonrel(2.0 * math.pi / float(k), state)
        spectrum_dev = max(spectrum_dev, abs(s / p - 1.0))
    spectrum_ok = spectrum_dev <= 1e-12
    _criterion(
        10,
        "vqu_geometric/vqu_printed = pi^2 at five masses; spectrum = nonrel weight at 50 k",
        ratio_ok and spectrum_ok,
        f"max pi^2 deviation = {ratio_dev:.2e}, max spectrum deviation = {spectrum_dev:.2e}",
        time.perf_counter() - start,
        1.0,
    )
