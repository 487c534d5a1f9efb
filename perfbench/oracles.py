"""Value oracles for the outputs of the qvac CLI.

Each check evaluates the expected values independently with numpy and the
CODATA constants in ``inputs``, and returns a list of problems; an empty
list means the output is correct.  The checks compare values, not bytes,
so a change to number formatting or report layout that keeps the values
still passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from inputs import C, G_NEWTON, HBAR, K_B, PLANCK_MASS

PLANCK_ENERGY = PLANCK_MASS * C**2

#: Relative tolerance for values the program computes by the same formula
#: in another order (unit round trips, SI detours).
RTOL = 1e-9


@dataclass
class CsvTable:
    columns: list[str]
    data: np.ndarray
    footer: dict[str, str]


def read_table(path: str) -> CsvTable:
    """Parse the CLI's CSV layout: ``#`` comments, a header, data rows and
    ``# key = value`` footer lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    footer, rows = {}, []
    columns = None
    for line in lines:
        if line.startswith("#"):
            if columns is not None:
                key, _, value = line[1:].partition("=")
                footer[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line)
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(columns or ())))
    return CsvTable(columns or [], data, footer)


def _compare(label: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    bad = ~(err <= atol + rtol * np.abs(want))
    if not np.any(bad):
        return []
    i = int(np.flatnonzero(bad.ravel())[0])
    return [f"{label}: {int(bad.sum())} value(s) off, first at flat index {i}: got {float(got.ravel()[i])!r}, expected {float(want.ravel()[i])!r}"]


def _table(path: str, columns: tuple[str, ...], rows: int) -> tuple[CsvTable | None, list[str]]:
    try:
        table = read_table(path)
    except (OSError, ValueError) as exc:
        return None, [f"{path}: unreadable ({exc})"]
    if tuple(table.columns) != columns:
        return None, [f"{path}: columns {table.columns}, expected {list(columns)}"]
    if table.data.shape[0] != rows:
        return None, [f"{path}: {table.data.shape[0]} rows, expected {rows}"]
    return table, []


# ---------------------------------------------------------------------------
# spectra

def check_spectrum_natural(path: str, mass: float, temp: float, points: int) -> list[str]:
    """``spectrum --units Natural`` with the default k range: mass in m_p,
    temperature in Planck temperatures, so E = m*sqrt(1 - (k/m)^2)."""
    table, problems = _table(path, ("k", "lambda", "mode_energy", "mean_energy", "mode_density", "spectral_density"), points)
    if table is None:
        return problems
    k = np.geomspace(1e-3 * mass, 0.999 * mass, points)
    energy = mass * np.sqrt(1.0 - (k / mass) ** 2)
    mean = energy / np.expm1(energy / temp)
    density = k**2 / (2.0 * math.pi**2)
    want = (k, 2.0 * math.pi / k, energy, mean, density, density * mean)
    for j, name in enumerate(table.columns):
        problems += _compare(f"spectrum {name}", table.data[:, j], want[j])
    return problems


def wien_x() -> float:
    """Root of 3*(1 - exp(-x)) = x near 2.82, by Newton's method."""
    x = 3.0
    for _ in range(50):
        x -= (3.0 * -math.expm1(-x) - x) / (3.0 * math.exp(-x) - 1.0)
    return x


def check_photon_spectrum(path: str, temp: float, points: int) -> list[str]:
    """``photon-spectrum`` in SI with the default omega range, plus the Wien
    peak and the Stefan-Boltzmann integral in the footer."""
    table, problems = _table(path, ("omega", "mean_energy", "spectral_density"), points)
    if table is None:
        return problems
    kt = K_B * temp
    omega = np.geomspace(0.01 * kt / HBAR, 25.0 * kt / HBAR, points)
    mean = HBAR * omega / np.expm1(HBAR * omega / kt)
    rho = omega**2 / (math.pi**2 * C**3) * mean
    for j, want in enumerate((omega, mean, rho)):
        problems += _compare(f"photon-spectrum {table.columns[j]}", table.data[:, j], want)
    try:
        peak = float(table.footer["peak_omega"])
        integral = float(table.footer["integral"])
    except (KeyError, ValueError):
        return problems + [f"{path}: footer lacks peak_omega or integral"]
    if not abs(HBAR * peak / kt - wien_x()) <= 1e-7:
        problems.append(f"photon-spectrum Wien peak x = {HBAR * peak / kt!r}, expected {wien_x()!r}")
    stefan = math.pi**2 * kt**4 / (15.0 * HBAR**3 * C**3)
    if not abs(integral / stefan - 1.0) <= 1e-6:
        problems.append(f"photon-spectrum integral {integral!r}, expected {stefan!r} within 1e-6")
    return problems


def check_correlation(path: str, mass: float, temp: float, points: int, xi_max: float = 3.0) -> list[str]:
    """``correlation`` in SI: lags, the analytic Gaussian, and the numeric
    transform within 1e-6 of it."""
    table, problems = _table(path, ("xi", "G_numeric", "G_analytic", "abs_error"), points)
    if table is None:
        return problems
    lambda_c = 2.0 * HBAR / math.sqrt(2.0 * mass * K_B * temp)
    xi = np.linspace(0.0, xi_max * lambda_c, points)
    analytic = np.exp(-((xi / lambda_c) ** 2))
    xi_got, numeric, analytic_got, abs_error = table.data.T
    problems += _compare("correlation xi", xi_got, xi, atol=1e-12 * lambda_c)
    problems += _compare("correlation G_analytic", analytic_got, analytic, atol=1e-15)
    problems += _compare("correlation G_numeric", numeric, analytic, rtol=0.0, atol=1e-6)
    problems += _compare("correlation abs_error", abs_error, np.abs(numeric - analytic_got), atol=1e-18)
    if not np.all(abs_error < 1e-6):
        problems.append("correlation abs_error reaches 1e-6")
    return problems


def check_blackhole_json(path: str, mass_planck: float) -> list[str]:
    """``blackhole <m> --format json`` in SI."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    m = mass_planck * PLANCK_MASS
    r_g = 2.0 * G_NEWTON * m / C**2
    vqu_printed = 1.5 * (PLANCK_MASS / (2.0 * m)) ** 3 * PLANCK_ENERGY
    e_grav = -0.5 * m * C**2
    want = {
        "gravitational_radius": r_g,
        "vqu_printed": vqu_printed,
        "vqu_geometric": 3.0 * HBAR**2 / m * (math.pi / (2.0 * r_g)) ** 2,
        "e_grav": e_grav,
        "e_binding": e_grav + vqu_printed,
    }
    try:
        got = {key: doc[key] for key in want}
        got_mass = (doc["mass"]["m_p"], doc["mass"]["kg"])
        stable = doc["stable"]
    except (KeyError, TypeError):
        return [f"{path}: report lacks a field"]
    problems = []
    for key, value in want.items():
        # Near the threshold e_binding is a difference of nearly equal terms.
        atol = 1e-12 * abs(e_grav) if key == "e_binding" else 0.0
        problems += _compare(f"blackhole {key}", got[key], value, atol=atol)
    problems += _compare("blackhole mass", got_mass, (mass_planck, m))
    if stable != (want["e_binding"] < 0.0):
        problems.append(f"blackhole stable = {stable!r} for e_binding {want['e_binding']!r}")
    return problems


def check_threshold_text(path: str) -> list[str]:
    """``blackhole --threshold`` text: (3/8)^(1/4) m_p."""
    try:
        with open(path) as fh:
            fields = dict(line.split(":", 1) for line in fh.read().splitlines()[1:])
        planck_units = float(fields["  m_p units"])
        kg = float(fields["  kg"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: unreadable threshold ({exc!r})"]
    want = (3.0 / 8.0) ** 0.25
    return _compare("threshold m_p units", planck_units, want, rtol=1e-12) + _compare(
        "threshold kg", kg, want * PLANCK_MASS, rtol=1e-12
    )


# ---------------------------------------------------------------------------
# qpot

def _periodic_laplacian(s: np.ndarray, h: float, axes: tuple[int, ...]) -> np.ndarray:
    lap = np.zeros_like(s)
    for axis in axes:
        lap += (np.roll(s, -1, axis) - 2.0 * s + np.roll(s, 1, axis)) / h**2
    return lap


def _weighted_mean(n: np.ndarray, v: np.ndarray) -> float:
    return float((n * v).sum() / n.sum())


def check_qpot_lattice(path: str, values: np.ndarray, spacing: float, mass: float) -> list[str]:
    """``qpot <lattice> --periodic`` in SI: coordinates, V_qu at every cell
    and the density-weighted mean in the footer."""
    shape = values.shape
    table, problems = _table(path, ("qx", "qy", "qz", "vqu"), values.size)
    if table is None:
        return problems
    coords = np.meshgrid(*(np.arange(n) * spacing for n in shape), indexing="ij")
    for j, label in enumerate(("qx", "qy", "qz")):
        problems += _compare(f"qpot {label}", table.data[:, j], coords[j].ravel(), rtol=1e-12, atol=1e-12 * spacing)
    s = np.sqrt(values)
    vqu = -(HBAR**2 / (2.0 * mass)) * _periodic_laplacian(s, spacing, (0, 1, 2)) / s
    scale = float(np.abs(vqu).max())
    problems += _compare("qpot vqu", table.data[:, 3], vqu.ravel(), atol=RTOL * scale)
    return problems + _check_mean(table, _weighted_mean(values, vqu), scale)


def check_qpot_spacetime(path: str, values: np.ndarray, spacing: float, dt: float, mass: float) -> list[str]:
    """``qpot <t,q,n grid> --periodic --dt <dt>`` in SI: the wave-operator
    form on the interior time slices."""
    slices, points = values.shape
    table, problems = _table(path, ("t", "q", "vqu"), (slices - 2) * points)
    if table is None:
        return problems
    t, q = np.meshgrid(np.arange(1, slices - 1) * dt, np.arange(points) * spacing, indexing="ij")
    problems += _compare("qpot t", table.data[:, 0], t.ravel(), rtol=1e-12)
    problems += _compare("qpot q", table.data[:, 1], q.ravel(), rtol=1e-12, atol=1e-12 * spacing)
    s = np.sqrt(values)
    d2t = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / dt**2
    box = d2t / C**2 - _periodic_laplacian(s, spacing, (1,))[1:-1]
    vqu = -(HBAR**2 / mass) * box / s[1:-1]
    scale = float(np.abs(vqu).max())
    problems += _compare("qpot vqu", table.data[:, 2], vqu.ravel(), atol=RTOL * scale)
    mean = float(np.mean([_weighted_mean(n, v) for n, v in zip(values[1:-1], vqu)]))
    return problems + _check_mean(table, mean, scale)


def _check_mean(table: CsvTable, want: float, scale: float) -> list[str]:
    try:
        got = float(table.footer["mean_qp_energy"])
    except (KeyError, ValueError):
        return ["qpot footer lacks mean_qp_energy"]
    return _compare("qpot mean_qp_energy", got, want, atol=RTOL * scale)


# ---------------------------------------------------------------------------
# sample

def check_sample_report(path: str, config: dict) -> tuple[list[str], bool]:
    """``sample --report-out``: the report parses, echoes its config, and
    G(lambda_c) lies within 0.02 of 1/e.

    Returns the problems and whether the report says its estimators
    passed; a failing estimator is the program's verdict on its own
    statistics, not a broken output, so it is not a problem here.
    """
    try:
        with open(path) as fh:
            report = json.load(fh)
        at_lc = report["correlation"]["at_lambda_c"]
        probes = report["correlation"]["probes"]
        sample_count = report["gaussianity"]["sample_count"]
        passed = report["pass"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable report ({exc!r})"], False
    problems = []
    if at_lc != probes.get("1", {}).get("measured"):
        problems.append(f"sample at_lambda_c {at_lc!r} differs from the probe at 1*lambda_c")
    if report.get("config") != config:
        problems.append(f"sample report config {report.get('config')!r}, expected {config!r}")
    if not abs(at_lc - math.exp(-1.0)) <= 0.02:
        problems.append(f"sample G(lambda_c) = {at_lc!r}, not within 0.02 of 1/e")
    for mult in (0.5, 1.0, 2.0):
        probe = probes.get(f"{mult:g}", {})
        if probe.get("expected") != math.exp(-(mult**2)) or probe.get("abs_error") != abs(
            probe.get("measured", math.nan) - math.exp(-(mult**2))
        ):
            problems.append(f"sample probe {mult:g} is inconsistent: {probe!r}")
    if sample_count != config["grid_points"] * config["realizations"]:
        problems.append(f"sample gaussianity sample_count {sample_count!r}")
    if not isinstance(passed, bool):
        problems.append(f"sample report pass = {passed!r}")
    return problems, passed is True
