"""Command-line front end.

Every computation is exposed as a subcommand emitting CSV (default) or a
single JSON document, suitable for piping into external plotting tools.

CSV conventions: ``.`` decimal separator, ``,`` field separator,
``#``-prefixed comment lines for metadata and footers, scientific notation
with 17 significant digits (lossless for doubles).  Warnings go to stderr,
never into the data stream.

Exit codes: 0 success, 1 usage error, 2 domain/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import blackhole as bh
from . import correlation as corr
from . import modestats as ms
from . import qpotential as qp
from . import sampler as smp
from .constants import CONSTANTS, ThermalState, UnitSystem, compton_wavenumber
from .errors import (
    ConfigError,
    DomainError,
    ImaginaryEnergy,
    InsufficientTail,
    SingularDensity,
    WrongBranch,
)

_FLOAT_FMT = "%.16e"

_HANDLED_ERRORS = (
    DomainError,
    ConfigError,
    SingularDensity,
    ImaginaryEnergy,
    WrongBranch,
    InsufficientTail,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception so the
    CLI can exit with code 1 (argparse's default is 2)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _fmt(value: float) -> str:
    return _FLOAT_FMT % float(value)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _render_csv(comments, columns, rows, footer_comments=()) -> str:
    """``rows`` is an iterable of rows, each a sequence of Python floats."""
    line_fmt = ",".join([_FLOAT_FMT] * len(columns))
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines.extend(line_fmt % tuple(row) for row in rows)
    lines.extend(f"# {c}" for c in footer_comments)
    return "\n".join(lines) + "\n"


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit_table(args, command, meta, columns, rows, footer=None, footer_comments=()) -> None:
    if args.format == "json":
        doc = {"command": command, "units": args.units, "meta": meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        if footer is not None:
            doc["footer"] = footer
        _write_output(args.output, _render_json(doc))
    else:
        comments = [f"{key} = {value}" for key, value in meta.items()]
        _write_output(args.output, _render_csv(comments, columns, rows, footer_comments))


def _finite_rows(columns: dict) -> list:
    """Rows of Python floats from named 1-D columns; a non-finite value is a DomainError, never a row."""
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise DomainError(f"{name} leaves the double range at these inputs")
    return np.column_stack(tuple(columns.values())).tolist()


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# spectrum

def _cmd_spectrum(args) -> int:
    units = UnitSystem.parse(args.units)
    mass = units.to_si(args.mass, "mass")
    temp = units.to_si(args.temp, "temperature")
    state = ThermalState(mass=mass, temperature=temp, gamma=args.gamma)
    if args.points < 1:
        raise DomainError("points must be >= 1")
    k_c = compton_wavenumber(mass)
    k_max = units.to_si(args.k_max, "wavenumber") if args.k_max is not None else 0.999 * k_c
    k_min = units.to_si(args.k_min, "wavenumber") if args.k_min is not None else 1e-3 * k_c
    if k_max >= k_c:
        k_max = 0.999 * k_c
        _warn(
            f"k_max reaches the Compton boundary m*c/hbar = {k_c:.9e} 1/m; "
            f"clamped to 0.999*m*c/hbar"
        )
    if not 0.0 < k_min <= k_max < math.inf:
        raise DomainError("k_min must satisfy 0 < k_min <= k_max < inf (after any clamping)")
    point = ms.spectral_density_massive(np.geomspace(k_min, k_max, args.points), state)
    wavelength = 2.0 * math.pi / point.k
    columns = {
        "k": units.from_si(point.k, "wavenumber"),
        "lambda": units.from_si(wavelength, "length"),
        "mode_energy": units.from_si(ms.mode_energy_massive(wavelength, state), "energy"),
        "mean_energy": units.from_si(point.mean_energy, "energy"),
        "mode_density": units.from_si(point.mode_density, "mode_density"),
        "spectral_density": units.from_si(point.spectral_density, "spectral_density_wavenumber"),
    }
    meta = {
        "mass": args.mass,
        "temp": args.temp,
        "gamma": args.gamma,
        "units": args.units,
        "compton_wavenumber": units.from_si(k_c, "wavenumber"),
    }
    _emit_table(args, "spectrum", meta, tuple(columns), _finite_rows(columns))
    return 0


# ---------------------------------------------------------------------------
# photon-spectrum

def _cmd_photon_spectrum(args) -> int:
    units = UnitSystem.parse(args.units)
    temp = units.to_si(args.temp, "temperature")
    if not (math.isfinite(temp) and temp > 0.0):
        raise DomainError("temp must be finite and > 0")
    if args.points < 1:
        raise DomainError("points must be >= 1")
    kt_over_hbar = CONSTANTS.k_boltzmann * temp / CONSTANTS.hbar
    omega_min = units.to_si(args.omega_min, "angular_frequency") if args.omega_min is not None else 0.01 * kt_over_hbar
    omega_max = units.to_si(args.omega_max, "angular_frequency") if args.omega_max is not None else 25.0 * kt_over_hbar
    if not 0.0 < omega_min <= omega_max < math.inf:
        raise DomainError("omega bounds must satisfy 0 < omega_min <= omega_max < inf")
    omega_grid = np.geomspace(omega_min, omega_max, args.points)
    rho = ms.planck_spectral_density(omega_grid, temp)
    columns = {
        "omega": units.from_si(omega_grid, "angular_frequency"),
        "mean_energy": units.from_si(ms.photon_mean_energy(omega_grid, temp), "energy"),
        "spectral_density": units.from_si(rho, "spectral_density_frequency"),
    }
    rows = _finite_rows(columns)
    meta = {"temp": args.temp, "units": args.units}
    footer, footer_comments = None, ()
    if args.points >= 2:
        peak = ms.wien_peak(temp)
        integral = float(np.trapezoid(rho, omega_grid))
        if not math.isfinite(integral):
            raise DomainError("integral leaves the double range at these inputs")
        footer = {
            "peak_omega": units.from_si(peak, "angular_frequency"),
            "integral": units.from_si(integral, "energy_density"),
        }
        footer_comments = (
            f"peak_omega = {_fmt(footer['peak_omega'])}",
            f"integral = {_fmt(footer['integral'])}",
        )
    _emit_table(args, "photon-spectrum", meta, tuple(columns), rows,
                footer=footer, footer_comments=footer_comments)
    return 0


# ---------------------------------------------------------------------------
# correlation

def _cmd_correlation(args) -> int:
    units = UnitSystem.parse(args.units)
    mass = units.to_si(args.mass, "mass")
    temp = units.to_si(args.temp, "temperature")
    if args.points < 2:
        raise DomainError("points must be >= 2")
    if not (math.isfinite(args.xi_max) and args.xi_max > 0.0):
        raise DomainError("xi-max must be finite and > 0")
    lambda_c = corr.correlation_length(mass, temp)
    spectrum = corr.gaussian_mode_spectrum(lambda_c)
    xi = np.linspace(0.0, args.xi_max * lambda_c, args.points)
    numeric = corr.correlation_from_spectrum(spectrum, xi)
    analytic = corr.analytic_correlation(xi, lambda_c)
    columns = {
        "xi": units.from_si(xi, "length"),
        "G_numeric": numeric.g_values,
        "G_analytic": analytic,
        "abs_error": np.abs(numeric.g_values - analytic),
    }
    meta = {
        "mass": args.mass,
        "temp": args.temp,
        "units": args.units,
        "lambda_c": units.from_si(lambda_c, "length"),
        "recovered_lambda_c": units.from_si(numeric.lambda_c, "length")
        if math.isfinite(numeric.lambda_c)
        else None,
    }
    _emit_table(args, "correlation", meta, tuple(columns), _finite_rows(columns))
    return 0


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args) -> int:
    config = smp.load_config(args.config)
    field = smp.sample_field(config)
    report = smp.build_sample_report(config, field)
    with open(args.report_out, "wb") as fh:
        fh.write(smp.report_json_bytes(report))
    if not args.no_field:
        comments = [f"{key} = {value}" for key, value in config.as_dict().items()]
        columns = [f"x{i}" for i in range(config.grid_points)]
        text = _render_csv(comments, columns, (row.tolist() for row in field.values))
        with open(args.field_out, "w") as fh:
            fh.write(text)
    summary = "pass" if report["pass"] else "FAIL"
    print(
        f"sample: {config.realizations} realizations on {config.grid_points} points; "
        f"G(lambda_c) = {report['correlation']['at_lambda_c']:.6f} "
        f"(target {report['correlation']['target']:.6f}); estimators {summary}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# qpot

def _cmd_qpot(args) -> int:
    units = UnitSystem.parse(args.units)
    mass = units.to_si(args.mass, "mass")
    parsed = qp.read_density_csv(args.density)
    density = parsed.density
    if args.periodic:
        density = dataclasses.replace(density, periodic=True)
    length_scale = units.to_si(1.0, "length")
    if length_scale != 1.0:
        density = dataclasses.replace(density, spacing=density.spacing * length_scale)

    if density.time_axis:
        if args.dt is not None:
            dt = units.to_si(args.dt, "time")
        elif parsed.dt is not None:
            dt = parsed.dt * units.to_si(1.0, "time")
        else:
            raise DomainError("time-dependent density requires --dt")
        vqu = qp.vqu_grid_dalembert(density, mass, dt)
        mean = qp.mean_qp_energy_dalembert(density, mass, dt)
        columns = ("t", "q", "vqu")
        axes = (("time", dt), ("length", density.spacing))
    else:
        vqu = qp.vqu_grid_nonrel(density, mass)
        mean = qp.mean_qp_energy(density, mass)
        columns = ("q", "vqu") if density.dims == 1 else ("qx", "qy", "qz", "vqu")
        axes = (("length", density.spacing),) * density.dims
    keep = np.isfinite(vqu)
    coords = (units.to_si(origin, dim) + np.arange(n) * step
              for origin, (dim, step), n in zip(parsed.origin, axes, vqu.shape))
    grids = np.meshgrid(*coords, indexing="ij")
    values = [units.from_si(grid[keep], dim) for grid, (dim, _) in zip(grids, axes)]
    values.append(units.from_si(vqu[keep], "energy"))
    rows = (row.tolist() for row in np.column_stack(values))
    mean_out = units.from_si(mean, "energy")
    meta = {"mass": args.mass, "units": args.units, "periodic": density.periodic}
    _emit_table(args, "qpot", meta, columns, rows,
                footer={"mean_qp_energy": mean_out},
                footer_comments=(f"mean_qp_energy = {_fmt(mean_out)}",))
    return 0


# ---------------------------------------------------------------------------
# blackhole

def _cmd_blackhole(args) -> int:
    units = UnitSystem.parse(args.units)
    if args.threshold == (args.mass is not None):
        raise DomainError("give exactly one of: a mass in Planck-mass units, or --threshold")
    if args.threshold:
        threshold = bh.stability_threshold()
        if args.format == "json":
            doc = {"threshold": {"m_p": threshold.planck_units, "kg": threshold.kg}}
            _write_output(args.output, _render_json(doc))
        else:
            _write_output(
                args.output,
                "minimum stable mass:\n"
                f"  m_p units: {_fmt(threshold.planck_units)}\n"
                f"  kg:        {_fmt(threshold.kg)}\n",
            )
        return 0
    if not (math.isfinite(args.mass) and args.mass > 0.0):
        raise DomainError("mass must be finite and > 0 (in Planck-mass units)")
    try:
        report = bh.black_hole_report(args.mass * CONSTANTS.planck_mass)
    except (OverflowError, ZeroDivisionError):
        # vqu_printed scales as mass**-3 and leaves the double range first
        raise DomainError(
            f"mass {args.mass!r} m_p is outside the range the report's energies can represent"
        ) from None
    doc = report.as_dict()
    doc["gravitational_radius"] = units.from_si(doc["gravitational_radius"], "length")
    for key in ("vqu_printed", "vqu_geometric", "e_grav", "e_binding"):
        doc[key] = units.from_si(doc[key], "energy")
    if args.format == "json":
        _write_output(args.output, _render_json(doc))
    else:
        lines = [
            f"mass:                 {_fmt(doc['mass']['m_p'])} m_p = {_fmt(doc['mass']['kg'])} kg",
            f"gravitational_radius: {_fmt(doc['gravitational_radius'])}",
            f"vqu_printed:          {_fmt(doc['vqu_printed'])}",
            f"vqu_geometric:        {_fmt(doc['vqu_geometric'])}",
            f"e_grav:               {_fmt(doc['e_grav'])}",
            f"e_binding:            {_fmt(doc['e_binding'])}",
            f"stable:               {str(doc['stable']).lower()}",
        ]
        _write_output(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="qvac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--units", choices=("SI", "Natural"), default="SI",
                        help="unit system for inputs and outputs (default SI)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default stdout)")

    p = sub.add_parser("spectrum", parents=[common],
                       help="massive-mode spectral density over a wavenumber grid")
    p.add_argument("--mass", type=float, required=True, help="particle mass (kg, or m_p in Natural mode)")
    p.add_argument("--temp", type=float, required=True, help="temperature (K, or Planck temperatures)")
    p.add_argument("--gamma", type=float, default=1.0, help="Lorentz factor (default 1)")
    p.add_argument("--k-min", type=float, default=None, help="lowest wavenumber (default 1e-3 m*c/hbar)")
    p.add_argument("--k-max", type=float, default=None, help="highest wavenumber (default 0.999 m*c/hbar)")
    p.add_argument("--points", type=int, default=64, help="number of log-spaced wavenumbers (default 64)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("photon-spectrum", parents=[common],
                       help="black-body spectral density over an angular-frequency grid")
    p.add_argument("--temp", type=float, required=True)
    p.add_argument("--omega-min", type=float, default=None, help="default 0.01 kT/hbar")
    p.add_argument("--omega-max", type=float, default=None, help="default 25 kT/hbar")
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=_cmd_photon_spectrum)

    p = sub.add_parser("correlation", parents=[common],
                       help="vacuum-noise correlation function, numeric vs analytic")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--temp", type=float, required=True)
    p.add_argument("--xi-max", type=float, default=3.0,
                   help="largest lag in units of the correlation length (default 3)")
    p.add_argument("--points", type=int, default=256, help="number of lags (default 256)")
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("sample", help="synthesize noise-field realizations from a JSON config")
    p.add_argument("config", help="SamplerConfig JSON (fields: grid_points, extent, lambda_c, seed, realizations)")
    p.add_argument("--field-out", default="sample_field.csv", metavar="PATH",
                   help="realizations CSV (default sample_field.csv)")
    p.add_argument("--report-out", default="sample_report.json", metavar="PATH",
                   help="estimator report JSON (default sample_report.json)")
    p.add_argument("--no-field", action="store_true", help="skip writing the realizations CSV")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("qpot", parents=[common],
                       help="quantum potential of a density grid read from CSV")
    p.add_argument("density", help="density CSV with header q,n or t,q,n or qx,qy,qz,n")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--dt", type=float, default=None,
                   help="time step for the wave-operator form (default: derived from the t column)")
    p.add_argument("--periodic", action="store_true", help="treat spatial axes as periodic")
    p.set_defaults(func=_cmd_qpot)

    p = sub.add_parser("blackhole", parents=[common],
                       help="black-hole energetics report, or the minimum stable mass")
    p.add_argument("mass", type=float, nargs="?", default=None, help="mass in Planck-mass units")
    p.add_argument("--threshold", action="store_true", help="print the minimum stable mass")
    p.set_defaults(func=_cmd_blackhole)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
