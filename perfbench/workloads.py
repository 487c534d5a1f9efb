"""The three benchmark workloads.

A workload writes its seeded inputs once, then names the CLI argument
lists that make up one operation (``{out}`` stands for the operation's
output directory), the work units one operation completes, and the oracle
that checks one operation's outputs.

* ``spectra`` -- the analytic-sweep use: per-point scalar calls into
  ``modestats``, per-value Natural-unit conversion in ``constants`` and
  ~40k rendered rows.  ``qpotential`` and ``sampler`` do no work here.
* ``qpot-grid`` -- the file-in/file-out use: CSV ingest in ``qpotential``
  and row rendering in ``cli`` dominate, the finite-difference kernel is
  cheap.  In SI units a unit conversion skips the natural-unit factor
  table, so a change to that table shows on ``spectra`` and not here.
* ``sample-report`` -- field synthesis plus estimators in ``sampler``;
  ``cli`` renders nothing.  The field CSV is left out: it renders through
  the same ``cli`` code that ``qpot-grid`` measures and would cost ~7 s
  per operation.
"""

from __future__ import annotations

import json
import os

import inputs
import oracles

SPECTRUM_POINTS = 20000
CORRELATION_POINTS = 256


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


class Spectra:
    name = "spectra"
    unit = "output rows"

    def __init__(self, seed: int, input_dir: str):
        self.blackhole_mass = inputs.blackhole_mass(seed)
        # Two blackhole documents count one row each.
        self.work_units = 2 * SPECTRUM_POINTS + CORRELATION_POINTS + 2

    def argv(self) -> list[list[str]]:
        points = str(SPECTRUM_POINTS)
        return [
            ["spectrum", "--mass", "1", "--temp", "0.1", "--points", points, "--units", "Natural",
             "--output", "{out}/spectrum.csv"],
            ["photon-spectrum", "--temp", "300", "--points", points, "--output", "{out}/photon.csv"],
            ["correlation", "--mass", repr(inputs.ELECTRON_MASS), "--temp", "300",
             "--points", str(CORRELATION_POINTS), "--output", "{out}/correlation.csv"],
            ["blackhole", repr(self.blackhole_mass), "--format", "json", "--output", "{out}/blackhole.json"],
            ["blackhole", "--threshold", "--output", "{out}/threshold.txt"],
        ]

    def check(self, out: str) -> tuple[list[str], dict]:
        problems = (
            oracles.check_spectrum_natural(f"{out}/spectrum.csv", 1.0, 0.1, SPECTRUM_POINTS)
            + oracles.check_photon_spectrum(f"{out}/photon.csv", 300.0, SPECTRUM_POINTS)
            + oracles.check_correlation(f"{out}/correlation.csv", inputs.ELECTRON_MASS, 300.0, CORRELATION_POINTS)
            + oracles.check_blackhole_json(f"{out}/blackhole.json", self.blackhole_mass)
            + oracles.check_threshold_text(f"{out}/threshold.txt")
        )
        return problems, {}


class QpotGrid:
    name = "qpot-grid"
    unit = "grid cells"

    def __init__(self, seed: int, input_dir: str, lattice_points: int = inputs.LATTICE_POINTS,
                 slices: int = inputs.SPACETIME_SLICES, points: int = inputs.SPACETIME_POINTS):
        self.lattice = inputs.density_lattice(seed, lattice_points)
        self.spacetime = inputs.density_spacetime(seed, slices, points)
        self.lattice_path = _write(os.path.join(input_dir, "lattice.csv"), self.lattice.text)
        self.spacetime_path = _write(os.path.join(input_dir, "spacetime.csv"), self.spacetime.text)
        self.work_units = self.lattice.values.size + self.spacetime.values.size

    def argv(self) -> list[list[str]]:
        mass = repr(inputs.QPOT_MASS)
        return [
            ["qpot", self.lattice_path, "--mass", mass, "--periodic", "--output", "{out}/lattice_vqu.csv"],
            ["qpot", self.spacetime_path, "--mass", mass, "--periodic", "--dt", repr(self.spacetime.dt),
             "--output", "{out}/spacetime_vqu.csv"],
        ]

    def check(self, out: str) -> tuple[list[str], dict]:
        mass = inputs.QPOT_MASS
        problems = oracles.check_qpot_lattice(
            f"{out}/lattice_vqu.csv", self.lattice.values, self.lattice.spacing, mass
        ) + oracles.check_qpot_spacetime(
            f"{out}/spacetime_vqu.csv", self.spacetime.values, self.spacetime.spacing, self.spacetime.dt, mass
        )
        return problems, {}


class SampleReport:
    name = "sample-report"
    unit = "field samples"

    def __init__(self, seed: int, input_dir: str, grid_points: int = 1024, realizations: int = 4096):
        self.config = inputs.sampler_config(seed, grid_points, realizations)
        self.config_path = _write(os.path.join(input_dir, "sampler.json"), json.dumps(self.config, indent=2) + "\n")
        self.work_units = grid_points * realizations

    def argv(self) -> list[list[str]]:
        return [["sample", self.config_path, "--no-field", "--report-out", "{out}/report.json"]]

    def check(self, out: str) -> tuple[list[str], dict]:
        problems, passed = oracles.check_sample_report(f"{out}/report.json", self.config)
        return problems, {"estimator_fail": int(not passed)}


WORKLOADS = {w.name: w for w in (Spectra, QpotGrid, SampleReport)}
