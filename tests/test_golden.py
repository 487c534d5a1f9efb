"""Byte equality of CLI outputs against committed golden files.

The inputs and expected outputs live in ``tests/golden/``.  The outputs
were captured from the CLI before its renderers, the ``qpot`` ingest and
the spectrum formulas were rewritten array-first, so any change in a
rendered byte (digits, row order, NaN filtering, unit conversion, the
last bit of an exponential) fails here.  To re-capture
after a deliberate format change, run ``python tests/test_golden.py``
from the repository root with ``src`` on the import path.
"""

import math
import sys
from pathlib import Path

import pytest

from qvac.cli import _fmt, main

GOLDEN = Path(__file__).resolve().parent / "golden"
ELECTRON = "9.1093837015e-31"

#: Output file name -> CLI arguments; ``{g}`` is the golden directory and
#: ``{tmp}`` a scratch directory.
CASES = {
    # qpot: every layout, periodic and not, SI and Natural, CSV and JSON
    "qpot_q_si.csv": ["qpot", "{g}/density_q.csv", "--mass", ELECTRON],
    "qpot_q_periodic_natural.csv": ["qpot", "{g}/density_q.csv", "--mass", "1e-20", "--periodic",
                                    "--units", "Natural"],
    "qpot_q_periodic_si.json": ["qpot", "{g}/density_q.csv", "--mass", ELECTRON, "--periodic",
                                "--format", "json"],
    "qpot_tq_periodic_si.csv": ["qpot", "{g}/density_tq.csv", "--mass", ELECTRON, "--periodic"],
    "qpot_tq_natural_dt.csv": ["qpot", "{g}/density_tq.csv", "--mass", "1e-20", "--dt", "0.05",
                               "--units", "Natural"],
    "qpot_tq_natural.json": ["qpot", "{g}/density_tq.csv", "--mass", "1e-20", "--units", "Natural",
                             "--format", "json"],
    "qpot_xyz_periodic_si.csv": ["qpot", "{g}/density_xyz.csv", "--mass", ELECTRON, "--periodic"],
    "qpot_xyz_natural.csv": ["qpot", "{g}/density_xyz.csv", "--mass", "1e-20", "--units", "Natural"],
    "qpot_xyz_periodic_natural.json": ["qpot", "{g}/density_xyz.csv", "--mass", "1e-20", "--periodic",
                                       "--units", "Natural", "--format", "json"],
    # the other users of the shared renderers
    "spectrum_natural.csv": ["spectrum", "--mass", "1", "--temp", "0.1", "--points", "16",
                             "--units", "Natural"],
    "spectrum_si.json": ["spectrum", "--mass", ELECTRON, "--temp", "300", "--points", "8",
                         "--format", "json"],
    "photon_si.csv": ["photon-spectrum", "--temp", "300", "--points", "16"],
    # x = E/kT crosses EXP_CUTOFF: 44..988 with gamma = 2, and up to 764
    "spectrum_gamma_cutoff.csv": ["spectrum", "--mass", ELECTRON, "--temp", "1.2e7", "--gamma", "2",
                                  "--points", "24"],
    "photon_cutoff.csv": ["photon-spectrum", "--temp", "300", "--omega-max", "3e16", "--points", "24"],
    "photon_natural.json": ["photon-spectrum", "--temp", "0.01", "--points", "8", "--units", "Natural",
                            "--format", "json"],
    "correlation_si.csv": ["correlation", "--mass", ELECTRON, "--temp", "300", "--points", "16"],
    "correlation_natural.json": ["correlation", "--mass", "1e-22", "--temp", "1e-30", "--points", "8",
                                 "--units", "Natural", "--format", "json"],
    "blackhole_report.txt": ["blackhole", "1.0"],
    "blackhole_threshold.txt": ["blackhole", "--threshold"],
    "sample_field.csv": ["sample", "{g}/sampler.json", "--report-out", "{tmp}/report.json"],
}


def _argv(name: str, out: Path, tmp: Path) -> list[str]:
    argv = [arg.format(g=GOLDEN, tmp=tmp) for arg in CASES[name]]
    flag = "--field-out" if argv[0] == "sample" else "--output"
    return argv + [flag, str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(_argv(name, out, tmp_path)) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.max, -1.0 / 3.0]
)
def test_percent_format_matches_str_format(x):
    assert "%.16e" % x == "{:.16e}".format(x)
    assert _fmt(x) == "{:.16e}".format(x)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            if main(_argv(case, GOLDEN / case, Path(scratch))) != 0:
                sys.exit(f"capture failed: {case}")
