"""Derandomized property test at the edge of the double range.

The scalar value functions and every float flag of the CLI are given NaN,
+-inf, +-0.0, subnormals and huge values, mixed with one ordinary value
per argument so that the later checks of a call are reached too.
A value function returns finite numbers or raises a ``qvac.errors`` type;
the CLI exits 0, 1 or 2, prints no traceback or Python warning, ends an
exit 2 with one ``error:`` line, and writes no NaN or infinity.  A
``qvac sample`` config with one field out of its range exits 2, and so
does a ``qvac qpot`` density file with one such cell in any column.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvac import (
    ELECTRON_MASS,
    ThermalState,
    TravelingMode,
    bh_vqu_printed,
    binding_energy,
    black_hole_report,
    correlation_length,
    errors,
    gravitational_energy,
    gravitational_radius,
    is_stable,
    mode_probability_nonrel,
    mode_probability_rel,
    n_particle_weight,
    sampler,
    vqu_sinusoid,
    vqu_traveling,
    wien_peak,
)
from qvac.blackhole import bh_vqu_geometric
from qvac.cli import main
from qvac.constants import compton_wavenumber

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300, 1.797e308)
EDGE = st.sampled_from(EDGES)

#: Every exception type qvac raises on purpose.
QVAC_ERRORS = tuple(
    obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@functools.cache
def _subsets(names: tuple) -> st.SearchStrategy:
    # Built once per argument list: building a strategy costs more than drawing from it.
    return st.sets(st.sampled_from(names))


def draw_values(data, typical: dict) -> dict:
    """Each name of ``typical`` mapped to an edge of the double range, for
    a drawn subset of the names, or else to its typical value."""
    edged = data.draw(_subsets(tuple(typical)), label="edged")
    return {name: data.draw(EDGE, label=name) if name in edged else value for name, value in typical.items()}


M_E, T, LAM, M_BH = ELECTRON_MASS, 300.0, 1e-6, 1e-8

#: name -> (functions of the same keyword arguments, the typical value of each).
VALUE_FUNCTIONS = {
    "mode_probability_nonrel": ([lambda lam, m, t: mode_probability_nonrel(lam, ThermalState(m, t))],
                                {"lam": LAM, "m": M_E, "t": T}),
    "mode_probability_rel": ([lambda lam, m, t: mode_probability_rel(lam, ThermalState(m, t))],
                             {"lam": LAM, "m": M_E, "t": T}),
    "n_particle_weight": ([lambda lam, n, m, t: n_particle_weight(lam, n, ThermalState(m, t))],
                          {"lam": LAM, "n": 2, "m": M_E, "t": T}),
    "vqu_sinusoid": ([vqu_sinusoid], {"wavelength": LAM, "mass": M_E}),
    "vqu_traveling": ([lambda lam, v, m: vqu_traveling(TravelingMode(lam, v, m))], {"lam": LAM, "v": 0.5, "m": M_E}),
    "compton_wavenumber": ([compton_wavenumber], {"mass": M_E}),
    "correlation_length": ([correlation_length], {"mass": M_E, "temperature": T}),
    "wien_peak": ([wien_peak], {"temperature": T}),
    "blackhole": ([gravitational_radius, bh_vqu_printed, bh_vqu_geometric, gravitational_energy, binding_energy,
                   is_stable, black_hole_report], {"mass": M_BH}),
}


def _numbers(result):
    """The numbers a value function returned, a report's fields included."""
    return list(dataclasses.astuple(result)) if dataclasses.is_dataclass(result) else [result]


@pytest.mark.parametrize("name", sorted(VALUE_FUNCTIONS))
@FUZZ
@given(data=st.data())
def test_value_function_is_finite_or_refuses(name, data):
    functions, typical = VALUE_FUNCTIONS[name]
    args = draw_values(data, typical)
    for fn in functions:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fn(**args)
            except QVAC_ERRORS:
                continue
        assert all(math.isfinite(v) for v in _numbers(result)), (fn, args, result)


@pytest.fixture(scope="module")
def density_files(tmp_path_factory):
    """A static ``q,n`` grid and a ``t,q,n`` grid of three slices."""
    base = tmp_path_factory.mktemp("fuzz")
    static, moving = base / "q.csv", base / "tq.csv"
    static.write_text("q,n\n" + "".join(f"{0.1 * i!r},{1.0 + 0.1 * i!r}\n" for i in range(8)))
    moving.write_text("t,q,n\n" + "".join(f"{t},{0.1 * i!r},{1.0 + 0.1 * i!r}\n" for t in range(3) for i in range(8)))
    return str(static), str(moving)


#: Subcommand -> (float flag -> its typical value, or None for an optional
#: flag left at its default).  The blackhole mass is positional.
CLI_FLAGS = {
    "spectrum": {"--mass": 1.0, "--temp": 0.1, "--gamma": None, "--k-min": None, "--k-max": None},
    "photon-spectrum": {"--temp": 300.0, "--omega-min": None, "--omega-max": None},
    "correlation": {"--mass": ELECTRON_MASS, "--temp": 300.0, "--xi-max": None},
    "qpot": {"--mass": ELECTRON_MASS, "--dt": None},
    "blackhole": {"mass": 1.0},
}

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _run(argv):
    """Exit code, stdout text and stderr text of one in-process CLI call,
    with no Python warning raised during it."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out.flush()
    assert caught == [], [str(w.message) for w in caught]
    return code, out.buffer.getvalue().decode(), err.getvalue()


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
@FUZZ
@given(data=st.data())
def test_cli_float_flags(command, data, density_files):
    argv, positional = [command], []
    for flag, value in draw_values(data, CLI_FLAGS[command]).items():
        if value is None:
            continue
        if flag.startswith("--"):
            argv.append(f"{flag}={value!r}")  # '=' keeps a negative value from reading as a flag
        else:
            positional = ["--", repr(value)]
    argv += ["--units", data.draw(st.sampled_from(["SI", "Natural"]), label="units")]
    argv += ["--format", data.draw(st.sampled_from(["csv", "json"]), label="format")]
    if command == "qpot":
        argv.insert(1, data.draw(st.sampled_from(density_files), label="density"))
    elif command != "blackhole":
        argv += ["--points", "3"]
    code, out, err = _run(argv + positional)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 2:
        *before, last = err.splitlines()
        assert last.startswith("error: ") and all(line.startswith("warning: ") for line in before), (argv, err)
        assert out == "", argv
    assert not _NON_FINITE.search(out), (argv, out)


#: A tiny ``qvac sample`` config (256 points, 2 realizations), as JSON literals.
SAMPLE_CONFIG = {"grid_points": "256", "extent": "2.4e-08", "lambda_c": "1e-09", "seed": "9", "realizations": "2"}

#: JSON literals that no config field takes, seed 0 aside.  json reads NaN,
#: Infinity and 1e400 as floats and the 401-digit literal as an int.
SAMPLE_EDGES = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "0", "-1", "-2.5", "true", "false", '"256"')


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sample")


@pytest.mark.parametrize("field", sorted(SAMPLE_CONFIG))
@FUZZ
@given(data=st.data())
def test_sample_config_field_out_of_range_exits_two(field, data, sample_dir):
    edges = [v for v in SAMPLE_EDGES if (field, v) != ("seed", "0")]
    literals = dict(SAMPLE_CONFIG, **{field: data.draw(st.sampled_from(edges), label=field)})
    config, report = sample_dir / "config.json", sample_dir / "report.json"
    config.write_text("{" + ", ".join(f"{json.dumps(name)}: {value}" for name, value in literals.items()) + "}")
    # Refused before any draw: a draw of 10**400 realizations would not end.
    with mock.patch.object(sampler, "sample_report", side_effect=AssertionError("the config was accepted")):
        code, out, err = _run(["sample", str(config), "--no-field", "--report-out", str(report)])
    assert code == 2, (literals, err)
    assert out == "" and "Traceback" not in err and "Warning" not in err, (literals, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (literals, err)
    assert not report.exists()


#: Density-file header -> its lattice shape.  Coordinates start at 1.0, so a
#: 0, a subnormal, a huge value or a sign flip in any coordinate cell breaks
#: the lattice.
DENSITY_LAYOUTS = {"q,n": (8,), "t,q,n": (3, 8), "qx,qy,qz,n": (4, 4, 4)}

#: Cell values that no evaluated grid point takes: not finite, subnormal,
#: huge (every other density then falls below the singular threshold) or
#: negative.
CELL_EDGES = ("nan", "inf", "-inf", "5e-324", "1e-310", "1e308", "-1.0")


@pytest.fixture(scope="module")
def density_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("density")


@pytest.mark.parametrize("header, column", [(h, c) for h in DENSITY_LAYOUTS for c in h.split(",")])
@FUZZ
@given(data=st.data())
def test_bad_density_cell_exits_two(header, column, data, density_dir):
    shape = DENSITY_LAYOUTS[header]
    column = header.split(",").index(column)
    cells = [[repr(1.0 + 0.125 * i) for i in index] + [repr(1.0 + 0.1 * (sum(index) % 3))]
             for index in np.ndindex(*shape)]
    # A row the stencil evaluates, periodic or not: a tiny density elsewhere
    # is only a neighbour, and a valid input.
    evaluated = [row for row, index in enumerate(np.ndindex(*shape))
                 if all(0 < i < n - 1 for i, n in zip(index, shape))]
    row = data.draw(st.sampled_from(evaluated), label="row")
    cells[row][column] = data.draw(st.sampled_from(CELL_EDGES), label="value")
    path = density_dir / "density.csv"
    path.write_text(header + "\n" + "".join(",".join(line) + "\n" for line in cells))
    argv = ["qpot", str(path), "--mass", "1e-30"]
    argv += data.draw(st.sampled_from([[], ["--periodic"]]), label="periodic")
    argv += ["--format", data.draw(st.sampled_from(["csv", "json"]), label="format")]
    code, out, err = _run(argv)
    assert code == 2, (cells[row], err)
    assert out == "" and "Traceback" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
