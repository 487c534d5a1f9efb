import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qvac
from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    SamplerConfig,
    mean_qp_energy,
    mean_qp_energy_dalembert,
    modestats,
    read_density_csv,
    sample_field,
    vqu_grid_dalembert,
    vqu_grid_nonrel,
)
from qvac import cli
from qvac import qpotential as qp
from qvac import sampler as smp
from qvac.cli import RENDER_ROWS, main
from qvac.sampler import block_rows

from helpers import loaded_modules, traced_peak

KB = CONSTANTS.k_boltzmann
HBAR = CONSTANTS.hbar
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def percent_csv(comments, columns, rows, footer=()):
    """A CSV document rendered value by value with ``%.16e``: the reference
    for the array renderer."""
    lines = [f"# {c}" for c in comments] + [",".join(columns)]
    lines += [",".join("%.16e" % v for v in row) for row in rows]
    lines += [f"# {c}" for c in footer]
    return "\n".join(lines) + "\n"


def assert_same_text(got, expected):
    """``got == expected`` for multi-megabyte texts, reporting the first
    line that differs (pytest's own diff of such texts takes minutes)."""
    if got != expected:
        got_lines, expected_lines = got.splitlines(), expected.splitlines()
        line = next((i for i, pair in enumerate(zip(got_lines, expected_lines)) if pair[0] != pair[1]),
                    min(len(got_lines), len(expected_lines)))
        pytest.fail(f"line {line + 1}: {got_lines[line:line + 1]} != {expected_lines[line:line + 1]}")


def parse_csv(text):
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return comments, header, rows


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--mass", "1", "--temp", "1", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "spectrum", "--mass", "1")[0] == 1

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "photon-spectrum", "--temp", "-4")
        assert code == 2
        assert "temp" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "qpot", "/nonexistent/d.csv", "--mass", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--mass", "1", "--temp", "0.1", "--units", "Natural"),
        ("photon-spectrum", "--temp", "300"),
        ("correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300"),
    ])
    def test_unallocatable_points_exit_two(self, capsys, argv):
        # numpy refuses a 7 PiB grid before allocating any of it
        code, out, err = run_cli(capsys, *argv, "--points", "1000000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("spectrum", "--mass", "1", "--temp", "0.1", "--units", "Natural", "--points", "0"), "points must be >= 1"),
        (("photon-spectrum", "--temp", "300", "--points", "0"), "points must be >= 1"),
        (("correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "1"), "points must be >= 2"),
    ], ids=["spectrum", "photon-spectrum", "correlation"])
    def test_too_few_points_exit_two(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "sample", str(path), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert (code, out, err) == (2, "", f"error: {path}: config must be a JSON object\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty density file"),
        ("# a comment and no header\n", "empty density file"),
        # an 8^3 lattice whose qy step is twice the qx and qz steps
        ("qx,qy,qz,n\n" + "".join(f"{0.1 * i},{0.2 * j},{0.1 * k},1.0\n"
                                  for i in range(8) for j in range(8) for k in range(8)),
         "axes have unequal spacing; a single grid step is required"),
    ], ids=["empty", "comment-only", "unequal-steps"])
    def test_unusable_density_file_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "density.csv"
        path.write_text(text)
        assert run_cli(capsys, "qpot", str(path), "--mass", "1") == (2, "", f"error: {path}: {message}\n")


class TestParser:
    CALLS = [
        ("spectrum", "--mass", "1"),  # usage error
        ("--help",),
        ("correlation", "--help"),
        ("photon-spectrum", "--temp", "300", "--points", "4"),
        ("blackhole", "1.0"),
        ("spectrum", "--mass", "1", "--temp", "0.1", "--units", "Natural", "--points", "3", "--format", "json"),
        ("spectrum", "--mass", "1"),
    ]

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for argv in self.CALLS:
            run_cli(capsys, *argv)
        assert len(built) == 1

    def test_shared_parser_answers_like_a_fresh_one(self, monkeypatch, capsys):
        shared = [run_cli(capsys, *argv) for argv in self.CALLS]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in self.CALLS]
        assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 0, 0, 1]
        assert shared == fresh


class TestSpectrum:
    def test_electron_row_count_and_finiteness(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "64"
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["k", "lambda", "mode_energy", "mean_energy", "mode_density", "spectral_density"]
        assert len(rows) == 64
        for row in rows:
            assert all(math.isfinite(v) for v in row)
            assert row[5] >= 0.0  # underflows to exactly 0 for mu ~ 2e7

    def test_positive_spectral_densities_in_float_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--mass", "1", "--temp", "0.05", "--points", "32", "--units", "Natural"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 32
        assert all(row[5] > 0.0 for row in rows)

    def test_natural_mode_pinned_value(self, capsys):
        # mu = 10, hbar k/(m c) = 0.5: <E>/k_B T = x/(e^x - 1), x = 10*sqrt(3)/2
        code, out, _ = run_cli(
            capsys, "spectrum", "--mass", "1", "--temp", "0.1",
            "--k-min", "0.5", "--k-max", "0.5", "--points", "1", "--units", "Natural",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        mean_over_kt = rows[0][3] / 0.1
        x = 10.0 * math.sqrt(0.75)
        assert mean_over_kt == pytest.approx(x / math.expm1(x), rel=1e-10)
        assert mean_over_kt == pytest.approx(1.50143e-3, rel=1e-5)

    def test_compton_clamp_warns_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--mass", "1", "--temp", "0.1", "--units", "Natural",
            "--k-max", "2.0", "--points", "8",
        )
        assert code == 0
        assert "clamp" in err
        _, _, rows = parse_csv(out)
        assert max(row[0] for row in rows) == pytest.approx(0.999, rel=1e-9)
        assert "clamp" not in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--mass", "1", "--temp", "0.1", "--points", "4",
            "--units", "Natural", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "spectrum"
        assert len(doc["rows"]) == 4

    def test_identical_runs_identical_output(self, capsys):
        args = ("spectrum", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "16")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_negative_temperature_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--mass", "1", "--temp", "-3", "--units", "Natural")
        assert code == 2
        assert "temperature" in err


class TestPhotonSpectrum:
    def test_footer_peak_and_integral(self, capsys):
        code, out, _ = run_cli(capsys, "photon-spectrum", "--temp", "300", "--points", "400")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["omega", "mean_energy", "spectral_density"]
        assert len(rows) == 400
        footer = {c.split("=")[0].strip(): float(c.split("=")[1]) for c in comments if "=" in c and c.split("=")[0].strip() in ("peak_omega", "integral")}
        assert footer["peak_omega"] == pytest.approx(1.1082e14, rel=1e-4)
        stefan = (math.pi**2 / 15.0) * (KB * 300.0) ** 4 / (HBAR**3 * CONSTANTS.c**3)
        assert footer["integral"] == pytest.approx(stefan, rel=1e-3)

    def test_high_resolution_integral(self, tmp_path, capsys):
        # 1e5 log-spaced points over x in [1e-4, 50]
        kt_over_hbar = KB * 300.0 / HBAR
        target = tmp_path / "photon.csv"
        code, _, _ = run_cli(
            capsys, "photon-spectrum", "--temp", "300",
            "--omega-min", repr(1e-4 * kt_over_hbar), "--omega-max", repr(50.0 * kt_over_hbar),
            "--points", "100000", "--output", str(target),
        )
        assert code == 0
        comments, _, rows = parse_csv(target.read_text())
        assert len(rows) == 100000
        integral = next(float(c.split("=")[1]) for c in comments if c.startswith("integral"))
        stefan = (math.pi**2 / 15.0) * (KB * 300.0) ** 4 / (HBAR**3 * CONSTANTS.c**3)
        assert integral == pytest.approx(stefan, rel=1e-4)

    def test_planck_mean_energy_is_evaluated_once_per_point(self, capsys, monkeypatch):
        # One expm1 per point for the mean energy; the Wien-peak search of
        # the footer makes its own calls, counted apart.
        calls = []
        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", lambda x: calls.append(x) or expm1(x))
        modestats.wien_peak(300.0)
        peak_calls = len(calls)
        calls.clear()
        code, _, _ = run_cli(capsys, "photon-spectrum", "--temp", "300", "--points", "16")
        assert code == 0
        assert len(calls) == 16 + peak_calls

    def test_single_point_has_no_footer(self, capsys):
        code, out, _ = run_cli(capsys, "photon-spectrum", "--temp", "300", "--points", "1")
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert not any("peak_omega" in c for c in comments)

    def test_json_footer(self, capsys):
        code, out, _ = run_cli(capsys, "photon-spectrum", "--temp", "300", "--points", "16", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert "peak_omega" in doc["footer"]


class TestCorrelation:
    def test_header_and_accuracy(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "64"
        )
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["xi", "G_numeric", "G_analytic", "abs_error"]
        lambda_c = next(float(c.split("=")[1]) for c in comments if c.startswith("lambda_c"))
        assert lambda_c == pytest.approx(2.428e-9, rel=1e-4)
        assert rows[0][0] == 0.0
        assert rows[0][1] == 1.0
        assert rows[0][2] == 1.0
        assert max(row[3] for row in rows) < 1e-6

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "correlation", "--mass", "-1", "--temp", "300")
        assert code == 2
        assert "mass" in err

    def test_infinite_xi_max_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--xi-max", "inf"
        )
        assert code == 2
        assert out == ""
        assert err == "error: xi-max must be finite and > 0\n"

    def test_lags_past_the_square_range_print_no_warning(self, capsys):
        # Such lags are far past pi/dk of the 4096-point spectrum, where the
        # cosine transform aliases: one error line, no warning, no rows.
        code, out, err = run_cli(
            capsys, "correlation", "--mass", "1e-30", "--temp", "300", "--xi-max", "1e300", "--points", "4"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: lag ") and "pi/dk" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mass, temp", [("1e-300", "1e-300"), ("1e300", "1e300")])
    def test_unrepresentable_correlation_length_exits_two(self, capsys, mass, temp):
        code, out, err = run_cli(capsys, "correlation", "--mass", mass, "--temp", temp)
        assert code == 2
        assert err == "error: 2*m*k_B*T leaves the double range at these inputs\n"

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300",
            "--points", "16", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "correlation"
        assert doc["meta"]["lambda_c"] == pytest.approx(2.428e-9, rel=1e-4)


class TestSample:
    def _write_config(self, tmp_path, **overrides):
        cfg = {"lambda_c": 1e-9, "grid_points": 256, "extent": 24e-9, "seed": 9, "realizations": 8}
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_writes_field_and_report(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        field_path = tmp_path / "field.csv"
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "sample", str(cfg), "--field-out", str(field_path), "--report-out", str(report_path)
        )
        assert code == 0
        comments, header, rows = parse_csv(field_path.read_text())
        assert len(header) == 256
        assert len(rows) == 8
        report = json.loads(report_path.read_text())
        assert set(report) == {"config", "correlation", "gaussianity", "pass"}
        assert report["config"]["seed"] == 9

    def test_fixed_seed_reports_are_byte_identical(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(first))
        run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_extent_invariant_violation_exits_two(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, extent=10e-9)
        code, _, err = run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 2
        assert "extent" in err

    @pytest.mark.parametrize("name, literal, message", [
        ("grid_points", '"abc"', "grid_points must be an integer; got 'abc'"),
        ("realizations", "1e400", "realizations must be an integer; got inf"),
        ("lambda_c", "null", "lambda_c must be a finite number; got None"),
        ("realizations", "2.7", "realizations must be an integer; got 2.7"),
        ("lambda_c", "1e400", "lambda_c must be a finite number; got inf"),
        ("seed", "true", "seed must be an integer; got True"),
        ("extent", "false", "extent must be a finite number; got False"),
    ])
    def test_malformed_field_exits_two(self, tmp_path, capsys, name, literal, message):
        # the JSON text is spliced in by hand: json.dumps cannot write 1e400
        path = self._write_config(tmp_path, **{name: "@"})
        path.write_text(path.read_text().replace('"@"', literal))
        code, out, err = run_cli(capsys, "sample", str(path), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"seed": 9', b'"seed": "\xff"'))
        code, out, err = run_cli(capsys, "sample", str(path), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_default_extent_past_the_double_range_names_lambda_c(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda_c": 1e308}))  # 40 * lambda_c is inf
        code, out, err = run_cli(capsys, "sample", str(path), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: lambda_c = 1e+308 is too large: the default extent 40*lambda_c leaves the double range\n"
        )

    def test_unrepresentable_grid_spacing_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda_c": 1e-310}))  # extent/grid_points is subnormal
        code, _, err = run_cli(capsys, "sample", str(path), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 2
        assert err.startswith("error: grid spacing") and "double range" in err

    def test_streamed_field_csv_equals_one_shot_render(self, tmp_path, capsys):
        realizations = 2 * block_rows(256) + 3  # three blocks, the last partial
        cfg = self._write_config(tmp_path, realizations=realizations)
        field_path = tmp_path / "field.csv"
        code, _, _ = run_cli(
            capsys, "sample", str(cfg), "--field-out", str(field_path), "--report-out", str(tmp_path / "r.json")
        )
        assert code == 0
        config = SamplerConfig(**json.loads(cfg.read_text()))
        comments = [f"{key} = {value}" for key, value in config.as_dict().items()]
        columns = [f"x{i}" for i in range(256)]
        expected = percent_csv(comments, columns, sample_field(config).values.tolist())
        assert field_path.read_text() == expected

    def test_memory_is_bounded_by_the_block(self, tmp_path, capsys):
        def sample_peak(realizations):
            cfg = self._write_config(tmp_path, realizations=realizations)
            traced = traced_peak(
                lambda: run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(tmp_path / "r.json"))
            )
            assert traced.result[0] == 0
            return traced.peak

        one_block = sample_peak(block_rows(256))
        eight_blocks = sample_peak(8 * block_rows(256))
        assert eight_blocks <= 1.5 * one_block, (one_block, eight_blocks)

    @pytest.mark.parametrize("seed, summary", [(9, "pass"), (10, "FAIL (correlation)")])
    def test_summary_names_the_failing_estimator(self, tmp_path, capsys, seed, summary):
        # 64 realizations of 256 points over 25.6 lambda_c: seed 10 is a
        # correlation false alarm of the fixed 0.02 tolerance.
        cfg = self._write_config(tmp_path, extent=25.6e-9, realizations=64, seed=seed)
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(report))
        assert code == 0 and out == ""
        assert err.count("\n") == 1 and err.endswith(f"; estimators {summary}\n"), err
        assert json.loads(report.read_text())["pass"] == (summary == "pass")

    def test_summary_names_every_failing_estimator(self, tmp_path, capsys, monkeypatch):
        report = {"correlation": {"pass": False, "at_lambda_c": 0.5, "target": 0.25},
                  "gaussianity": {"passed": False}, "pass": False}
        monkeypatch.setattr(smp, "sample_report", lambda config, on_block=None: report)
        cfg = self._write_config(tmp_path)
        code, _, err = run_cli(capsys, "sample", str(cfg), "--no-field", "--report-out", str(tmp_path / "r.json"))
        assert code == 0
        assert err.endswith("; estimators FAIL (correlation, gaussianity)\n"), err


@pytest.fixture(scope="module")
def long_density(tmp_path_factory):
    """A 1-D density file whose interior spans four RENDER_ROWS blocks and
    part of a fifth."""
    path = tmp_path_factory.mktemp("long") / "density.csv"
    n = 1.5 + np.sin(np.arange(4 * RENDER_ROWS + 1002) / 37.0)
    path.write_text("q,n\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(n.tolist())))
    return str(path)


def write_grid(path, header, columns):
    """A density CSV with one column per array, every value as its repr."""
    rows = np.column_stack(columns).tolist()
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return str(path)


def grid_file(path, shape, time_axis=False):
    """A positive density on a grid of ``shape`` (leading axis time when
    ``time_axis``) with coordinates 0.5 * index + 0.25 per axis."""
    index = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    n = 1.5 + 0.5 * np.sin(index[0] / 3.0) * np.cos(sum(index[1:]) / 5.0)
    coords = [0.5 * i.ravel() + 0.25 for i in index]
    header = "t,q,n" if time_axis else "qx,qy,qz,n"
    return write_grid(path, header, coords + [n.ravel()])


@pytest.fixture(scope="module")
def lattice_density(tmp_path_factory):
    """A 3-D lattice whose evaluated region, periodic or not, has more than
    RENDER_ROWS rows, so a block starts in the middle of every axis."""
    return grid_file(tmp_path_factory.mktemp("lattice") / "lattice.csv", (20, 60, 70))


@pytest.fixture(scope="module")
def spacetime_density(tmp_path_factory):
    """A t,q grid whose interior slices hold more than RENDER_ROWS rows, so
    a block starts in the middle of the q axis (and of a t value's run)."""
    return grid_file(tmp_path_factory.mktemp("spacetime") / "spacetime.csv", (70, 1000), time_axis=True)


class TestQpot:
    def _write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_constant_density(self, tmp_path, capsys):
        path = self._write(tmp_path, "const.csv", ["q,n"] + [f"{0.1 * i},1.0" for i in range(16)])
        code, out, _ = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural")
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["q", "vqu"]
        assert len(rows) == 14  # interior points of a non-periodic grid
        assert all(row[1] == 0.0 for row in rows)
        assert any("mean_qp_energy = 0.0" in c for c in comments)

    def test_cos2_mode_natural_units(self, tmp_path, capsys):
        points = 512
        lines = ["q,n"]
        for i in range(points):
            q = (i + 0.5) / points
            lines.append(f"{q!r},{math.cos(2.0 * math.pi * q) ** 2!r}")
        path = self._write(tmp_path, "cos2.csv", lines)
        code, out, _ = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural", "--periodic")
        assert code == 0
        comments, _, rows = parse_csv(out)
        mean = next(float(c.split("=")[1]) for c in comments if c.startswith("mean_qp_energy"))
        assert mean == pytest.approx(2.0 * math.pi**2, rel=2e-2)

    def test_zero_interior_point_exits_two(self, tmp_path, capsys):
        lines = ["q,n"] + [f"{0.1 * i},{0.0 if i == 7 else 1.0}" for i in range(16)]
        path = self._write(tmp_path, "zero.csv", lines)
        code, _, err = run_cli(capsys, "qpot", path, "--mass", "1")
        assert code == 2
        assert "(7,)" in err

    def test_all_zero_density_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "zero.csv", ["q,n"] + [f"{i},0" for i in range(16)])
        code, out, err = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural")
        assert code == 2
        assert out == ""
        assert err == "error: density is singular (below threshold) at grid point (1,)\n"

    def test_lightlike_spacetime_file(self, tmp_path, capsys):
        points = 64
        h = 1.0 / points
        lines = ["t,q,n"]
        for ti in range(3):
            t = ti * h  # c = 1 in natural units: dt = h
            for i in range(points):
                q = (i + 0.5) * h
                lines.append(f"{t!r},{q!r},{math.cos(2.0 * math.pi * (q - t)) ** 2!r}")
        path = self._write(tmp_path, "light.csv", lines)
        code, out, _ = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural", "--periodic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["t", "q", "vqu"]
        assert len(rows) == points  # one interior time slice
        static_magnitude = (2.0 * math.pi) ** 2
        assert max(abs(row[2]) for row in rows) < 1e-8 * static_magnitude

    def test_json_document(self, tmp_path, capsys):
        path = self._write(tmp_path, "c.csv", ["q,n"] + [f"{0.1 * i},1.0" for i in range(16)])
        code, out, _ = run_cli(capsys, "qpot", path, "--mass", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["footer"]["mean_qp_energy"] == 0.0

    @pytest.mark.parametrize("mass", ["inf", "nan"])
    def test_non_finite_mass_exits_two(self, tmp_path, capsys, mass):
        path = self._write(tmp_path, "c.csv", ["q,n"] + [f"{0.1 * i},1.0" for i in range(16)])
        code, out, err = run_cli(capsys, "qpot", path, "--mass", mass)
        assert code == 2
        assert out == ""
        assert err == "error: mass must be finite and > 0\n"

    @pytest.mark.parametrize("dt", ["inf", "nan"])
    def test_non_finite_dt_exits_two(self, tmp_path, capsys, dt):
        lines = ["t,q,n"] + [f"{0.5 * t},{0.1 * i},1.0" for t in range(3) for i in range(16)]
        path = self._write(tmp_path, "st.csv", lines)
        code, out, err = run_cli(capsys, "qpot", path, "--mass", "1", "--dt", dt)
        assert code == 2
        assert out == ""
        assert err == "error: dt must be finite and > 0\n"

    @pytest.mark.parametrize("lines, dt, name", [
        (["t,q,n"] + [f"{t},{0.1 * i},1.0" for t in range(3) for i in range(16)], "1e300", "dt^2"),
        (["q,n"] + [f"{i}e200,1.0" for i in range(16)], None, "spacing^2"),
        (["q,n"] + [f"{i}e-200,1.0" for i in range(16)], None, "spacing^2"),  # the square underflows to 0
        (["q,n"] + [f"{i}e-160,{1.0 + 0.1 * (i % 3)}" for i in range(16)], None, "spacing^2"),  # it is subnormal
    ], ids=["dt", "q-step", "q-step-underflow", "q-step-subnormal"])
    def test_overflowing_step_square_exits_two(self, tmp_path, capsys, lines, dt, name):
        # The stencil divides by the square of each grid step.
        path = self._write(tmp_path, "step.csv", lines)
        code, out, err = run_cli(capsys, "qpot", path, "--mass", "1e-30", *(["--dt", dt] if dt else []))
        assert code == 2
        assert out == ""
        assert err == f"error: {name} leaves the double range at these inputs\n"

    def test_step_square_is_checked_in_si(self, tmp_path, capsys):
        # 1e160 Planck lengths squares past the double range; the same step in
        # metres (about 1.6e125 m) does not, and the stencil works in metres.
        path = self._write(tmp_path, "step.csv", ["q,n"] + [f"{i}e160,{1.0 + 0.1 * (i % 3)}" for i in range(16)])
        code, out, err = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural")
        assert code == 0
        assert err == ""
        assert "mean_qp_energy" in out

    @pytest.mark.parametrize("argv, name", [
        (("density_q.csv", "--mass", "1e-300", "--units", "Natural"), "vqu"),
        (("density_xyz.csv", "--mass", "4e-297", "--units", "Natural", "--periodic"), "mean_qp_energy"),
    ])
    def test_overflow_exits_two(self, capsys, argv, name):
        # Every V_qu overflows in the first case; only the mean does in the second.
        code, out, err = run_cli(capsys, "qpot", str(GOLDEN / argv[0]), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {name} leaves the double range at these inputs\n"

    def test_long_grid_csv_equals_percent_reference(self, tmp_path, long_density):
        out = tmp_path / "vqu.csv"
        assert main(["qpot", long_density, "--mass", repr(ELECTRON_MASS), "--output", str(out)]) == 0
        parsed = read_density_csv(long_density)
        vqu = vqu_grid_nonrel(parsed.density, ELECTRON_MASS)
        q = parsed.origin[0] + np.arange(vqu.size) * parsed.density.spacing
        rows = np.column_stack([q, vqu])[1:-1].tolist()
        assert len(rows) > 4 * RENDER_ROWS
        mean = mean_qp_energy(parsed.density, ELECTRON_MASS)
        comments = [f"mass = {ELECTRON_MASS}", "units = SI", "periodic = False"]
        assert_same_text(out.read_text(), percent_csv(comments, ["q", "vqu"], rows, [f"mean_qp_energy = {mean:.16e}"]))

    def test_csv_output_memory_is_bounded_by_the_block(self, tmp_path, long_density, monkeypatch):
        # Rendering and writing hold one block of rows, not the whole table.
        emit_table, peaks = cli._emit_table, []

        def traced_emit_table(*args, **kwargs):
            peaks.append(traced_peak(lambda: emit_table(*args, **kwargs)).peak)

        monkeypatch.setattr(cli, "_emit_table", traced_emit_table)
        out = tmp_path / "vqu.csv"
        assert main(["qpot", long_density, "--mass", repr(ELECTRON_MASS), "--output", str(out)]) == 0
        assert peaks[0] < out.stat().st_size / 2, (peaks, out.stat().st_size)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("layout", ["lattice", "spacetime"])
    def test_grid_csv_equals_percent_reference(self, tmp_path, request, layout, periodic):
        # Coordinates are rendered per axis and gathered per row; the
        # reference expands them to one value per row and formats each.
        path = request.getfixturevalue(f"{layout}_density")
        out = tmp_path / "vqu.csv"
        flag = ["--periodic"] if periodic else []
        assert main(["qpot", path, "--mass", repr(ELECTRON_MASS), "--output", str(out), *flag]) == 0
        parsed = read_density_csv(path)
        density = dataclasses.replace(parsed.density, periodic=periodic)
        if layout == "spacetime":
            vqu = vqu_grid_dalembert(density, ELECTRON_MASS, parsed.dt)
            mean = mean_qp_energy_dalembert(density, ELECTRON_MASS, parsed.dt)
            names, steps = ["t", "q"], [parsed.dt, density.spacing]
        else:
            vqu = vqu_grid_nonrel(density, ELECTRON_MASS)
            mean = mean_qp_energy(density, ELECTRON_MASS)
            names, steps = ["qx", "qy", "qz"], [density.spacing] * 3
        axes = [origin + np.arange(n) * step for origin, n, step in zip(parsed.origin, vqu.shape, steps)]
        region = qp._region(density)
        coords = [c[region].ravel() for c in np.meshgrid(*axes, indexing="ij")]
        rows = np.column_stack(coords + [vqu[region].ravel()]).tolist()
        shape = vqu[region].shape
        assert all(RENDER_ROWS % math.prod(shape[i:]) for i in range(len(shape)))  # the second block starts mid-axis
        comments = [f"mass = {ELECTRON_MASS}", "units = SI", f"periodic = {periodic}"]
        expected = percent_csv(comments, names + ["vqu"], rows, [f"mean_qp_energy = {mean:.16e}"])
        assert_same_text(out.read_text(), expected)

    def test_csv_output_memory_is_bounded_by_the_block_on_a_lattice(self, tmp_path, monkeypatch):
        # Coordinates reach the renderer as 1-D axes: rendering a lattice of
        # four blocks holds one block of rows and no coordinate columns.
        path = grid_file(tmp_path / "lattice.csv", (64, 60, 70))
        emit_table, peaks = cli._emit_table, []

        def traced_emit_table(*args, **kwargs):
            peaks.append(traced_peak(lambda: emit_table(*args, **kwargs)).peak)

        monkeypatch.setattr(cli, "_emit_table", traced_emit_table)
        out = tmp_path / "vqu.csv"
        assert main(["qpot", path, "--mass", repr(ELECTRON_MASS), "--output", str(out)]) == 0
        assert out.read_text().count("\n") > 3 * RENDER_ROWS
        assert peaks[0] < out.stat().st_size / 2, (peaks, out.stat().st_size)

    @pytest.mark.parametrize("rows", [1, 2000])
    def test_non_utf8_file_exits_two(self, tmp_path, capsys, rows):
        # With 2000 rows the bad byte lies past the text the header read
        # decodes, so numpy's reader meets it first.
        body = "".join(f"{0.1 * i!r},1.0\n" for i in range(rows))
        path = tmp_path / "bad.csv"
        path.write_bytes(f"q,n\n{body}".encode() + b"\xff\xfe,2\n")
        code, out, err = run_cli(capsys, "qpot", str(path), "--mass", "1e-30")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_3d_file(self, tmp_path, capsys):
        n = 8
        lines = ["qx,qy,qz,n"]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lines.append(f"{0.1 * i},{0.1 * j},{0.1 * k},1.0")
        path = self._write(tmp_path, "cube.csv", lines)
        code, out, _ = run_cli(capsys, "qpot", path, "--mass", "1", "--units", "Natural")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["qx", "qy", "qz", "vqu"]
        assert len(rows) == (n - 2) ** 3
        assert all(row[3] == 0.0 for row in rows)


class TestSpectrumInputGuards:
    """Non-finite or unrepresentable inputs of the two spectrum commands end
    in an exit-2 message naming the problem, never a traceback or NaN rows."""

    @pytest.mark.parametrize("argv, named", [
        (("spectrum", "--gamma", "nan"), "gamma"),
        (("spectrum", "--gamma", "inf"), "gamma"),
        (("spectrum", "--temp", "inf"), "temperature"),
        (("spectrum", "--mass", "1e-300", "--temp", "1e300"), "underflows"),  # E/kT underflows to 0
        (("photon-spectrum", "--temp", "1e-300"), "underflows"),  # hbar*omega underflows to 0
        (("photon-spectrum", "--temp", "inf"), "temp"),
        (("photon-spectrum", "--omega-max", "inf"), "omega"),
        (("photon-spectrum", "--omega-min", "nan"), "omega"),
        (("photon-spectrum", "--omega-max", "1e200"), "omega^2 leaves"),  # omega**2 leaves the double range
        (("photon-spectrum", "--omega-max", "1.7976931348623157e308"), "omega^2 leaves"),  # np.geomspace overflows
        (("spectrum", "--mass", "1e-5", "--gamma", "1e300"), "mode energy"),  # m*gamma*c^2 overflows to inf
    ])
    def test_exits_two_without_output(self, capsys, argv, named):
        defaults = {"spectrum": ["--mass", repr(ELECTRON_MASS), "--temp", "300"],
                    "photon-spectrum": ["--temp", "300"]}[argv[0]]
        # a flag given again after the defaults overrides them
        code, out, err = run_cli(capsys, argv[0], *defaults, *argv[1:], "--points", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err and "Warning" not in err


    def test_overflowing_column_prints_only_the_error(self, capsys):
        # 2*pi/k overflows for a subnormal k_min; numpy must not warn first
        code, out, err = run_cli(capsys, "spectrum", "--mass", "1e-30", "--temp", "300", "--k-min", "1e-320")
        assert code == 2
        assert out == ""
        assert err == "error: lambda leaves the double range at these inputs\n"


class TestBlackhole:
    def test_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "blackhole", "--threshold", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["threshold"]["m_p"] == pytest.approx(0.782542, rel=1e-6)
        assert doc["threshold"]["kg"] == pytest.approx(0.782542 * CONSTANTS.planck_mass, rel=1e-6)

    def test_planck_mass_report(self, capsys):
        code, out, _ = run_cli(capsys, "blackhole", "1.0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["stable"] is True
        assert doc["e_binding"] == pytest.approx(-0.3125 * CONSTANTS.planck_energy, rel=1e-12)
        assert set(doc) == {"mass", "gravitational_radius", "vqu_printed", "vqu_geometric", "e_grav", "e_binding", "stable"}

    def test_half_planck_mass_unstable(self, capsys):
        code, out, _ = run_cli(capsys, "blackhole", "0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["stable"] is False

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "blackhole", "1.0", "--units", "Natural")
        assert code == 0
        assert "stable:               true" in out
        assert "m_p" in out

    @pytest.mark.parametrize("mass, reason", [
        ("inf", "finite"),
        ("1e300", "outside the range"),  # vqu_printed underflows to 0
        ("1e-300", "outside the range"),  # vqu_printed overflows
    ])
    def test_unrepresentable_mass_exits_two(self, capsys, mass, reason):
        code, out, err = run_cli(capsys, "blackhole", mass)
        assert code == 2
        assert out == ""
        assert err.startswith("error: mass") and reason in err
        assert "Traceback" not in err

    def test_requires_mass_or_threshold(self, capsys):
        code, _, err = run_cli(capsys, "blackhole")
        assert code == 2
        assert "threshold" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "blackhole", "2.0", "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mass"]["m_p"] == pytest.approx(2.0)


#: One tiny run of each subcommand: its argv, where ``{dir}`` is a directory
#: that holds ``density.csv`` and ``config.json`` and receives the output
#: ``out``; the modules the run must load; and those it must leave unloaded.
SUBCOMMAND_RUNS = {
    "spectrum": (
        ["spectrum", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "8", "--output", "{dir}/out"],
        {"numpy", "qvac.modestats"}, {"qvac.qpotential", "qvac.sampler"},
    ),
    "photon-spectrum": (
        ["photon-spectrum", "--temp", "300", "--points", "8", "--output", "{dir}/out"],
        {"numpy", "qvac.modestats"}, {"qvac.qpotential", "qvac.sampler"},
    ),
    "correlation": (
        ["correlation", "--mass", repr(ELECTRON_MASS), "--temp", "300", "--points", "8", "--output", "{dir}/out"],
        {"numpy", "qvac.correlation"}, {"qvac.modestats", "qvac.qpotential", "qvac.sampler"},
    ),
    "qpot": (
        ["qpot", "{dir}/density.csv", "--mass", "1", "--units", "Natural", "--output", "{dir}/out"],
        {"numpy", "qvac.qpotential"}, {"qvac.modestats", "qvac.sampler"},
    ),
    "sample": (
        ["sample", "{dir}/config.json", "--no-field", "--report-out", "{dir}/out"],
        {"numpy", "qvac.sampler"}, {"qvac.modestats", "qvac.qpotential", "qvac.render"},
    ),
    "blackhole": (
        ["blackhole", "2.0", "--output", "{dir}/out"],
        {"qvac.blackhole"}, {"numpy"},
    ),
    "blackhole-threshold": (
        ["blackhole", "--threshold", "--output", "{dir}/out"],
        {"qvac.blackhole"}, {"numpy"},
    ),
}


class TestStartup:
    """Start-up loads the parser and the unit and error modules; each
    subcommand loads numpy and its own modules when it runs.  Each case
    runs in a fresh interpreter."""

    def test_parser_loads_only_the_start_up_modules(self):
        loaded = loaded_modules("import qvac.cli\nqvac.cli.build_parser()")
        assert {name for name in loaded if name.split(".")[0] == "qvac"} == {
            "qvac", "qvac.cli", "qvac.constants", "qvac.errors"}
        assert "numpy" not in loaded
        assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["spectrum"], 1)], ids=["help", "usage-error"])
    def test_commands_that_compute_nothing_load_no_numpy(self, argv, code):
        loaded = loaded_modules(f"import qvac.cli\nassert qvac.cli.main({argv!r}) == {code}")
        assert "numpy" not in loaded

    @pytest.mark.parametrize("run", SUBCOMMAND_RUNS)
    def test_subcommand_loads_its_own_modules(self, tmp_path, run):
        argv, loads, skips = SUBCOMMAND_RUNS[run]
        assert main(self._inputs(tmp_path / "in-process", argv)) == 0
        child_argv = self._inputs(tmp_path / "child", argv)
        loaded = loaded_modules(f"import qvac.cli\nassert qvac.cli.main({child_argv!r}) == 0")
        assert loads <= loaded, loads - loaded
        assert not skips & loaded, skips & loaded
        assert (tmp_path / "child" / "out").read_bytes() == (tmp_path / "in-process" / "out").read_bytes()

    @staticmethod
    def _inputs(directory, argv):
        """``argv`` for a run in ``directory``, which this creates and fills with the inputs."""
        directory.mkdir()
        (directory / "density.csv").write_text(
            "q,n\n" + "".join(f"{0.125 * i!r},{1.5 + math.cos(i)!r}\n" for i in range(16)))
        (directory / "config.json").write_text(json.dumps(
            {"lambda_c": 1e-9, "grid_points": 256, "extent": 24e-9, "seed": 9, "realizations": 4}))
        return [arg.replace("{dir}", str(directory)) for arg in argv]


#: ``qvac.__all__``: every public name of the package, its submodules included.
PACKAGE_NAMES = [
    "BlackHoleReport", "CONSTANTS", "ConfigError", "CorrelationFunction", "DomainError", "ELECTRON_MASS",
    "GaussianityReport", "GridDensity", "ImaginaryEnergy", "InsufficientTail", "ModeSpectrum", "NoiseField",
    "ParsedDensity", "PhysicalConstants", "SamplerConfig", "SingularDensity", "SpectralPoint",
    "THRESHOLD_PLANCK_UNITS", "ThermalState", "ThresholdMass", "TravelingMode", "UnitMode", "UnitSystem",
    "WrongBranch", "analytic_correlation", "bh_vqu_geometric", "bh_vqu_printed", "binding_energy",
    "black_hole_report", "blackhole", "build_sample_report", "compton_wavenumber", "constants", "correlation",
    "correlation_from_spectrum", "correlation_length", "dimensionless_groups", "e_folding_lag",
    "empirical_correlation", "errors", "gaussian_mode_spectrum", "gaussian_spectrum", "gaussianity_check",
    "gravitational_energy", "gravitational_radius", "is_stable", "load_config", "mean_energy",
    "mean_periodogram", "mean_qp_energy", "mean_qp_energy_dalembert", "mode_density", "mode_energy_massive",
    "mode_probability_nonrel", "mode_probability_rel", "modestats", "n_particle_weight", "numerics",
    "photon_mean_energy", "photon_spectrum", "planck_spectral_density", "qpotential", "read_density_csv",
    "report_json_bytes", "sample_field", "sample_report", "sampler", "spectral_density_massive",
    "stability_threshold", "vqu_grid_dalembert", "vqu_grid_nonrel", "vqu_sinusoid", "vqu_traveling",
    "wien_peak",
]


class TestPackageSurface:
    """``import qvac`` defers its submodules but offers the same names."""

    def test_all_lists_every_public_name(self):
        assert sorted(qvac.__all__) == PACKAGE_NAMES

    def test_every_name_resolves_and_is_listed(self):
        listed = dir(qvac)
        for name in PACKAGE_NAMES:
            getattr(qvac, name)
            assert name in listed, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from qvac import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(PACKAGE_NAMES)

    def test_constants_stays_the_function_after_every_submodule_loads(self):
        loaded = loaded_modules(
            "import importlib, pkgutil, qvac\n"
            "for info in pkgutil.iter_modules(qvac.__path__):\n"
            "    importlib.import_module(f'qvac.{info.name}')\n"
            "assert isinstance(qvac.constants(), qvac.PhysicalConstants), qvac.constants"
        )
        assert {"qvac.cli", "qvac.constants", "qvac.render", "qvac.sampler"} <= loaded

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            qvac.no_such_name
