import json
import math

import pytest

from qvac import CONSTANTS, ELECTRON_MASS
from qvac.cli import main

KB = CONSTANTS.k_boltzmann
HBAR = CONSTANTS.hbar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        (("photon-spectrum", "--omega-max", "1e200"), "overflows"),  # omega**2 leaves the double range
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
