import math
import warnings

import numpy as np
import pytest

from qvac import qpotential as qp
from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    DomainError,
    GridDensity,
    SingularDensity,
    TravelingMode,
    mean_qp_energy,
    mean_qp_energy_dalembert,
    read_density_csv,
    vqu_grid_dalembert,
    vqu_grid_nonrel,
    vqu_sinusoid,
    vqu_traveling,
)

from qvac.cli import main

from helpers import NATURAL, cos2_density, offnode_mask

HBAR = CONSTANTS.hbar
C = CONSTANTS.c


class TestSinusoid:
    def test_natural_units_value(self):
        # hbar = m = 1, lambda = 1  ->  2*pi^2
        lam = NATURAL.to_si(1.0, "length")
        m = NATURAL.to_si(1.0, "mass")
        v = NATURAL.from_si(vqu_sinusoid(lam, m), "energy")
        assert v == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_inverse_square_scaling(self):
        lam, m = 2.2e-9, ELECTRON_MASS
        assert vqu_sinusoid(lam / 2.0, m) == pytest.approx(4.0 * vqu_sinusoid(lam, m), rel=1e-12)

    def test_long_wavelength_limit(self):
        assert vqu_sinusoid(1e12, ELECTRON_MASS) < 1e-60

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            vqu_sinusoid(0.0, ELECTRON_MASS)
        with pytest.raises(DomainError):
            vqu_sinusoid(1e-9, 0.0)


class TestTraveling:
    def test_photon_is_exactly_zero(self):
        mode = TravelingMode(wavelength=5e-7, velocity_ratio=1.0, mass=0.0)
        assert vqu_traveling(mode) == 0.0

    def test_rest_mode_natural_value(self):
        lam = NATURAL.to_si(1.0, "length")
        m = NATURAL.to_si(1.0, "mass")
        v = NATURAL.from_si(vqu_traveling(TravelingMode(lam, 0.0, m)), "energy")
        assert v == pytest.approx(-((2.0 * math.pi) ** 2), rel=1e-12)

    def test_velocity_factor(self):
        lam, m = 3e-9, ELECTRON_MASS
        at_rest = vqu_traveling(TravelingMode(lam, 0.0, m))
        moving = vqu_traveling(TravelingMode(lam, 0.8, m))
        assert moving == pytest.approx(0.36 * at_rest, rel=1e-12)

    def test_massless_subluminal_rejected(self):
        with pytest.raises(DomainError):
            TravelingMode(wavelength=1e-9, velocity_ratio=0.5, mass=0.0)


class TestGridNonrel:
    def test_constant_density_gives_zero(self):
        dens = GridDensity(np.full(32, 2.5), 0.1, dims=1, periodic=True)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        assert np.all(v == 0.0)

    def test_cos2_matches_closed_form(self):
        lam = 1e-9
        dens, q = cos2_density(lam, 128)
        target = vqu_sinusoid(lam, ELECTRON_MASS)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        keep = offnode_mask(q, lam, dens.spacing)
        rel = np.abs(v[keep] - target) / target
        # truncation error of the central stencil is h^2 k^2 / 12
        bound = 1.5 * (dens.spacing * 2.0 * math.pi / lam) ** 2 / 12.0
        assert rel.max() < bound

    def test_convergence_order_two(self):
        lam = 1e-9
        target = vqu_sinusoid(lam, ELECTRON_MASS)
        errors = {}
        for points in (64, 128, 256):
            dens, q = cos2_density(lam, points)
            v = vqu_grid_nonrel(dens, ELECTRON_MASS)
            keep = offnode_mask(q, lam, dens.spacing)
            errors[points] = np.max(np.abs(v[keep] - target))
        ratio_1 = errors[64] / errors[128]
        ratio_2 = errors[128] / errors[256]
        assert 3.6 < ratio_1 < 4.4
        assert 3.6 < ratio_2 < 4.4

    def test_gaussian_at_origin(self):
        # n = exp(-q^2/(2 sigma^2))  ->  V(0) = hbar^2/(4 m sigma^2)
        sigma = 1e-9
        n_points = 481
        h = 12.0 * sigma / (n_points - 1)
        q = -6.0 * sigma + np.arange(n_points) * h
        dens = GridDensity(np.exp(-(q**2) / (2.0 * sigma**2)), h, dims=1)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        expected = HBAR**2 / (4.0 * ELECTRON_MASS * sigma**2)
        assert v[n_points // 2] == pytest.approx(expected, rel=1e-3)
        assert np.isnan(v[0]) and np.isnan(v[-1])  # non-periodic boundary

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(42)
        h = 0.05
        q = np.arange(64) * h
        base = 1.5 + np.sin(2.0 * math.pi * q / (64 * h)) + 0.2 * np.cos(4.0 * math.pi * q / (64 * h))
        v_ref = vqu_grid_nonrel(GridDensity(base, h, dims=1, periodic=True), ELECTRON_MASS)
        scale = float(np.nanmax(np.abs(v_ref)))
        for alpha in 10.0 ** rng.uniform(-6, 6, size=5):
            v = vqu_grid_nonrel(GridDensity(alpha * base, h, dims=1, periodic=True), ELECTRON_MASS)
            assert np.allclose(v, v_ref, rtol=1e-9, atol=1e-9 * scale)

    def test_mass_scaling(self):
        dens, _ = cos2_density(1e-9, 64)
        v1 = vqu_grid_nonrel(dens, ELECTRON_MASS)
        v2 = vqu_grid_nonrel(dens, 2.0 * ELECTRON_MASS)
        assert np.allclose(2.0 * v2, v1, rtol=1e-12)

    def test_three_dimensional_separable_mode(self):
        # n = cos^2(kx) cos^2(ky) cos^2(kz)  ->  V = 3 (hbar^2/2m) k^2
        lam = 1e-9
        points = 16
        h = lam / points
        q = (np.arange(points) + 0.5) * h
        cx = np.cos(2.0 * math.pi * q / lam) ** 2
        values = cx[:, None, None] * cx[None, :, None] * cx[None, None, :]
        dens = GridDensity(values, h, dims=3, periodic=True)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        target = 3.0 * vqu_sinusoid(lam, ELECTRON_MASS)
        keep1 = offnode_mask(q, lam, h)
        keep = keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]
        assert np.max(np.abs(v[keep] - target)) / target < 2e-2

    def test_singular_density_identifies_point(self):
        values = np.ones(16)
        values[7] = 0.0
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_nonrel(GridDensity(values, 0.1, dims=1), ELECTRON_MASS)
        assert excinfo.value.index == (7,)

    def test_boundary_zero_is_not_singular(self):
        # a zero at a non-evaluated boundary point is allowed
        values = np.ones(16)
        values[0] = 0.0
        v = vqu_grid_nonrel(GridDensity(values, 0.1, dims=1), ELECTRON_MASS)
        assert np.isnan(v[0])

    def test_domain_errors(self):
        dens, _ = cos2_density(1e-9, 64)
        with pytest.raises(DomainError):
            vqu_grid_nonrel(dens, 0.0)
        with pytest.raises(DomainError):
            GridDensity(np.ones(4), 0.1, dims=1)  # too few samples
        with pytest.raises(DomainError):
            GridDensity(-np.ones(16), 0.1, dims=1)  # negative density


class TestGridDalembert:
    lam = 1e-9
    mass = ELECTRON_MASS

    def _traveling(self, points: int, velocity: float, slices: int = 3):
        h = self.lam / points
        dt = h / C
        q = (np.arange(points) + 0.5) * h
        t = (np.arange(slices) - slices // 2) * dt
        phase = 2.0 * math.pi * (q[None, :] - velocity * t[:, None]) / self.lam
        values = np.cos(phase) ** 2
        dens = GridDensity(values, h, dims=1, periodic=True, time_axis=True)
        return dens, dt, q

    def test_constant_density_gives_zero(self):
        values = np.full((3, 32), 1.3)
        dens = GridDensity(values, 0.1, dims=1, periodic=True, time_axis=True)
        v = vqu_grid_dalembert(dens, self.mass, 1e-3)
        assert np.all(v[1] == 0.0)
        assert np.all(np.isnan(v[0])) and np.all(np.isnan(v[2]))

    def test_static_profile_doubles_nonrel_magnitude(self):
        # identical time slices: the time derivative vanishes and the
        # wave-operator form reduces to -(hbar^2/m) k^2, twice the
        # magnitude of the density-curvature value and of opposite sign
        # (matching vqu_traveling at v = 0).
        dens, dt, q = self._traveling(128, velocity=0.0)
        v = vqu_grid_dalembert(dens, self.mass, dt)[1]
        keep = offnode_mask(q, self.lam, self.lam / 128)
        k = 2.0 * math.pi / self.lam
        expected = -(HBAR**2 / self.mass) * k**2
        assert np.max(np.abs(v[keep] - expected)) / abs(expected) < 1e-2
        assert expected == pytest.approx(-2.0 * vqu_sinusoid(self.lam, self.mass), rel=1e-12)
        at_rest = vqu_traveling(TravelingMode(self.lam, 0.0, self.mass))
        assert np.median(v[keep]) == pytest.approx(at_rest, rel=1e-2)

    def test_lightlike_mode_is_annihilated(self):
        dens, dt, _ = self._traveling(64, velocity=C)
        v = vqu_grid_dalembert(dens, self.mass, dt)[1]
        static_magnitude = (HBAR**2 / self.mass) * (2.0 * math.pi / self.lam) ** 2
        assert np.max(np.abs(v)) < 1e-8 * static_magnitude

    def test_requires_three_time_slices(self):
        values = np.ones((2, 32))
        dens = GridDensity(values, 0.1, dims=1, periodic=True, time_axis=True)
        with pytest.raises(DomainError):
            vqu_grid_dalembert(dens, self.mass, 1e-3)

    def test_requires_time_axis_and_positive_dt(self):
        spatial, _ = cos2_density(self.lam, 64)
        with pytest.raises(DomainError):
            vqu_grid_dalembert(spatial, self.mass, 1e-3)
        dens, dt, _ = self._traveling(64, velocity=0.0)
        with pytest.raises(DomainError):
            vqu_grid_dalembert(dens, self.mass, 0.0)
        with pytest.raises(DomainError):
            vqu_grid_nonrel(dens, self.mass)


class TestMeanEnergy:
    def test_constant_density_zero(self):
        dens = GridDensity(np.full(64, 0.7), 0.1, dims=1, periodic=True)
        assert mean_qp_energy(dens, ELECTRON_MASS) == 0.0

    def test_cos2_mode_periodic(self):
        # V_qu is constant away from nodes, so the weighted mean tends to
        # (hbar^2/2m) k^2; the node kinks contribute an O(h) deficit.
        lam = 1e-9
        dens, _ = cos2_density(lam, 512)
        target = vqu_sinusoid(lam, ELECTRON_MASS)
        assert mean_qp_energy(dens, ELECTRON_MASS) == pytest.approx(target, rel=1e-2)

    def test_gaussian_density(self):
        # symbolic oracle: for n ~ exp(-q^2/(2 sigma^2)),
        # V(q) = hbar^2/(4 m sigma^2) - hbar^2 q^2/(8 m sigma^4)
        # and integral n V / integral n = hbar^2/(8 m sigma^2).
        sigma = 1e-9
        n_points = 481
        h = 12.0 * sigma / (n_points - 1)
        q = -6.0 * sigma + np.arange(n_points) * h
        n = np.exp(-(q**2) / (2.0 * sigma**2))
        dens = GridDensity(n, h, dims=1)
        expected = HBAR**2 / (8.0 * ELECTRON_MASS * sigma**2)
        got = mean_qp_energy(dens, ELECTRON_MASS)
        assert got == pytest.approx(expected, rel=1e-3)
        # independent quadrature oracle from the closed-form V(q)
        v_analytic = HBAR**2 / (4.0 * ELECTRON_MASS * sigma**2) - HBAR**2 * q**2 / (
            8.0 * ELECTRON_MASS * sigma**4
        )
        oracle = np.trapezoid(n * v_analytic, dx=h) / np.trapezoid(n, dx=h)
        assert got == pytest.approx(oracle, rel=1e-3)
        assert oracle == pytest.approx(expected, rel=1e-4)

    def test_dalembert_static_mean(self):
        lam = 1e-9
        points = 256
        h = lam / points
        q = (np.arange(points) + 0.5) * h
        values = np.repeat((np.cos(2.0 * math.pi * q / lam) ** 2)[None, :], 3, axis=0)
        dens = GridDensity(values, h, dims=1, periodic=True, time_axis=True)
        got = mean_qp_energy_dalembert(dens, ELECTRON_MASS, h / C)
        expected = -2.0 * vqu_sinusoid(lam, ELECTRON_MASS)
        assert got == pytest.approx(expected, rel=2e-2)


class TestCsvIngestion:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_roundtrip_1d(self, tmp_path):
        lines = ["q,n"] + [f"{0.5 + 0.125 * i},{1.0 + 0.01 * i}" for i in range(16)]
        parsed = read_density_csv(self._write(tmp_path, "d.csv", "\n".join(lines) + "\n"))
        assert parsed.dt is None
        assert parsed.origin == (0.5,)
        assert parsed.density.dims == 1
        assert parsed.density.spacing == pytest.approx(0.125, rel=1e-12)
        assert parsed.density.values[3] == pytest.approx(1.03)

    def test_header_required(self, tmp_path):
        lines = [f"{0.1 * i},1.0" for i in range(16)]
        with pytest.raises(DomainError):
            read_density_csv(self._write(tmp_path, "h.csv", "\n".join(lines) + "\n"))

    def test_malformed_row_reported(self, tmp_path):
        lines = ["q,n"] + [f"{0.1 * i},1.0" for i in range(16)]
        lines[5] = "0.4,not-a-number"
        with pytest.raises(DomainError, match="row 6"):
            read_density_csv(self._write(tmp_path, "m.csv", "\n".join(lines) + "\n"))

    def test_nonuniform_spacing_rejected(self, tmp_path):
        q = [0.1 * i for i in range(16)]
        q[8] += 0.01
        lines = ["q,n"] + [f"{qi},1.0" for qi in q]
        with pytest.raises(DomainError, match="uniform"):
            read_density_csv(self._write(tmp_path, "s.csv", "\n".join(lines) + "\n"))

    def test_time_layout(self, tmp_path):
        rows = ["t,q,n"]
        for ti in range(3):
            for qi in range(8):
                rows.append(f"{0.25 * ti},{0.5 * qi},{1.0 + ti + 0.1 * qi}")
        parsed = read_density_csv(self._write(tmp_path, "t.csv", "\n".join(rows) + "\n"))
        assert parsed.dt == pytest.approx(0.25, rel=1e-12)
        assert parsed.density.time_axis
        assert parsed.density.values.shape == (3, 8)
        assert parsed.origin == (0.0, 0.0)

    def test_3d_lattice(self, tmp_path):
        rows = ["qx,qy,qz,n"]
        n = 8
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows.append(f"{0.2 * i},{0.2 * j},{0.2 * k},{1.0 + i + j + k}")
        parsed = read_density_csv(self._write(tmp_path, "g.csv", "\n".join(rows) + "\n"))
        assert parsed.density.dims == 3
        assert parsed.density.values.shape == (n, n, n)
        assert parsed.density.values[1, 2, 3] == pytest.approx(7.0)

    def test_incomplete_lattice_rejected(self, tmp_path):
        rows = ["qx,qy,qz,n"]
        n = 8
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows.append(f"{0.2 * i},{0.2 * j},{0.2 * k},1.0")
        rows.pop()  # drop one lattice point
        with pytest.raises(DomainError, match="lattice"):
            read_density_csv(self._write(tmp_path, "i.csv", "\n".join(rows) + "\n"))

    def test_unknown_header_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="header"):
            read_density_csv(self._write(tmp_path, "u.csv", "a,b\n1,2\n"))


def _density_text(rows, header="q,n", eol="\n"):
    return eol.join([header] + [",".join(row) for row in rows]) + eol


def _edit(rows, index, *cells):
    rows = [list(r) for r in rows]
    rows[index] = list(cells)
    return rows


def _random_doubles_rows(points=2000):
    # Random significand bits; binary exponents within [-15, 15] keep the
    # density free of singular points.
    rng = np.random.default_rng(20260)
    mantissa = rng.integers(0, 2**52, size=points, dtype=np.uint64)
    exponent = rng.integers(1023 - 15, 1023 + 16, size=points).astype(np.uint64)
    values = ((exponent << np.uint64(52)) | mantissa).view(np.float64)
    return [[repr(0.5 + 0.25 * i), repr(float(v))] for i, v in enumerate(values)]


_PLAIN = [[repr(0.1 * i), repr(1.0 + 0.25 * math.cos(0.5 * i))] for i in range(12)]
_TIME_ROWS = [[repr(0.5 * t), repr(0.1 * i), repr(1.0 + 0.01 * (t + i))] for t in range(3) for i in range(10)]

#: name -> (file text, whether the numpy reader should take the file)
INGEST_CASES = {
    "plain": (_density_text(_PLAIN), True),
    "time_layout": (_density_text(_TIME_ROWS, header="t,q,n"), True),
    "random_doubles": (_density_text(_random_doubles_rows()), True),
    "extreme_doubles": (_density_text(
        [[repr(0.1 * i), v] for i, v in enumerate(
            ["5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308", "0.0", "-0.0", "1e-320",
             "4.9406564584124654e-324", "1E+300", ".5", "5.", "+3", "1.0000000000000002"])]
    ), True),
    "leading_comments": ("# generated density\n#\n" + _density_text(_PLAIN), False),
    "interleaved_comments": (_density_text(_edit(_PLAIN, 4, "  # a note") + [["# end"]]), False),
    "blank_lines": (_density_text(_PLAIN[:5] + [[""], [""]] + _PLAIN[5:] + [[""]]), True),
    "blank_line_after_header": (_density_text([[""]] + _PLAIN), False),
    "whitespace_only_line": (_density_text(_PLAIN[:5] + [["   "]] + _PLAIN[5:]), False),
    "crlf": (_density_text(_PLAIN, eol="\r\n"), True),
    "quoted_cells": (_density_text(_edit(_PLAIN, 3, '"0.30000000000000004"', '"1.0"')), False),
    "quoted_header": (_density_text(_PLAIN, header='"q","n"'), False),
    "padded_cells": (_density_text([[f" {q}\t", f"  {n} "] for q, n in _PLAIN], header=" q , n "), True),
    "underscore_literal": (_density_text(_edit(_PLAIN, 2, "0.2", "1_000e-3")), False),
    "fullwidth_digits": (_density_text(_edit(_PLAIN, 2, "0.2", "１.０")), False),
    "nan_cell": (_density_text(_edit(_PLAIN, 6, "0.6000000000000001", "nan")), True),
    "inf_cell": (_density_text(_edit(_PLAIN, 6, "0.6000000000000001", "inf")), True),
    "inf_coordinate": (_density_text(_edit(_PLAIN, 6, "-Infinity", "1.0")), True),
    "header_only": ("q,n\n", False),
    "header_only_blank_body": ("q,n\n\n\n", False),
    "ragged_row": (_density_text(_edit(_PLAIN, 6, "0.6000000000000001", "1.0", "2.0")), False),
    "short_row": (_density_text(_edit(_PLAIN, 9, "0.9")), False),
    "extra_column_everywhere": (_density_text([row + ["0"] for row in _PLAIN]), False),
    "bad_literal": (_density_text(_edit(_PLAIN, 5, "0.5", "not-a-number")), False),
}


class TestIngestPaths:
    """The numpy reader and the csv-module reference reader agree on every
    input: same doubles, spacing and origin, or the same error text."""

    @staticmethod
    def _outcome(path):
        try:
            parsed = read_density_csv(path)
        except DomainError as exc:
            return str(exc)
        values = parsed.density.values
        dt = None if parsed.dt is None else parsed.dt.hex()
        return values.shape, values.tobytes(), parsed.density.spacing.hex(), [o.hex() for o in parsed.origin], dt

    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_fast_path_matches_reference(self, name, tmp_path, monkeypatch):
        text, fast = INGEST_CASES[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        reference_calls = []
        read_rows = qp._read_rows

        def reference(p):
            reference_calls.append(p)
            return read_rows(p)

        monkeypatch.setattr(qp, "_read_rows", reference)
        got = self._outcome(str(path))
        assert bool(reference_calls) is not fast
        monkeypatch.setattr(qp, "_read_table", qp._read_rows)
        assert got == self._outcome(str(path))

    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_cli_stderr_holds_only_the_error(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(INGEST_CASES[name][0].encode())
        outcome = self._outcome(str(path))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["qpot", str(path), "--mass", "1", "--units", "Natural", "--dt", "0.5",
                         "--output", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert caught == []
        if isinstance(outcome, str):
            assert (code, err) == (2, f"error: {outcome}\n")
        elif code == 0:
            assert err == ""
        else:  # the grid reads but the kernel rejects it, e.g. as singular
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
