import dataclasses
import functools
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

from helpers import NATURAL, cos2_density, offnode_mask, roll_stencil_vqu, traced_peak

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
        dens = GridDensity(np.full(32, 2.5), 0.1, periodic=True)
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
        dens = GridDensity(np.exp(-(q**2) / (2.0 * sigma**2)), h)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        expected = HBAR**2 / (4.0 * ELECTRON_MASS * sigma**2)
        assert v[n_points // 2] == pytest.approx(expected, rel=1e-3)
        assert np.isnan(v[0]) and np.isnan(v[-1])  # non-periodic boundary

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(42)
        h = 0.05
        q = np.arange(64) * h
        base = 1.5 + np.sin(2.0 * math.pi * q / (64 * h)) + 0.2 * np.cos(4.0 * math.pi * q / (64 * h))
        v_ref = vqu_grid_nonrel(GridDensity(base, h, periodic=True), ELECTRON_MASS)
        scale = float(np.nanmax(np.abs(v_ref)))
        for alpha in 10.0 ** rng.uniform(-6, 6, size=5):
            v = vqu_grid_nonrel(GridDensity(alpha * base, h, periodic=True), ELECTRON_MASS)
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
        dens = GridDensity(values, h, periodic=True)
        v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        target = 3.0 * vqu_sinusoid(lam, ELECTRON_MASS)
        keep1 = offnode_mask(q, lam, h)
        keep = keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]
        assert np.max(np.abs(v[keep] - target)) / target < 2e-2

    def test_singular_density_identifies_point(self):
        values = np.ones(16)
        values[7] = 0.0
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_nonrel(GridDensity(values, 0.1), ELECTRON_MASS)
        assert excinfo.value.index == (7,)

    @pytest.mark.parametrize("fraction, singular", [(1.01e-12, False), (0.99e-12, True)], ids=["above", "below"])
    def test_singular_threshold_is_a_fraction_of_the_maximum(self, fraction, singular):
        # A dip to just above or just below 1e-12 of the grid maximum.
        values = np.full(16, 4.0)
        values[7] = fraction * 4.0
        dens = GridDensity(values, 0.1)
        if singular:
            with pytest.raises(SingularDensity) as excinfo:
                vqu_grid_nonrel(dens, ELECTRON_MASS)
            assert excinfo.value.index == (7,)
        else:
            assert np.isfinite(vqu_grid_nonrel(dens, ELECTRON_MASS)[7])

    def test_boundary_zero_is_not_singular(self):
        # a zero at a non-evaluated boundary point is allowed
        values = np.ones(16)
        values[0] = 0.0
        v = vqu_grid_nonrel(GridDensity(values, 0.1), ELECTRON_MASS)
        assert np.isnan(v[0])

    def test_domain_errors(self):
        dens, _ = cos2_density(1e-9, 64)
        with pytest.raises(DomainError):
            vqu_grid_nonrel(dens, 0.0)
        with pytest.raises(DomainError):
            GridDensity(np.ones(4), 0.1)  # too few samples
        with pytest.raises(DomainError):
            GridDensity(-np.ones(16), 0.1)  # negative density
        for shape, time_axis in (((8, 8), False), ((3, 8, 8), True)):
            with pytest.raises(DomainError, match="1 or 3 spatial axes.*got 2"):
                GridDensity(np.ones(shape), 0.1, time_axis=time_axis)
        spacetime = GridDensity(np.ones((3, 8)), 0.1, time_axis=True)
        for call in (vqu_grid_nonrel, mean_qp_energy):
            with pytest.raises(DomainError, match="_dalembert form"):
                call(spacetime, ELECTRON_MASS)


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
        dens = GridDensity(values, h, periodic=True, time_axis=True)
        return dens, dt, q

    def test_constant_density_gives_zero(self):
        values = np.full((3, 32), 1.3)
        dens = GridDensity(values, 0.1, periodic=True, time_axis=True)
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
        dens = GridDensity(values, 0.1, periodic=True, time_axis=True)
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


def _evaluated(shape, periodic, time_axis):
    """Mask of the points V_qu is evaluated at, built axis by axis: the
    interior time slices, and each spatial axis whole when periodic, its
    interior otherwise."""
    on_axis = []
    for axis, n in enumerate(shape):
        mask = np.ones(n, dtype=bool)
        if (time_axis and axis == 0) or not periodic:
            mask[[0, -1]] = False
        on_axis.append(mask)
    return functools.reduce(np.logical_and.outer, on_axis)


def _loop_mean(dens, vqu):
    """Per-slice weighted mean, slice by slice in Python (the reference
    for the vectorized ``mean_qp_energy_dalembert``)."""

    def integrate(arr):
        if dens.periodic:
            return float(arr.sum()) * dens.spacing**arr.ndim
        for axis in reversed(range(arr.ndim)):
            arr = np.trapezoid(arr, dx=dens.spacing, axis=axis)
        return float(arr)

    means = []
    for n, v in zip(dens.values[1:-1], vqu[1:-1]):
        if not dens.periodic:
            interior = (slice(1, -1),) * n.ndim
            n, v = n[interior], v[interior]
        means.append(integrate(n * v) / integrate(n))
    return float(np.mean(means))


class TestEvaluatedRegion:
    """One region per layout: the interior time slices and, on each spatial
    axis, the interior points, or every point of a periodic grid."""

    LAYOUTS = [((40,), 1, False), ((9, 10, 11), 3, False), ((5, 12), 1, True)]

    @pytest.mark.parametrize("periodic, expected", [(False, (3, 4, 2)), (True, (1, 0, 5))])
    def test_singular_index_is_the_full_grid_index_3d(self, periodic, expected):
        values = np.ones((9, 10, 11))
        values[1, 0, 5] = values[3, 4, 2] = 0.0
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_nonrel(GridDensity(values, 0.1, periodic=periodic), ELECTRON_MASS)
        assert excinfo.value.index == expected

    @pytest.mark.parametrize("periodic, expected", [(False, (3, 6)), (True, (2, 0))])
    def test_singular_index_is_the_full_grid_index_spacetime(self, periodic, expected):
        values = np.ones((5, 12))
        for point in ((0, 5), (2, 0), (3, 6), (4, 3)):
            values[point] = 0.0
        dens = GridDensity(values, 0.1, periodic=periodic, time_axis=True)
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_dalembert(dens, ELECTRON_MASS, 1e-3)
        assert excinfo.value.index == expected

    @pytest.mark.parametrize("periodic, expected", [(False, (1,)), (True, (0,))])
    def test_all_zero_density_is_singular_nonrel(self, periodic, expected):
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_nonrel(GridDensity(np.zeros(16), 0.1, periodic=periodic), 1e-30)
        assert excinfo.value.index == expected

    @pytest.mark.parametrize("periodic, expected", [(False, (1, 1)), (True, (1, 0))])
    def test_all_zero_density_is_singular_dalembert(self, periodic, expected):
        dens = GridDensity(np.zeros((5, 16)), 0.1, periodic=periodic, time_axis=True)
        with pytest.raises(SingularDensity) as excinfo:
            vqu_grid_dalembert(dens, 1e-30, 1e-3)
        assert excinfo.value.index == expected

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("shape, dims, time_axis", LAYOUTS)
    def test_nan_exactly_off_the_region(self, shape, dims, time_axis, periodic):
        values = np.random.default_rng(0).uniform(0.5, 1.5, shape)
        dens = GridDensity(values, 0.1, periodic=periodic, time_axis=time_axis)
        assert dens.dims == dims
        if time_axis:
            v = vqu_grid_dalembert(dens, ELECTRON_MASS, 1e-3)
        else:
            v = vqu_grid_nonrel(dens, ELECTRON_MASS)
        evaluated = _evaluated(shape, periodic, time_axis)
        assert np.array_equal(np.isnan(v), ~evaluated)
        assert np.all(np.isfinite(v[evaluated]))

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("shape, dims", [((7, 40), 1), ((4, 8, 9, 10), 3)])
    def test_spacetime_mean_equals_the_per_slice_loop(self, shape, dims, periodic):
        values = np.random.default_rng(1).uniform(0.5, 1.5, shape)
        dens = GridDensity(values, 0.1, periodic=periodic, time_axis=True)
        assert dens.dims == dims
        vqu = vqu_grid_dalembert(dens, ELECTRON_MASS, 1e-3)
        assert mean_qp_energy_dalembert(dens, ELECTRON_MASS, 1e-3) == _loop_mean(dens, vqu)


class TestWrappedStencil:
    """The stencil reads both neighbours on every axis from one copy of
    sqrt(n), wrapped by a point on each periodic spatial axis; it matches
    a stencil of ``np.roll`` copies bit for bit and holds fewer grids."""

    LAYOUTS = [((40,), False), ((9, 10, 11), False), ((5, 12), True), ((4, 8, 9, 10), True)]
    MASS, DT = ELECTRON_MASS, 1e-3

    def _kernel(self, dens):
        if dens.time_axis:
            return vqu_grid_dalembert(dens, self.MASS, self.DT), mean_qp_energy_dalembert(dens, self.MASS, self.DT)
        return vqu_grid_nonrel(dens, self.MASS), mean_qp_energy(dens, self.MASS)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("shape, time_axis", LAYOUTS)
    def test_equals_the_roll_stencil(self, shape, time_axis, periodic):
        rng = np.random.default_rng(sum(shape))
        values = rng.uniform(0.5, 1.5, shape)
        dens = GridDensity(values, 0.1, periodic=periodic, time_axis=time_axis)
        dt = self.DT if time_axis else None
        vqu, mean = self._kernel(dens)
        expected = roll_stencil_vqu(dens, self.MASS, dt)
        assert vqu.tobytes() == expected.tobytes()
        assert mean.hex() == qp._region_mean(dens, expected).hex()
        # A node on the grid's first point (off the region unless periodic
        # in space only) and one at a random point.
        values[(0,) * len(shape)] = values[tuple(int(rng.integers(1, n - 1)) for n in shape)] = 0.0
        dens = GridDensity(values, 0.1, periodic=periodic, time_axis=time_axis)
        with pytest.raises(SingularDensity) as reference:
            roll_stencil_vqu(dens, self.MASS, dt)
        with pytest.raises(SingularDensity) as actual:
            self._kernel(dens)
        assert actual.value.index == reference.value.index

    @pytest.mark.parametrize("shape, time_axis", [((64, 64, 64), False), ((128, 1024), True)], ids=["lattice", "spacetime"])
    def test_kernel_peak_is_bounded(self, shape, time_axis):
        # The wrapped root, the Laplacian, a difference's temporaries and
        # the output: 4.25 grids on the lattice, 4.16 on the spacetime grid
        # (a stencil of np.roll copies peaked at 6.13 and 6.08).
        values = np.random.default_rng(900).uniform(0.5, 1.5, shape)
        dens = GridDensity(values, 0.1, periodic=True, time_axis=time_axis)
        if time_axis:
            calls = [lambda: vqu_grid_dalembert(dens, self.MASS, self.DT),
                     lambda: mean_qp_energy_dalembert(dens, self.MASS, self.DT)]
        else:
            calls = [lambda: vqu_grid_nonrel(dens, self.MASS), lambda: mean_qp_energy(dens, self.MASS)]
        for call in calls:
            grids = traced_peak(call).peak / values.nbytes
            assert grids <= 4.75, grids


class TestMeanEnergy:
    def test_constant_density_zero(self):
        dens = GridDensity(np.full(64, 0.7), 0.1, periodic=True)
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
        dens = GridDensity(n, h)
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
        dens = GridDensity(values, h, periodic=True, time_axis=True)
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

    def test_density_owns_its_values(self, tmp_path):
        # The parsed N x 2 table is freed on return: the density holds a
        # contiguous copy of its column, not a view that keeps the table.
        points = 4 * 2**16 + 1002
        n = 1.5 + np.sin(np.arange(points) / 37.0)
        path = self._write(tmp_path, "long.csv", "q,n\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(n.tolist())))
        read_density_csv(path)
        parsed, _, kept = traced_peak(lambda: read_density_csv(path))
        values = parsed.density.values
        assert values.flags.c_contiguous and values.base is None
        assert kept <= values.nbytes + 64 * 1024, (kept, values.nbytes)

    def test_density_keeps_a_read_only_copy(self, tmp_path):
        source = np.ones(16)
        density = GridDensity(source, 0.1)
        source[3] = -1.0
        assert density.values[3] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            density.values[3] = -1.0
        # A grid read from a file is read-only already: a replace keeps the same array.
        lines = ["q,n"] + [f"{0.125 * i},1.0" for i in range(16)]
        parsed = read_density_csv(self._write(tmp_path, "d.csv", "\n".join(lines) + "\n"))
        assert not parsed.density.values.flags.writeable
        assert dataclasses.replace(parsed.density, periodic=True).values is parsed.density.values

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
_LATTICE_ROWS = [[repr(0.2 * i), repr(0.2 * j), repr(0.2 * k), "1.0"]
                 for i in range(8) for j in range(8) for k in range(8)]

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
    "cr": (_density_text(_PLAIN, eol="\r"), True),
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
    "descending_q": (_density_text(_PLAIN[::-1]), True),
    "duplicated_q": (_density_text(_edit(_PLAIN, 6, _PLAIN[5][0], "1.0")), True),
    "q_major_time_layout": (_density_text(sorted(_TIME_ROWS, key=lambda r: (float(r[1]), float(r[0]))),
                                          header="t,q,n"), True),
    "one_slice_time_layout": (_density_text(_TIME_ROWS[:10], header="t,q,n"), True),
    "time_layout_q_differs": (_density_text(
        [[t, repr(float(q) + 0.05), n] if t == "0.5" else [t, q, n] for t, q, n in _TIME_ROWS], header="t,q,n"
    ), True),
    "lattice_inf_coordinate": (_density_text(_edit(_LATTICE_ROWS, 100, *_LATTICE_ROWS[100][:2], "inf", "1.0"),
                                             header="qx,qy,qz,n"), True),
    # -1.575e308 .. 1.575e308 in uniform steps of 4.5e307
    "q_spans_past_double_range": (_density_text([[repr(4.5e307 * (i - 3.5)), "1.0"] for i in range(8)]), True),
    "t_spans_past_double_range": (_density_text(
        [[t, q, n] for (_, q, n), t in zip(_TIME_ROWS, ["-1e+308"] * 10 + ["0.0"] * 10 + ["1e+308"] * 10)],
        header="t,q,n",
    ), True),
}

#: name -> error message after the "{path}: " prefix, for the INGEST_CASES
#: files whose coordinates do not form a lattice the rule accepts.
LAYOUT_FAULTS = {
    "inf_coordinate": "column 'q' must hold finite coordinates",
    "interleaved_comments": "column 'q' is not uniformly spaced (tolerance 1e-09 relative)",
    "descending_q": "rows are not in row-major (q order) lattice layout",
    "duplicated_q": "rows do not form a complete lattice of shape (11,)",
    "q_major_time_layout": "rows are not in row-major (t order) lattice layout",
    "one_slice_time_layout": "column 't' needs at least 2 distinct values",
    "time_layout_q_differs": "rows do not form a complete lattice of shape (3, 20)",
    "lattice_inf_coordinate": "column 'qz' must hold finite coordinates",
    "q_spans_past_double_range": "column 'q' spans more than the double range",
    "t_spans_past_double_range": "column 't' spans more than the double range",
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

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_file_with_a_compressed_name(self, suffix, tmp_path):
        # numpy would open such a name through a decompressor.
        text = INGEST_CASES["random_doubles"][0]
        plain, named = tmp_path / "d.csv", tmp_path / f"d.csv{suffix}"
        plain.write_text(text)
        named.write_text(text)
        assert self._outcome(str(named)) == self._outcome(str(plain))

    def test_url_like_relative_path_is_read_locally(self, tmp_path, monkeypatch):
        # "http://host/d.csv" names the local file http:/host/d.csv.
        import urllib.request

        def no_network(*args, **kwargs):
            raise AssertionError("the density file was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        local = tmp_path / "http:" / "host" / "d.csv"
        local.parent.mkdir(parents=True)
        local.write_text(INGEST_CASES["plain"][0])
        reference_calls = []
        read_rows = qp._read_rows
        monkeypatch.setattr(qp, "_read_rows", lambda p: reference_calls.append(p) or read_rows(p))
        got = self._outcome("http://host/d.csv")
        assert reference_calls == []  # numpy's reader took the file
        assert got == self._outcome(str(local))

    @pytest.mark.parametrize("rows", [1, 2000])
    def test_non_utf8_file_is_a_domain_error(self, rows, tmp_path):
        # With 2000 rows the bad byte lies past the text the header read
        # decodes, so numpy's reader meets it first.
        path = tmp_path / "bad.csv"
        body = "".join(f"{0.1 * i!r},1.0\n" for i in range(rows))
        path.write_bytes(f"q,n\n{body}".encode() + b"\xff\xfe,2\n")
        with pytest.raises(DomainError) as caught:
            read_density_csv(str(path))
        assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("name", sorted(LAYOUT_FAULTS))
    def test_layout_fault_is_named_with_the_path(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(INGEST_CASES[name][0].encode())
        code = main(["qpot", str(path), "--mass", "1", "--units", "Natural", "--output", str(tmp_path / "out.csv")])
        assert (code, capsys.readouterr().err) == (2, f"error: {path}: {LAYOUT_FAULTS[name]}\n")

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
