import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvac import (
    CONSTANTS,
    ELECTRON_MASS,
    DomainError,
    InsufficientTail,
    ModeSpectrum,
    ThermalState,
    analytic_correlation,
    correlation_from_spectrum,
    correlation_length,
    e_folding_lag,
    gaussian_mode_spectrum,
    gaussian_spectrum,
    mode_probability_nonrel,
)
from qvac import correlation
from qvac.correlation import BLOCK_VALUES, max_lag

from helpers import assert_same_bits, dispatch_levels, traced_peak


class TestCorrelationLength:
    def test_electron_room_temperature(self):
        lam_c = correlation_length(ELECTRON_MASS, 300.0)
        oracle = 2.0 * CONSTANTS.hbar / math.sqrt(
            2.0 * ELECTRON_MASS * CONSTANTS.k_boltzmann * 300.0
        )
        assert lam_c == oracle
        assert lam_c == pytest.approx(2.428e-9, rel=1e-4)

    def test_quadrupling_temperature_halves(self):
        assert correlation_length(ELECTRON_MASS, 1200.0) == pytest.approx(
            0.5 * correlation_length(ELECTRON_MASS, 300.0), rel=1e-12
        )

    def test_quadrupling_mass_halves(self):
        assert correlation_length(4.0 * ELECTRON_MASS, 300.0) == pytest.approx(
            0.5 * correlation_length(ELECTRON_MASS, 300.0), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            correlation_length(0.0, 300.0)
        with pytest.raises(DomainError):
            correlation_length(ELECTRON_MASS, 0.0)


class TestGaussianSpectrum:
    def test_zero_wavenumber(self):
        assert gaussian_spectrum(0.0, 1e-9) == 1.0

    def test_e_fold_at_two_over_lambda_c(self):
        lam_c = 3.7e-8
        assert gaussian_spectrum(2.0 / lam_c, lam_c) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_even_symmetry(self):
        lam_c = 1e-9
        k = np.linspace(0.1, 5.0, 13) / lam_c
        assert np.array_equal(gaussian_spectrum(k, lam_c), gaussian_spectrum(-k, lam_c))

    def test_matches_nonrel_mode_probability(self):
        # the two modules express the same Boltzmann suppression
        state = ThermalState(mass=ELECTRON_MASS, temperature=300.0)
        lam_c = correlation_length(ELECTRON_MASS, 300.0)
        for k in np.geomspace(1e-3, 4.0, 50) / lam_c:
            assert gaussian_spectrum(k, lam_c) == pytest.approx(
                mode_probability_nonrel(2.0 * math.pi / k, state), rel=1e-12
            )


class TestAnalyticCorrelation:
    def test_values(self):
        lam_c = 5e-10
        assert analytic_correlation(0.0, lam_c) == 1.0
        assert analytic_correlation(lam_c, lam_c) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert analytic_correlation(2.0 * lam_c, lam_c) == pytest.approx(0.0183156, rel=1e-5)


class TestSpectrumType:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModeSpectrum(np.array([0.0, 1.0, 0.5]), np.ones(3))  # not ascending
        k = np.linspace(0.0, 1.0, 16)
        with pytest.raises(DomainError):
            ModeSpectrum(k, -np.ones(16))  # negative weights
        jittered = k.copy()
        jittered[7] += 1e-3
        with pytest.raises(DomainError):
            ModeSpectrum(jittered, np.ones(16))  # non-uniform
        with pytest.raises(DomainError, match="1-D arrays of equal length"):
            ModeSpectrum(k, np.ones(15))
        with pytest.raises(DomainError, match="1-D arrays of equal length"):
            ModeSpectrum(k.reshape(4, 4), np.ones((4, 4)))
        with pytest.raises(DomainError, match="at least 2 samples"):
            ModeSpectrum(np.zeros(1), np.ones(1))
        assert ModeSpectrum(np.array([0.0, 1.0]), np.ones(2)).k_grid.size == 2

    def test_spectrum_keeps_read_only_copies(self):
        k, s = np.linspace(0.0, 1.0, 16), np.ones(16)
        spectrum = ModeSpectrum(k, s)
        s[:] = 0.0
        k[:] = 0.0
        assert np.all(spectrum.s_values == 1.0) and spectrum.k_grid[-1] == 1.0
        for stored in (spectrum.k_grid, spectrum.s_values):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 2.0
        # The weights gaussian_mode_spectrum builds are read-only already, and kept as they are.
        weights = gaussian_mode_spectrum(1e-9).s_values
        assert not weights.flags.writeable and weights.flags.owndata


class TestTransform:
    @pytest.mark.parametrize("lam_c", [1e-12, 1e-10, 1e-8, 1e-6])
    def test_gaussian_pair(self, lam_c):
        spectrum = gaussian_mode_spectrum(lam_c)
        xi = np.linspace(0.0, 3.0 * lam_c, 301)
        result = correlation_from_spectrum(spectrum, xi)
        expected = analytic_correlation(xi, lam_c)
        assert np.max(np.abs(result.g_values - expected)) < 1e-6

    def test_normalization_at_zero_lag(self):
        lam_c = 2e-9
        result = correlation_from_spectrum(gaussian_mode_spectrum(lam_c), np.array([0.0, lam_c]))
        assert result.g_values[0] == pytest.approx(1.0, rel=1e-15)
        assert result.g_values[1] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_gaussian_family_is_non_increasing(self):
        lam_c = 1e-9
        xi = np.linspace(0.0, 3.0 * lam_c, 301)
        result = correlation_from_spectrum(gaussian_mode_spectrum(lam_c), xi)
        assert np.all(np.diff(result.g_values) <= 0.0)

    def test_recovered_correlation_length(self):
        # 311 lags put lambda_c between grid points, so the 1/e crossing is
        # genuinely interpolated
        lam_c = 4.2e-11
        xi = np.linspace(0.0, 3.0 * lam_c, 311)
        result = correlation_from_spectrum(gaussian_mode_spectrum(lam_c), xi)
        assert result.lambda_c == pytest.approx(lam_c, rel=1e-3)

    def test_insufficient_tail_raises(self):
        lam_c = 1e-9
        k = np.linspace(0.0, 4.0 / lam_c, 512)
        spectrum = ModeSpectrum(k, gaussian_spectrum(k, lam_c))
        with pytest.raises(InsufficientTail):
            correlation_from_spectrum(spectrum, np.linspace(0.0, lam_c, 8))

    @pytest.mark.parametrize("tail, rings", [(1.001e-12, True), (1e-12, False), (0.999e-12, False)])
    def test_tail_fraction_threshold(self, tail, rings):
        # S(k_max)/max(S) = tail against the documented TAIL_FRACTION of 1e-12
        k = np.linspace(0.0, 1.0, 256)
        s = np.exp(-k)
        s[-1] = tail
        spectrum = ModeSpectrum(k, s)
        if rings:
            with pytest.raises(InsufficientTail):
                correlation_from_spectrum(spectrum, np.linspace(0.0, 1.0, 8))
        else:
            assert correlation_from_spectrum(spectrum, np.linspace(0.0, 1.0, 8)).g_values[0] == 1.0

    def test_minimum_point_count(self):
        lam_c = 1e-9
        k = np.linspace(0.0, 12.0 / lam_c, 128)
        spectrum = ModeSpectrum(k, gaussian_spectrum(k, lam_c))
        with pytest.raises(DomainError):
            correlation_from_spectrum(spectrum, np.linspace(0.0, lam_c, 8))
        with pytest.raises(DomainError, match="identically zero"):
            correlation_from_spectrum(ModeSpectrum(np.linspace(0.0, 1.0, 256), np.zeros(256)), np.linspace(0.0, 1.0, 8))

    def test_parseval(self):
        # pi * int S^2 dk == (int S dk)^2 * int G^2 dxi * 2 for the
        # normalized transform (G even)
        lam_c = 1e-9
        spectrum = gaussian_mode_spectrum(lam_c)
        xi = np.linspace(0.0, 6.0 * lam_c, 1024)
        result = correlation_from_spectrum(spectrum, xi)
        lhs = 2.0 * np.trapezoid(result.g_values**2, xi)
        norm = np.trapezoid(spectrum.s_values, spectrum.k_grid)
        rhs = math.pi * np.trapezoid(spectrum.s_values**2, spectrum.k_grid) / norm**2
        assert lhs == pytest.approx(rhs, rel=1e-6)
        # analytic value of both sides: lambda_c * sqrt(pi/2)
        assert lhs == pytest.approx(lam_c * math.sqrt(math.pi / 2.0), rel=1e-6)


class TestBlockedTransform:
    """Lags other than an exact np.linspace from 0 are transformed
    BLOCK_VALUES // points at a time; every lag keeps its own products and
    sum, so the result is the one-shot one."""

    @pytest.mark.parametrize("lags", [1, "block-1", "block", "block+1", 256, 1000])
    @pytest.mark.parametrize("points", [256, 257, 4096])
    def test_bit_identical_to_one_shot(self, points, lags):
        lam_c = 2.4e-9
        spectrum = gaussian_mode_spectrum(lam_c, points)
        k, s = spectrum.k_grid, spectrum.s_values
        block = BLOCK_VALUES // points
        lags = {"block-1": block - 1, "block": block, "block+1": block + 1}.get(lags, lags)
        xi = np.random.default_rng(points + lags).uniform(0.0, 4.0 * lam_c, lags)
        expected = np.trapezoid(np.cos(np.outer(xi, k)) * s, k, axis=1) / np.trapezoid(s, k)
        got = correlation_from_spectrum(spectrum, xi).g_values
        assert_same_bits(got, expected)

    def test_memory_is_bounded_by_the_block(self):
        # One-shot temporaries would be 20 000 x 4096 values (655 MB) each.
        lam_c = 2.4e-9
        spectrum = gaussian_mode_spectrum(lam_c)
        xi = np.linspace(0.0, 3.0 * lam_c, 20_000)
        peak = traced_peak(lambda: correlation_from_spectrum(spectrum, xi)).peak
        assert peak < 4 * 8 * BLOCK_VALUES + 2 * xi.nbytes, peak

    def test_memory_of_arbitrary_lags_is_bounded_by_the_block(self):
        # Random lags take the direct path; linspace lags above take the kernel.
        lam_c = 2.4e-9
        spectrum = gaussian_mode_spectrum(lam_c)
        xi = np.random.default_rng(20_000).uniform(0.0, 3.0 * lam_c, 20_000)
        peak = traced_peak(lambda: correlation_from_spectrum(spectrum, xi)).peak
        assert peak < 4 * 8 * BLOCK_VALUES + 2 * xi.nbytes, peak


#: Prints a digest of the uniform-lag kernel's output at the numpy dispatch
#: level that NPY_DISABLE_CPU_FEATURES selects.  The spectrum is built with
#: math.exp, since np.exp rounds differently at different levels.
_DIGEST_CHILD = """
import hashlib, math, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from qvac.correlation import ModeSpectrum, correlation_from_spectrum, max_lag
assert not any(__cpu_features__[name] for name in sys.argv[1].split()), sys.argv[1]
lam_c = 2.4e-9
k = np.linspace(0.0, 12.0 / lam_c, 4096)
s = np.array([math.exp(-(x * lam_c / 2.0) * (x * lam_c / 2.0)) for x in k.tolist()])
spectrum = ModeSpectrum(k, s)
for lags in (256, 2000):
    g = correlation_from_spectrum(spectrum, np.linspace(0.0, max_lag(spectrum), lags)).g_values
    print(hashlib.sha256(g.tobytes()).hexdigest())
"""


class TestUniformLagKernel:
    """Lags that are exactly np.linspace(0, xi[-1], L) are transformed by
    angle addition, with a fraction of the cosine calls; the result agrees
    with the direct path and G(0) is exactly 1."""

    @pytest.mark.parametrize("lags", [2, 3, 16, 256, 2000, 20_000])
    @pytest.mark.parametrize("points", [256, 257, 4096])
    def test_agrees_with_the_direct_path(self, points, lags):
        spectrum = gaussian_mode_spectrum(2.4e-9, points)
        k, s = spectrum.k_grid, spectrum.s_values
        xi = np.linspace(0.0, max_lag(spectrum), lags)
        got = correlation_from_spectrum(spectrum, xi).g_values
        direct = correlation._direct_sums(k, s, xi) / np.trapezoid(s, k)
        assert got[0] == 1.0
        assert np.max(np.abs(got - direct)) < 5e-14

    def test_exact_linspace_picks_the_kernel_and_one_ulp_off_does_not(self, monkeypatch):
        lam_c = 2.4e-9
        spectrum = gaussian_mode_spectrum(lam_c)
        k, s = spectrum.k_grid, spectrum.s_values
        kernel, calls = correlation._uniform_lag_sums, []
        monkeypatch.setattr(correlation, "_uniform_lag_sums", lambda *args: calls.append(args) or kernel(*args))
        xi = np.linspace(0.0, 3.0 * lam_c, 256)
        correlation_from_spectrum(spectrum, xi)
        assert len(calls) == 1
        nudged = xi.copy()
        nudged[100] = np.nextafter(nudged[100], np.inf)
        got = correlation_from_spectrum(spectrum, nudged).g_values
        assert len(calls) == 1
        assert_same_bits(got, np.trapezoid(np.cos(np.outer(nudged, k)) * s, k, axis=1) / np.trapezoid(s, k))

    def test_same_bits_at_every_dispatch_level(self):
        env = dict(os.environ, PYTHONPATH=str(Path(correlation.__file__).parents[1]))
        digests = {}
        for disabled in dispatch_levels():
            run = subprocess.run(
                [sys.executable, "-c", _DIGEST_CHILD, disabled],
                env=dict(env, NPY_DISABLE_CPU_FEATURES=disabled), capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, (disabled, run.stderr)
            digests[disabled] = run.stdout
        assert len(set(digests.values())) == 1, digests


class TestAliasLimit:
    """The trapezoid rule samples cos(k*xi) every dk, so lags past pi/dk
    alias onto lags below it and are refused."""

    def test_limit_is_pi_over_the_grid_step(self):
        lam_c = 2.4e-9
        limit = max_lag(gaussian_mode_spectrum(lam_c))
        assert limit == pytest.approx(4095 * math.pi / 12.0 * lam_c, rel=1e-12)

    def test_lag_at_the_limit_transforms_and_the_next_double_raises(self):
        spectrum = gaussian_mode_spectrum(2.4e-9)
        limit = max_lag(spectrum)
        result = correlation_from_spectrum(spectrum, np.array([0.0, limit]))
        assert result.g_values[0] == 1.0 and math.isfinite(result.g_values[1])
        with pytest.raises(DomainError, match="pi/dk") as excinfo:
            correlation_from_spectrum(spectrum, np.array([0.0, np.nextafter(limit, np.inf)]))
        assert f"{limit:.6g}" in str(excinfo.value)

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf])
    def test_nan_and_infinite_lags_raise(self, bad):
        spectrum = gaussian_mode_spectrum(2.4e-9)
        with pytest.raises(DomainError):
            correlation_from_spectrum(spectrum, np.array([0.0, bad, 1e-9]))


class TestEFoldingLag:
    def test_no_crossing_gives_nan(self):
        xi = np.linspace(0.0, 1.0, 32)
        assert math.isnan(e_folding_lag(xi, np.ones(32)))

    def test_linear_interpolation(self):
        xi = np.array([0.0, 1.0, 2.0])
        g = np.array([1.0, 0.5, 0.25])
        target = 1.0 / math.e
        expected = 1.0 + (0.5 - target) / 0.25
        assert e_folding_lag(xi, g) == pytest.approx(expected, rel=1e-12)
