"""Correlation length, the Gaussian mode spectrum, and the
spectrum-to-correlation cosine transform.

Thermal suppression of short modes gives the vacuum density noise a
Gaussian spatial spectrum S(k) = exp[-(k*lambda_c/2)^2] with correlation
length lambda_c = 2*hbar/sqrt(2*m*k_B*T); its cosine transform is again a
Gaussian, G(xi) = exp[-(xi/lambda_c)^2], which provides an analytic target
for the numerical transform.  Correlations are normalized to G(0) = 1
(only the shape is physical here), and all transform arithmetic involves
k and xi exclusively through their products, so one code path covers any
correlation-length scale.  The trapezoid rule samples cos(k*xi) at the
grid step dk, so lags past pi/dk alias onto shorter ones; the transform
refuses them (max_lag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, InsufficientTail, _owned_readonly, positive

#: The transform refuses spectra whose weight at the largest tabulated
#: wavenumber exceeds this fraction of the spectrum maximum.
TAIL_FRACTION = 1e-12

#: Minimum number of spectrum samples for the transform.
MIN_SPECTRUM_POINTS = 256

#: Default wavenumber cutoff, in units of 1/lambda_c, used when building a
#: Gaussian spectrum: exp[-(12/2)^2] ~ 2.3e-16 satisfies the tail bound.
DEFAULT_KMAX_LC = 12.0

#: Default number of samples of a generated Gaussian spectrum.
DEFAULT_SPECTRUM_POINTS = 4096

#: Values per buffer of the cosine transform: each of its buffers takes 8
#: bytes per value, so memory is bounded by this, not by the lag count
#: (2^17 values: 32 lags of a 4096-point spectrum on the direct path, and
#: 16 offsets, a cosine and a sine per wavenumber, on the uniform-lag one).
BLOCK_VALUES = 2**17


@dataclass(frozen=True)
class ModeSpectrum:
    """Tabulated spectral weights S(k) >= 0 on a uniform ascending k grid.

    Only k >= 0 is stored; S is implicitly even, S(-k) = S(k).
    """

    k_grid: np.ndarray
    s_values: np.ndarray

    def __post_init__(self):
        k = _owned_readonly(self.k_grid)
        s = _owned_readonly(self.s_values)
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "s_values", s)
        if k.ndim != 1 or s.shape != k.shape:
            raise DomainError("k_grid and s_values must be 1-D arrays of equal length")
        if k.size < 2:
            raise DomainError("spectrum needs at least 2 samples")
        diffs = np.diff(k)
        if np.any(diffs <= 0.0):
            raise DomainError("k_grid must be strictly ascending")
        step = float(diffs.mean())
        if np.max(np.abs(diffs - step)) > 1e-9 * step:
            raise DomainError("k_grid must be uniform within 1e-9 relative")
        if np.any(~np.isfinite(s)) or np.any(s < 0.0):
            raise DomainError("s_values must be finite and >= 0")


@dataclass(frozen=True)
class CorrelationFunction:
    """Normalized spatial correlation G(xi) on lags xi >= 0, with the
    correlation length recovered as the lag where G first crosses 1/e."""

    xi_grid: np.ndarray
    g_values: np.ndarray
    lambda_c: float


def correlation_length(mass: float, temperature: float) -> float:
    """Vacuum-noise correlation length 2*hbar/sqrt(2*m*k_B*T), in m."""
    positive("mass", mass)
    positive("temperature", temperature)
    thermal = 2.0 * mass * CONSTANTS.k_boltzmann * temperature
    if not 0.0 < thermal < math.inf:
        raise DomainError("2*m*k_B*T leaves the double range at these inputs")
    return 2.0 * CONSTANTS.hbar / math.sqrt(thermal)


def gaussian_spectrum(k, lambda_c: float):
    """Gaussian spectral weight exp[-(k*lambda_c/2)^2]; accepts scalars or
    arrays, any real k (even in k by construction)."""
    positive("lambda_c", lambda_c)
    k = np.asarray(k, dtype=float)
    # A square past the double range is inf, and exp(-inf) = 0 is the weight.
    with np.errstate(over="ignore"):
        out = np.exp(-((k * lambda_c / 2.0) ** 2))
    return out if out.ndim else float(out)


def analytic_correlation(xi, lambda_c: float):
    """Closed-form correlation exp[-(xi/lambda_c)^2] of the Gaussian
    spectrum (its own cosine-transform pair)."""
    positive("lambda_c", lambda_c)
    xi = np.asarray(xi, dtype=float)
    # A square past the double range is inf, and exp(-inf) = 0 is the value.
    with np.errstate(over="ignore"):
        out = np.exp(-((xi / lambda_c) ** 2))
    return out if out.ndim else float(out)


def gaussian_mode_spectrum(lambda_c: float, points: int = DEFAULT_SPECTRUM_POINTS) -> ModeSpectrum:
    """Tabulate the Gaussian spectrum on [0, 12/lambda_c], where the weight
    is ~2e-16 and the transform tail bound holds."""
    positive("lambda_c", lambda_c)
    k = np.linspace(0.0, DEFAULT_KMAX_LC / lambda_c, points)
    s = gaussian_spectrum(k, lambda_c)
    s.flags.writeable = False  # kept as it is; k, a view np.linspace returns, is copied
    return ModeSpectrum(k, s)


def e_folding_lag(xi_grid: np.ndarray, g_values: np.ndarray) -> float:
    """Lag where a correlation first decays through 1/e, by linear
    interpolation; NaN if it never does within the grid."""
    target = 1.0 / math.e
    below = np.nonzero(g_values < target)[0]
    if below.size == 0 or below[0] == 0:
        return math.nan
    j = int(below[0])
    g0, g1 = float(g_values[j - 1]), float(g_values[j])
    x0, x1 = float(xi_grid[j - 1]), float(xi_grid[j])
    return x0 + (g0 - target) / (g0 - g1) * (x1 - x0)


def max_lag(spectrum: ModeSpectrum) -> float:
    """Largest lag the cosine transform resolves: pi/dk for the grid step
    dk.  The trapezoid rule samples cos(k*xi) every dk, so cos(k*xi) and
    cos(k*(2*pi/dk - xi)) take the same samples, and a lag past pi/dk
    transforms as one below it."""
    k = spectrum.k_grid
    return math.pi / ((float(k[-1]) - float(k[0])) / (k.size - 1))


def correlation_from_spectrum(spectrum: ModeSpectrum, xi_grid) -> CorrelationFunction:
    """Cosine-transform a spectrum into its spatial correlation function.

    G(xi) is proportional to the integral of cos(k*xi) S(k) dk over the
    tabulated grid (trapezoid rule) and is normalized so G(0) = 1.  The
    spectrum must have decayed below TAIL_FRACTION of its maximum at the
    last grid point, otherwise the truncated transform would ring, and no
    lag may exceed max_lag(spectrum), past which it aliases.

    Lags that are exactly np.linspace(0, xi[-1], xi.size), as the CLI's
    are, go through ``_uniform_lag_sums`` (a fifth of the cosine calls at
    256 lags) and are normalized by its own lag-0 sum, so G(0) is exactly
    1.  Any other lags are transformed in blocks of about
    BLOCK_VALUES // k.size through one scratch buffer allocated per call;
    each lag's value is its own row of products and sum, in the operation
    order of np.trapezoid, so the result is bit for bit that of
    np.trapezoid over every lag at once.
    """
    k = spectrum.k_grid
    s = spectrum.s_values
    if k.size < MIN_SPECTRUM_POINTS:
        raise DomainError(f"spectrum needs at least {MIN_SPECTRUM_POINTS} points for the transform")
    s_max = float(s.max())
    if not s_max > 0.0:
        raise DomainError("spectrum is identically zero")
    if float(s[-1]) > TAIL_FRACTION * s_max:
        raise InsufficientTail(
            f"S(k_max)/max(S) = {float(s[-1]) / s_max:.3e} exceeds {TAIL_FRACTION:g}; "
            "extend the k grid"
        )
    xi = np.asarray(xi_grid, dtype=float)
    # Written so that a NaN lag fails the checks rather than passing them.
    if xi.ndim != 1 or xi.size == 0 or not (xi >= 0.0).all():
        raise DomainError("xi_grid must be a 1-D array of non-negative lags")
    limit = max_lag(spectrum)
    if not (xi <= limit).all():
        raise DomainError(
            f"lag {float(xi.max()):.6g} is past pi/dk = {limit:.6g} of the k grid, where the transform aliases"
        )
    if np.array_equal(xi, np.linspace(0.0, xi[-1], xi.size)):
        g_raw = _uniform_lag_sums(k, s, xi)
        norm = g_raw[0]
    else:
        g_raw = _direct_sums(k, s, xi)
        norm = np.trapezoid(s, k)
    g = g_raw / norm
    return CorrelationFunction(xi_grid=xi, g_values=g, lambda_c=e_folding_lag(xi, g))


def _direct_sums(k: np.ndarray, s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """np.trapezoid(cos(k*xi) * s, k) for each lag, one cosine per lag and
    wavenumber, in blocks of about BLOCK_VALUES // k.size lags."""
    rows = min(xi.size, max(1, BLOCK_VALUES // k.size))
    dk = np.diff(k)
    scratch = np.empty(rows * (2 * k.size - 1))
    waves = scratch[: rows * k.size].reshape(rows, k.size)
    pairs = scratch[rows * k.size :].reshape(rows, k.size - 1)
    g_raw = np.empty(xi.size)
    for start in range(0, xi.size, rows):
        lags = xi[start:start + rows]
        wave, pair = waves[: lags.size], pairs[: lags.size]
        np.multiply(lags[:, None], k, out=wave)
        np.cos(wave, out=wave)
        wave *= s
        np.add(wave[:, 1:], wave[:, :-1], out=pair)
        np.multiply(dk, pair, out=pair)
        np.divide(pair, 2.0, out=pair)
        np.add.reduce(pair, axis=1, out=g_raw[start:start + lags.size])
    return g_raw


def _uniform_lag_sums(k: np.ndarray, s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Trapezoid sums of cos(k*xi) * s for the lags xi = np.linspace(0,
    xi[-1], L), by angle addition.

    The lags are taken in windows of 2h + 1 around a centre lag c, and
    cos(k(xi_c +- xi_a)) = cos(k xi_c) cos(k xi_a) -+ sin(k xi_c) sin(k xi_a).
    One table holds [cos | sin](k xi_a) for the offsets a = 0..h.  Each
    window takes one vector [w*s*cos | -w*s*sin](k xi_c), with the
    trapezoid weights w folded in, and one elementwise product with the
    table and one reduce of each half give P_a (cosine half) and Q_a
    (sine half): lag c + a is P_a + Q_a and lag c - a is P_a - Q_a.  So
    2n(ceil(L/(2h+1)) + h + 1) sines and cosines replace L*n cosines, and
    about n products and sums per lag replace the 2n of a full row, for n
    wavenumbers.  2h + 1 ~ sqrt(2L) minimizes the sine and cosine count,
    and (h + 1)*2n <= BLOCK_VALUES bounds the table and the product
    buffer.  No matrix product is used: BLAS would make the bits depend on
    the CPU.
    """
    n, lags = k.size, xi.size
    h = max(0, min(math.isqrt(lags // 2), BLOCK_VALUES // (2 * n) - 1))
    half = np.diff(k) / 2.0
    weights = np.zeros(2 * n)
    weights[: n - 1] = half
    weights[1:n] += half
    weights[:n] *= s
    np.negative(weights[:n], out=weights[n:])
    scratch = np.empty((2 * (h + 1), 2 * n))
    table, product = scratch[: h + 1], scratch[h + 1 :]
    np.multiply(xi[: h + 1, None], k, out=table[:, n:])
    np.cos(table[:, n:], out=table[:, :n])
    np.sin(table[:, n:], out=table[:, n:])
    vector = np.empty(2 * n)
    halves = np.empty((h + 1, 2))
    p, q = halves[:, 0], halves[:, 1]
    g_raw = np.empty(lags)
    for lo in range(0, lags, 2 * h + 1):
        # The last window may end early; its centre then moves to the last lag.
        hi = min(lo + 2 * h, lags - 1)
        centre = min(lo + h, hi)
        np.multiply(k, xi[centre], out=vector[n:])
        np.cos(vector[n:], out=vector[:n])
        np.sin(vector[n:], out=vector[n:])
        vector *= weights
        np.multiply(table, vector, out=product)
        np.add.reduce(product.reshape(h + 1, 2, n), axis=-1, out=halves)
        ahead, behind = hi - centre + 1, centre - lo
        np.add(p[:ahead], q[:ahead], out=g_raw[centre : hi + 1])
        np.subtract(p[1 : behind + 1], q[1 : behind + 1], out=g_raw[lo:centre][::-1])
    return g_raw
