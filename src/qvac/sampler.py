"""Stationary Gaussian random fields with the vacuum-noise spectrum.

Fields are synthesized spectrally: one independent complex Gaussian
coefficient per lattice mode k = 2*pi*m/L, scaled by sqrt(S(k)) with
S(k) = exp[-(k*lambda_c/2)^2], Hermitian-symmetrized and inverse
transformed to a real field.  The mean periodogram of such fields
reproduces S(k), and their autocorrelation reproduces the Gaussian
correlation exp[-(xi/lambda_c)^2].

Randomness comes from the counter-based Philox-4x64-10 generator keyed by
(seed, realization index), not from the platform default: realization i of
a given configuration is the same bit pattern on every platform and may be
generated independently of all others.

Synthesis and estimators form one block pipeline: realizations are drawn
in index order, ``block_rows(grid_points)`` rows (about BLOCK_SAMPLES
samples) at a time, and each block is folded into one accumulator holding
the periodogram sum and the centered moments.  Memory is bounded by the
block, not by the number of realizations, and a stored field's rows run
through the same blocks, so ``sample_report(config)`` equals
``build_sample_report(config, sample_field(config))``.  Every per-block
intermediate (normals, mode coefficients, spectra, moment temporaries)
is written into one workspace allocated per call; only the field blocks
handed to callers are fresh arrays, so a caller may keep them.

Each block's work runs as two contiguous row ranges, the first
``(rows + 1) // 2`` rows and the rest (a block of one row is one range),
in one step.  Where the process may run on two or more CPUs, each call's
one-worker ``ThreadPoolExecutor`` runs the second range while the caller
runs the first; numpy releases the interpreter lock in all of that work.
With one worker the caller runs both ranges in turn.  Each range draws
its normals, forms the mode coefficients, inverse transforms and checks
its rows, takes their ``|rfft|^2`` while they are still in cache, and
returns its partial moments: its sample count, mean and centered power
sums about that mean.

The bits do not depend on the number of workers: every row is keyed by
its own realization index and transformed on its own, each range writes
only its own rows of the workspace, and the partial moments belong to
the row split.  The periodogram sum and the merge of each range's
partial moments into the running ones (Chan et al., Pebay) run on the
caller, in row order.

The gaussianity thresholds count effective samples: field samples are
correlated over about lambda_c / spacing neighbours, and the correlation
the estimators already hold sets how much that widens the spread of the
sample skewness and kurtosis.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .correlation import CorrelationFunction, e_folding_lag, gaussian_spectrum
from .errors import ConfigError, _owned_readonly

#: Periodic-wraparound guard: the domain must span at least this many
#: correlation lengths (the Gaussian correlation at lag 20*lambda_c is
#: e^-400, far below any estimator noise).
MIN_EXTENT_LC = 20.0

#: The grid step may not exceed lambda_c/8, so the correlation peak is
#: resolved by several samples.
MAX_SPACING_LC = 0.125

MIN_GRID_POINTS = 256

#: Target samples per pipeline block (2 MiB of float64 field values).
BLOCK_SAMPLES = 2**18


def block_rows(grid_points: int) -> int:
    """Realizations per pipeline block at ``grid_points`` samples each."""
    return max(1, BLOCK_SAMPLES // grid_points)


@dataclass(frozen=True)
class SamplerConfig:
    """Synthesis configuration.

    grid_points   power of two >= 256
    extent        domain length L (m), at least 20*lambda_c
    lambda_c      target correlation length (m)
    seed          64-bit integer stream key
    realizations  number of independent fields (>= 1)
    """

    grid_points: int
    extent: float
    lambda_c: float
    seed: int
    realizations: int = 1

    def __post_init__(self):
        n = self.grid_points
        if n < MIN_GRID_POINTS or (n & (n - 1)) != 0:
            raise ConfigError(f"grid_points must be a power of two >= {MIN_GRID_POINTS}; got {n}")
        if not 0.0 < self.lambda_c <= sys.float_info.max:
            raise ConfigError("lambda_c must be finite and > 0")
        if not self.extent >= MIN_EXTENT_LC * self.lambda_c:
            raise ConfigError(
                f"extent must be >= {MIN_EXTENT_LC:g}*lambda_c to control periodic wraparound; "
                f"got extent/lambda_c = {self.extent / self.lambda_c:.3g}"
            )
        if self.spacing > MAX_SPACING_LC * self.lambda_c:
            raise ConfigError(
                f"grid spacing must be <= lambda_c/8 to resolve the correlation peak; "
                f"got spacing/lambda_c = {self.spacing / self.lambda_c:.3g}"
            )
        if not (self.spacing > 0.0 and math.isfinite(2.0 * math.pi / self.spacing)):
            raise ConfigError(
                f"grid spacing {self.spacing:.3g} m is too small: the mode wavenumbers leave the double range"
            )
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not 1 <= self.realizations <= 2**64:
            raise ConfigError("realizations must be >= 1 and <= 2**64 (each index is a 64-bit stream key)")

    @property
    def spacing(self) -> float:
        return self.extent / self.grid_points

    def as_dict(self) -> dict:
        return asdict(self)


def _config_int(path: str, raw: dict, name: str, default: int) -> int:
    value = raw.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: {name} must be an integer; got {value!r}")
    return value


def _config_float(path: str, raw: dict, name: str, default: float | None = None) -> float:
    value = raw.get(name, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(value):
                return value
    raise ConfigError(f"{path}: {name} must be a finite number; got {value!r}")


def load_config(path: str) -> SamplerConfig:
    """Read a SamplerConfig from a JSON document.

    ``lambda_c`` is required; the remaining fields default to the standard
    desk-scale validation setup (1024 points, extent 40*lambda_c, seed 0,
    4096 realizations).  ``grid_points``, ``seed`` and ``realizations``
    must be JSON integers, ``lambda_c`` and ``extent`` finite numbers
    (booleans are neither).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if "lambda_c" not in raw:
        raise ConfigError(f"{path}: config requires lambda_c")
    unknown = set(raw) - {field.name for field in fields(SamplerConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
    lambda_c = _config_float(path, raw, "lambda_c")
    if "extent" not in raw and not math.isfinite(40.0 * lambda_c):
        raise ConfigError(
            f"{path}: lambda_c = {lambda_c!r} is too large: the default extent 40*lambda_c leaves the double range"
        )
    return SamplerConfig(
        grid_points=_config_int(path, raw, "grid_points", 1024),
        extent=_config_float(path, raw, "extent", 40.0 * lambda_c),
        lambda_c=lambda_c,
        seed=_config_int(path, raw, "seed", 0),
        realizations=_config_int(path, raw, "realizations", 4096),
    )


@dataclass(frozen=True)
class NoiseField:
    """Realizations of the fluctuation field: ``values[i]`` is realization
    i on the spatial grid."""

    values: np.ndarray
    extent: float
    lambda_c: float
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr = _owned_readonly(arr[np.newaxis, :] if arr.ndim == 1 else arr)
        object.__setattr__(self, "values", arr)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("field values must be finite")

    @property
    def spacing(self) -> float:
        return self.extent / self.values.shape[1]


class _Workspace:
    """Scratch of the block pipeline over ``realizations`` rows of
    ``grid_points`` samples, allocated once per call for the largest block
    and overwritten by every block: the standard normals, the complex
    modes (the synthesis coefficients, then the block's rfft) and the
    ``|rfft|^2`` rows, block row r in ``power[1 + r]`` below a leading row
    for the running periodogram sum."""

    def __init__(self, grid_points: int, realizations: int):
        rows = min(block_rows(grid_points), realizations)
        modes = grid_points // 2 + 1
        self.grid_points = grid_points
        self.normals = np.empty((rows, 2, modes))
        self.modes = np.empty((rows, modes), dtype=complex)
        self.power = np.empty((rows + 1, modes))


def _mode_coefficients(z: np.ndarray, part_weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Complex Gaussian rfft coefficients with E|c_m|^2 = weights[m], one
    row per realization, from standard normals ``z[:, 0]`` (real parts)
    and ``z[:, 1]`` (imaginary parts), written into ``out``;
    ``part_weights`` is sqrt(weights) once for each real and imaginary
    part, ``np.repeat(np.sqrt(weights), 2)``.

    The products are the ones of ``(z0 + 1j*z1) / sqrt(2) * sqrt(weights)``
    in complex arithmetic (numpy divides by a real scalar as a multiply by
    its reciprocal), taken as real multiplies on the interleaved parts; a
    coefficient that is zero may differ from that expression in the sign
    of the zero only."""
    parts = out.view(float)
    pairs = parts.reshape(out.shape + (2,))
    np.multiply(z[:, 0], 1.0 / math.sqrt(2.0), out=pairs[..., 0])
    np.multiply(z[:, 1], 1.0 / math.sqrt(2.0), out=pairs[..., 1])
    # DC and Nyquist coefficients of an even-length real field are real.
    pairs[:, 0, 0] = z[:, 0, 0]
    pairs[:, -1, 0] = z[:, 0, -1]
    pairs[:, 0, 1] = pairs[:, -1, 1] = 0.0
    np.multiply(parts, part_weights, out=parts)
    return out


def _row_workers() -> int:
    """Threads each block's work is split over: two where the process may
    run on two or more CPUs, else one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


class _RowSplit:
    """The parallel steps of one call, each run as two parts: the caller
    takes the first and the helper, the one worker of the call's thread
    pool, the second.  An exception raised in the helper's part is raised
    on the caller; one raised in the caller's part takes precedence.  With
    one worker (``_row_workers()``, read once per call) no pool is made and
    the caller runs both parts in turn.  Leaving the ``with`` block joins
    the helper.  Steps run one at a time, from the thread that entered it."""

    def __init__(self):
        self.pool = None
        if _row_workers() == 2:
            # Imported here: concurrent.futures loads logging, ~5 ms on a cold start.
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qvac-rows")

    def __enter__(self) -> _RowSplit:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def pair(self, fn: Callable[..., object], first: tuple, second: tuple) -> tuple[object, object]:
        """``(fn(*first), fn(*second))``, the second on the helper."""
        if self.pool is None:
            return fn(*first), fn(*second)
        helper = self.pool.submit(fn, *second)
        try:
            result = fn(*first)
        finally:
            helper.exception()  # waits, raising nothing: the caller's exception wins
        return result, helper.result()

    def over_rows(self, rows: int, fn: Callable[[int, int], object]) -> tuple:
        """The results of ``fn(lo, hi)`` over the rows 0 .. rows - 1 of a
        block as two contiguous ranges, the first ``(rows + 1) // 2`` rows
        on the caller; a single row is one range, run on the caller."""
        mid = (rows + 1) // 2
        if mid == rows:
            return (fn(0, rows),)
        return self.pair(fn, (0, mid), (mid, rows))


def _sum(x: np.ndarray) -> float:
    return float(np.add.reduce(x))


def _centered_sums(x: np.ndarray, mean: float, c: np.ndarray, c2: np.ndarray) -> tuple[float, float, float]:
    """Sums of (x - mean)^2, ^3 and ^4, with ``c`` and ``c2`` (the size
    of ``x``) as scratch."""
    np.subtract(x, mean, out=c)
    np.multiply(c, c, out=c2)
    m2 = _sum(c2)
    m3 = _sum(np.multiply(c2, c, out=c))
    m4 = _sum(np.multiply(c2, c2, out=c))
    return m2, m3, m4


class _RowNormals:
    """Standard normals of realization i from one Philox re-keyed per
    realization: the same stream as Philox(key=[seed, i]) without building
    an unused entropy SeedSequence.  One thread at a time may draw; each
    row range has its own."""

    def __init__(self, seed: int):
        self.bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self.rng = np.random.Generator(self.bitgen)
        # Plain lists: numpy's state setter reads them element by element.
        self.state = self.bitgen.state
        self.state["state"] = {name: value.tolist() for name, value in self.state["state"].items()}
        self.state["buffer"] = self.state["buffer"].tolist()

    def draw(self, first: int, z: np.ndarray) -> None:
        """Realizations first, first + 1, ... into the rows of ``z``."""
        key = self.state["state"]["key"]
        for row in range(z.shape[0]):
            key[1] = first + row
            self.bitgen.state = self.state
            self.rng.standard_normal(out=z[row])


def _field_blocks(
    config: SamplerConfig,
    work: _Workspace,
    split: _RowSplit,
    then: Callable[[np.ndarray, int, int], object] | None = None,
) -> Iterator[tuple[np.ndarray, tuple]]:
    """Realizations 0 .. config.realizations - 1 in consecutive blocks of
    ``block_rows(config.grid_points)`` rows (the last may be shorter),
    built in ``work`` with each block's rows split by ``split``.  Each
    block is a fresh array, yielded with the results of
    ``then(block, lo, hi)`` on its row ranges (None without ``then``),
    which runs on each range as soon as its rows are synthesized, in the
    same step."""
    n = config.grid_points
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=config.spacing)
    weights = gaussian_spectrum(k, config.lambda_c)
    # weights[0] = 1 (k = 0), so total >= 1.
    total = weights[0] + 2.0 * weights[1:-1].sum() + weights[-1]
    # Scale so the synthesized field has unit variance.
    amplitude = n / math.sqrt(total)
    part_weights = np.repeat(np.sqrt(weights), 2)
    # One stream per row range (the caller's starts at row 0), built here so
    # that numpy.random is imported on the caller: imported on the helper
    # thread, its allocations would stay in that thread's malloc arena.
    streams = (_RowNormals(config.seed), _RowNormals(config.seed))
    rows = block_rows(n)
    for start in range(0, config.realizations, rows):
        block = np.empty((min(rows, config.realizations - start), n))

        def synthesize(lo: int, hi: int) -> None:
            z = work.normals[lo:hi]
            streams[0 if lo == 0 else 1].draw(start + lo, z)
            coeff = _mode_coefficients(z, part_weights, work.modes[lo:hi])
            part = np.fft.irfft(coeff, n=n, axis=1, out=block[lo:hi])
            part *= amplitude
            return None if then is None else then(block, lo, hi)

        yield block, split.over_rows(block.shape[0], synthesize)


def sample_field(config: SamplerConfig) -> NoiseField:
    """Draw ``config.realizations`` independent field realizations with
    the Gaussian vacuum spectrum at ``config.lambda_c``.  Output is
    deterministic in (seed, config).
    """
    values = np.empty((config.realizations, config.grid_points))
    start = 0
    work = _Workspace(config.grid_points, config.realizations)
    with _RowSplit() as split:
        for block, _ in _field_blocks(config, work, split):
            values[start : start + len(block)] = block
            start += len(block)
    values.flags.writeable = False
    return NoiseField(values=values, extent=config.extent, lambda_c=config.lambda_c, seed=config.seed)


class _Accumulator:
    """Running estimator state over realizations fed in order, block by
    block: the periodogram sum, added one realization at a time (so it is
    bit-identical to summing a stored field's periodograms over axis 0),
    and the sample count, mean and centered power sums of all samples,
    into which each row range's own count, mean and centered sums are
    merged in row order with the pairwise formulas of Chan et al. and
    Pebay (SAND2008-6212)."""

    def __init__(self, work: _Workspace):
        self.work = work
        self.rows = 0
        self.power_sum = np.zeros(work.power.shape[1])
        self.count = 0
        self.mean = 0.0
        self.m2 = self.m3 = self.m4 = 0.0

    def spectra(self, block: np.ndarray, lo: int, hi: int) -> tuple[int, float, float, float, float]:
        """``|rfft|^2`` of the block's rows lo .. hi - 1 into the workspace,
        and the partial moments of their samples: their count, mean and
        sums of centered powers about that mean.  The range's rows of the
        normals and of the modes, dead once its spectra are taken, are the
        scratch.  Every row range of a block must have its spectra before
        ``add``."""
        work = self.work
        spectrum = np.fft.rfft(block[lo:hi], axis=1, out=work.modes[lo:hi])
        powers = np.abs(spectrum, out=work.power[1 + lo : 1 + hi])
        np.square(powers, out=powers)
        x = block[lo:hi].ravel()
        n = x.size
        mean = _sum(x) / n
        c = work.normals[lo:hi].reshape(-1)[:n]
        c2 = work.modes[lo:hi].view(float).reshape(-1)[:n]
        return (n, mean, *_centered_sums(x, mean, c, c2))

    def add(self, block: np.ndarray, partials: tuple) -> None:
        """Fold in a block whose row ranges have their spectra and partial
        moments ``partials`` (the results of ``spectra``, in row order)."""
        rows = block.shape[0]
        # The running sum above the block's rows: an axis-0 reduce adds them
        # to each column in index order, the additions of a row-by-row loop.
        power = self.work.power[: rows + 1]
        power[0] = self.power_sum
        np.add.reduce(power, axis=0, out=self.power_sum)
        self.rows += rows
        for partial in partials:
            self._merge(*partial)

    def _merge(self, nb: int, mean_b: float, m2_b: float, m3_b: float, m4_b: float) -> None:
        na = self.count
        n = na + nb
        delta = mean_b - self.mean
        d_n = delta / n
        cross = delta * d_n * na * nb
        self.m4 += (
            m4_b
            + cross * d_n * d_n * (na * na - na * nb + nb * nb)
            + 6.0 * d_n * d_n * (na * na * m2_b + nb * nb * self.m2)
            + 4.0 * d_n * (na * m3_b - nb * self.m3)
        )
        self.m3 += m3_b + cross * d_n * (na - nb) + 3.0 * d_n * (na * m2_b - nb * self.m2)
        self.m2 += m2_b + cross
        self.mean += delta * (nb / n)
        self.count = n

    def mean_power(self) -> np.ndarray:
        return self.power_sum / self.rows


def _accumulate(field: NoiseField) -> _Accumulator:
    """A stored field's rows through the pipeline blocks."""
    m, n = field.values.shape
    acc = _Accumulator(_Workspace(n, m))
    rows = block_rows(n)
    with _RowSplit() as split:
        for start in range(0, m, rows):
            block = field.values[start : start + rows]
            acc.add(block, split.over_rows(block.shape[0], lambda lo, hi: acc.spectra(block, lo, hi)))
    return acc


def _autocorrelation(acc: _Accumulator) -> np.ndarray:
    """Circular autocorrelation at all n lags, from the mean periodogram,
    normalized to 1 at lag zero."""
    n = acc.work.grid_points
    acov = np.fft.irfft(acc.mean_power(), n=n) / n
    return acov / acov[0]


def _correlation(acc: _Accumulator, spacing: float) -> CorrelationFunction:
    g = _autocorrelation(acc)
    lags = np.arange(g.size // 2 + 1)
    xi = lags * spacing
    g_half = g[: g.size // 2 + 1]
    return CorrelationFunction(xi_grid=xi, g_values=g_half, lambda_c=e_folding_lag(xi, g_half))


def empirical_correlation(field: NoiseField) -> CorrelationFunction:
    """Circular autocorrelation averaged over realizations, normalized to
    1 at lag zero; lags run from 0 to half the domain."""
    return _correlation(_accumulate(field), field.spacing)


def mean_periodogram(field: NoiseField) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared rfft amplitude per mode and the matching wavenumbers.

    Up to one overall scale, the expectation equals the synthesis
    spectrum S(k); with M realizations each mode fluctuates with relative
    standard error 1/sqrt(M) (sqrt(2/M) for the real DC/Nyquist modes).
    """
    k = 2.0 * math.pi * np.fft.rfftfreq(field.values.shape[1], d=field.spacing)
    return k, _accumulate(field).mean_power()


@dataclass(frozen=True)
class GaussianityReport:
    """Sample skewness and excess kurtosis with 5-sigma pass thresholds
    5*sqrt(6/N_skew) and 5*sqrt(24/N_kurt).

    Neighbouring field samples are correlated, which widens the sampling
    spread of both moments by about sum(rho^3) and sum(rho^4) over all
    circular lags (Lomnicki 1961; Lobato & Velasco 2004), so the
    independent-Gaussian formulas take the effective sample counts
    N_skew = N / max(1, sum(rho^3)) and N_kurt = N / sum(rho^4).  A
    degenerate field has no correlation to count with: its effective
    counts and thresholds are NaN (null in JSON)."""

    sample_count: int
    skewness: float
    excess_kurtosis: float
    effective_samples_skew: float
    effective_samples_kurt: float
    skew_threshold: float
    kurt_threshold: float
    passed: bool
    degenerate: bool = False

    def as_dict(self) -> dict:
        """The fields in order, a non-finite float as None (null in JSON)."""
        return {name: None if isinstance(value, float) and not math.isfinite(value) else value
                for name, value in asdict(self).items()}


def _gaussianity(acc: _Accumulator) -> GaussianityReport:
    n = acc.count
    m2 = acc.m2 / n
    scale = m2 + acc.mean * acc.mean + np.finfo(float).tiny
    if m2 <= 1e-30 * scale:
        return GaussianityReport(
            sample_count=n,
            skewness=math.nan,
            excess_kurtosis=math.nan,
            effective_samples_skew=math.nan,
            effective_samples_kurt=math.nan,
            skew_threshold=math.nan,
            kurt_threshold=math.nan,
            passed=False,
            degenerate=True,
        )
    rho = _autocorrelation(acc)
    # sum(rho^4) >= rho[0]^4 = 1; the floor keeps N_skew <= N as well.
    n_skew = n / max(1.0, float(np.sum(rho**3)))
    n_kurt = n / float(np.sum(rho**4))
    skew_threshold = 5.0 * math.sqrt(6.0 / n_skew)
    kurt_threshold = 5.0 * math.sqrt(24.0 / n_kurt)
    skewness = (acc.m3 / n) / m2**1.5
    excess_kurtosis = (acc.m4 / n) / m2**2 - 3.0
    passed = abs(skewness) < skew_threshold and abs(excess_kurtosis) < kurt_threshold
    return GaussianityReport(
        sample_count=n,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        effective_samples_skew=n_skew,
        effective_samples_kurt=n_kurt,
        skew_threshold=skew_threshold,
        kurt_threshold=kurt_threshold,
        passed=passed,
    )


def gaussianity_check(field: NoiseField) -> GaussianityReport:
    """Moment-based normality check over all samples of all realizations.

    A field with (numerically) zero variance is reported as degenerate and
    fails.  Thresholds are calibrated for N >= ~1024 samples.
    """
    return _gaussianity(_accumulate(field))


def _report(config: SamplerConfig, acc: _Accumulator) -> dict:
    corr = _correlation(acc, config.spacing)
    probes = {}
    for mult in (0.5, 1.0, 2.0):
        xi = mult * config.lambda_c
        measured = float(np.interp(xi, corr.xi_grid, corr.g_values))
        expected = math.exp(-(mult**2))
        probes[f"{mult:g}"] = {
            "xi": xi,
            "measured": measured,
            "expected": expected,
            "abs_error": abs(measured - expected),
        }
    corr_at_lc = probes["1"]["measured"]
    gauss = _gaussianity(acc)
    corr_pass = abs(corr_at_lc - math.exp(-1.0)) <= 0.02
    return {
        "config": config.as_dict(),
        "correlation": {
            "recovered_lambda_c": corr.lambda_c if math.isfinite(corr.lambda_c) else None,
            "probes": probes,
            "at_lambda_c": corr_at_lc,
            "target": math.exp(-1.0),
            "pass": corr_pass,
        },
        "gaussianity": gauss.as_dict(),
        "pass": bool(corr_pass and gauss.passed),
    }


def build_sample_report(config: SamplerConfig, field: NoiseField) -> dict:
    """Estimator summary used by the CLI: empirical correlation against the
    analytic Gaussian at the canonical probe lags, plus gaussianity.

    The dictionary is plain data; serialize it with ``report_json_bytes``
    for byte-stable output.
    """
    return _report(config, _accumulate(field))


def sample_report(config: SamplerConfig, on_block: Callable[[np.ndarray], object] | None = None) -> dict:
    """``build_sample_report(config, sample_field(config))`` without holding
    the field: each block of realizations is passed to ``on_block`` (for
    example to write it out) and folded into the estimators before the
    next is drawn, so memory stays bounded by one block."""
    work = _Workspace(config.grid_points, config.realizations)
    acc = _Accumulator(work)
    with _RowSplit() as split:
        for block, partials in _field_blocks(config, work, split, then=acc.spectra):
            if on_block is not None:
                on_block(block)
            acc.add(block, partials)
    return _report(config, acc)


def report_json_bytes(report: dict) -> bytes:
    """Canonical JSON serialization (sorted keys, fixed separators); equal
    reports serialize to equal bytes."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
