import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from qvac import (
    ConfigError,
    NoiseField,
    SamplerConfig,
    build_sample_report,
    empirical_correlation,
    gaussian_spectrum,
    gaussianity_check,
    load_config,
    mean_periodogram,
    report_json_bytes,
    sample_field,
    sample_report,
)
from qvac import sampler
from qvac.sampler import BLOCK_SAMPLES, _field_blocks, _RowSplit, _Workspace, block_rows

from helpers import assert_same_bits, traced_peak

LC = 1.0e-9

#: Three realizations past one pipeline block at 256 points.
MULTI_BLOCK = dict(grid_points=256, extent=2.4e-08, seed=9, realizations=block_rows(256) + 3)

#: ``config`` and ``correlation`` of the MULTI_BLOCK report as computed by
#: the unblocked implementation (the whole field's periodogram averaged over
#: axis 0), before synthesis and estimators were streamed in blocks.
UNBLOCKED_REPORT = {
    "config": {"extent": 2.4e-08, "grid_points": 256, "lambda_c": 1e-09, "realizations": 1027, "seed": 9},
    "correlation": {
        "at_lambda_c": 0.36714647367151704,
        "pass": True,
        "probes": {
            "0.5": {"abs_error": 0.001511188789599105, "expected": 0.7788007830714049,
                    "measured": 0.7772895942818058, "xi": 5e-10},
            "1": {"abs_error": 0.0007329674999252966, "expected": 0.36787944117144233,
                  "measured": 0.36714647367151704, "xi": 1e-09},
            "2": {"abs_error": 0.0012139676792529662, "expected": 0.01831563888873418,
                  "measured": 0.017101671209481212, "xi": 2e-09},
        },
        "recovered_lambda_c": 9.990180387084943e-10,
        "target": 0.36787944117144233,
    },
}


def make_config(**overrides) -> SamplerConfig:
    params = dict(grid_points=1024, extent=40.0 * LC, lambda_c=LC, seed=3, realizations=64)
    params.update(overrides)
    return SamplerConfig(**params)


class TestConfig:
    def test_invariant_messages_name_the_field(self):
        with pytest.raises(ConfigError, match="grid_points"):
            make_config(grid_points=100)
        with pytest.raises(ConfigError, match="grid_points"):
            make_config(grid_points=1000)  # not a power of two
        with pytest.raises(ConfigError, match="extent"):
            make_config(extent=10.0 * LC)
        with pytest.raises(ConfigError, match="spacing"):
            make_config(grid_points=256, extent=39.0 * LC)  # spacing > lambda_c/8
        with pytest.raises(ConfigError, match="seed"):
            make_config(seed=-1)
        with pytest.raises(ConfigError, match="realizations"):
            make_config(realizations=0)
        with pytest.raises(ConfigError, match="lambda_c"):
            make_config(lambda_c=0.0)

    @pytest.mark.parametrize("overrides, field", [
        (dict(grid_points=1024, extent=math.inf, lambda_c=math.inf, seed=0, realizations=1), "lambda_c"),
        (dict(extent=10**402, lambda_c=10**400), "lambda_c"),
        (dict(realizations=10**400), "realizations"),
        (dict(realizations=2**64 + 1), "realizations"),  # realization 2**64 has no 64-bit stream key
    ], ids=["lambda-c-inf", "lambda-c-huge-int", "realizations-huge-int", "realizations-past-the-key"])
    def test_values_past_the_range_are_refused(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            make_config(**overrides)

    def test_load_config_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_c": LC}))
        cfg = load_config(str(path))
        assert cfg.grid_points == 1024
        assert cfg.extent == pytest.approx(40.0 * LC)
        assert cfg.seed == 0
        assert cfg.realizations == 4096

    def test_load_config_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_c": LC, "sigma": 2.0}))
        with pytest.raises(ConfigError, match="sigma"):
            load_config(str(path))

    def test_load_config_requires_lambda_c(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_points": 512}))
        with pytest.raises(ConfigError, match="lambda_c"):
            load_config(str(path))

    def test_load_config_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        cfg = make_config(realizations=8)
        a = sample_field(cfg)
        b = sample_field(cfg)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample_field(make_config(realizations=2, seed=1))
        b = sample_field(make_config(realizations=2, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_realizations_are_independent_of_batch(self):
        # realization i depends only on (seed, i), not on the batch size
        few = sample_field(make_config(realizations=2))
        many = sample_field(make_config(realizations=8))
        assert np.array_equal(few.values, many.values[:2])

    def test_white_spectrum_gives_uncorrelated_field(self):
        cfg = make_config(seed=7, realizations=64)
        white = np.random.default_rng(cfg.seed).standard_normal((cfg.realizations, cfg.grid_points))
        field = NoiseField(values=white, extent=cfg.extent, lambda_c=cfg.lambda_c, seed=cfg.seed)
        corr = empirical_correlation(field)
        bound = 5.0 / math.sqrt(cfg.grid_points * cfg.realizations)
        assert abs(corr.g_values[1]) < bound
        assert np.max(np.abs(corr.g_values[1:])) < bound

    def test_gaussian_spectrum_correlation(self):
        cfg = make_config(realizations=1024)
        corr = empirical_correlation(sample_field(cfg))
        for mult in (0.5, 1.0, 2.0):
            measured = float(np.interp(mult * LC, corr.xi_grid, corr.g_values))
            assert measured == pytest.approx(math.exp(-(mult**2)), abs=0.02)

    def test_lag_zero_is_exactly_one(self):
        corr = empirical_correlation(sample_field(make_config(realizations=4)))
        assert corr.g_values[0] == 1.0

    def test_recovered_length_matches_target(self):
        cfg = make_config(realizations=1024)
        corr = empirical_correlation(sample_field(cfg))
        assert corr.lambda_c == pytest.approx(LC, rel=0.05)

    def test_stationarity(self):
        cfg = make_config(grid_points=256, extent=24.0 * LC, seed=11, realizations=2048)
        field = sample_field(cfg)
        mean_pos = field.values.mean(axis=0)
        var_pos = field.values.var(axis=0)
        var_mean = var_pos.mean()
        # per-position mean: N(0, sigma^2/M); variance: relative std sqrt(2/M)
        assert np.max(np.abs(mean_pos)) < 5.0 * math.sqrt(var_mean / cfg.realizations)
        assert np.max(np.abs(var_pos / var_mean - 1.0)) < 5.0 * math.sqrt(2.0 / cfg.realizations)

    def test_periodogram_round_trip(self):
        cfg = make_config(grid_points=256, extent=24.0 * LC, seed=3, realizations=512)
        field = sample_field(cfg)
        k, power = mean_periodogram(field)
        target = gaussian_spectrum(k, LC)
        retained = target > 1e-12
        scale = power[retained].sum() / target[retained].sum()
        std_err = np.full(k.size, 1.0 / math.sqrt(cfg.realizations))
        std_err[0] = std_err[-1] = math.sqrt(2.0 / cfg.realizations)
        z = np.abs(power / scale - target) / (target * std_err + ~retained)
        assert np.max(z[retained]) < 3.0


class TestGaussianity:
    def test_synthesized_field_passes_at_large_n(self):
        # 2^20 samples
        cfg = make_config(seed=8, realizations=1024)
        report = gaussianity_check(sample_field(cfg))
        assert report.sample_count == 2**20
        assert report.passed
        assert abs(report.skewness) < report.skew_threshold
        assert abs(report.excess_kurtosis) < report.kurt_threshold

    def test_constant_field_is_degenerate(self):
        field = NoiseField(values=np.ones((4, 1024)), extent=40.0 * LC, lambda_c=LC, seed=0)
        report = gaussianity_check(field)
        assert report.degenerate
        assert not report.passed
        assert report.as_dict()["skew_threshold"] is None
        assert report.as_dict()["effective_samples_kurt"] is None

    def test_thresholds_use_effective_sample_counts(self):
        cfg = make_config(grid_points=256, extent=25.6 * LC, seed=4, realizations=16)
        field = sample_field(cfg)
        report = gaussianity_check(field)
        power = (np.abs(np.fft.rfft(field.values, axis=1)) ** 2).mean(axis=0)
        rho = np.fft.irfft(power, n=cfg.grid_points)
        rho /= rho[0]
        count = field.values.size
        assert report.effective_samples_skew == pytest.approx(count / np.sum(rho**3), rel=1e-12)
        assert report.effective_samples_kurt == pytest.approx(count / np.sum(rho**4), rel=1e-12)
        # lambda_c / h = 10: about ten samples per independent one
        assert 5.0 < count / report.effective_samples_skew < 20.0
        assert report.skew_threshold == 5.0 * math.sqrt(6.0 / report.effective_samples_skew)
        assert report.kurt_threshold == 5.0 * math.sqrt(24.0 / report.effective_samples_kurt)

    def test_white_field_counts_every_sample(self):
        values = np.random.default_rng(6).standard_normal((64, 256))
        report = gaussianity_check(NoiseField(values=values, extent=24.0 * LC, lambda_c=LC, seed=0))
        assert report.effective_samples_skew == pytest.approx(values.size, rel=0.05)
        assert report.effective_samples_kurt == pytest.approx(values.size, rel=0.05)
        assert report.effective_samples_skew <= values.size

    def test_false_alarm_rate_over_many_seeds(self):
        # 5-sigma thresholds: a correct field should essentially never fail.
        # With lambda_c/h = 10 neighbouring samples are strongly correlated;
        # thresholds from the independent-sample count failed 41 of these 200.
        failures = [
            seed
            for seed in range(200)
            if not gaussianity_check(
                sample_field(make_config(grid_points=256, extent=25.6 * LC, seed=seed, realizations=64))
            ).passed
        ]
        assert len(failures) <= 1, failures

    def test_sign_flip_symmetry(self):
        field = sample_field(make_config(seed=5, realizations=16))
        flipped = NoiseField(values=-field.values, extent=field.extent, lambda_c=LC, seed=5)
        a = gaussianity_check(field)
        b = gaussianity_check(flipped)
        assert abs(b.skewness) == pytest.approx(abs(a.skewness), rel=1e-9)
        assert b.excess_kurtosis == pytest.approx(a.excess_kurtosis, rel=1e-12)


class TestReport:
    def test_report_bytes_are_reproducible(self):
        cfg = make_config(grid_points=256, extent=24.0 * LC, realizations=16, seed=9)
        first = report_json_bytes(build_sample_report(cfg, sample_field(cfg)))
        second = report_json_bytes(build_sample_report(cfg, sample_field(cfg)))
        assert first == second
        doc = json.loads(first)
        assert set(doc) == {"config", "correlation", "gaussianity", "pass"}
        assert doc["config"]["seed"] == 9

    def test_noisefield_promotes_single_realization(self):
        field = NoiseField(values=np.zeros(512), extent=40.0 * LC, lambda_c=LC, seed=0)
        assert field.values.shape == (1, 512)


def reference_field(cfg: SamplerConfig) -> np.ndarray:
    """Realization by realization, each from a freshly keyed Philox: the
    unblocked synthesis the block pipeline must reproduce bit for bit."""
    n = cfg.grid_points
    weights = gaussian_spectrum(2.0 * math.pi * np.fft.rfftfreq(n, d=cfg.spacing), cfg.lambda_c)
    amplitude = n / math.sqrt(weights[0] + 2.0 * weights[1:-1].sum() + weights[-1])
    rows = []
    for i in range(cfg.realizations):
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, i], dtype=np.uint64)))
        z = rng.standard_normal((2, weights.size))
        coeff = (z[0] + 1j * z[1]) / math.sqrt(2.0)
        coeff[0] = z[0, 0]
        coeff[-1] = z[0, -1]
        rows.append(np.fft.irfft(coeff * np.sqrt(weights), n=n) * amplitude)
    return np.array(rows)


def field_blocks(cfg: SamplerConfig) -> list[np.ndarray]:
    """Every pipeline block of ``cfg``'s realizations, as one call makes them."""
    with _RowSplit() as split:
        return [block for block, _ in _field_blocks(cfg, _Workspace(cfg.grid_points, cfg.realizations), split)]


def heavy_tailed(rng: np.random.Generator, shape) -> np.ndarray:
    """Student-t(2) deviates scaled by powers of two over six decades: the
    bits of their sums depend on the order of the additions."""
    return rng.standard_t(2, size=shape) * 2.0 ** rng.integers(0, 20, size=shape)


def longdouble_moments(values: np.ndarray) -> tuple[float, float]:
    """Two-pass skewness and excess kurtosis in extended precision."""
    x = values.ravel().astype(np.longdouble)
    c = x - x.mean()
    m2 = np.mean(c * c)
    return float(np.mean(c * c * c) / m2**1.5), float(np.mean(c * c * c * c) / m2**2 - 3)


class TestBlockPipeline:
    @pytest.fixture(scope="class")
    def cfg(self):
        cfg = make_config(**MULTI_BLOCK)
        assert cfg.realizations % block_rows(cfg.grid_points) != 0
        return cfg

    @pytest.fixture(scope="class")
    def reference(self, cfg):
        return reference_field(cfg)

    @pytest.fixture(scope="class")
    def field(self, cfg):
        return sample_field(cfg)

    def test_field_equals_per_realization_reference(self, field, reference):
        assert np.array_equal(field.values, reference)

    def test_periodogram_and_correlation_equal_unblocked_estimators(self, field, reference):
        power = (np.abs(np.fft.rfft(reference, axis=1)) ** 2).mean(axis=0)
        k, measured = mean_periodogram(field)
        assert np.array_equal(measured, power)
        n = field.values.shape[1]
        acov = np.fft.irfft(power, n=n) / n
        corr = empirical_correlation(field)
        assert np.array_equal(corr.g_values, (acov / acov[0])[: n // 2 + 1])
        assert np.array_equal(corr.xi_grid, np.arange(n // 2 + 1) * field.spacing)

    def test_moments_match_extended_precision(self, field, reference):
        report = gaussianity_check(field)
        skewness, kurtosis = longdouble_moments(reference)
        assert report.sample_count == reference.size
        assert abs(report.skewness - skewness) < 1e-13
        assert abs(report.excess_kurtosis - kurtosis) < 1e-13

    def test_moments_across_uneven_blocks_with_offset_means(self):
        # blocks of very different means and sizes exercise the merge terms
        rng = np.random.default_rng(4)
        rows = 2 * block_rows(256) + 5
        values = rng.standard_normal((rows, 256)) ** 2 + np.repeat([0.0, 40.0, -7.0], [1024, 1024, 5])[:, None]
        report = gaussianity_check(NoiseField(values=values, extent=24.0 * LC, lambda_c=LC, seed=0))
        skewness, kurtosis = longdouble_moments(values)
        assert report.skewness == pytest.approx(skewness, abs=1e-13)
        assert report.excess_kurtosis == pytest.approx(kurtosis, abs=1e-13)

    def test_constant_multi_block_field_is_degenerate(self):
        values = np.full((2 * block_rows(256) + 1, 256), 0.7)
        report = gaussianity_check(NoiseField(values=values, extent=24.0 * LC, lambda_c=LC, seed=0))
        assert report.degenerate
        assert not report.passed
        assert report.sample_count == values.size

    def test_streamed_report_equals_stored_field_report(self, cfg, field):
        blocks = []
        streamed = sample_report(cfg, on_block=lambda block: blocks.append(block.copy()))
        assert streamed == build_sample_report(cfg, field)
        assert [len(b) for b in blocks] == [block_rows(256), 3]
        assert np.array_equal(np.concatenate(blocks), field.values)

    def test_config_and_correlation_equal_unblocked_values(self, cfg, field):
        report = json.loads(report_json_bytes(build_sample_report(cfg, field)))
        assert report["config"] == UNBLOCKED_REPORT["config"]
        assert report["correlation"] == UNBLOCKED_REPORT["correlation"]


#: 25.6 points per lambda_c: sqrt(weights) underflows to 0 at the top 83
#: of 257 modes, so those coefficients are zeros of either sign.
UNDERFLOW = dict(grid_points=512, extent=20.0 * LC, seed=2, realizations=block_rows(512) + 5)


class TestWorkspace:
    """One workspace serves every block of a call; what leaves the pipeline
    is a fresh array, and the bits are the per-realization reference's."""

    @pytest.mark.parametrize("params, zero_modes", [(MULTI_BLOCK, 0), (UNDERFLOW, 83)],
                             ids=["short-last-block", "underflow"])
    def test_blocks_equal_the_reference_bytes(self, params, zero_modes):
        cfg = make_config(**params)
        k = 2.0 * math.pi * np.fft.rfftfreq(cfg.grid_points, d=cfg.spacing)
        assert np.count_nonzero(np.sqrt(gaussian_spectrum(k, LC)) == 0.0) == zero_modes
        reference = reference_field(cfg)
        rows = block_rows(cfg.grid_points)
        blocks = field_blocks(cfg)
        assert [len(b) for b in blocks] == [rows, cfg.realizations - rows]
        for start, block in zip(range(0, cfg.realizations, rows), blocks):
            assert block.tobytes() == reference[start : start + len(block)].tobytes()

    def test_yielded_blocks_are_not_overwritten(self):
        # Kept without a copy: a buffer reused across blocks would hold the
        # last block's rows in the first block's place.
        cfg = make_config(**MULTI_BLOCK)
        blocks = field_blocks(cfg)
        assert_same_bits(np.concatenate(blocks), reference_field(cfg))

    def test_streamed_report_peak_is_bounded_by_the_workspace(self):
        # The workspace (normals, modes, |rfft|^2 rows: ~2.5 blocks) plus the
        # block being drawn and the one just yielded.
        cfg = make_config(grid_points=1024, realizations=4 * block_rows(1024) + 3)
        sample_report(make_config(grid_points=256, extent=24.0 * LC, realizations=1))  # lazy imports
        peak = traced_peak(lambda: sample_report(cfg)).peak
        assert peak <= 5 * BLOCK_SAMPLES * 8, peak / (BLOCK_SAMPLES * 8)


#: One row past a block: the last block has one row, which the caller
#: runs alone.
ONE_ROW_TAIL = dict(grid_points=256, extent=2.4e-08, seed=5, realizations=block_rows(256) + 1)

#: The README block shape: 1024 points, one full 256-row block and a short one.
README_BLOCKS = dict(grid_points=1024, extent=4.0e-08, seed=6, realizations=block_rows(1024) + 3)

#: One block of three rows: two on the caller, one on the helper.
THREE_ROWS = dict(realizations=3)


def split_runs(monkeypatch, fn):
    """``fn()`` with every block on the caller, then with each block's rows
    split over two threads (whatever the CPU count), switching between
    them as often as the interpreter can."""
    monkeypatch.setattr(sampler, "_row_workers", lambda: 1)
    serial = fn()
    monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return serial, fn()
    finally:
        sys.setswitchinterval(interval)


def count_thread_starts(monkeypatch) -> list[threading.Thread]:
    """The threads started from now on, in order."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


class TestRowSplit:
    """Each parallel step of a call runs as two parts, the second on the
    call's one helper thread; the bits are those of both parts on the
    caller."""

    def test_ranges_and_threads(self, monkeypatch):
        def ranges(rows):
            seen = []

            def record(lo, hi):
                seen.append((lo, hi, threading.current_thread()))
                return lo, hi

            with _RowSplit() as split:
                results = split.over_rows(rows, record)
            assert list(results) == [r[:2] for r in sorted(seen, key=lambda r: r[0])]
            return sorted(seen, key=lambda r: r[0])

        caller = threading.current_thread()
        threads = threading.active_count()
        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        (lo0, hi0, t0), (lo1, hi1, t1) = ranges(5)
        assert (lo0, hi0, lo1, hi1) == (0, 3, 3, 5)
        assert t0 is caller and t1 is not caller
        assert [r[:2] for r in ranges(1)] == [(0, 1)]
        assert threading.active_count() == threads
        monkeypatch.setattr(sampler, "_row_workers", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread was started"))
        assert ranges(5) == [(0, 3, caller), (3, 5, caller)]
        assert ranges(1) == [(0, 1, caller)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_steps_per_block(self, monkeypatch, workers):
        # The block's rows with their sample sums, then its centered sums.
        cfg = make_config(**README_BLOCKS)
        pair = _RowSplit.pair
        calls = []

        def counted(self, fn, first, second):
            calls.append(fn)
            return pair(self, fn, first, second)

        monkeypatch.setattr(_RowSplit, "pair", counted)
        monkeypatch.setattr(sampler, "_row_workers", lambda: workers)
        sample_report(cfg)
        assert len(calls) == 2 * len(range(0, cfg.realizations, block_rows(cfg.grid_points)))

    def test_one_cpu_keeps_one_worker(self, monkeypatch):
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sampler._row_workers() == 1
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert sampler._row_workers() == 2

    @pytest.mark.parametrize("workers, starts", [(2, 1), (1, 0)])
    @pytest.mark.parametrize("entry", ["sample_report", "sample_field", "build_sample_report"])
    def test_one_thread_start_per_call(self, monkeypatch, entry, workers, starts):
        cfg = make_config(**MULTI_BLOCK)
        field = sample_field(cfg)
        calls = {
            "sample_report": lambda: sample_report(cfg),
            "sample_field": lambda: sample_field(cfg),
            "build_sample_report": lambda: build_sample_report(cfg, field),
        }
        monkeypatch.setattr(sampler, "_row_workers", lambda: workers)
        started = count_thread_starts(monkeypatch)
        calls[entry]()
        assert len(started) == starts
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("params", [MULTI_BLOCK, UNDERFLOW, ONE_ROW_TAIL, README_BLOCKS, THREE_ROWS],
                             ids=["short-last-block", "underflow", "one-row-tail", "readme-blocks", "three-rows"])
    def test_split_changes_no_bits(self, monkeypatch, params):
        cfg = make_config(**params)
        serial, split = split_runs(monkeypatch, lambda: field_blocks(cfg))
        assert [len(b) for b in split] == [len(b) for b in serial]
        assert b"".join(b.tobytes() for b in split) == b"".join(b.tobytes() for b in serial)
        serial, split = split_runs(monkeypatch, lambda: report_json_bytes(sample_report(cfg)))
        assert split == serial
        serial, split = split_runs(monkeypatch, lambda: sample_field(cfg).values.tobytes())
        assert split == serial
        field = sample_field(cfg)
        serial, split = split_runs(monkeypatch, lambda: report_json_bytes(build_sample_report(cfg, field)))
        assert split == serial == report_json_bytes(sample_report(cfg))

    @pytest.mark.parametrize("fault, error", [("non-finite", ConfigError), ("raise", KeyError)])
    def test_helper_failure_reaches_the_caller(self, monkeypatch, capsys, fault, error):
        # Only the helper's range fails; a thread's uncaught exception would
        # go to threading.excepthook (stderr) and the call would return.
        caller = threading.current_thread()
        coefficients = sampler._mode_coefficients

        def helper_fails(z, part_weights, out):
            coefficients(z, part_weights, out)
            if threading.current_thread() is not caller:
                if fault == "raise":
                    raise KeyError("helper")
                out[:] = np.nan
            return out

        monkeypatch.setattr(sampler, "_mode_coefficients", helper_fails)
        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(error):
            sample_report(make_config(**MULTI_BLOCK))
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""

    def test_helper_is_joined_after_a_mid_call_error(self, monkeypatch, capsys):
        # The caller's range of the second block is not finite: the call
        # fails between blocks, with the helper idle and waiting for work.
        caller = threading.current_thread()
        coefficients = sampler._mode_coefficients
        caller_blocks = []

        def second_block_fails(z, part_weights, out):
            coefficients(z, part_weights, out)
            if threading.current_thread() is caller:
                caller_blocks.append(len(z))
                if len(caller_blocks) == 2:
                    out[:] = np.nan
            return out

        monkeypatch.setattr(sampler, "_mode_coefficients", second_block_fails)
        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        started = count_thread_starts(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(ConfigError, match="finite"):
            sample_report(make_config(**MULTI_BLOCK))
        assert len(caller_blocks) == 2
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""

    def test_caller_failure_still_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        done = []

        def ranges(lo, hi):
            if lo == 0:
                raise ValueError("caller")
            time.sleep(0.1)  # still running when the caller's range fails
            done.append((lo, hi))

        threads = threading.active_count()
        with _RowSplit() as split:
            with pytest.raises(ValueError, match="caller"):
                split.over_rows(4, ranges)
            # The step waited for the helper's range before it raised.
            assert done == [(2, 4)]
            split.over_rows(2, lambda lo, hi: done.append((lo, hi)))
        assert threading.active_count() == threads
        assert sorted(done) == [(0, 1), (1, 2), (2, 4)]

    def test_caller_exception_wins_when_both_parts_raise(self, monkeypatch, capsys):
        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        helper_ran = []

        def ranges(lo, hi):
            if lo == 0:
                raise ValueError("caller")
            time.sleep(0.05)  # still running when the caller's part fails
            helper_ran.append(threading.current_thread())
            raise KeyError("helper")

        threads = threading.active_count()
        with pytest.raises(ValueError, match="caller"):
            with _RowSplit() as split:
                split.over_rows(4, ranges)
        assert len(helper_ran) == 1 and helper_ran[0] is not threading.current_thread()
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""

    def test_helper_base_exception_reaches_the_caller(self, monkeypatch, capsys):
        # Not an Exception: a helper that caught only those would die with it
        # and leave the step waiting or the error on threading.excepthook.
        class Stop(BaseException):
            pass

        def ranges(lo, hi):
            if lo != 0:
                raise Stop("helper")
            return lo, hi

        monkeypatch.setattr(sampler, "_row_workers", lambda: 2)
        threads = threading.active_count()
        with _RowSplit() as split:
            with pytest.raises(Stop, match="helper"):
                split.over_rows(2, ranges)
            # The helper still takes the next step's second part.
            assert split.over_rows(2, lambda lo, hi: (lo, hi)) == ((0, 1), (1, 2))
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""


class TestPairwiseSplit:
    """The bit-for-bit identities the parallel estimators rest on."""

    def test_leading_row_reduce_equals_the_row_loop(self):
        rng = np.random.default_rng(12)
        running = heavy_tailed(rng, 513)
        rows = heavy_tailed(rng, (9, 513))
        loop = running.copy()
        for row in rows:
            loop += row
        reduced = np.empty(513)
        np.add.reduce(np.vstack([running, rows]), axis=0, out=reduced)
        assert_same_bits(reduced, loop)
        # The order of the additions matters for these rows.
        backwards = running.copy()
        for row in rows[::-1]:
            backwards += row
        assert not np.array_equal(backwards, loop)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape", [(block_rows(1024), 1024), (1, 100), (3, 1024), (5, 204), (2, 32)],
                             ids=["split-block", "one-row", "three-rows", "half-not-a-multiple-of-8", "small-block"])
    def test_block_moments_equal_the_unsplit_sums(self, monkeypatch, workers, shape):
        # Each row range's samples are summed unsplit, the first
        # (rows + 1) // 2 rows and the rest, and a block's sum is the first
        # range's plus the second's, with one worker as with two.
        values = heavy_tailed(np.random.default_rng(13), shape)
        mid = (shape[0] + 1) // 2
        ranges = [part.ravel() for part in (values[:mid], values[mid:]) if part.size]

        def block_sum(f):
            sums = [float(np.sum(f(x))) for x in ranges]
            return sums[0] + sums[1] if len(sums) == 2 else sums[0]

        mean = block_sum(lambda x: x) / values.size
        powers = [lambda c: c * c, lambda c: (c * c) * c, lambda c: (c * c) * (c * c)]
        expected = [block_sum(lambda x, power=power: power(x - mean)) for power in powers]
        monkeypatch.setattr(sampler, "_row_workers", lambda: workers)
        acc = sampler._accumulate(NoiseField(values=values, extent=40.0 * LC, lambda_c=LC, seed=0))
        got = [acc.mean, acc.m2, acc.m3, acc.m4]
        assert [v.hex() for v in got] == [v.hex() for v in [mean, *expected]]
        # numpy's sum of the whole block: the same bits where numpy splits
        # the block at the row split (or does not split one row), other bits
        # here for the other shapes.
        x = values.ravel()
        c = x - float(x.mean())
        unsplit = [float(x.mean()), float(np.sum(c * c)), float(np.sum(c * c * c)), float(np.sum((c * c) * (c * c)))]
        assert (got == unsplit) == (shape[0] == 1 or shape == (block_rows(1024), 1024))
