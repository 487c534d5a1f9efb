"""Byte equality of the array renderer with Python's ``"%.16e" % x``.

``render.csv_rows`` must give, for every row of a block,
``",".join("%.16e" % v for v in row) + "\\n"``.  The reference here is
that expression itself, value by value.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from qvac import render

WIDE_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63


def percent_rows(block: np.ndarray) -> bytes:
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in block.tolist()).encode()


def assert_renders_like_percent(values, cols=1):
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got = bytes(render.csv_rows(block))
    expected = percent_rows(block)
    if got != expected:
        one_per_line = bytes(render.csv_rows(block.reshape(-1, 1))).split(b"\n")
        wrong = [(v, g, e) for v, g, e in zip(block.ravel().tolist(), one_per_line,
                                               percent_rows(block.reshape(-1, 1)).split(b"\n")) if g != e]
        pytest.fail(f"{len(wrong)} of {block.size} values differ from %.16e, first: {wrong[:5]}")


def random_bit_patterns(count: int, seed: int) -> np.ndarray:
    """Doubles from uniformly random 64-bit patterns: every exponent equally
    likely, NaNs, infinities and subnormals included."""
    return np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)


def exact(x) -> Fraction:
    return Fraction(*x.as_integer_ratio())


class TestScaleTable:
    def test_powers_of_ten_are_correctly_rounded(self):
        for e in range(render._E_LO, render._E_HI + 1):
            value = render._SCALE[e - render._E_LO]
            target = Fraction(10) ** (16 - e)
            error = abs(exact(value) - target)
            for neighbour in (np.nextafter(value, np.longdouble(0)), np.nextafter(value, np.longdouble(np.inf))):
                assert error <= abs(exact(neighbour) - target), e

    @pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="every value takes % without a 64-bit longdouble significand")
    def test_scaled_values_stay_within_the_band(self):
        x = np.abs(random_bit_patterns(4000, seed=11))
        x = x[(x > 0) & (x < np.inf)]
        for value in x.tolist():
            e = math.floor(math.log10(value))
            if not 10**16 <= Fraction(value) * Fraction(10) ** (16 - e) < 10**17:
                e += 1 if Fraction(value) * Fraction(10) ** (16 - e) >= 10**17 else -1
            scaled = np.longdouble(value) * render._SCALE[e - render._E_LO]
            assert abs(exact(scaled) - Fraction(value) * Fraction(10) ** (16 - e)) <= exact(render.AMBIGUITY_BAND)


class TestPercentEquality:
    def test_random_bit_patterns(self):
        # 3 columns: passes of CHUNK_VALUES // 3 whole rows, the last one short.
        assert_renders_like_percent(random_bit_patterns(3 * 166_667, seed=0), cols=3)

    @pytest.mark.skipif(not WIDE_LONGDOUBLE, reason="every value takes % without a 64-bit longdouble significand")
    def test_few_values_take_the_fallback(self):
        x = np.abs(random_bit_patterns(100_000, seed=1))
        x = x[(x > 0) & (x < np.inf)]
        assert render._digits(x)[2].mean() < 0.05

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert_renders_like_percent(np.concatenate([values, -values]))

    def test_rounding_that_carries_to_the_next_power(self):
        powers = [Fraction(10) ** j for j in range(-323, 309)]
        below = [float(np.nextafter(float(p), 0)) if Fraction(float(p)) >= p else float(p) for p in powers]
        carries = [x for x in below if ("%.16e" % x).startswith("1.0000000000000000e")]
        assert len(carries) >= 10  # 17-digit rounding lifts them to the power above
        assert_renders_like_percent(carries + [-x for x in carries])

    def test_exact_decimal_ties(self):
        # x = m * 2^-(k+1) with m odd and x in [10^(16-k), 10^(17-k)):
        # x * 10^k = m * 5^k / 2 lies exactly halfway between 17-digit strings.
        rng = np.random.default_rng(2)
        ties, below_is_even = [], 0
        for k in range(1, 25):
            lo = math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1))
            hi = min(math.ceil(Fraction(10) ** (17 - k) * 2 ** (k + 1)), 2**53)
            for m in set(rng.integers(lo, hi, size=40).tolist() + [lo, hi - 1]):
                if m % 2:
                    scaled = Fraction(m, 2 ** (k + 1)) * Fraction(10) ** k
                    assert 10**16 <= scaled < 10**17 and scaled.denominator == 2
                    below_is_even += math.floor(scaled) % 2 == 0
                    ties.append(math.ldexp(m, -(k + 1)))
        assert len(ties) > 300
        assert below_is_even > len(ties) // 4  # there half-even and half-up differ
        assert_renders_like_percent(ties + [-x for x in ties])

    def test_subnormals(self):
        tiny = 5e-324
        largest = math.ldexp(1.0, -1022) - tiny
        rng = np.random.default_rng(3)
        random = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([[tiny, 2 * tiny, 3 * tiny, largest, math.ldexp(1.0, -1022)], random])
        assert_renders_like_percent(np.concatenate([values, -values]))

    def test_three_digit_exponents(self):
        rng = np.random.default_rng(4)
        exponents = np.concatenate([rng.uniform(100, 308, 2000), rng.uniform(-323, -100, 2000)])
        values = rng.uniform(1.0, 10.0, exponents.size) * 10.0**np.floor(exponents)
        values = np.concatenate([values, [1e100, 1e-100, 9.999999999999999e99, sys.float_info.max]])
        assert_renders_like_percent(np.concatenate([values, -values]))

    def test_zeros_nan_and_infinities_between_values(self):
        specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
        values = [v for s in specials for v in (s, 1.5, -2.25e-300)]
        assert_renders_like_percent(values, cols=3)
        assert_renders_like_percent(values, cols=2)

    def test_every_value_through_the_fallback(self, monkeypatch):
        # what a platform without a 64-bit longdouble significand does
        monkeypatch.setattr(render, "AMBIGUITY_BAND", np.inf)
        assert_renders_like_percent(random_bit_patterns(3000, seed=5), cols=3)

    def test_empty_block(self):
        assert bytes(render.csv_rows(np.empty((0, 3)))) == b""
