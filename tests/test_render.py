"""Byte equality of the array renderer with Python's ``"%.16e" % x``.

``render.write_rows`` must write, for every row of a block,
``",".join("%.16e" % v for v in row) + "\\n"``.  The reference here is
that expression itself, value by value.
"""

import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from qvac import render


def rendered(block: np.ndarray) -> bytes:
    fh = io.BytesIO()
    render.write_rows(fh, block)
    return fh.getvalue()


def percent_rows(block: np.ndarray) -> bytes:
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in block.tolist()).encode()


def assert_renders_like_percent(values, cols=1):
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got = rendered(block)
    expected = percent_rows(block)
    if got != expected:
        one_per_line = rendered(block.reshape(-1, 1)).split(b"\n")
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
        # hi is the double nearest 10^(16-E) (scaled by the pre-scale's
        # inverse), and hi + lo is within 2^-106 of it.
        for e in range(render._E_LO, render._E_HI + 1):
            i = e - render._E_LO
            hi, head, tail, lo = render._POWERS[i].tolist()
            target = Fraction(10) ** (16 - e) / exact(float(render._PRESCALE[i]))
            assert abs(exact(hi) - target) <= Fraction(math.ulp(hi)) / 2, e
            assert abs(exact(hi) + exact(lo) - target) <= target * Fraction(2) ** -106, e
            assert exact(head) + exact(tail) == exact(hi), e

    def test_hi_and_lo_are_the_nearest_doubles(self):
        # hi is the double nearest the power, ties to even (10^23, at
        # E = -7, is a tie), and lo the double nearest the remainder.
        def assert_nearest(x: float, target: Fraction, e: int) -> None:
            err = abs(exact(x) - target)
            for neighbour in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
                other = abs(exact(neighbour) - target)
                assert err < other or (err == other and exact(x) / exact(math.ulp(x)) % 2 == 0), e

        ties = []
        for e in range(render._E_LO, render._E_HI + 1):
            i = e - render._E_LO
            hi, head, tail, lo = render._POWERS[i].tolist()
            target = Fraction(10) ** (16 - e) / exact(float(render._PRESCALE[i]))
            assert_nearest(hi, target, e)
            assert_nearest(lo, target - exact(hi), e)
            assert exact(head) + exact(tail) == exact(hi), e
            if abs(target - exact(hi)) == Fraction(math.ulp(hi)) / 2:
                ties.append(e)
        assert -7 in ties

    def test_scaled_values_stay_within_the_band(self):
        x = np.abs(random_bit_patterns(4000, seed=11))
        x = x[(x > 0) & (x < np.inf)]
        exponents = []
        for value in x.tolist():
            e = math.floor(math.log10(value))
            while Fraction(value) < Fraction(10) ** e:
                e -= 1
            while Fraction(value) >= Fraction(10) ** (e + 1):
                e += 1
            exponents.append(e)
        whole, frac = render._scaled(x, np.array(exponents))
        for value, w, f, e in zip(x.tolist(), whole.tolist(), frac.tolist(), exponents):
            y = Fraction(value) * Fraction(10) ** (16 - e)
            assert 10**16 <= y < 10**17
            assert abs(w + exact(f) - y) <= exact(render.AMBIGUITY_BAND)
        # _digits finds the same exponents, one up only where rounding
        # carries the digits to 10^16.
        digits, found, _ = render._digits(x)
        carried = found == np.array(exponents) + 1
        assert ((found == exponents) | carried).all()
        assert (digits[carried] == 10**16).all()


class TestPercentEquality:
    def test_random_bit_patterns(self):
        # 3 columns: passes of CHUNK_VALUES // 3 whole rows, the last one short.
        assert_renders_like_percent(random_bit_patterns(3 * 166_667, seed=0), cols=3)

    def test_few_values_take_the_fallback(self):
        # Only the values flagged here (within AMBIGUITY_BAND of a decimal
        # tie) take %, and no normal deviate comes that close.
        x = np.random.default_rng(1).standard_normal(10**6)
        assert not render._digits(np.abs(x))[2].any()

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
        assert rendered(np.empty((0, 3))) == b""
        assert render._fields(np.empty(0)).size == 0


class TestRowLayouts:
    """A pass whose values all keep one sign and one exponent width is
    copied out at a fixed width; any other pass drops its 0 bytes.  Both
    must give the bytes of %."""

    @staticmethod
    def layouts(monkeypatch) -> list:
        taken = []
        fixed = render._fixed_layout
        monkeypatch.setattr(render, "_fixed_layout", lambda fields: taken.append(fixed(fields)) or taken[-1])
        return taken

    @staticmethod
    def positive_table(rows: int = 3000, cols: int = 6) -> np.ndarray:
        rng = np.random.default_rng(6)
        return rng.uniform(1.0, 10.0, (rows, cols)) * 10.0 ** rng.integers(-99, 100, (rows, cols))

    def test_positive_two_digit_exponents_take_the_fixed_path(self, monkeypatch):
        taken = self.layouts(monkeypatch)
        assert_renders_like_percent(self.positive_table(), cols=6)
        assert taken and all(layout == (1, 23) for layout in taken)

    def test_a_negative_a_three_digit_exponent_and_a_nan_take_the_drop_path(self, monkeypatch):
        for row, col, value in ((5, 0, -2.5), (7, 3, 1.5e-200), (9, 5, math.nan)):
            table = self.positive_table(rows=100)
            table[row, col] = value
            taken = self.layouts(monkeypatch)
            assert_renders_like_percent(table, cols=6)
            assert taken in ([], [None])

    def test_columns_of_different_layouts_take_the_drop_path(self, monkeypatch):
        table = self.positive_table(cols=4)
        table[:, 1] *= -1.0
        table[:, 2] *= 1e-200
        table[:, 3] = -table[:, 3] * 1e200
        taken = self.layouts(monkeypatch)
        assert_renders_like_percent(table, cols=4)
        assert taken and all(layout is None for layout in taken)

    @pytest.mark.parametrize("sign, scale, layout", [(1.0, 1.0, (1, 23)), (-1.0, 1.0, (0, 24)),
                                                      (1.0, 1e-200, (1, 24)), (-1.0, 1e200, (0, 25))])
    def test_every_fixed_layout(self, monkeypatch, sign, scale, layout):
        taken = self.layouts(monkeypatch)
        assert_renders_like_percent(sign * scale * self.positive_table(rows=200, cols=3), cols=3)
        assert taken and all(t == layout for t in taken)

    def test_passes_switch_path_midway(self, monkeypatch):
        table = self.positive_table(rows=4 * (render.CHUNK_VALUES // 6) + 10)
        table[render.CHUNK_VALUES // 6 + 3, 2] *= -1.0  # the second pass only
        taken = self.layouts(monkeypatch)
        assert_renders_like_percent(table, cols=6)
        assert [layout is None for layout in taken] == [False, True, False, False, False]

    def test_fallback_texts_keep_the_layout(self, monkeypatch):
        # exact decimal ties at E = -7 take %, inside a fixed-layout pass
        ties = [math.ldexp(m, -24) for m in (3, 5, 7, 9, 11, 13, 15)]
        table = self.positive_table(rows=700, cols=1)
        table[: len(ties), 0] = ties
        assert render._digits(np.array(ties))[2].all()
        taken = self.layouts(monkeypatch)
        assert_renders_like_percent(table, cols=1)
        assert taken and all(layout == (1, 23) for layout in taken)

