"""Exact ``%.16e`` rendering of float64 blocks as CSV rows.

``write_rows(fh, block)`` writes the bytes of
``",".join("%.16e" % v for v in row) + "\\n"`` for every row of a 2-D
float64 block, with the 17 significant digits of each value generated by
numpy array arithmetic instead of one Python ``%`` per value.  It is the
renderer of every CSV table the CLI writes.  A table whose leading
columns are the coordinates of a row-major grid takes them as the grid's
1-D axes (``write_rows(fh, block, axes, first_row)``): each axis value is
rendered once per pass and copied to the rows that repeat it, so no
grid-sized coordinate column is built or formatted.

Digits.  For a finite nonzero x with decimal exponent E, the digit string
is y = |x| * 10^(16-E) in [10^16, 10^17), rounded to an integer.  Each
10^(16-E) is stored as two doubles hi + lo, hi correctly rounded and lo
the correctly rounded remainder (so hi + lo is within 2^-106 of it), both
from exact integer arithmetic.  |x| * hi is formed exactly as p + e with
Dekker's TwoProduct over Veltkamp splits (Dekker, Numer. Math. 18:224,
1971); p >= 2^53 is an integer, and the small correction c = e + |x| * lo
holds the rest of y to within AMBIGUITY_BAND, so floor(c) and c - floor(c)
give the digits and the rounding direction.  Values past 10^280 or below
10^-280 (subnormals among them) are scaled by 2^-+512 first, against a
table entry scaled the other way, so that no split overflows and no
partial product underflows.  Only values whose fraction lies within the
band of 0.5 (exact decimal ties among them; no value of 10^6 normal
deviates) and non-finite values take Python's ``%``; that fallback keeps
every byte equal to ``%``.  Adams, "Ryu revisited: printf floating point
conversion", OOPSLA 2019, takes the same exact-table approach in integer
arithmetic.

Rows.  A value is assembled with its separator as a fixed _WIDTH-byte
field whose unused bytes are 0: the sign byte of a positive value and the
last byte after a two-digit exponent.  When every value of a pass has
the same sign and the same exponent width, every field has the same 0
bytes and the pass's texts are one strided copy; any other pass drops the
0 bytes one by one.
"""

from __future__ import annotations

import functools
import math
from typing import BinaryIO, Iterator, Sequence

import numpy as np

#: Decimal exponents a nonzero finite double can have (5e-324 to 1.8e308),
#: widened by one on each side for the first, possibly wrong, estimate.
_E_LO, _E_HI = -325, 309

#: Values with a decimal exponent beyond +-_E_SAFE are multiplied by
#: 2^-+_SHIFT before the product, their table entries by 2^+-_SHIFT.
_E_SAFE, _SHIFT = 280, 512

#: Veltkamp's splitter: x * _SPLITTER splits x into two 26-bit halves.
_SPLITTER = 2.0**27 + 1.0

#: |c - (y - p)| is at most 2^-49 (the error of hi + lo times |x|), plus
#: 2^-50 (rounding |x| * lo, below 16) plus 2^-49 (rounding e + |x| * lo,
#: below 32): below 2^-47 whenever y < 2^57.  It is no tuning knob.
AMBIGUITY_BAND = 2.0**-47


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into head + tail, each of at most 26 bits."""
    c = x * _SPLITTER
    head = c - (c - x)
    return head, x - head


#: The power of two that multiplies a value of decimal exponent E first.
_PRESCALE = np.array([2.0**_SHIFT if e < -_E_SAFE else 2.0**-_SHIFT if e > _E_SAFE else 1.0
                      for e in range(_E_LO, _E_HI + 1)])


def _power_table() -> np.ndarray:
    """Rows hi, hi's head and tail, lo for E from _E_LO to _E_HI, where
    hi + lo is 10^(16-E) / _PRESCALE[E - _E_LO]: hi is that ratio of
    integers and lo the exact remainder, each divided correctly rounded."""
    rows = []
    for e, prescale in zip(range(_E_LO, _E_HI + 1), _PRESCALE):
        p, q = prescale.as_integer_ratio()
        num, den = 10 ** max(16 - e, 0) * q, 10 ** max(e - 16, 0) * p
        hi = num / den
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(rows).T
    return np.stack([hi, *_split(hi), lo], axis=1)


#: Row E - _E_LO holds hi, the head and tail of hi's split, and lo, where
#: hi + lo is 10^(16-E) / _PRESCALE[E - _E_LO] within 2^-106 relative;
#: one row is gathered per value.
_POWERS = _power_table()

#: The four ASCII digits of 0..9999 as one uint32 each, and the tail of a
#: field from E: two bytes that the digits overwrite, "e", the exponent
#: ("+05", "-324", ...), the separator and zero padding, as one uint64.
_DIGIT_CODES = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGIT_CODES] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_TAILS = np.frombuffer(
    b"".join(f"..e{e:+03d},".encode().ljust(8, b"\0") for e in range(_E_LO, _E_HI + 1)), dtype=np.uint64
)

#: Block values rendered per pass: a pass's buffers and temporaries take
#: ~250 bytes per value (~2 MB), so memory is bounded by this, not by the
#: block.
CHUNK_VALUES = 2**13

#: Bytes per value in the assembly buffer: sign, lead digit, ".", 16
#: digits, "e", the exponent, the separator and zero padding.  A finite
#: value's text is one run of bytes: from byte 0 with a sign, else from
#: byte 1, to byte 23 with a two-digit exponent, else to byte 24.
_WIDTH = 25

#: One value's _WIDTH bytes as a single element, so rows of fields are
#: gathered and placed a whole field at a time.
_FIELD = np.dtype((np.void, _WIDTH))


@functools.cache
def _void(size: int) -> np.dtype:
    return np.dtype((np.void, size))


def _bytes(buf: np.ndarray, start: int, size: int) -> np.ndarray:
    """Bytes ``start`` to ``start + size`` of each row of the 2-D uint8
    ``buf`` as one element, so that they are copied a row at a time."""
    return buf[:, start : start + size].view(_void(size))[:, 0]


def _copy_run(target: np.ndarray, source: np.ndarray, start: int, staging: np.ndarray) -> None:
    """``target[...] = source[:, start:start + width]`` for a target of 16
    to 32 bytes a row, as two overlapping 16-byte copies, each through the
    contiguous ``staging`` (16-byte elements, at least one per row): numpy
    copies 16-byte elements fast when one side is contiguous, and slowly
    between two strided sides."""
    width, staging = target.shape[1], staging[: target.shape[0]]
    for offset in (0, width - 16):
        staging[...] = _bytes(source, start + offset, 16)
        _bytes(target, offset, 16)[...] = staging


def _scaled(a: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) and y - floor(y), to within AMBIGUITY_BAND, of
    y = a * 10^(16 - exponent) for positive finite ``a``."""
    i = exponent - _E_LO
    if exponent.min() < -_E_SAFE or exponent.max() > _E_SAFE:
        a = a * _PRESCALE[i]
    hi, hi_head, hi_tail, lo = np.take(_POWERS, i, axis=0).T
    p = a * hi
    # Dekker's exact error of p, from the split halves: e = a*hi - p.
    head, tail = _split(a)
    e = ((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail
    c = e + a * lo
    whole = np.floor(c)
    frac = c - whole
    return p.astype(np.int64) + whole.astype(np.int64), frac


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digit strings D in [10^16, 10^17), decimal exponents E and the
    ambiguity flags for positive finite ``a``: a ~ D * 10^(E-16)."""
    exponent = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, exponent)
    # log10 can be one off next to a power of ten: fix E from the range of y.
    if whole.min() < 10**16 or whole.max() >= 10**17:
        off = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
        fix = np.flatnonzero(off)
        exponent[fix] += off[fix]
        whole[fix], frac[fix] = _scaled(a[fix], exponent[fix])
    ambiguous = np.abs(frac - 0.5) <= AMBIGUITY_BAND
    digits = whole + (frac >= 0.5)
    near = np.flatnonzero(ambiguous)
    if near.size:
        # Where 10^(16-E) is a double (lo = 0), c and its fraction are exact:
        # a fraction of exactly 0.5 is a decimal tie, rounded half to even.
        exact = near[_POWERS[exponent[near] - _E_LO, 3] == 0.0]
        ambiguous[exact] = False
        digits[exact] -= (frac[exact] == 0.5) & (whole[exact] % 2 == 0)
    if digits.max() >= 10**17:
        carry = digits >= 10**17
        digits[carry] = 10**16
        exponent += carry
    return digits, exponent, ambiguous


def _fields(x: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """One _FIELD per value of the 1-D ``x``: ``"%.16e" % v`` and a ","
    in the layout of _WIDTH, padded with 0 bytes; written into the uint8
    ``buf`` of x.size rows by _WIDTH bytes when one is given."""
    if x.size == 0:
        return np.empty(0, _FIELD)
    a = np.abs(x)
    every = a.min() > 0.0 and a.max() < np.inf
    regular = None if every else (a > 0.0) & (a < np.inf)
    digits, exponent, ambiguous = _digits(a if every else np.where(regular, a, 1.0))
    if not every:
        digits[~regular] = 0  # +-0.0 is "0.0000000000000000e+00" with its sign
        exponent[~regular] = 0

    buf = np.empty((x.size, _WIDTH), dtype=np.uint8) if buf is None else buf
    _bytes(buf, 17, 8)[...] = np.take(_TAILS, exponent - _E_LO).view(_void(8))
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=buf[:, 0])
    # One 64-bit division splits D into 9 + 8 digits; the rest is 32-bit.
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10**8
    high -= lead * 10**8
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    for start, half in ((3, high), (11, low)):
        upper = (half // 10**4).astype(np.intp)
        _bytes(buf, start, 4)[...] = np.take(_QUADS, upper).view(_void(4))
        _bytes(buf, start + 4, 4)[...] = np.take(_QUADS, half - upper * 10**4).view(_void(4))

    fallback = np.flatnonzero(ambiguous if every else ambiguous | ~np.isfinite(x))
    if fallback.size:
        # "% .16e" is "%.16e" with a space for the sign of a positive value,
        # which becomes the 0 byte that the fields above have there.
        texts = np.array(["% .16e," % v for v in x[fallback].tolist()], dtype=f"S{_WIDTH}").view(np.uint8)
        texts[texts == ord(" ")] = 0
        buf[fallback] = texts.reshape(-1, _WIDTH)
    return buf.view(_FIELD)[:, 0]


def _fixed_layout(fields: np.ndarray) -> tuple[int, int] | None:
    """``(start, width)`` of the text in every one of the finite-valued
    ``fields`` when they all share it, else None.  A finite field's text
    starts at byte 0 or 1 (sign) and ends at byte 23 or 24 (exponent
    width)."""
    b = fields.view(np.uint8).reshape(-1, _WIDTH)
    unsigned, wide = b[0, 0] == 0, b[0, 24] != 0
    if not (((b[:, 0] == 0) == unsigned).all() and ((b[:, 24] != 0) == wide).all()):
        return None
    return int(unsigned), 24 + int(wide) - int(unsigned)


def _passes(block: np.ndarray, axes: Sequence[np.ndarray], first_row: int) -> Iterator[memoryview]:
    """The text of write_rows, one pass at a time, each in a buffer that
    the next pass reuses."""
    rows, k = block.shape
    step = max(1, CHUNK_VALUES // k)
    strides = [math.prod(a.size for a in axes[i + 1:]) for i in range(len(axes))]
    tables = [_fields(a) if a.size <= step else None for a in axes]
    finite_axes = all(np.isfinite(a).all() for a in axes)
    cols = len(axes) + k
    # The pass buffers are allocated once per call and reused.
    most = min(step, rows)
    block_fields = np.empty((most * k, _WIDTH), dtype=np.uint8)
    row_fields = np.empty((most, cols), dtype=_FIELD) if axes else None
    staging = np.empty(most * cols, dtype=_void(16))
    text = np.empty(most * cols * _WIDTH, dtype=np.uint8)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        values = np.ascontiguousarray(block[start:stop], dtype=np.float64).ravel()
        fields = _fields(values, block_fields[: values.size]).reshape(stop - start, k)
        if axes:
            row_fields[: stop - start, len(axes):] = fields
            fields = row_fields[: stop - start]
        cells = np.arange(first_row + start, first_row + stop)
        for i, (axis, stride, table) in enumerate(zip(axes, strides, tables)):
            index = cells // stride
            if table is None:
                lo = index[0]
                table = _fields(axis[np.arange(lo, index[-1] + 1) % axis.size])
                index -= lo
            else:
                index %= axis.size
            fields[:, i] = table[index]
        layout = _fixed_layout(fields) if finite_axes and np.isfinite(values).all() else None
        if layout is not None:
            first, size = layout
            target = text[: fields.size * size].reshape(-1, size)
            _copy_run(target, fields.view(np.uint8).reshape(-1, _WIDTH), first, staging)
            target = target.reshape(fields.shape[0], -1)
            target[:, -1] = ord("\n")
            yield target.ravel().data
            continue
        b = fields.view(np.uint8).reshape(*fields.shape, _WIDTH)
        last = b[:, -1]
        # The row's last separator: after a two- or three-digit exponent,
        # or after "nan", "inf" or "-inf".
        ends = np.where(last[:, 24] != 0, 24, np.where(last[:, 23] != 0, 23, 4))
        last[np.arange(last.shape[0]), ends] = ord("\n")
        flat = b.ravel()
        yield flat[flat != 0].data


def write_rows(fh: BinaryIO, block: np.ndarray, axes: Sequence[np.ndarray] = (), first_row: int = 0) -> None:
    """Write ``",".join("%.16e" % v for v in row) + "\\n"`` for every row
    of a table to the binary file ``fh``.

    Without ``axes`` the rows are those of the 2-D float64 ``block``.
    With them, the table's leading columns are the coordinates of the
    row-major grid over the 1-D float64 ``axes`` (the last fastest): row j
    is the coordinates of grid cell ``first_row + j``, then row j of
    ``block``.  An axis no longer than a pass is rendered once; a longer
    one pass by pass, over the span of values the pass's rows touch.
    Either way its fields are gathered per row, never formatted per row.

    The rows are rendered and written in passes of CHUNK_VALUES block
    values, so memory beyond the block is bounded by a pass.  When every
    value of a pass keeps one layout (one sign, one exponent width), the
    texts are copied out at a fixed width; any other pass drops the 0
    bytes one by one.
    """
    for text in _passes(block, axes, first_row):
        fh.write(text)
