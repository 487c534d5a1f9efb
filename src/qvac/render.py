"""Exact ``%.16e`` rendering of float64 blocks as CSV rows.

``csv_rows(block)`` returns the bytes of
``",".join("%.16e" % v for v in row) + "\\n"`` for every row of a 2-D
float64 block, with the 17 significant digits of each value generated by
numpy array arithmetic instead of one Python ``%`` per value.  It is the
renderer of every CSV table the CLI writes.  A table whose leading
columns are the coordinates of a row-major grid takes them as the grid's
1-D axes (``csv_rows(block, axes, first_row)``): each axis value is
rendered once per pass and copied to the rows that repeat it, so no
grid-sized coordinate column is built or formatted.

The digits of a finite nonzero x come from y = |x| * 10^(16-E), scaled in
longdouble against a table of correctly rounded powers of ten, where E is
the decimal exponent that puts y in [10^16, 10^17): round(y) is the digit
string.  A longdouble with a 64-bit significand (x87 extended precision)
computes y to within AMBIGUITY_BAND of the exact product, so round(y) is
the correctly rounded digit string unless the fraction of y lies within
that band of 0.5.  Those values, where rounding cannot be decided from y
(exact decimal ties among them), and non-finite values take Python's
``%`` instead; that fallback keeps every byte equal to ``%``.  On a
platform whose longdouble has fewer than 63 fraction bits the band is
infinite, so every nonzero value takes ``%`` (Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019, for the exact approach
this approximates).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_LONG = np.finfo(np.longdouble)

#: Decimal exponents a nonzero finite double can have (5e-324 to 1.8e308),
#: widened by one on each side for the first, possibly wrong, estimate.
_E_LO, _E_HI = -325, 309

#: |y - |x|*10^k| <= |x|*10^k * (eps + eps**2/4): y = fl(|x| * fl(10^k)) is
#: rounded twice, by at most eps/2 relative each time.  With |x|*10^k below
#: 10^17 the error is below the band; it is no tuning knob.
AMBIGUITY_BAND = 1e17 * _LONG.eps * (1 + _LONG.eps) if _LONG.nmant >= 63 else np.inf


def _powers_of_ten(exponents: range) -> np.ndarray:
    """10^k for each k, rounded to the nearest longdouble (ties to even) by
    exact integer arithmetic: 10^k = q * 2^shift with q of exactly as many
    bits as the significand, converted in 32-bit limbs (each exact)."""
    bits = _LONG.nmant + 1
    significands, shifts = [], []
    for k in exponents:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = num.bit_length() - den.bit_length() - bits
        q, r = divmod(num << -shift, den) if shift < 0 else divmod(num, den << shift)
        if q.bit_length() > bits:
            shift += 1
            q, r = divmod(num << -shift, den) if shift < 0 else divmod(num, den << shift)
        divisor = den if shift < 0 else den << shift
        if 2 * r > divisor or (2 * r == divisor and q & 1):
            q += 1  # q = 2^bits is still exact
        significands.append(q)
        shifts.append(shift)
    value = np.zeros(len(significands), dtype=np.longdouble)
    for limb in range(bits // 32, -1, -1):
        words = np.array([(q >> (32 * limb)) & 0xFFFFFFFF for q in significands], dtype=np.uint64)
        value = value * 2**32 + words
    return np.ldexp(value, np.array(shifts))


#: _SCALE[E - _E_LO] is 10^(16 - E), correctly rounded.
_SCALE = _powers_of_ten(range(16 - _E_LO, 16 - _E_HI - 1, -1))


#: The four ASCII digits of 0..9999, and the exponent fields "+05",
#: "-324", ... (null-padded), each as one uint32 holding those bytes.
_DIGIT_CODES = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.meshgrid(*[_DIGIT_CODES] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(
    b"".join(f"{e:+03d}".encode().ljust(4, b"\0") for e in range(_E_LO, _E_HI + 1)), dtype=np.uint32
)

#: Block values rendered per pass: the temporaries of a pass take ~150
#: bytes per value, so memory is bounded by this, not by the block.
CHUNK_VALUES = 2**12

#: Bytes per value in the assembly buffer: sign, lead digit, ".", 16
#: digits, "e", 4 exponent bytes and the separator; unused bytes are 0
#: and are dropped at the end.
_WIDTH = 25

#: One value's _WIDTH bytes as a single element, so rows of fields are
#: gathered and placed a whole field at a time.
_FIELD = np.dtype((np.void, _WIDTH))


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digit strings D in [10^16, 10^17), decimal exponents E and the
    ambiguity flags for positive finite ``a``: a ~ D * 10^(E-16)."""
    exponent = np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * _SCALE[exponent - _E_LO]
    # log10 can be one off next to a power of ten: fix E from the range of y.
    off = (y >= 1e17).astype(np.int64) - (y < 1e16)
    fix = np.flatnonzero(off)
    if fix.size:
        exponent[fix] += off[fix]
        y[fix] = a[fix].astype(np.longdouble) * _SCALE[exponent[fix] - _E_LO]
    # With a 64-bit significand, y < 2^57 keeps at most 10 fraction bits,
    # so frac is exact in float64.
    whole = y.astype(np.uint64)
    frac = (y - whole).astype(np.float64)
    ambiguous = np.abs(frac - 0.5) <= AMBIGUITY_BAND
    digits = whole + (frac >= 0.5)
    carry = digits >= 10**17
    digits[carry] = 10**16
    exponent += carry
    return digits, exponent, ambiguous


def _fields(x: np.ndarray) -> np.ndarray:
    """One _FIELD per value of the 1-D ``x``: ``"%.16e" % v`` padded with
    0 bytes, the last byte left unset for the separator."""
    a = np.abs(x)
    regular = (a > 0.0) & (a < np.inf)
    digits, exponent, ambiguous = _digits(np.where(regular, a, 1.0))
    digits[~regular] = 0  # +-0.0 is "0.0000000000000000e+00" with its sign
    exponent[~regular] = 0

    buf = np.empty((x.size, _WIDTH), dtype=np.uint8)
    buf[:, 0] = np.signbit(x) * ord("-")
    lead, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    quads = np.empty((x.size, 4), dtype=np.uint32)
    np.divmod(high, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10**4, out=(quads[:, 2], quads[:, 3]))
    buf[:, 3:19] = _QUADS[quads].view(np.uint8).reshape(-1, 16)
    buf[:, 19] = ord("e")
    buf[:, 20:24] = _EXPONENTS[exponent - _E_LO].view(np.uint8).reshape(-1, 4)

    fallback = np.flatnonzero(~np.isfinite(x) | (regular & ambiguous))
    if fallback.size:
        texts = ["%.16e" % v for v in x[fallback].tolist()]
        buf[fallback, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    return buf.view(_FIELD)[:, 0]


def csv_rows(block: np.ndarray, axes: Sequence[np.ndarray] = (), first_row: int = 0) -> memoryview:
    """The bytes of ``",".join("%.16e" % v for v in row) + "\\n"`` for
    every row of a table, concatenated.

    Without ``axes`` the rows are those of the 2-D float64 ``block``.
    With them, the table's leading columns are the coordinates of the
    row-major grid over the 1-D float64 ``axes`` (the last fastest): row j
    is the coordinates of grid cell ``first_row + j``, then row j of
    ``block``.  An axis no longer than a pass is rendered once; a longer
    one pass by pass, over the span of values the pass's rows touch.
    Either way its fields are gathered per row, never formatted per row.

    The rows are rendered in passes of CHUNK_VALUES block values into one
    buffer, so memory beyond the result is bounded by the pass.
    """
    rows, k = block.shape
    step = max(1, CHUNK_VALUES // k)
    strides = [math.prod(a.size for a in axes[i + 1:]) for i in range(len(axes))]
    tables = [_fields(a) if a.size <= step else None for a in axes]
    cols = len(axes) + k
    out = np.empty(rows * cols * _WIDTH, dtype=np.uint8)
    end = 0
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        buf = np.empty((stop - start, cols), dtype=_FIELD)
        values = np.ascontiguousarray(block[start:stop], dtype=np.float64).ravel()
        buf[:, len(axes):] = _fields(values).reshape(stop - start, k)
        cells = np.arange(first_row + start, first_row + stop)
        for i, (axis, stride, table) in enumerate(zip(axes, strides, tables)):
            index = cells // stride
            if table is None:
                lo = index[0]
                table = _fields(axis[np.arange(lo, index[-1] + 1) % axis.size])
                index -= lo
            else:
                index %= axis.size
            buf[:, i] = table[index]
        flat = buf.view(np.uint8).ravel()
        flat[_WIDTH - 1 :: _WIDTH] = ord(",")
        flat[cols * _WIDTH - 1 :: cols * _WIDTH] = ord("\n")
        text = flat[flat != 0]
        out[end : end + text.size] = text
        end += text.size
    return out[:end].data
