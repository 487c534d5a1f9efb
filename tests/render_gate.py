"""Byte equality of ``render.write_rows`` with ``"%.16e" %`` on large sets.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/render_gate.py

It renders, one value per row, 10^7 doubles from random 64-bit patterns
(every exponent, subnormals, NaNs and infinities), 10^6 normal deviates,
every power of ten with its two neighbours, and decimal ties: every exact
tie at E = -7 and -8 (where 10^(16-E) is not a double, so they take the
``%`` fallback) and random ties at every other E that has them.  Each set
is compared with ``"%.16e" % v`` in batches, each batch once as it is and
once split by sign and exponent width, so that both the zero-byte drop and
the fixed-width rows are checked; the script prints one line per set and
exits 1 on the first difference.
"""

from __future__ import annotations

import io
import math
import sys
import time

import numpy as np

from qvac import render

BATCH = 200_000


def percent(values: np.ndarray) -> bytes:
    return "".join("%.16e\n" % v for v in values.tolist()).encode()


def compare(name: str, batch: np.ndarray) -> None:
    fh = io.BytesIO()
    render.write_rows(fh, batch.reshape(-1, 1))
    got = fh.getvalue()
    if got != percent(batch):
        for v, g in zip(batch.tolist(), got.split(b"\n")):
            if g.decode() != "%.16e" % v:
                print(f"FAIL {name}: {v!r} renders {g.decode()!r}, % gives {'%.16e' % v!r}")
                sys.exit(1)


def check(name: str, values: np.ndarray) -> int:
    """Render ``values`` in batches and compare; the count of values.  Each
    batch is rendered as it is (mixed signs and exponent widths: zero bytes
    dropped) and split by sign and exponent width (fixed-width rows)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    start = time.perf_counter()
    for lo in range(0, values.size, BATCH):
        batch = values[lo : lo + BATCH]
        compare(name, batch)
        finite = batch[np.isfinite(batch)]
        wide = (np.abs(finite) >= 1e100) | ((finite != 0.0) & (np.abs(finite) < 1e-99))
        for sign in (False, True):
            for width in (False, True):
                compare(name, finite[(np.signbit(finite) == sign) & (wide == width)])
    print(f"ok   {name}: {values.size} values equal to %.16e ({time.perf_counter() - start:.1f} s)")
    return values.size


def ties(k: int, limit: int | None = None, seed: int = 0) -> list[float]:
    """Doubles x = m * 2^-(k+1), m odd, with x * 10^k in [10^16, 10^17):
    x * 10^k = m * 5^k / 2 lies halfway between two 17-digit strings.  All
    of them, or ``limit`` drawn at random."""
    lo = -(-2 * 10**16 // 5**k)
    hi = min(-(-2 * 10**17 // 5**k), 2**53)
    odd = range(lo | 1, hi, 2)
    if limit is not None and len(odd) > limit:
        rng = np.random.default_rng(seed + k)
        odd = [odd[i] for i in rng.integers(0, len(odd), limit).tolist()]
    return [math.ldexp(m, -(k + 1)) for m in odd]


def main() -> int:
    rng = np.random.default_rng(20260)
    total = 0
    for part in range(10):
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        total += check(f"random bit patterns {part + 1}/10", bits.view(np.float64))
    total += check("normal deviates", rng.standard_normal(10**6))
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    total += check("powers of ten and neighbours", np.concatenate([near, -near]))
    exact = ties(23) + ties(24)
    assert render._digits(np.array(exact))[2].all(), "ties at E = -7, -8 should take %"
    total += check(f"all {len(exact)} ties at E = -7 and -8", np.array(exact + [-x for x in exact]))
    sampled = [x for k in range(1, 23) for x in ties(k, limit=2000)]
    total += check("ties at E = -6 to 15", np.array(sampled + [-x for x in sampled]))
    print(f"render gate passed: {total} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
