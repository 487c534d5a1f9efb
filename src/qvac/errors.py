"""Exception types shared across the package, the two input guards that
raise DomainError, and the array guard of the validated value types.

Every error that qvac raises on purpose is a DomainError, and so a
ValueError: one ``except DomainError`` catches them all, and the CLI exits
2 on exactly these and OSError.  The specific types below subclass it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    The base of every error qvac raises on purpose; the CLI turns each
    into exit 2 with one ``error:`` line."""


def positive(name: str, value):
    """``value``, a float or an array, when every element is finite and
    > 0 (NaN is not, nor an int past the double range); otherwise
    DomainError naming ``name``."""
    ok = (value > 0.0) & (value <= sys.float_info.max)
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise DomainError(f"{name} must be finite and > 0")
    return value


def finite(name: str, formula: Callable[[], float]) -> float:
    """``formula()``, or DomainError naming ``name`` where it overflows,
    divides by zero or is not finite."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} leaves the double range at these inputs")
    return value


def _owned_readonly(values):
    """``values`` as a read-only float64 array that owns its data: itself
    when it already is one, else a copy, so that a value type checks, and
    keeps, an array no caller can write to."""
    import numpy as np  # each caller has loaded it; start-up has not

    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=np.float64)
        values.flags.writeable = False
    return values


class SingularDensity(DomainError):
    """The density vanishes (or nearly vanishes) at an evaluation point.

    The quantum potential diverges at density nodes; rather than returning
    huge finite numbers that would poison downstream integrals, the grid
    operators raise this error.  ``index`` identifies the offending grid
    point (a tuple of axis indices).
    """

    def __init__(self, index: tuple[int, ...]):
        self.index = tuple(int(i) for i in index)
        super().__init__(f"density is singular (below threshold) at grid point {self.index}")


class ImaginaryEnergy(DomainError):
    """A massive mode was requested beyond the wavelength where its energy
    formula turns imaginary.  ``lambda_crit`` is the critical wavelength
    2*pi*hbar/(m*c); only wavelengths strictly above it are valid.
    ``wavelength`` is the offending one.
    """

    def __init__(self, lambda_crit: float, wavelength: float):
        self.lambda_crit = float(lambda_crit)
        self.wavelength = float(wavelength)
        super().__init__(
            f"mode energy is imaginary: wavelength {self.wavelength:.9e} m <= "
            f"critical wavelength {self.lambda_crit:.9e} m"
        )


class WrongBranch(DomainError):
    """A massive-branch operation was called with zero mass; the photon
    operations handle that case."""


class InsufficientTail(DomainError):
    """A tabulated spectrum has not decayed enough at its largest wavenumber
    for the correlation transform to be trustworthy."""


class ConfigError(DomainError):
    """A sampler configuration violates one of its invariants; the message
    names the violated invariant."""
