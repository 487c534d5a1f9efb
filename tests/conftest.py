"""Fixtures for the test suite; plain helpers live in ``helpers.py``."""

from __future__ import annotations

import pytest

from qvac import UnitSystem

from helpers import NATURAL


@pytest.fixture
def natural_units() -> UnitSystem:
    return NATURAL
