"""Thermal vacuum-fluctuation statistics from the quantum potential.

The package covers six tightly linked pieces of machinery:

* ``constants``   -- CODATA constants, SI/natural unit conversion, and the
  dimensionless groups every formula is computed in;
* ``qpotential``  -- the quantum potential of density fields, analytic and
  finite-difference, including the relativistic wave-operator form;
* ``modestats``   -- thermal mode statistics: the massive-mode spectral
  density and the photon (black-body) branch;
* ``correlation`` -- the vacuum-noise correlation length, its Gaussian
  spectrum and the spectrum-to-correlation transform;
* ``sampler``     -- seeded, reproducible Gaussian random-field synthesis
  with estimator-based validation;
* ``blackhole``   -- quantum-potential black-hole energetics and the
  minimum stable mass.

Everything is a pure function of its inputs over immutable value types, so
concurrent evaluation needs no synchronization.

``import qvac`` loads only ``constants`` and ``errors``; any other name
loads the submodule that defines it the first time it is used.
"""

from .constants import (
    CONSTANTS,
    ELECTRON_MASS,
    PhysicalConstants,
    ThermalState,
    UnitMode,
    UnitSystem,
    compton_wavenumber,
    constants,
    dimensionless_groups,
)
from .errors import (
    ConfigError,
    DomainError,
    ImaginaryEnergy,
    InsufficientTail,
    SingularDensity,
    WrongBranch,
)

__version__ = "0.1.0"

#: The names loaded on first use, by the submodule that defines them; a
#: submodule's own name gives the submodule.
_LAZY = {
    "blackhole": (
        "THRESHOLD_PLANCK_UNITS",
        "BlackHoleReport",
        "ThresholdMass",
        "bh_vqu_geometric",
        "bh_vqu_printed",
        "binding_energy",
        "black_hole_report",
        "gravitational_energy",
        "gravitational_radius",
        "is_stable",
        "stability_threshold",
    ),
    "correlation": (
        "CorrelationFunction",
        "ModeSpectrum",
        "analytic_correlation",
        "correlation_from_spectrum",
        "correlation_length",
        "e_folding_lag",
        "gaussian_mode_spectrum",
        "gaussian_spectrum",
    ),
    "modestats": (
        "SpectralPoint",
        "mean_energy",
        "mode_density",
        "mode_energy_massive",
        "mode_probability_nonrel",
        "mode_probability_rel",
        "n_particle_weight",
        "photon_mean_energy",
        "photon_spectrum",
        "planck_spectral_density",
        "spectral_density_massive",
        "wien_peak",
    ),
    "numerics": (),
    "qpotential": (
        "GridDensity",
        "ParsedDensity",
        "TravelingMode",
        "mean_qp_energy",
        "mean_qp_energy_dalembert",
        "read_density_csv",
        "vqu_grid_dalembert",
        "vqu_grid_nonrel",
        "vqu_sinusoid",
        "vqu_traveling",
    ),
    "sampler": (
        "GaussianityReport",
        "NoiseField",
        "SamplerConfig",
        "build_sample_report",
        "empirical_correlation",
        "gaussianity_check",
        "load_config",
        "mean_periodogram",
        "report_json_bytes",
        "sample_field",
        "sample_report",
    ),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# ``errors`` is the submodule the eager import above bound; ``constants`` is the function.
__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_SUBMODULE))


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value here."""
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
