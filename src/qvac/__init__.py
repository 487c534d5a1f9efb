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
"""

from .blackhole import (
    THRESHOLD_PLANCK_UNITS,
    BlackHoleReport,
    ThresholdMass,
    bh_vqu_geometric,
    bh_vqu_printed,
    binding_energy,
    black_hole_report,
    gravitational_energy,
    gravitational_radius,
    is_stable,
    stability_threshold,
)
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
from .correlation import (
    CorrelationFunction,
    ModeSpectrum,
    analytic_correlation,
    correlation_from_spectrum,
    correlation_length,
    e_folding_lag,
    gaussian_mode_spectrum,
    gaussian_spectrum,
)
from .errors import (
    ConfigError,
    DomainError,
    ImaginaryEnergy,
    InsufficientTail,
    SingularDensity,
    WrongBranch,
)
from .modestats import (
    SpectralPoint,
    mean_energy,
    mode_density,
    mode_energy_massive,
    mode_probability_nonrel,
    mode_probability_rel,
    n_particle_weight,
    photon_mean_energy,
    photon_spectrum,
    planck_spectral_density,
    spectral_density_massive,
    wien_peak,
)
from .qpotential import (
    GridDensity,
    ParsedDensity,
    TravelingMode,
    mean_qp_energy,
    mean_qp_energy_dalembert,
    read_density_csv,
    vqu_grid_dalembert,
    vqu_grid_nonrel,
    vqu_sinusoid,
    vqu_traveling,
)
from .sampler import (
    GaussianityReport,
    NoiseField,
    SamplerConfig,
    build_sample_report,
    empirical_correlation,
    gaussianity_check,
    load_config,
    mean_periodogram,
    report_json_bytes,
    sample_field,
    sample_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
