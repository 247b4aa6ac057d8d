"""Collective Rydberg excitation in blockaded atom clouds.

Three layers:

* :mod:`blockadesim.exact`: exact quantum dynamics of a few interacting
  two-level atoms (full or blockade-restricted basis).
* :mod:`blockadesim.cloud` / :mod:`blockadesim.superatom`: a Gaussian
  cloud tiled into superatoms, each Rabi-oscillating at its collectively
  enhanced frequency.
* :mod:`blockadesim.analysis`: saturation-law fits and density/drive
  scaling exponents, mirroring how the experiments reduce their data.
"""

__version__ = "0.1.0"

from .analysis import (
    ExponentEstimate,
    SaturationFit,
    ScalingResult,
    SweepPoint,
    fit_saturation,
    saturation_model,
    scaling_experiment,
)
from .cloud import (
    CloudSpec,
    SuperatomEnsemble,
    density_at,
    partition_superatoms,
    peak_density,
    sample_positions,
)
from .core import (
    PhysicalParams,
    TwoPhotonDrive,
    angular_from_hz,
    blockade_radius_collective,
    blockade_radius_simple,
    convert_c6_atomic_units,
    hz_from_angular,
    two_photon_rabi,
)
from .exact import (
    AtomPositions,
    Basis,
    Hamiltonian,
    HamiltonianSpec,
    QuantumState,
    build_hamiltonian,
    evolve,
    full_basis,
    ground_state,
    restricted_basis,
    rydberg_number,
    w_state_fidelity,
)
from .superatom import (
    ExcitationCurve,
    crossover_time,
    noninteracting_reference,
    simulate_cloud,
    superatom_population,
)
